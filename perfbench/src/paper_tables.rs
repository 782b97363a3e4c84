//! `paper_tables`: regenerate every paper table (E1–E10, A1–A6) through
//! `eval::ExperimentRunner` over the paper-scale benchmark (1,200 train /
//! 300 dev, `bench::paper_config()`). This is the job researchers run.
//! The workload seed is added to the runner's seed, so seed 0 gives the
//! committed tables' configuration and other seeds re-sample selection,
//! prompts and the model over the same benchmark. Nearly every statement it
//! executes repeats, selection takes the single-thread scan (pool below
//! the sharding threshold), and `simllm` and prompt building are a large
//! share of its time.
//!
//! An op is one `run_experiment` call. It fails when it panics, when a
//! table is malformed (ragged rows, a `%` cell outside 0–100), or when a
//! later pass (or the traced pass) yields different table bytes.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

use eval::{ExperimentRunner, Scale, Table};
use spider_gen::Benchmark;

use crate::report::{fmt_secs, median_secs, Digest, Ops};
use crate::{repeated_setup, Outcome, RunArgs};

/// Set-ups per timed run.
const SETUP_REPS: usize = 15;

/// Every experiment id, in report order.
fn ids() -> impl Iterator<Item = &'static str> {
    ExperimentRunner::ALL_IDS
        .into_iter()
        .chain(ExperimentRunner::ABLATION_IDS)
}

/// A full-scale runner whose seed (that of selection, sampling and the
/// model) is the paper's for workload seed 0.
fn runner(bench: &Benchmark, seed: u64) -> ExperimentRunner<'_> {
    let seed = bench::paper_config().seed.wrapping_add(seed);
    ExperimentRunner::new(bench, Scale::full(), seed)
}

/// Whether a table is well formed: at least one row, every row as wide as
/// the header, and every cell under a `%` header a number in 0–100.
fn well_formed(t: &Table) -> bool {
    let pct_cols: Vec<usize> = (0..t.headers.len())
        .filter(|&i| t.headers[i].contains('%'))
        .collect();
    !t.rows.is_empty()
        && t.rows.iter().all(|row| {
            row.len() == t.headers.len()
                && pct_cols.iter().all(|&i| {
                    row[i]
                        .split_whitespace()
                        .next()
                        .and_then(|v| v.parse::<f64>().ok())
                        .is_some_and(|v| (0.0..=100.0).contains(&v))
                })
        })
}

/// One experiment's result in one pass.
struct Experiment {
    id: &'static str,
    wall: Duration,
    /// Digest of every table's id and TSV text; `None` when the call
    /// panicked or a table was malformed.
    digest: Option<Digest>,
}

/// Run one experiment, timing it and checking its tables.
fn experiment(runner: &ExperimentRunner<'_>, id: &'static str) -> Experiment {
    let started = Instant::now();
    let tables = catch_unwind(AssertUnwindSafe(|| runner.run_experiment(id)));
    let wall = started.elapsed();
    let digest = tables
        .ok()
        .filter(|ts| !ts.is_empty() && ts.iter().all(well_formed))
        .map(|ts| {
            let mut d = Digest::default();
            for t in &ts {
                d.field(&t.id).field(t.to_tsv());
            }
            d
        });
    Experiment { id, wall, digest }
}

/// Run every experiment once.
fn pass(runner: &ExperimentRunner<'_>) -> Vec<Experiment> {
    ids().map(|id| experiment(runner, id)).collect()
}

fn pass_wall(p: &[Experiment]) -> Duration {
    p.iter().map(|e| e.wall).sum()
}

/// Record each experiment of `p` as an op: it must have produced
/// well-formed tables, identical to `reference` when given.
fn check(p: &[Experiment], reference: Option<&[Experiment]>, ops: &mut Ops) {
    for (i, e) in p.iter().enumerate() {
        let same = reference.is_none_or(|r| r[i].digest.is_some() && r[i].digest == e.digest);
        ops.record(e.digest.is_some() && same);
    }
}

/// Digest of a whole pass (every experiment's tables, in order).
fn pass_digest(p: &[Experiment]) -> String {
    let mut d = Digest::default();
    for e in p {
        d.field(e.id)
            .field(e.digest.map_or("failed".to_string(), |x| x.hex()));
    }
    d.hex()
}

pub fn timed(args: &RunArgs) -> Outcome {
    let (setups, bench) = repeated_setup(SETUP_REPS, || {
        let bench = bench::paper_benchmark();
        drop(runner(&bench, args.seed));
        bench
    });
    // The kept set-up's runner is rebuilt here; its build time is already
    // in the last set-up sample.
    let runner = runner(&bench, args.seed);

    let mut out = Outcome::default();
    let started = Instant::now();
    let first = pass(&runner);
    check(&first, None, &mut out.ops);
    let mut walls = vec![pass_wall(&first)];
    while started.elapsed() + walls[walls.len() - 1] <= args.seconds {
        let again = pass(&runner);
        check(&again, Some(&first), &mut out.ops);
        walls.push(pass_wall(&again));
    }

    let tables_s = median_secs(&walls);
    out.metrics.set("setup_s", median_secs(&setups), "s");
    out.lines
        .push(format!("setup reps (s): {}", fmt_secs(&setups)));
    out.metrics
        .set("ops_per_s", first.len() as f64 / tables_s, "1/s");
    out.lines.push(format!(
        "tables_s: {tables_s:.3} s (median of {} pass(es), {} experiments each)",
        walls.len(),
        first.len()
    ));
    out.lines.push(format!(
        "experiment_s: {}",
        first
            .iter()
            .map(|e| format!("{} {:.3}", e.id, e.wall.as_secs_f64()))
            .collect::<Vec<_>>()
            .join(" ")
    ));
    out.lines
        .push(format!("digest tables: {}", pass_digest(&first)));
    out
}

pub fn traced(args: &RunArgs) -> Outcome {
    let mut out = Outcome::default();
    let started = Instant::now();
    let bench = bench::paper_benchmark();
    out.metrics.set(
        "spider_gen.generate_s",
        started.elapsed().as_secs_f64(),
        "s",
    );
    // The traced side gets its own copy of the benchmark and its own
    // runner, so neither side warms a database or a cache for the other.
    let twin = bench.clone();
    let untraced_runner = runner(&bench, args.seed);
    let started = Instant::now();
    let traced_runner = runner(&twin, args.seed);
    out.metrics
        .set("eval.runner_new_s", started.elapsed().as_secs_f64(), "s");

    // Alternate the two sides experiment by experiment, so a change in
    // host speed during the run falls on both alike.
    let (untraced, traced): (Vec<Experiment>, Vec<Experiment>) = ids()
        .map(|id| {
            (
                experiment(&untraced_runner, id),
                experiment(&traced_runner, id),
            )
        })
        .unzip();
    check(&untraced, None, &mut out.ops);
    check(&traced, Some(&untraced), &mut out.ops);

    for e in &traced {
        out.metrics.set(
            &format!("eval.run_experiment.{}_s", e.id),
            e.wall.as_secs_f64(),
            "s",
        );
    }
    out.metrics.set(
        "trace_overhead_share",
        pass_wall(&traced).as_secs_f64() / pass_wall(&untraced).as_secs_f64() - 1.0,
        "ratio",
    );
    out.lines.push(format!(
        "digest tables: untraced {} traced {}",
        pass_digest(&untraced),
        pass_digest(&traced)
    ));
    out.lines.push(
        "per-layer scope: only ExperimentRunner::new and run_experiment are timed; \
         the harness's inner layers report zero calls here"
            .to_string(),
    );
    out
}
