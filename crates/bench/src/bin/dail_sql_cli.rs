//! `dail_sql_cli` — command-line front door to the library.
//!
//! ```text
//! dail_sql_cli models                             list the simulated model zoo
//! dail_sql_cli generate --out DIR [--seed N]      export a benchmark to files
//! dail_sql_cli ask --question "..." [--model M]   one-off Text-to-SQL on a demo db
//! dail_sql_cli eval [--pipeline P] [--model M]    evaluate a pipeline, print summary
//! dail_sql_cli serve-bench [--seed N] [--requests N] [--workers N]
//!                                                 load-test the serving layer, print report
//! dail_sql_cli slo-report [serve-bench flags] [--slo-latency-ms N] [--burn-alert B]
//!                                                 serve the same load, print an SLO /
//!                                                 burn-rate report
//! dail_sql_cli metrics TRACE.jsonl                render a trace's counters, gauges and
//!                                                 histograms as Prometheus text exposition
//! dail_sql_cli dashboard TRACE.jsonl [--window N] [--tenant T] [--json FILE]
//!                                                 render the trace's windowed time-series
//!                                                 as a markdown dashboard
//! dail_sql_cli select-bench --pool N --queries M --seed S
//!                                                 benchmark example-selection retrieval,
//!                                                 print a deterministic markdown report
//! dail_sql_cli run-experiments --experiment ID    run a paper experiment
//! dail_sql_cli profile TRACE.jsonl                render a trace as a breakdown
//! dail_sql_cli profile A.jsonl B.jsonl [--fail-on-regress PCT]
//!                                                 cross-run profile diff / CI gate
//! dail_sql_cli flame TRACE.jsonl [-o OUT.svg]     render a trace as a flamegraph
//! ```
//!
//! `eval` and `run-experiments` accept `--trace FILE.jsonl` to record a
//! full pipeline trace, replayable with the `profile` and `flame`
//! subcommands.
//!
//! Exit codes: 0 success, 1 perf regression beyond the `--fail-on-regress`
//! threshold, 2 usage / unreadable input.

use dail_core::{C3Style, DailSql, DinSqlStyle, Predictor, ZeroShot};
use eval::{evaluate_opts, EvalOptions, ExperimentRunner, Scale};
use promptkit::{render_prompt, ExampleSelector, QuestionRepr, ReprOptions};
use simllm::{extract_sql, GenOptions, SimLlm};
use spider_gen::{export_benchmark, Benchmark, BenchmarkConfig};
use std::collections::HashMap;
use std::path::PathBuf;

fn main() {
    let mut args = std::env::args().skip(1);
    let Some(cmd) = args.next() else {
        usage();
        std::process::exit(2);
    };
    // `profile`/`flame` take positional paths; everything else is --flag
    // based. `-o` is accepted as shorthand for `--out`.
    let rest: Vec<String> = args
        .map(|a| if a == "-o" { "--out".to_string() } else { a })
        .collect();
    let positional: Vec<&String> = rest.iter().take_while(|a| !a.starts_with("--")).collect();
    let flags = parse_flags(rest.iter().cloned());
    match cmd.as_str() {
        "models" => models(),
        "generate" => generate(&flags),
        "ask" => ask(&flags),
        "eval" => run_eval(&flags),
        "explain" => explain_cmd(&positional, &flags),
        "stats" => stats_cmd(&positional, &flags),
        "persist" => persist_cmd(&flags),
        "recover" => recover_cmd(&positional, &flags),
        "warm-start-bench" => warm_start_bench(&flags),
        "serve-bench" => serve_bench(&flags),
        "slo-report" => slo_report(&flags),
        "select-bench" => select_bench(&flags),
        "run-experiments" => run_experiments(&flags),
        "profile" => profile_trace(&positional, &flags),
        "flame" => flame_trace(&positional, &flags),
        "metrics" => metrics_trace(&positional),
        "dashboard" => dashboard_cmd(&positional, &flags),
        "--help" | "-h" | "help" => usage(),
        other => {
            eprintln!("unknown command: {other}\n");
            usage();
            std::process::exit(2);
        }
    }
}

fn usage() {
    eprintln!(
        "dail_sql_cli — DAIL-SQL reproduction CLI\n\n\
         commands:\n\
         \u{20}\u{20}models                                   list simulated models\n\
         \u{20}\u{20}generate --out DIR [--seed N] [--train N] [--dev N]\n\
         \u{20}\u{20}                                         export a benchmark (SQL dumps + JSONL)\n\
         \u{20}\u{20}ask --question \"...\" [--model M] [--db DB_ID] [--seed N]\n\
         \u{20}\u{20}                                         one-off Text-to-SQL against a generated db\n\
         \u{20}\u{20}eval [--pipeline dail|dail-sc|din|c3|zero] [--model M] [--dev N] [--realistic]\n\
         \u{20}\u{20}     [--threads N] [--trace FILE.jsonl] [--digests N] [--canonical] [--store DIR]\n\
         \u{20}\u{20}                                         evaluate a pipeline and print the summary;\n\
         \u{20}\u{20}                                         --digests appends a query-digest rollup\n\
         \u{20}\u{20}explain DB_ID \"SQL\" [--analyze] [--canonical] [--seed N]\n\
         \u{20}\u{20}                                         print the operator plan tree for a query\n\
         \u{20}\u{20}                                         (--analyze executes it and adds actual\n\
         \u{20}\u{20}                                         rows / invocations / self-times;\n\
         \u{20}\u{20}                                         --canonical zeroes times for diffing)\n\
         \u{20}\u{20}stats DB_ID [--out FILE] [--roundtrip] [--seed N]\n\
         \u{20}\u{20}                                         per-table / per-column statistics as\n\
         \u{20}\u{20}                                         JSONL; --roundtrip re-parses the output\n\
         \u{20}\u{20}                                         and exits 1 unless byte-identical\n\
         \u{20}\u{20}persist --out DIR [--resume] [--seed N] [--train N] [--dev N]\n\
         \u{20}\u{20}                                         materialize every benchmark database to\n\
         \u{20}\u{20}                                         WAL-backed page stores plus the example\n\
         \u{20}\u{20}                                         pool snapshot; --resume skips stores\n\
         \u{20}\u{20}                                         already marked complete (crash recovery:\n\
         \u{20}\u{20}                                         DAIL_CRASH_POINT=\"site@n\" aborts\n\
         \u{20}\u{20}                                         mid-commit for the kill-and-recover gate)\n\
         \u{20}\u{20}recover DIR [--verify]                   replay WALs and report per-store state;\n\
         \u{20}\u{20}                                         --verify fully loads complete stores and\n\
         \u{20}\u{20}                                         checksums the pool snapshot's data blocks\n\
         \u{20}\u{20}warm-start-bench --store DIR [--json FILE] [--seed N] [--train N]\n\
         \u{20}\u{20}                                         time cold selector build vs warm snapshot\n\
         \u{20}\u{20}                                         load (must be bit-identical); --json\n\
         \u{20}\u{20}                                         writes {{cold_ms,warm_ms,speedup}}\n\
         \u{20}\u{20}serve-bench [--pipeline P] [--model M] [--seed N] [--requests N] [--workers N]\n\
         \u{20}\u{20}     [--error-rate R] [--spike-rate R] [--spike-ms N] [--corrupt-rate R]\n\
         \u{20}\u{20}     [--queue N] [--cache N] [--retries N] [--deadline-ms N] [--trace FILE.jsonl]\n\
         \u{20}\u{20}     [--json FILE] [--digests N] [--canonical] [--store DIR]\n\
         \u{20}\u{20}                                         drive the fault-injected serving layer\n\
         \u{20}\u{20}                                         with a seeded load, print a markdown\n\
         \u{20}\u{20}                                         report (deterministic given --seed);\n\
         \u{20}\u{20}                                         DAIL_TRACE_SAMPLE=R head-samples\n\
         \u{20}\u{20}                                         request traces at rate R\n\
         \u{20}\u{20}slo-report [serve-bench flags] [--slo-latency-ms N] [--slo-latency-objective R]\n\
         \u{20}\u{20}     [--slo-ex-objective R] [--slo-short-ms N] [--slo-long-ms N] [--burn-alert B]\n\
         \u{20}\u{20}     [--json FILE]\n\
         \u{20}\u{20}                                         serve the same seeded load and print a\n\
         \u{20}\u{20}                                         deterministic SLO / burn-rate report\n\
         \u{20}\u{20}metrics TRACE.jsonl                      render a recorded trace's metrics as\n\
         \u{20}\u{20}                                         Prometheus text exposition\n\
         \u{20}\u{20}dashboard TRACE.jsonl [--window N] [--tenant T] [--json FILE]\n\
         \u{20}\u{20}                                         render the trace's windowed time-series\n\
         \u{20}\u{20}                                         (rates, p50/p99, sparklines, exemplars)\n\
         \u{20}\u{20}                                         as a deterministic markdown dashboard;\n\
         \u{20}\u{20}                                         --window sets the trailing stats window\n\
         \u{20}\u{20}                                         (default 8), --tenant filters series\n\
         \u{20}\u{20}select-bench [--pool N] [--queries M] [--seed S] [--k K] [--json FILE]\n\
         \u{20}\u{20}     [--no-timing]                       score a synthetic pool with the\n\
         \u{20}\u{20}                                         retrievekit fast path vs the naive\n\
         \u{20}\u{20}                                         reference; print a markdown report\n\
         \u{20}\u{20}                                         (byte-identical across DAIL_THREADS\n\
         \u{20}\u{20}                                         with --no-timing)\n\
         \u{20}\u{20}select-bench --pool-rows N[,N...] [--queries M] [--seed S] [--k K]\n\
         \u{20}\u{20}     [--json FILE] [--no-timing]         ANN sweep instead: per pool size,\n\
         \u{20}\u{20}                                         exact scan vs ivf retrieval with\n\
         \u{20}\u{20}                                         recall@k, training cost, and\n\
         \u{20}\u{20}                                         throughput per point\n\
         \u{20}\u{20}run-experiments --experiment e1..e10|a1..a6 [--dev-cap N] [--seed N]\n\
         \u{20}\u{20}     [--full-grid] [--trace FILE.jsonl]   run one paper experiment, print its tables\n\
         \u{20}\u{20}profile TRACE.jsonl                      render a recorded trace as a\n\
         \u{20}\u{20}                                         per-stage time/metric breakdown\n\
         \u{20}\u{20}profile BASE.jsonl NEW.jsonl [--fail-on-regress PCT]\n\
         \u{20}\u{20}                                         diff two traces (self-times, counters,\n\
         \u{20}\u{20}                                         histograms); exit 1 if any stage's\n\
         \u{20}\u{20}                                         self-time regressed beyond PCT percent\n\
         \u{20}\u{20}flame TRACE.jsonl [-o OUT.svg] [--folded]\n\
         \u{20}\u{20}                                         render a trace as flamegraph SVG\n\
         \u{20}\u{20}                                         (or folded stacks with --folded)"
    );
}

fn parse_flags(args: impl Iterator<Item = String>) -> HashMap<String, String> {
    let mut out = HashMap::new();
    let mut args = args.peekable();
    while let Some(a) = args.next() {
        if let Some(key) = a.strip_prefix("--") {
            let val = match args.peek() {
                Some(v) if !v.starts_with("--") => args.next().unwrap(),
                _ => "true".to_string(),
            };
            out.insert(key.to_string(), val);
        }
    }
    out
}

fn flag<'a>(flags: &'a HashMap<String, String>, key: &str, default: &'a str) -> &'a str {
    flags.get(key).map(String::as_str).unwrap_or(default)
}

/// Parse a numeric flag, exiting with status 2 (not a panic) on bad input.
fn num_flag<T: std::str::FromStr>(flags: &HashMap<String, String>, key: &str, default: T) -> T {
    match flags.get(key) {
        None => default,
        Some(raw) => raw.parse().unwrap_or_else(|_| {
            eprintln!("--{key} must be a number, got {raw:?}");
            std::process::exit(2);
        }),
    }
}

/// Parse a probability flag (a float in `[0, 1]`), exiting with status 2
/// on bad input.
fn rate_flag(flags: &HashMap<String, String>, key: &str, default: f64) -> f64 {
    match flags.get(key) {
        None => default,
        Some(raw) => match raw.parse::<f64>() {
            Ok(v) if (0.0..=1.0).contains(&v) => v,
            _ => {
                eprintln!("--{key} must be a number in [0, 1], got {raw:?}");
                std::process::exit(2);
            }
        },
    }
}

/// The command's trace recorder: enabled when `--trace FILE` was given
/// (returned with the output path), else disabled. Callers enter it for
/// the rest of the command, so every layer records into it.
///
/// A tracing recorder also owns an [`obskit::tsdb`] store (windowed
/// labelled series; drained into the trace by [`finish_trace`]) unless
/// `DAIL_TSDB=0`. `DAIL_TSDB_MAX_SERIES` overrides the hard cardinality
/// bound.
fn setup_trace(flags: &HashMap<String, String>) -> (obskit::Recorder, Option<PathBuf>) {
    let Some(path) = flags.get("trace") else {
        return (obskit::Recorder::disabled(), None);
    };
    if std::env::var("DAIL_TSDB").as_deref() == Ok("0") {
        return (obskit::Recorder::enabled(), Some(PathBuf::from(path)));
    }
    let defaults = obskit::tsdb::TsdbConfig::default();
    let max_series = std::env::var("DAIL_TSDB_MAX_SERIES")
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
        .unwrap_or(defaults.max_series)
        .max(1);
    let tsdb = obskit::tsdb::Tsdb::new(obskit::tsdb::TsdbConfig {
        max_series,
        ..defaults
    });
    (obskit::Recorder::with_tsdb(tsdb), Some(PathBuf::from(path)))
}

/// Write the trace out (if tracing was requested) and tell the user.
fn finish_trace(rec: &obskit::Recorder, path: Option<PathBuf>) {
    let Some(path) = path else { return };
    rec.tsdb(|t| t.drain_into(rec));
    match rec.write_jsonl(&path) {
        Ok(()) => eprintln!(
            "trace written to {} ({} events); replay with `dail_sql_cli profile {}`",
            path.display(),
            rec.drain_trace().len(),
            path.display()
        ),
        Err(e) => {
            eprintln!("failed to write trace {}: {e}", path.display());
            std::process::exit(1);
        }
    }
}

fn models() {
    println!(
        "{:<18} {:>5} {:>6} {:>5} {:>8} {:>10} {:>6}",
        "model", "tier", "align", "icl", "context", "$/1k in", "open"
    );
    for p in simllm::ZOO {
        println!(
            "{:<18} {:>5.2} {:>6.2} {:>5.2} {:>8} {:>10.4} {:>6}",
            p.name,
            p.tier,
            p.alignment,
            p.icl_weight,
            p.context_window,
            p.price_per_1k_prompt,
            p.open_source
        );
    }
}

/// `--digests [N]`: `None` when absent, `Some(top_n)` when present
/// (bare `--digests` defaults to the top 10).
fn digests_top_n(flags: &HashMap<String, String>) -> Option<usize> {
    match flags.get("digests") {
        None => None,
        Some(v) if v == "true" => Some(10),
        Some(v) => match v.parse() {
            Ok(n) => Some(n),
            Err(_) => {
                eprintln!("--digests must be a number, got {v:?}");
                std::process::exit(2);
            }
        },
    }
}

/// Look up a database by id, exiting with status 2 (and the available ids)
/// when unknown. Shared by `explain` and `stats`.
fn db_by_id<'a>(bench: &'a Benchmark, db_id: &str) -> &'a storage::Database {
    match bench.databases.get(db_id) {
        Some(db) => db,
        None => {
            eprintln!(
                "unknown db {db_id}; available: {}",
                bench
                    .databases
                    .keys()
                    .cloned()
                    .collect::<Vec<_>>()
                    .join(", ")
            );
            std::process::exit(2);
        }
    }
}

/// `explain`: print the operator plan tree for one query, optionally
/// executing it (`--analyze`) to fill in actual rows / invocations /
/// self-times. `--canonical` zeroes the time fields so output is
/// byte-stable for goldens and cross-thread-count diffing.
fn explain_cmd(positional: &[&String], flags: &HashMap<String, String>) {
    let [db_id, sql] = positional else {
        eprintln!("explain requires: dail_sql_cli explain DB_ID \"SQL\" [--analyze] [--canonical]");
        std::process::exit(2);
    };
    let bench = bench_from_flags(flags);
    let db = db_by_id(&bench, db_id);
    let q = match sqlkit::parse_query(sql) {
        Ok(q) => q,
        Err(e) => {
            eprintln!("parse error: {e}");
            std::process::exit(2);
        }
    };
    let stats = storage::collect(db);
    let canonical = flags.contains_key("canonical");
    if flags.contains_key("analyze") {
        match storage::execute_query_analyzed(db, &q, storage::ExecOptions::default(), Some(&stats))
        {
            Ok(an) => print!("{}", an.plan.render(true, canonical)),
            Err(e) => {
                eprintln!("execution error: {e}");
                std::process::exit(1);
            }
        }
    } else {
        let plan = storage::explain_query(db, &q, storage::ExecOptions::default(), Some(&stats));
        print!("{}", plan.render(false, canonical));
    }
}

/// `stats`: collect per-table / per-column statistics for one database and
/// emit them as JSONL. `--roundtrip` re-parses the emitted text and exits 1
/// unless re-serialization is byte-identical (the format's invariant).
fn stats_cmd(positional: &[&String], flags: &HashMap<String, String>) {
    let [db_id] = positional else {
        eprintln!("stats requires: dail_sql_cli stats DB_ID [--out FILE] [--roundtrip]");
        std::process::exit(2);
    };
    let bench = bench_from_flags(flags);
    let db = db_by_id(&bench, db_id);
    let stats = storage::collect(db);
    let jsonl = stats.to_jsonl();
    if flags.contains_key("roundtrip") {
        match storage::DbStats::from_jsonl(&jsonl) {
            Ok(back) if back.to_jsonl() == jsonl => {
                eprintln!(
                    "round-trip OK: {} tables, {} bytes",
                    stats.tables.len(),
                    jsonl.len()
                );
            }
            Ok(_) => {
                eprintln!("FATAL: stats JSONL round-trip is not byte-identical");
                std::process::exit(1);
            }
            Err(e) => {
                eprintln!("FATAL: emitted stats JSONL does not parse back: {e}");
                std::process::exit(1);
            }
        }
    }
    match flags.get("out") {
        Some(path) => {
            if let Err(e) = std::fs::write(path, &jsonl) {
                eprintln!("cannot write {path}: {e}");
                std::process::exit(2);
            }
            eprintln!("stats written to {path} ({} tables)", stats.tables.len());
        }
        None => print!("{jsonl}"),
    }
}

fn bench_from_flags(flags: &HashMap<String, String>) -> Benchmark {
    let cfg = BenchmarkConfig {
        seed: num_flag(flags, "seed", 2023u64),
        train_size: num_flag(flags, "train", 400usize),
        dev_size: num_flag(flags, "dev", 100usize),
        dev_domains: 6,
        synthetic_domains: 0,
    };
    let mut bench = Benchmark::generate(cfg);
    if let Some(dir) = flags.get("store") {
        apply_store(&mut bench, std::path::Path::new(dir));
    }
    bench
}

/// `--store DIR`: replace every generated database with the one persisted
/// in `DIR` (written by `persist`). Loads are validated against the WAL /
/// checksum machinery, so a benchmark served this way runs on exactly the
/// bytes that survived a restart. Missing or unreadable stores exit 2.
fn apply_store(bench: &mut Benchmark, dir: &std::path::Path) {
    if !dir.is_dir() {
        eprintln!("--store {}: not a directory", dir.display());
        std::process::exit(2);
    }
    let ids: Vec<String> = bench.databases.keys().cloned().collect();
    for id in ids {
        let path = dir.join(format!("{id}.pg"));
        match storage::load_database(&path) {
            Ok((db, _)) => {
                bench.databases.insert(id, db);
            }
            Err(e) => {
                eprintln!("cannot load store {}: {e}", path.display());
                std::process::exit(2);
            }
        }
    }
}

/// Path of the example-pool snapshot inside a store directory.
fn pool_snapshot_path(dir: &std::path::Path) -> PathBuf {
    dir.join("pool.emb")
}

/// `persist`: materialize every benchmark database into a WAL-backed page
/// store under `--out DIR` (one `<db_id>.pg` file each), then write the
/// example-pool embedding snapshot. `--resume` skips stores already marked
/// complete, which is how a run interrupted mid-commit (by a crash, or by
/// the `DAIL_CRASH_POINT` injector) finishes the job after `recover`.
fn persist_cmd(flags: &HashMap<String, String>) {
    let Some(out) = flags.get("out") else {
        eprintln!("persist requires --out DIR");
        std::process::exit(2);
    };
    let dir = PathBuf::from(out);
    if let Err(e) = std::fs::create_dir_all(&dir) {
        eprintln!("cannot create {}: {e}", dir.display());
        std::process::exit(2);
    }
    let resume = flags.contains_key("resume");
    let bench = bench_from_flags(flags);
    let (mut written, mut skipped) = (0usize, 0usize);
    for (id, db) in &bench.databases {
        let path = dir.join(format!("{id}.pg"));
        if resume && matches!(storage::recover_store(&path), Ok(info) if info.complete) {
            skipped += 1;
            continue;
        }
        if let Err(e) = storage::persist_database(db, &path) {
            eprintln!("persist {}: {e}", path.display());
            std::process::exit(1);
        }
        written += 1;
    }
    let selector = ExampleSelector::new(&bench);
    if let Err(e) = selector.save_snapshot(&pool_snapshot_path(&dir)) {
        eprintln!("persist pool snapshot: {e}");
        std::process::exit(1);
    }
    println!(
        "persisted {written} databases ({skipped} already complete) and a {}-example \
         pool snapshot to {}",
        bench.train.len(),
        dir.display()
    );
}

/// `recover`: open every page store in `DIR`, replaying committed WAL
/// tails and discarding torn ones, and report the per-store verdict.
/// `--verify` additionally loads every complete store row by row and
/// checksums the pool snapshot's f32 data blocks. Exit codes: 2 when `DIR`
/// is missing, 1 when any store is corrupt, 0 otherwise (incomplete
/// stores are reported, not fatal — `persist --resume` finishes them).
fn recover_cmd(positional: &[&String], flags: &HashMap<String, String>) {
    let [dir] = positional else {
        eprintln!("recover requires a store directory: dail_sql_cli recover DIR [--verify]");
        std::process::exit(2);
    };
    let dir = PathBuf::from(dir);
    if !dir.is_dir() {
        eprintln!("cannot recover {}: not a directory", dir.display());
        std::process::exit(2);
    }
    let verify = flags.contains_key("verify");
    let mut stores: Vec<PathBuf> = match std::fs::read_dir(&dir) {
        Ok(rd) => rd
            .filter_map(|e| e.ok().map(|e| e.path()))
            .filter(|p| p.extension().is_some_and(|e| e == "pg"))
            .collect(),
        Err(e) => {
            eprintln!("cannot read {}: {e}", dir.display());
            std::process::exit(2);
        }
    };
    stores.sort();
    let mut corrupt = 0usize;
    let mut incomplete = 0usize;
    for path in &stores {
        match storage::recover_store(path) {
            Ok(info) => {
                let rows: u64 = info.tables.iter().map(|(_, n)| n).sum();
                println!(
                    "{}: {} seq={} pages={} tables={} rows={} replayed={}{}",
                    info.db_id,
                    if info.complete {
                        "complete"
                    } else {
                        "INCOMPLETE"
                    },
                    info.commit_seq,
                    info.n_pages,
                    info.tables.len(),
                    rows,
                    info.replayed_commits,
                    if info.discarded_tail {
                        " discarded-torn-tail"
                    } else {
                        ""
                    }
                );
                if !info.complete {
                    incomplete += 1;
                } else if verify {
                    if let Err(e) = storage::load_database(path) {
                        println!("{}: VERIFY FAILED: {e}", info.db_id);
                        corrupt += 1;
                    }
                }
            }
            Err(e @ storage::StoreError::Incomplete(_)) => {
                println!("{}: INCOMPLETE: {e}", path.display());
                incomplete += 1;
            }
            Err(e) => {
                println!("{}: CORRUPT: {e}", path.display());
                corrupt += 1;
            }
        }
    }
    let snap = pool_snapshot_path(&dir);
    if snap.is_file() {
        match retrievekit::load_snapshot(&snap, verify) {
            Ok(s) => println!(
                "pool.emb: ok matrices={} rows={}{}",
                s.matrices.len(),
                s.matrices.first().map(|m| m.len()).unwrap_or(0),
                if verify { " data-checksum=ok" } else { "" }
            ),
            Err(e) => {
                println!("pool.emb: CORRUPT: {e}");
                corrupt += 1;
            }
        }
    }
    println!(
        "recover: {} stores, {incomplete} incomplete, {corrupt} corrupt",
        stores.len()
    );
    if corrupt > 0 {
        std::process::exit(1);
    }
}

/// `warm-start-bench`: prove the snapshot warm path reproduces the cold
/// selector bit for bit, then time both. The cold path embeds and masks
/// every training question and walks every gold AST; the warm path reads
/// one file. `--json FILE` records `{cold_ms, warm_ms, speedup}` for the
/// CI floor in `scripts/check.sh`.
fn warm_start_bench(flags: &HashMap<String, String>) {
    let Some(store) = flags.get("store") else {
        eprintln!("warm-start-bench requires --store DIR");
        std::process::exit(2);
    };
    let dir = PathBuf::from(store);
    if let Err(e) = std::fs::create_dir_all(&dir) {
        eprintln!("cannot create {}: {e}", dir.display());
        std::process::exit(2);
    }
    let snap = pool_snapshot_path(&dir);
    // The benchmark itself is generated outside both timed regions: it is
    // shared input, not part of either path's cost. The default pool is
    // larger than eval's (2000 vs 400 examples): the warm path's cost is
    // mostly fixed (one file read), so a serving-sized pool is where the
    // cold/warm gap is representative.
    let cfg = BenchmarkConfig {
        seed: num_flag(flags, "seed", 2023u64),
        train_size: num_flag(flags, "train", 2000usize),
        dev_size: num_flag(flags, "dev", 100usize),
        dev_domains: 6,
        synthetic_domains: 0,
    };
    let bench = Benchmark::generate(cfg);

    // Min-of-N timing on both sides: the first iteration of either path
    // pays one-off page-fault and allocator costs that say nothing about
    // the path itself, and the minimum is the standard noise-robust
    // estimator for deterministic workloads.
    const ITERS: usize = 5;
    let mut cold_ms = f64::INFINITY;
    let mut cold = None;
    for _ in 0..ITERS {
        let t0 = std::time::Instant::now();
        let s = ExampleSelector::new(&bench);
        cold_ms = cold_ms.min(t0.elapsed().as_secs_f64() * 1e3);
        cold = Some(s);
    }
    let cold = cold.expect("at least one cold build");
    if let Err(e) = cold.save_snapshot(&snap) {
        eprintln!("cannot write {}: {e}", snap.display());
        std::process::exit(1);
    }

    let mut warm_ms = f64::INFINITY;
    let mut warm = None;
    for _ in 0..ITERS {
        let t0 = std::time::Instant::now();
        let s = match ExampleSelector::load_snapshot(&bench, &snap, false) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("warm load failed: {e}");
                std::process::exit(1);
            }
        };
        warm_ms = warm_ms.min(t0.elapsed().as_secs_f64() * 1e3);
        warm = Some(s);
    }
    let warm = warm.expect("at least one warm load");

    // Equivalence is part of the benchmark's contract: a warm start that
    // selects differently is a bug, not a speedup.
    let draft = sqlkit::parse_query("SELECT count(*) FROM t").expect("draft parses");
    for strat in promptkit::SelectionStrategy::ALL {
        let pick = |s: &ExampleSelector| -> Vec<usize> {
            s.select(
                strat,
                "How many gadgets are there?",
                "how many <mask> are there",
                Some(&draft),
                8,
                7,
            )
            .iter()
            .map(|e| e.id)
            .collect()
        };
        if pick(&cold) != pick(&warm) {
            eprintln!("FATAL: warm selector diverges from cold on {strat:?}");
            std::process::exit(1);
        }
    }

    let speedup = cold_ms / warm_ms.max(1e-9);
    println!("# warm-start-bench\n");
    println!("| metric | value |");
    println!("|---|---|");
    println!("| pool | {} |", bench.train.len());
    println!("| dim | {} |", textkit::DIM);
    println!("| cold build | {cold_ms:.2} ms |");
    println!("| warm load | {warm_ms:.2} ms |");
    println!("| speedup | {speedup:.1}x |");
    println!("| selections | identical |");
    if let Some(path) = flags.get("json") {
        let json = format!(
            "{{\"pool\":{},\"dim\":{},\"cold_ms\":{cold_ms:.3},\"warm_ms\":{warm_ms:.3},\
             \"speedup\":{speedup:.2}}}\n",
            bench.train.len(),
            textkit::DIM
        );
        if let Err(e) = std::fs::write(path, json) {
            eprintln!("cannot write {path}: {e}");
            std::process::exit(2);
        }
        eprintln!("warm-start numbers written to {path}");
    }
}

fn generate(flags: &HashMap<String, String>) {
    let Some(out) = flags.get("out") else {
        eprintln!("generate requires --out DIR");
        std::process::exit(2);
    };
    let bench = bench_from_flags(flags);
    let dir = PathBuf::from(out);
    export_benchmark(&bench, &dir).expect("export failed");
    println!(
        "exported {} databases, {} train and {} dev examples to {}",
        bench.databases.len(),
        bench.train.len(),
        bench.dev.len(),
        dir.display()
    );
}

fn ask(flags: &HashMap<String, String>) {
    let Some(question) = flags.get("question") else {
        eprintln!("ask requires --question \"...\"");
        std::process::exit(2);
    };
    let model_name = flag(flags, "model", "gpt-4");
    let Some(model) = SimLlm::new(model_name) else {
        eprintln!("unknown model {model_name}; try `dail_sql_cli models`");
        std::process::exit(2);
    };
    let bench = bench_from_flags(flags);
    let db_id = flag(flags, "db", "");
    let db = if db_id.is_empty() {
        bench
            .databases
            .values()
            .next()
            .expect("benchmark has databases")
    } else {
        match bench.databases.get(db_id) {
            Some(db) => db,
            None => {
                eprintln!(
                    "unknown db {db_id}; available: {}",
                    bench
                        .databases
                        .keys()
                        .cloned()
                        .collect::<Vec<_>>()
                        .join(", ")
                );
                std::process::exit(2);
            }
        }
    };
    let seed: u64 = num_flag(flags, "seed", 1u64);
    let prompt = render_prompt(
        QuestionRepr::CodeRepr,
        &db.schema,
        Some(db),
        question,
        ReprOptions::default(),
    );
    let out = model.complete(
        &prompt,
        &GenOptions {
            seed,
            ..Default::default()
        },
    );
    let sql = extract_sql(&out, prompt.trim_end().ends_with("SELECT"));
    println!("db:  {}", db.schema.db_id);
    println!("sql: {sql}");
    match sqlkit::parse_query(&sql).map(|q| storage::execute_query(db, &q)) {
        Ok(Ok(rs)) => {
            println!("rows ({}):", rs.rows.len());
            for row in rs.rows.iter().take(10) {
                let cells: Vec<String> = row.iter().map(|v| v.to_string()).collect();
                println!("  {}", cells.join(" | "));
            }
        }
        Ok(Err(e)) => println!("execution error: {e}"),
        Err(e) => println!("parse error: {e}"),
    }
}

/// Build the predictor named by `--pipeline` / `--model`, exiting with
/// status 2 on unknown names. Shared by `eval` and `serve-bench`.
fn build_predictor(flags: &HashMap<String, String>) -> Box<dyn Predictor + Sync> {
    let model_name = flag(flags, "model", "gpt-4");
    let Some(model) = SimLlm::new(model_name) else {
        eprintln!("unknown model {model_name}; try `dail_sql_cli models`");
        std::process::exit(2);
    };
    match flag(flags, "pipeline", "dail") {
        "dail" => Box::new(DailSql::new(model)),
        "dail-sc" => Box::new(DailSql::with_self_consistency(model, 5)),
        "din" => Box::new(DinSqlStyle::new(model)),
        "c3" => Box::new(C3Style::new(model)),
        "zero" => Box::new(ZeroShot::new(model, QuestionRepr::CodeRepr)),
        other => {
            eprintln!("unknown pipeline {other} (use dail|dail-sc|din|c3|zero)");
            std::process::exit(2);
        }
    }
}

fn run_eval(flags: &HashMap<String, String>) {
    let predictor = build_predictor(flags);
    let realistic = flags.contains_key("realistic");
    let (rec, trace_path) = setup_trace(flags);
    let _scope = rec.enter();
    let bench = bench_from_flags(flags);
    let selector = ExampleSelector::new(&bench);
    let threads = flags
        .get("threads")
        .map(|_| num_flag(flags, "threads", 0usize));
    let digests_n = digests_top_n(flags);
    let opts = EvalOptions {
        threads,
        digests: digests_n.is_some(),
    };
    let r = evaluate_opts(
        &bench,
        &selector,
        predictor.as_ref(),
        &bench.dev,
        2023,
        realistic,
        &opts,
    );
    println!("pipeline: {}", r.name);
    println!("items:    {}", r.n);
    println!("EX:       {}", r.ex_ci95(2023).render());
    println!("EM:       {:.1}%", r.em_pct());
    println!("valid:    {:.1}%", r.valid_pct());
    println!(
        "tokens:   {:.0} prompt + {:.0} completion per query",
        r.cost.avg_prompt_tokens(),
        r.cost.avg_completion_tokens()
    );
    println!("calls:    {:.1} per query", r.cost.avg_api_calls());
    for (h, (c, n)) in &r.ex_by_hardness {
        println!(
            "  {:<7} {:>5.1}%  ({c}/{n})",
            h.as_str(),
            100.0 * *c as f64 / (*n).max(1) as f64
        );
    }
    if let (Some(n), Some(acc)) = (digests_n, &r.digests) {
        println!();
        print!("{}", acc.render_top(n, flags.contains_key("canonical")));
    }
    finish_trace(&rec, trace_path);
}

/// Head-sampling rate for request traces, from `DAIL_TRACE_SAMPLE`
/// (default 1.0 — trace every request when tracing is on). Unparsable
/// values warn and fall back rather than abort: sampling is an
/// observability knob, never a reason to refuse to serve.
fn trace_sample_from_env() -> f64 {
    match std::env::var("DAIL_TRACE_SAMPLE") {
        Err(_) => 1.0,
        Ok(raw) => match raw.parse::<f64>() {
            Ok(v) if (0.0..=1.0).contains(&v) => v,
            _ => {
                eprintln!(
                    "warning: DAIL_TRACE_SAMPLE must be a number in [0, 1], got {raw:?}; using 1.0"
                );
                1.0
            }
        },
    }
}

/// One finished serve-bench run, owned (no borrows into the benchmark),
/// shared by `serve-bench` and `slo-report`.
struct ServeRun {
    seed: u64,
    predictor_name: String,
    faults: simllm::FaultConfig,
    reqs: Vec<servekit::ServeReq>,
    outcomes: Vec<servekit::Outcome>,
    stats: servekit::ServeStats,
    /// Per-request EX verdict: `Some` for scored OK responses.
    ex: Vec<Option<bool>>,
    /// Query-digest rollup over scored responses; `Some` only when
    /// `--digests` asked for the analyzed scoring path.
    digests: Option<eval::DigestAccumulator>,
    rec: obskit::Recorder,
    trace_path: Option<PathBuf>,
}

/// Drive the servekit serving layer with a seeded load against injected
/// faults. Every number in the result is deterministic given `--seed` —
/// including across `--workers` settings — which is what makes the
/// reports golden-testable. EX scoring runs under each request's trace
/// context, so traced runs show execution/comparison spans inside the
/// request tree.
fn run_serve(flags: &HashMap<String, String>) -> ServeRun {
    let predictor = build_predictor(flags);
    let pipeline = flag(flags, "pipeline", "dail").to_string();
    let seed: u64 = num_flag(flags, "seed", 7u64);
    let (rec, trace_path) = setup_trace(flags);
    let _scope = rec.enter();
    let bench = bench_from_flags(flags);
    let selector = ExampleSelector::new(&bench);
    let tokenizer = textkit::Tokenizer::new();
    let ctx = dail_core::PredictCtx {
        bench: &bench,
        selector: &selector,
        tokenizer: &tokenizer,
        seed,
        realistic: flags.contains_key("realistic"),
        trace: obskit::TraceContext::disabled(),
    };
    let faults = simllm::FaultConfig {
        seed,
        error_rate: rate_flag(flags, "error-rate", 0.1),
        spike_rate: rate_flag(flags, "spike-rate", 0.05),
        spike_ms: num_flag(flags, "spike-ms", 250u64),
        corrupt_rate: rate_flag(flags, "corrupt-rate", 0.05),
    };
    let cfg = servekit::ServeConfig {
        workers: num_flag(flags, "workers", 4usize),
        queue_capacity: num_flag(flags, "queue", 32usize),
        cache_capacity: num_flag(flags, "cache", 4096usize),
        max_attempts: num_flag(flags, "retries", 3u32) + 1,
        backoff_base_ms: num_flag(flags, "backoff-ms", 25u64),
        deadline_ms: num_flag(flags, "deadline-ms", 2000u64),
        time_scale: 0.0,
        // The pipeline fixes its own representation and shot count, so its
        // name stands in for both in the cache key.
        repr: pipeline,
        shots: 0,
        faults,
        trace_sample: trace_sample_from_env(),
    };
    let load = servekit::LoadConfig {
        seed,
        requests: num_flag(flags, "requests", 120usize),
        mean_gap_ms: num_flag(flags, "mean-gap-ms", 30u64),
        dup_rate: rate_flag(flags, "dup-rate", 0.35),
    };
    let reqs = servekit::generate(&load, bench.dev.len());
    let out = servekit::serve(predictor.as_ref(), &ctx, &bench.dev, &reqs, &cfg);

    // Scoring always goes through `score_item`. With `--digests` each
    // prediction is also run through the analyzed executor for the digest
    // rollup; no other printed number depends on it.
    let mut digests = digests_top_n(flags).map(|_| eval::DigestAccumulator::new());
    let mut ex: Vec<Option<bool>> = Vec::with_capacity(reqs.len());
    for (i, (req, outcome)) in reqs.iter().zip(&out.outcomes).enumerate() {
        if let servekit::Outcome::Ok {
            sql, latency_ms, ..
        } = outcome
        {
            let item = &bench.dev[req.item_idx];
            let score = {
                let _request = out.traces[i].enter();
                let score = eval::score_item(bench.db(item), item, sql);
                if let Some(acc) = &mut digests {
                    acc.observe(bench.db(item), sql, score.ex);
                }
                score
            };
            rec.tsdb(|t| {
                let tenant = format!("t{}", req.tenant);
                t.counter(
                    "eval.ex_verdicts",
                    &[
                        ("db", item.db_id.as_str()),
                        ("tenant", &tenant),
                        ("verdict", if score.ex { "correct" } else { "wrong" }),
                    ],
                    req.arrival_ms + latency_ms,
                    1,
                );
            });
            ex.push(Some(score.ex));
        } else {
            ex.push(None);
        }
    }
    ServeRun {
        seed,
        predictor_name: predictor.name(),
        faults,
        reqs,
        outcomes: out.outcomes,
        stats: out.stats,
        ex,
        digests,
        rec,
        trace_path,
    }
}

/// Assemble the [`servekit::ReportInput`] for a finished run (shared by
/// the markdown report, the `--json` emitter and `slo-report --json`).
fn serve_report_input(run: &ServeRun) -> servekit::ReportInput {
    let ex_scored = run.ex.iter().flatten().count() as u64;
    let ex_correct = run.ex.iter().flatten().filter(|&&v| v).count() as u64;
    let s = &run.stats;
    servekit::ReportInput {
        seed: run.seed,
        predictor: run.predictor_name.clone(),
        error_rate: run.faults.error_rate,
        spike_rate: run.faults.spike_rate,
        spike_ms: run.faults.spike_ms,
        corrupt_rate: run.faults.corrupt_rate,
        submitted: s.submitted,
        admitted: s.admitted,
        shed: s.shed,
        ok: s.ok,
        failed: s.failed,
        deadline_exceeded: s.deadline_exceeded,
        retries: s.retries,
        panics: s.panics,
        cache_served: s.cache.served,
        cache_misses: s.cache.misses,
        cache_evictions: s.cache.evictions,
        latencies_ms: s.total_ms.clone(),
        makespan_ms: s.makespan_ms,
        ex_correct,
        ex_scored,
    }
}

/// Write the JSON report when `--json FILE` was given.
fn write_json_report(flags: &HashMap<String, String>, report: &servekit::ReportInput) {
    let Some(path) = flags.get("json") else {
        return;
    };
    if let Err(e) = std::fs::write(path, servekit::render_json(report)) {
        eprintln!("cannot write {path}: {e}");
        std::process::exit(2);
    }
    eprintln!("json report written to {path}");
}

/// `serve-bench`: run the seeded load and print the markdown report.
/// `--digests N` appends a query-digest rollup section; `--json FILE`
/// additionally writes a machine-readable report.
fn serve_bench(flags: &HashMap<String, String>) {
    let run = run_serve(flags);
    let report = serve_report_input(&run);
    print!("{}", servekit::render(&report));
    if let (Some(n), Some(acc)) = (digests_top_n(flags), &run.digests) {
        println!();
        print!("{}", acc.render_top(n, flags.contains_key("canonical")));
    }
    write_json_report(flags, &report);
    finish_trace(&run.rec, run.trace_path);
}

/// `slo-report`: run the same seeded load as `serve-bench` and print the
/// SLO / burn-rate report. Deterministic: every number runs on the
/// serving layer's virtual clock.
fn slo_report(flags: &HashMap<String, String>) {
    let cfg = servekit::SloConfig {
        latency_threshold_ms: num_flag(flags, "slo-latency-ms", 300u64),
        latency_objective: rate_flag(flags, "slo-latency-objective", 0.95),
        ex_objective: rate_flag(flags, "slo-ex-objective", 0.50),
        short_window_ms: num_flag(flags, "slo-short-ms", 2_000u64),
        long_window_ms: num_flag(flags, "slo-long-ms", 10_000u64),
        burn_alert: num_flag(flags, "burn-alert", 2.0f64),
    };
    let run = run_serve(flags);
    let outcomes: Vec<servekit::RequestOutcome> = run
        .reqs
        .iter()
        .zip(&run.outcomes)
        .zip(&run.ex)
        .map(|((req, outcome), ex)| match outcome {
            servekit::Outcome::Ok { latency_ms, .. } => servekit::RequestOutcome {
                t_ms: req.arrival_ms + latency_ms,
                served_ok: true,
                latency_ms: *latency_ms,
                ex: *ex,
            },
            servekit::Outcome::Overloaded => servekit::RequestOutcome {
                t_ms: req.arrival_ms,
                served_ok: false,
                latency_ms: 0,
                ex: None,
            },
            servekit::Outcome::DeadlineExceeded { latency_ms, .. }
            | servekit::Outcome::Failed { latency_ms, .. } => servekit::RequestOutcome {
                t_ms: req.arrival_ms + latency_ms,
                served_ok: false,
                latency_ms: *latency_ms,
                ex: None,
            },
        })
        .collect();
    print!("{}", servekit::render_slo_report(&cfg, &outcomes));
    write_json_report(flags, &serve_report_input(&run));
    finish_trace(&run.rec, run.trace_path);
}

/// `metrics`: render a recorded trace's counters, gauges and histograms
/// as Prometheus text exposition on stdout.
fn metrics_trace(positional: &[&String]) {
    let [path] = positional else {
        eprintln!("metrics requires a trace file: dail_sql_cli metrics TRACE.jsonl");
        std::process::exit(2);
    };
    print!("{}", obskit::expo::render_events(&load_trace(path)));
}

/// `dashboard`: rebuild the windowed time-series store a traced run
/// drained into its JSONL and render it as markdown. Every number
/// derives from drain-time `tsdb.*` events on the virtual clock, so the
/// output is byte-identical across runs and thread counts.
fn dashboard_cmd(positional: &[&String], flags: &HashMap<String, String>) {
    let [path] = positional else {
        eprintln!("dashboard requires a trace file: dail_sql_cli dashboard TRACE.jsonl");
        std::process::exit(2);
    };
    let events = load_trace(path);
    let tsdb = obskit::tsdb::Tsdb::from_events(&events);
    if tsdb.series_count() == 0 {
        eprintln!("no tsdb series in {path} (recorded with DAIL_TSDB=0 or by an older build?)");
        std::process::exit(2);
    }
    let window: u64 = num_flag(flags, "window", 8u64).max(1);
    let tenant = flags.get("tenant").map(String::as_str);
    print!("{}", render_dashboard(&tsdb, window, tenant));
    if let Some(json_path) = flags.get("json") {
        if let Err(e) = std::fs::write(json_path, dashboard_json(&tsdb, window, tenant)) {
            eprintln!("cannot write {json_path}: {e}");
            std::process::exit(2);
        }
        eprintln!("json dashboard written to {json_path}");
    }
}

/// How many trailing windows a sparkline covers.
const SPARK_WINDOWS: u64 = 24;

/// Sparkline over the last [`SPARK_WINDOWS`] windows ending at `latest`:
/// `·` for an empty window, otherwise one of eight block heights scaled
/// against the series' own maximum in the shown range.
fn sparkline(series: &obskit::tsdb::Series, latest: u64) -> String {
    const BLOCKS: [char; 8] = ['▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];
    let lo = (latest + 1).saturating_sub(SPARK_WINDOWS);
    let mut counts = vec![0u64; (latest - lo + 1) as usize];
    for w in series.windows() {
        if w.win >= lo && w.win <= latest {
            counts[(w.win - lo) as usize] = w.count;
        }
    }
    let max = counts.iter().copied().max().unwrap_or(0);
    counts
        .iter()
        .map(|&c| {
            if c == 0 {
                '·'
            } else {
                // 1..=max scales to block 0..=7, top value always full.
                BLOCKS[((c * 8).div_ceil(max.max(1)).max(1) - 1).min(7) as usize]
            }
        })
        .collect()
}

/// Rows the dashboard shows: top-k series ranked by a deliberately
/// time-free key (total observations over all retained windows, then
/// name) so the ranking never flaps with the clock.
fn dashboard_rows<'a>(
    tsdb: &'a obskit::tsdb::Tsdb,
    tenant: Option<&str>,
) -> Vec<&'a obskit::tsdb::Series> {
    let mut rows: Vec<&obskit::tsdb::Series> = tsdb
        .series()
        .filter(|s| tenant.is_none_or(|t| s.label("tenant") == Some(t)))
        .collect();
    rows.sort_by(|a, b| b.total().cmp(&a.total()).then(a.name().cmp(b.name())));
    rows.truncate(20);
    rows
}

fn render_dashboard(tsdb: &obskit::tsdb::Tsdb, window: u64, tenant: Option<&str>) -> String {
    use std::fmt::Write as _;
    let cfg = tsdb.config();
    let latest = tsdb.latest_window().unwrap_or(0);
    let earliest = tsdb.earliest_window().unwrap_or(latest);
    let mut out = String::new();
    out.push_str("# tsdb dashboard\n\n");
    out.push_str("| param | value |\n|---|---|\n");
    let _ = writeln!(out, "| step | {} ms |", cfg.step_ms);
    let _ = writeln!(out, "| series | {} |", tsdb.series_count());
    let _ = writeln!(
        out,
        "| windows | {}..{} (span {} ms) |",
        earliest,
        latest,
        (latest - earliest + 1) * cfg.step_ms
    );
    let _ = writeln!(
        out,
        "| stats window | last {} windows ({} ms) |",
        window,
        window * cfg.step_ms
    );
    if let Some(t) = tenant {
        let _ = writeln!(out, "| tenant filter | {t} |");
    }
    let _ = writeln!(out, "| overflow | {} |", tsdb.overflow());
    let _ = writeln!(out, "| dropped late | {} |", tsdb.dropped_late());
    out.push('\n');
    out.push_str("## top series (by total over all retained windows)\n\n");
    let _ = writeln!(
        out,
        "| series | total | rate/s | p50 | p99 | last {SPARK_WINDOWS} windows | exemplar |"
    );
    out.push_str("|---|---|---|---|---|---|---|\n");
    for s in dashboard_rows(tsdb, tenant) {
        let rate =
            s.windowed_count(window, latest) as f64 / (window as f64 * cfg.step_ms as f64 / 1000.0);
        let (p50, p99) = if s.is_hist() {
            let h = s.merged(window, latest);
            if h.count() > 0 {
                (h.p50().to_string(), h.p99().to_string())
            } else {
                ("-".to_string(), "-".to_string())
            }
        } else {
            ("-".to_string(), "-".to_string())
        };
        let ex = s
            .exemplar(window, latest)
            .or_else(|| s.best_exemplar())
            .map(|e| format!("req={} ({})", e.request_id, e.value))
            .unwrap_or_else(|| "-".to_string());
        let _ = writeln!(
            out,
            "| `{}` | {} | {rate:.2} | {p50} | {p99} | {} | {ex} |",
            s.name(),
            s.total(),
            sparkline(s, latest)
        );
    }
    out
}

fn dashboard_json(tsdb: &obskit::tsdb::Tsdb, window: u64, tenant: Option<&str>) -> String {
    use spider_gen::export::json_escape;
    use std::fmt::Write as _;
    let cfg = tsdb.config();
    let latest = tsdb.latest_window().unwrap_or(0);
    let mut out = String::new();
    let _ = write!(
        out,
        "{{\"step_ms\":{},\"series\":{},\"window\":{},\"overflow\":{},\"dropped_late\":{},\"rows\":[",
        cfg.step_ms,
        tsdb.series_count(),
        window,
        tsdb.overflow(),
        tsdb.dropped_late()
    );
    for (i, s) in dashboard_rows(tsdb, tenant).iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let rate =
            s.windowed_count(window, latest) as f64 / (window as f64 * cfg.step_ms as f64 / 1000.0);
        let _ = write!(
            out,
            "{{\"series\":\"{}\",\"total\":{},\"rate_per_s\":{rate:.4}",
            json_escape(s.name()),
            s.total()
        );
        if s.is_hist() {
            let h = s.merged(window, latest);
            if h.count() > 0 {
                let _ = write!(out, ",\"p50\":{},\"p99\":{}", h.p50(), h.p99());
            }
        }
        if let Some(e) = s.exemplar(window, latest).or_else(|| s.best_exemplar()) {
            let _ = write!(
                out,
                ",\"exemplar\":{{\"request_id\":{},\"value\":{}}}",
                e.request_id, e.value
            );
        }
        out.push('}');
    }
    out.push_str("]}\n");
    out
}

// ---- select-bench: retrieval fast path vs naive reference ----

/// Vocabulary for the synthetic question pool. Questions share openers,
/// nouns and qualifiers the way real benchmark questions do, so embeddings
/// collide and near-tie exactly where the top-k tie-breaking matters.
const SB_OPENERS: &[&str] = &[
    "how many",
    "list the",
    "what is the",
    "show the",
    "count the",
    "which",
    "find the",
    "return the",
];
const SB_NOUNS: &[&str] = &[
    "singers",
    "stadiums",
    "concerts",
    "albums",
    "students",
    "courses",
    "flights",
    "airports",
    "orders",
    "products",
    "employees",
    "departments",
    "matches",
    "teams",
    "players",
    "books",
    "authors",
    "cities",
    "countries",
    "rivers",
    "hospitals",
    "patients",
    "doctors",
    "visits",
];
const SB_QUALS: &[&str] = &[
    "are there",
    "with the highest capacity",
    "grouped by city",
    "ordered by name",
    "for each year",
    "above the average age",
    "in each region",
    "sorted by total sales",
    "younger than 30",
    "with more than 5 entries",
];

fn sb_question(rng: &mut rand::rngs::StdRng) -> String {
    use rand::seq::SliceRandom;
    format!(
        "{} {} {}",
        SB_OPENERS.choose(rng).unwrap(),
        SB_NOUNS.choose(rng).unwrap(),
        SB_QUALS.choose(rng).unwrap(),
    )
}

/// Fold a selection's indices into a running FNV-1a checksum, so the
/// report carries a compact fingerprint of *which* examples were picked.
fn sb_checksum(mut h: u64, picks: &[(f32, u32)]) -> u64 {
    for &(_, idx) in picks {
        for b in idx.to_le_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x100000001b3);
        }
    }
    h
}

/// The committed naive reference: one allocated embedding per row, `f64`
/// iterator cosine, full stable sort — the exact shape of the selector
/// before retrievekit. `select-bench` times the fast path against this
/// and `scripts/check.sh` gates the speedup.
fn sb_naive_select(
    rows: &[textkit::Embedding],
    n: usize,
    query: &textkit::Embedding,
    k: usize,
) -> Vec<(f64, usize)> {
    let mut scored: Vec<(f64, usize)> = rows[..n]
        .iter()
        .enumerate()
        .map(|(i, r)| (r.cosine(query), i))
        .collect();
    scored.sort_by(|a, b| b.0.partial_cmp(&a.0).unwrap_or(std::cmp::Ordering::Equal));
    scored.truncate(k);
    scored
}

/// Benchmark retrievekit's selection fast path against the naive
/// reference on a seeded synthetic pool. Every selection is hard-checked
/// against the full-sort oracle (exit 1 on any mismatch); with
/// `--no-timing` the report contains no wall-clock numbers and is
/// byte-identical across machines and `DAIL_THREADS` settings.
fn select_bench(flags: &HashMap<String, String>) {
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use retrievekit::{full_sort, top_k_cosine, EmbeddingMatrix};
    use std::fmt::Write as _;
    use textkit::{embed, embed_into, DIM};

    if flags.contains_key("pool-rows") {
        // The ANN sweep is a separate report: it measures approximate
        // retrieval against the exact scan, while this legacy path gates
        // the exact fast path against the committed naive reference and
        // must stay byte-identical to pre-IVF builds.
        return select_bench_sweep(flags);
    }

    let pool_n: usize = num_flag(flags, "pool", 10_000usize).max(1);
    let queries_n: usize = num_flag(flags, "queries", 50usize).max(1);
    let k: usize = num_flag(flags, "k", 8usize).max(1);
    let seed: u64 = num_flag(flags, "seed", 2023u64);
    let timing = !flags.contains_key("no-timing");
    let json_path = flags.get("json");
    if json_path.is_some() && !timing {
        eprintln!("--json needs wall-clock numbers; drop --no-timing");
        std::process::exit(2);
    }

    let mut rng = StdRng::seed_from_u64(seed);
    let pool: Vec<String> = (0..pool_n).map(|_| sb_question(&mut rng)).collect();
    let targets: Vec<String> = (0..queries_n).map(|_| sb_question(&mut rng)).collect();

    // Build both index shapes once, outside any timed region.
    let mut matrix = EmbeddingMatrix::with_capacity(DIM, pool_n);
    let mut row = vec![0f32; DIM];
    for q in &pool {
        embed_into(q, &mut row);
        matrix.push_row(&row);
    }
    let naive_rows: Vec<textkit::Embedding> = pool.iter().map(|q| embed(q)).collect();

    // Correctness sweep: the fast path must equal the full-sort oracle on
    // every query (hard gate), and we report its agreement with the f64
    // naive reference (informational — `f32` accumulation is allowed to
    // diverge below 1e-5, which in practice never reorders a selection).
    let mut checksum = 0xcbf29ce484222325u64;
    let mut naive_agree = 0usize;
    let mut qbuf = vec![0f32; DIM];
    for (qi, t) in targets.iter().enumerate() {
        embed_into(t, &mut qbuf);
        let fast = top_k_cosine(&matrix, &qbuf, pool_n, k);
        let oracle = full_sort((0..pool_n).map(|i| matrix.cosine(i, &qbuf)), k);
        if fast != oracle {
            eprintln!("FATAL: query {qi} fast path disagrees with full-sort oracle");
            eprintln!("  fast:   {fast:?}");
            eprintln!("  oracle: {oracle:?}");
            std::process::exit(1);
        }
        let naive = sb_naive_select(&naive_rows, pool_n, &embed(t), k);
        if fast
            .iter()
            .map(|&(_, i)| i as usize)
            .eq(naive.iter().map(|&(_, i)| i))
        {
            naive_agree += 1;
        }
        checksum = sb_checksum(checksum, &fast);
    }

    // Throughput trajectory over pool-size prefixes (the full pool last —
    // its point is the headline speedup the CI floor gates on). The full
    // pool is timed in FULL_POOL_ROUNDS rounds, each timing both paths with
    // the first path alternating between rounds, and its speedup is the
    // median per-round ratio: one round disturbed by host load cannot move
    // it. Its q/s columns are the median times.
    const FULL_POOL_ROUNDS: usize = 5;
    struct Point {
        rows: usize,
        fast_qps: f64,
        naive_qps: f64,
        speedup: f64,
    }
    let median = |mut v: Vec<f64>| {
        v.sort_by(f64::total_cmp);
        v[v.len() / 2]
    };
    let mut points: Vec<Point> = Vec::new();
    if timing {
        let mut time_fast = |rows: usize| {
            let t0 = std::time::Instant::now();
            for t in &targets {
                embed_into(t, &mut qbuf);
                std::hint::black_box(top_k_cosine(&matrix, &qbuf, rows, k));
            }
            t0.elapsed().as_secs_f64().max(1e-9)
        };
        let time_naive = |rows: usize| {
            let t0 = std::time::Instant::now();
            for t in &targets {
                std::hint::black_box(sb_naive_select(&naive_rows, rows, &embed(t), k));
            }
            t0.elapsed().as_secs_f64().max(1e-9)
        };
        for denom in [8usize, 4, 2, 1] {
            let rows = (pool_n / denom).max(1);
            let rounds = if denom == 1 { FULL_POOL_ROUNDS } else { 1 };
            let (mut fast_s, mut naive_s) = (Vec::new(), Vec::new());
            for round in 0..rounds {
                if round % 2 == 0 {
                    fast_s.push(time_fast(rows));
                    naive_s.push(time_naive(rows));
                } else {
                    naive_s.push(time_naive(rows));
                    fast_s.push(time_fast(rows));
                }
            }
            let ratios = naive_s.iter().zip(&fast_s).map(|(n, f)| n / f).collect();
            points.push(Point {
                rows,
                fast_qps: queries_n as f64 / median(fast_s),
                naive_qps: queries_n as f64 / median(naive_s),
                speedup: median(ratios),
            });
        }
    }
    let speedup = points.last().map(|p| p.speedup);

    let mut md = String::new();
    let _ = writeln!(md, "# select-bench report\n");
    let _ = writeln!(md, "| param | value |");
    let _ = writeln!(md, "|---|---|");
    let _ = writeln!(md, "| pool | {pool_n} |");
    let _ = writeln!(md, "| queries | {queries_n} |");
    let _ = writeln!(md, "| k | {k} |");
    let _ = writeln!(md, "| seed | {seed} |");
    let _ = writeln!(md, "| dim | {DIM} |");
    let _ = writeln!(md);
    let _ = writeln!(md, "## selection equivalence\n");
    let _ = writeln!(md, "| check | result |");
    let _ = writeln!(md, "|---|---|");
    let _ = writeln!(
        md,
        "| full-sort oracle | {queries_n}/{queries_n} identical |"
    );
    let _ = writeln!(
        md,
        "| naive f64 reference | {naive_agree}/{queries_n} identical |"
    );
    let _ = writeln!(md, "| selection checksum | {checksum:#018x} |");
    let _ = writeln!(md);
    let _ = writeln!(md, "## throughput\n");
    let _ = writeln!(md, "| pool rows | naive q/s | fast q/s | speedup |");
    let _ = writeln!(md, "|---|---|---|---|");
    if timing {
        for p in &points {
            let _ = writeln!(
                md,
                "| {} | {:.1} | {:.1} | {:.2}x |",
                p.rows, p.naive_qps, p.fast_qps, p.speedup
            );
        }
    } else {
        for denom in [8usize, 4, 2, 1] {
            let _ = writeln!(md, "| {} | - | - | - |", (pool_n / denom).max(1));
        }
    }
    print!("{md}");

    if let Some(path) = json_path {
        let speedup = speedup.expect("timing enabled when --json is set");
        let mut json = String::new();
        let _ = write!(
            json,
            "{{\"pool\":{pool_n},\"queries\":{queries_n},\"k\":{k},\"seed\":{seed},\
             \"checksum\":\"{checksum:#018x}\",\"speedup_vs_naive\":{speedup:.3},\"points\":["
        );
        for (i, p) in points.iter().enumerate() {
            if i > 0 {
                let _ = write!(json, ",");
            }
            let _ = write!(
                json,
                "{{\"pool\":{},\"naive_qps\":{:.1},\"fast_qps\":{:.1}}}",
                p.rows, p.naive_qps, p.fast_qps
            );
        }
        let _ = writeln!(json, "]}}");
        if let Err(e) = std::fs::write(path, &json) {
            eprintln!("cannot write {path}: {e}");
            std::process::exit(2);
        }
        eprintln!("throughput points written to {path}");
    }
}

/// Question generator for the ANN sweep. The legacy `sb_question`
/// vocabulary yields only 8×24×10 = 1,920 distinct strings, so a
/// million-row pool would hold ~520 exact copies of every question and
/// recall@k would be trivially 1.0. Suffixing one of 97 regions multiplies
/// the distinct count to ~186k while keeping the distribution realistic
/// for ANN: questions sharing a base differ only in the region trigrams,
/// giving dense near-duplicate neighborhoods instead of orthogonal rows.
fn sb_question_region(rng: &mut rand::rngs::StdRng) -> String {
    use rand::Rng;
    let base = sb_question(rng);
    format!("{base} in region {}", rng.gen_range(0u32..97))
}

/// ANN retrieval sweep (`select-bench --pool-rows N[,N...]`): for each
/// pool size, measure the exact sharded scan, then IVF retrieval —
/// recall@k against the exact oracle, training cost, and throughput.
/// `scripts/check.sh` gates recall ≥ 0.99 and a ≥5× speedup at the
/// 1M-row point from the `--json` output. With `--no-timing` the
/// report carries no wall-clock numbers and is byte-identical across
/// machines and `DAIL_THREADS` settings (the determinism gate).
fn select_bench_sweep(flags: &HashMap<String, String>) {
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use retrievekit::{top_k_cosine, EmbeddingMatrix, IvfIndex, IvfParams};
    use std::fmt::Write as _;
    use textkit::{embed_into, DIM};

    let raw_sizes = flags.get("pool-rows").expect("dispatch checked the flag");
    let mut sizes: Vec<usize> = Vec::new();
    for part in raw_sizes.split(',') {
        match part.trim().parse::<usize>() {
            Ok(n) if n > 0 => sizes.push(n),
            _ => {
                eprintln!("--pool-rows wants positive integers (comma-separated), got {part:?}");
                std::process::exit(2);
            }
        }
    }
    let queries_n: usize = num_flag(flags, "queries", 20usize).max(1);
    let k: usize = num_flag(flags, "k", 8usize).max(1);
    let seed: u64 = num_flag(flags, "seed", 2023u64);
    let timing = !flags.contains_key("no-timing");
    let json_path = flags.get("json");
    if json_path.is_some() && !timing {
        eprintln!("--json needs wall-clock numbers; drop --no-timing");
        std::process::exit(2);
    }

    let max_n = *sizes.iter().max().expect("sizes is non-empty");
    let mut rng = StdRng::seed_from_u64(seed);
    eprintln!("building {max_n}-row pool...");
    let mut matrix = EmbeddingMatrix::with_capacity(DIM, max_n);
    let mut row = vec![0f32; DIM];
    for _ in 0..max_n {
        embed_into(&sb_question_region(&mut rng), &mut row);
        matrix.push_row(&row);
    }
    let targets: Vec<String> = (0..queries_n)
        .map(|_| sb_question_region(&mut rng))
        .collect();
    let mut target_rows = vec![0f32; queries_n * DIM];
    for (t, chunk) in targets.iter().zip(target_rows.chunks_exact_mut(DIM)) {
        embed_into(t, chunk);
    }

    struct Point {
        pool: usize,
        mode: &'static str,
        clusters: Option<usize>,
        probe: Option<usize>,
        recall: Option<f64>,
        train_ms: Option<f64>,
        qps: Option<f64>,
        speedup: Option<f64>,
        checksum: u64,
    }
    let mut points: Vec<Point> = Vec::new();

    for &n in &sizes {
        let k_eff = k.min(n);
        eprintln!("pool {n}: exact baseline...");
        let t0 = std::time::Instant::now();
        let exact: Vec<Vec<(f32, u32)>> = target_rows
            .chunks_exact(DIM)
            .map(|q| top_k_cosine(&matrix, q, n, k))
            .collect();
        let exact_s = t0.elapsed().as_secs_f64();
        let exact_qps = queries_n as f64 / exact_s.max(1e-9);
        let mut checksum = 0xcbf29ce484222325u64;
        for picks in &exact {
            checksum = sb_checksum(checksum, picks);
        }
        points.push(Point {
            pool: n,
            mode: "exact",
            clusters: None,
            probe: None,
            recall: None,
            train_ms: None,
            qps: timing.then_some(exact_qps),
            speedup: None,
            checksum,
        });

        eprintln!("pool {n}: training ivf index...");
        let t0 = std::time::Instant::now();
        let index = IvfIndex::train(&matrix, n, &IvfParams::default());
        let train_ms = t0.elapsed().as_secs_f64() * 1e3;

        let t0 = std::time::Instant::now();
        let approx: Vec<Vec<(f32, u32)>> = target_rows
            .chunks_exact(DIM)
            .map(|q| index.search(&matrix, q, k))
            .collect();
        let approx_s = t0.elapsed().as_secs_f64();
        let qps = queries_n as f64 / approx_s.max(1e-9);
        let mut hit = 0usize;
        let mut checksum = 0xcbf29ce484222325u64;
        for (got, want) in approx.iter().zip(&exact) {
            hit += got
                .iter()
                .filter(|(_, id)| want.iter().any(|&(_, w)| w == *id))
                .count();
            checksum = sb_checksum(checksum, got);
        }
        let recall = hit as f64 / (queries_n * k_eff) as f64;
        points.push(Point {
            pool: n,
            mode: "ivf",
            clusters: Some(index.n_clusters()),
            probe: Some(index.n_probe()),
            recall: Some(recall),
            train_ms: timing.then_some(train_ms),
            qps: timing.then_some(qps),
            speedup: timing.then_some(qps / exact_qps.max(1e-9)),
            checksum,
        });
    }

    let opt = |v: Option<f64>, fmt: fn(f64) -> String| match v {
        Some(x) => fmt(x),
        None => "-".to_string(),
    };
    let mut md = String::new();
    let _ = writeln!(md, "# select-bench report (ANN sweep)\n");
    let _ = writeln!(md, "| param | value |");
    let _ = writeln!(md, "|---|---|");
    let _ = writeln!(md, "| pool rows | {raw_sizes} |");
    let _ = writeln!(md, "| queries | {queries_n} |");
    let _ = writeln!(md, "| k | {k} |");
    let _ = writeln!(md, "| seed | {seed} |");
    let _ = writeln!(md, "| dim | {DIM} |");
    let _ = writeln!(md);
    let _ = writeln!(md, "## ann trajectory\n");
    let _ = writeln!(
        md,
        "| pool rows | mode | clusters | probe | recall@k | train ms | q/s | speedup vs exact |"
    );
    let _ = writeln!(md, "|---|---|---|---|---|---|---|---|");
    for p in &points {
        let _ = writeln!(
            md,
            "| {} | {} | {} | {} | {} | {} | {} | {} |",
            p.pool,
            p.mode,
            p.clusters.map_or("-".into(), |c: usize| c.to_string()),
            p.probe.map_or("-".into(), |c: usize| c.to_string()),
            p.recall
                .map_or("1.0000 (oracle)".into(), |r| format!("{r:.4}")),
            opt(p.train_ms, |x| format!("{x:.1}")),
            opt(p.qps, |x| format!("{x:.1}")),
            opt(p.speedup, |x| format!("{x:.2}x")),
        );
    }
    let _ = writeln!(md);
    let _ = writeln!(md, "## selection checksums\n");
    let _ = writeln!(md, "| pool rows | mode | checksum |");
    let _ = writeln!(md, "|---|---|---|");
    for p in &points {
        let _ = writeln!(md, "| {} | {} | {:#018x} |", p.pool, p.mode, p.checksum);
    }
    print!("{md}");

    if let Some(path) = json_path {
        // One point per line so shell gates can grep a mode's fields
        // without a JSON parser.
        let mut json = String::new();
        let _ = writeln!(
            json,
            "{{\"queries\":{queries_n},\"k\":{k},\"seed\":{seed},\"dim\":{DIM},\"points\":["
        );
        for (i, p) in points.iter().enumerate() {
            let sep = if i + 1 == points.len() { "" } else { "," };
            let mut line = format!("{{\"pool\":{},\"mode\":\"{}\"", p.pool, p.mode);
            if let Some(r) = p.recall {
                let _ = write!(line, ",\"recall_at_k\":{r:.4}");
            }
            if let Some(t) = p.train_ms {
                let _ = write!(line, ",\"train_ms\":{t:.1}");
            }
            if let Some(q) = p.qps {
                let _ = write!(line, ",\"qps\":{q:.1}");
            }
            if let Some(s) = p.speedup {
                let _ = write!(line, ",\"speedup_vs_exact\":{s:.3}");
            }
            let _ = write!(line, ",\"checksum\":\"{:#018x}\"}}", p.checksum);
            let _ = writeln!(json, "{line}{sep}");
        }
        let _ = writeln!(json, "]}}");
        if let Err(e) = std::fs::write(path, &json) {
            eprintln!("cannot write {path}: {e}");
            std::process::exit(2);
        }
        eprintln!("ann sweep points written to {path}");
    }
}

fn run_experiments(flags: &HashMap<String, String>) {
    let Some(id) = flags.get("experiment") else {
        eprintln!(
            "run-experiments requires --experiment ID (one of {} / {})",
            ExperimentRunner::ALL_IDS.join(", "),
            ExperimentRunner::ABLATION_IDS.join(", ")
        );
        std::process::exit(2);
    };
    let known = ExperimentRunner::ALL_IDS.contains(&id.as_str())
        || ExperimentRunner::ABLATION_IDS.contains(&id.as_str());
    if !known {
        eprintln!(
            "unknown experiment {id}; known ids: {} / {}",
            ExperimentRunner::ALL_IDS.join(", "),
            ExperimentRunner::ABLATION_IDS.join(", ")
        );
        std::process::exit(2);
    }
    let (rec, trace_path) = setup_trace(flags);
    let _scope = rec.enter();
    let scale = Scale {
        dev_cap: num_flag(flags, "dev-cap", 24usize),
        full_grid: flags.contains_key("full-grid"),
    };
    let seed = num_flag(flags, "seed", 2023u64);
    let bench = bench_from_flags(flags);
    let runner = ExperimentRunner::new(&bench, scale, seed);
    for table in runner.run_experiment(id) {
        println!("{}", table.to_markdown());
    }
    finish_trace(&rec, trace_path);
}

/// Load a trace leniently: unreadable files and traces with no intact
/// events exit 2; damaged lines (a crashed run's truncated tail, stray
/// garbage) are skipped with a warning so partial traces still render.
fn load_trace(path: &str) -> Vec<obskit::Event> {
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("cannot read {path}: {e}");
            std::process::exit(2);
        }
    };
    let (events, warnings) = obskit::parse_jsonl_lossy(&text);
    // A damaged trace still parses to the synthetic skipped-lines counter;
    // only a trace with no *real* events at all is unusable.
    let has_real_events = events.iter().any(|e| {
        !matches!(e, obskit::Event::Counter { name, .. } if name == obskit::SKIPPED_LINES_COUNTER)
    });
    if !has_real_events && !warnings.is_empty() {
        eprintln!("invalid trace {path}: {}", warnings[0]);
        std::process::exit(2);
    }
    for w in &warnings {
        eprintln!("warning: {path}: skipped {w}");
    }
    if !warnings.is_empty() {
        eprintln!(
            "warning: {path}: {} line(s) skipped (counted as {})",
            warnings.len(),
            obskit::SKIPPED_LINES_COUNTER
        );
    }
    events
}

fn profile_trace(positional: &[&String], flags: &HashMap<String, String>) {
    match positional {
        [] => {
            eprintln!(
                "profile requires a trace file: dail_sql_cli profile TRACE.jsonl \
                 (or two files to diff them)"
            );
            std::process::exit(2);
        }
        [path] => {
            let events = load_trace(path);
            print!("{}", obskit::Profile::from_events(&events).to_markdown());
        }
        [base_path, new_path] => {
            let base = obskit::Profile::from_events(&load_trace(base_path));
            let new = obskit::Profile::from_events(&load_trace(new_path));
            let diff = obskit::ProfileDiff::between(&base, &new);
            print!("{}", diff.to_markdown());
            if let Some(raw) = flags.get("fail-on-regress") {
                let threshold: f64 = match raw.parse() {
                    Ok(t) if t >= 0.0 => t,
                    _ => {
                        eprintln!(
                            "--fail-on-regress must be a non-negative percentage, got {raw:?}"
                        );
                        std::process::exit(2);
                    }
                };
                let regressed = diff.regressions(threshold);
                if !regressed.is_empty() {
                    for (stage, pct) in &regressed {
                        eprintln!("REGRESSION: stage {stage} self-time +{pct:.1}% (threshold {threshold}%)");
                    }
                    std::process::exit(1);
                }
                eprintln!("perf gate OK: no stage regressed beyond {threshold}%");
            }
        }
        more => {
            eprintln!("profile takes one or two trace files, got {}", more.len());
            std::process::exit(2);
        }
    }
}

fn flame_trace(positional: &[&String], flags: &HashMap<String, String>) {
    let [path] = positional else {
        eprintln!("flame requires a trace file: dail_sql_cli flame TRACE.jsonl [-o OUT.svg]");
        std::process::exit(2);
    };
    let flame = obskit::Flame::from_events(&load_trace(path));
    if flags.contains_key("folded") {
        print!("{}", flame.folded());
        return;
    }
    let svg = flame.to_svg();
    match flags.get("out") {
        Some(out) => {
            if let Err(e) = std::fs::write(out, &svg) {
                eprintln!("cannot write {out}: {e}");
                std::process::exit(2);
            }
            eprintln!(
                "flamegraph written to {out} (wall {}, {} root frames)",
                obskit::fmt_ns(flame.wall_ns()),
                flame.root.children.len()
            );
        }
        None => print!("{svg}"),
    }
}
