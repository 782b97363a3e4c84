//! `serve_hot`: `servekit::serve` with two workers under the serve-bench
//! traffic mix (dup-rate 0.35, mean gap 30 ms; faults: error 0.10, spike
//! 0.05 of +250 ms, corrupt 0.05), 10,000 requests over the paper's
//! 300-question dev set (`bench::paper_config()`), then every OK response
//! scored with `eval::score_item` as serve-bench does. About 97% of
//! requests hit the prediction cache and scoring re-executes the same few
//! hundred statements, so this workload exercises the cache and repeated
//! execution, and uses little selection or `simllm`.
//!
//! The queue holds the whole batch and a request may retry seven times
//! (deadline 10 s virtual), so no request is shed or runs out of retries:
//! the faults still force retries and corrupt SQL, but every op succeeds
//! on a correct program.
//!
//! The workload seed seeds the traffic: arrivals, hot keys, faults and
//! the model's sampling seed. The dataset stays the paper's.
//!
//! An op is one request. It fails when its outcome is not OK, when its SQL
//! differs from DAIL-SQL's own prediction for the item (corrupted exactly
//! when the fault plan says so), or when a later pass (or the traced pass)
//! gives it a different outcome, virtual latency or score.

use std::collections::HashMap;
use std::time::{Duration, Instant};

use dail_core::{DailSql, PredictCtx, Predictor};
use eval::ItemScore;
use promptkit::ExampleSelector;
use servekit::{cache_key, LoadConfig, Outcome as Served, ServeConfig, ServeReq, ServeStats};
use simllm::{FaultConfig, FaultInjector};
use spider_gen::ExampleItem;
use storage::Database;
use textkit::Tokenizer;

use crate::layers::{same_score, traced_score, Layers, TracedDail};
use crate::report::{fmt_secs, median_secs, Digest, Ops};
use crate::{ctx, model, repeated_setup, Outcome, RunArgs};

/// Set-ups per timed run.
const SETUP_REPS: usize = 15;

/// Requests per pass.
const REQUESTS: usize = 10_000;
/// Serving worker threads.
const WORKERS: usize = 2;
/// Untraced and traced passes of the traced run, alternating.
const TRACE_PAIRS: usize = 3;

fn load(seed: u64, requests: usize) -> LoadConfig {
    LoadConfig {
        seed,
        requests,
        mean_gap_ms: 30,
        dup_rate: 0.35,
    }
}

fn serve_config(faults: FaultConfig, requests: usize) -> ServeConfig {
    ServeConfig {
        workers: WORKERS,
        queue_capacity: requests,
        cache_capacity: 4096,
        max_attempts: 8,
        backoff_base_ms: 25,
        deadline_ms: 10_000,
        time_scale: 0.0,
        repr: "dail".into(),
        shots: 0,
        faults,
        trace_sample: 1.0,
    }
}

fn faults(seed: u64) -> FaultConfig {
    FaultConfig {
        seed,
        error_rate: 0.10,
        spike_rate: 0.05,
        spike_ms: 250,
        corrupt_rate: 0.05,
    }
}

/// One served and scored batch.
struct Pass {
    wall: Duration,
    serve: Duration,
    stats: ServeStats,
    outcomes: Vec<Served>,
    /// Scores of OK responses.
    scores: Vec<Option<ItemScore>>,
}

type Scorer<'s> = &'s dyn Fn(&Database, &ExampleItem, &str) -> ItemScore;

fn pass(
    predictor: &(dyn Predictor + Sync),
    ctx: &PredictCtx<'_>,
    reqs: &[ServeReq],
    cfg: &ServeConfig,
    score: Scorer<'_>,
) -> Pass {
    let bench = ctx.bench;
    let started = Instant::now();
    let served = servekit::serve(predictor, ctx, &bench.dev, reqs, cfg);
    let serve = started.elapsed();
    let scores = reqs
        .iter()
        .zip(&served.outcomes)
        .map(|(req, outcome)| match outcome {
            Served::Ok { sql, .. } => {
                let item = &bench.dev[req.item_idx];
                Some(score(bench.db(item), item, sql))
            }
            _ => None,
        })
        .collect();
    Pass {
        wall: started.elapsed(),
        serve,
        stats: served.stats,
        outcomes: served.outcomes,
        scores,
    }
}

/// The SQL each OK response must carry, by `(item, attempts)`: DAIL-SQL's
/// own prediction for the item, corrupted exactly when the fault plan of
/// the attempt that succeeded says so.
fn expected_sql(
    ctx: &PredictCtx<'_>,
    reqs: &[ServeReq],
    p: &Pass,
    cfg: &ServeConfig,
) -> HashMap<(usize, u32), String> {
    let dail = DailSql::new(model());
    let inj = FaultInjector::new(cfg.faults);
    let mut predicted: HashMap<usize, String> = HashMap::new();
    let mut expected = HashMap::new();
    for (req, outcome) in reqs.iter().zip(&p.outcomes) {
        let Served::Ok { attempts, .. } = outcome else {
            continue;
        };
        let attempt = attempts - 1;
        expected
            .entry((req.item_idx, *attempts))
            .or_insert_with(|| {
                let item = &ctx.bench.dev[req.item_idx];
                let sql = predicted
                    .entry(req.item_idx)
                    .or_insert_with(|| dail.predict(ctx, item).sql);
                let key = cache_key(&item.db_id, &item.question, &cfg.repr, cfg.shots);
                if inj.plan(&key, attempt).corrupt {
                    inj.corrupt_sql(sql, &key, attempt)
                } else {
                    sql.clone()
                }
            });
    }
    expected
}

/// Record every request of `p` as an op (see the module docs).
fn check(
    p: &Pass,
    reqs: &[ServeReq],
    expected: &HashMap<(usize, u32), String>,
    reference: Option<&Pass>,
    ops: &mut Ops,
) {
    for (i, (req, outcome)) in reqs.iter().zip(&p.outcomes).enumerate() {
        let right_sql = match outcome {
            Served::Ok { sql, attempts, .. } => {
                expected.get(&(req.item_idx, *attempts)) == Some(sql)
            }
            _ => false,
        };
        let repeats = reference.is_none_or(|r| {
            r.outcomes[i] == *outcome
                && match (&r.scores[i], &p.scores[i]) {
                    (Some(a), Some(b)) => same_score(a, b),
                    (a, b) => a.is_none() && b.is_none(),
                }
        });
        ops.record(right_sql && repeats);
    }
}

/// Digest of every request's outcome, virtual latency, attempts and score.
fn digest(p: &Pass) -> String {
    let mut d = Digest::default();
    for (outcome, score) in p.outcomes.iter().zip(&p.scores) {
        d.field(format!("{outcome:?}"))
            .field(format!("{:?}", score.map(|s| (s.valid, s.ex, s.em))));
    }
    d.hex()
}

fn ex_line(p: &Pass) -> String {
    let scored = p.scores.iter().flatten().count();
    let correct = p.scores.iter().flatten().filter(|s| s.ex).count();
    format!(
        "EX (served ok): {:.4} ({correct}/{scored})",
        correct as f64 / scored.max(1) as f64
    )
}

fn cache_hit_ratio(stats: &ServeStats) -> f64 {
    let c = &stats.cache;
    c.served as f64 / (c.served + c.misses).max(1) as f64
}

fn serve_lines(p: &Pass) -> Vec<String> {
    let s = &p.stats;
    let not_ok = p
        .outcomes
        .iter()
        .filter(|o| !matches!(o, Served::Ok { .. }))
        .count();
    vec![
        format!(
            "serve: {} requests, {not_ok} not OK, {} shed, {} retries, cache hits {} / misses {} \
             (hit ratio {:.4})",
            s.submitted,
            s.shed,
            s.retries,
            s.cache.served,
            s.cache.misses,
            cache_hit_ratio(s)
        ),
        ex_line(p),
    ]
}

pub fn timed(args: &RunArgs) -> Outcome {
    let (setups, bench) = repeated_setup(SETUP_REPS, || {
        let bench = bench::paper_benchmark();
        drop(ExampleSelector::new(&bench));
        bench
    });
    // The kept set-up's selector is rebuilt here; its build time is
    // already in the last set-up sample.
    let selector = ExampleSelector::new(&bench);
    let tokenizer = Tokenizer::new();
    let ctx = ctx(&bench, &selector, &tokenizer, args.seed);
    let reqs = servekit::generate(&load(args.seed, REQUESTS), bench.dev.len());
    let scfg = serve_config(faults(args.seed), REQUESTS);
    let dail = DailSql::new(model());

    let mut out = Outcome::default();
    let started = Instant::now();
    let first = pass(&dail, &ctx, &reqs, &scfg, &eval::score_item);
    let expected = expected_sql(&ctx, &reqs, &first, &scfg);
    check(&first, &reqs, &expected, None, &mut out.ops);
    let mut walls = vec![first.wall];
    let mut serve_walls = vec![first.serve];
    while started.elapsed() + walls[walls.len() - 1] <= args.seconds {
        let again = pass(&dail, &ctx, &reqs, &scfg, &eval::score_item);
        check(&again, &reqs, &expected, Some(&first), &mut out.ops);
        walls.push(again.wall);
        serve_walls.push(again.serve);
    }

    let pass_s = median_secs(&walls);
    out.metrics.set("setup_s", median_secs(&setups), "s");
    out.lines
        .push(format!("setup reps (s): {}", fmt_secs(&setups)));
    out.metrics
        .set("ops_per_s", REQUESTS as f64 / pass_s, "1/s");
    out.lines.push(format!(
        "serve_rps: {:.1} 1/s (median of {} passes of {REQUESTS} requests; serve() {:.3} s of {pass_s:.3} s)",
        REQUESTS as f64 / pass_s,
        walls.len(),
        median_secs(&serve_walls)
    ));
    out.lines.push(format!("pass_s: {}", fmt_secs(&walls)));
    out.lines.extend(serve_lines(&first));
    out.lines
        .push(format!("digest outcomes: {}", digest(&first)));
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
    let started = Instant::now();
    let selector = ExampleSelector::new(&bench);
    out.metrics.set(
        "promptkit.selector_new_s",
        started.elapsed().as_secs_f64(),
        "s",
    );
    let tokenizer = Tokenizer::new();
    let ctx = ctx(&bench, &selector, &tokenizer, args.seed);
    let reqs = servekit::generate(&load(args.seed, REQUESTS), bench.dev.len());
    let scfg = serve_config(faults(args.seed), REQUESTS);

    // A warm-up pass first, so every measured pass runs on warm selector
    // caches, as every timed pass after the first does. Then untraced and
    // traced passes alternate, so a change in host speed falls on both
    // alike.
    let dail = DailSql::new(model());
    let warm = pass(&dail, &ctx, &reqs, &scfg, &eval::score_item);
    let expected = expected_sql(&ctx, &reqs, &warm, &scfg);
    check(&warm, &reqs, &expected, None, &mut out.ops);

    let layers = Layers::default();
    let predictor = TracedDail {
        model: model(),
        shots: dail.shots,
        layers: &layers,
    };
    let score = |db: &Database, item: &ExampleItem, sql: &str| traced_score(&layers, db, item, sql);
    let (mut untraced_wall, mut traced_wall, mut serve_wall) =
        (Duration::ZERO, Duration::ZERO, Duration::ZERO);
    let mut traced = None;
    for _ in 0..TRACE_PAIRS {
        let u = pass(&dail, &ctx, &reqs, &scfg, &eval::score_item);
        check(&u, &reqs, &expected, Some(&warm), &mut out.ops);
        let t = pass(&predictor, &ctx, &reqs, &scfg, &score);
        check(&t, &reqs, &expected, Some(&u), &mut out.ops);
        untraced_wall += u.wall;
        traced_wall += t.wall;
        serve_wall += t.serve;
        traced = Some(t);
    }
    let traced = traced.expect("at least one traced pass");

    layers.write(&mut out.metrics);
    let m = &mut out.metrics;
    m.set(
        "servekit.serve_s",
        serve_wall.as_secs_f64() / TRACE_PAIRS as f64,
        "s",
    );
    m.set(
        "servekit.cache_hit_ratio",
        cache_hit_ratio(&traced.stats),
        "ratio",
    );
    m.set("servekit.retries", traced.stats.retries as f64, "count");
    m.set("servekit.shed", traced.stats.shed as f64, "count");
    m.set(
        "trace_overhead_share",
        traced_wall.as_secs_f64() / untraced_wall.as_secs_f64() - 1.0,
        "ratio",
    );
    out.lines.extend(serve_lines(&traced));
    out.lines.push(format!(
        "digest outcomes: warm-up {} traced {}",
        digest(&warm),
        digest(&traced)
    ));
    out.lines.push(format!(
        "per-layer scope: {TRACE_PAIRS} traced passes (serve_s is per pass); \
         core.predict includes its children; build_prompt excludes select"
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use spider_gen::{Benchmark, BenchmarkConfig};

    /// Ops and failures of one checked pass over a tiny benchmark.
    fn checked_pass(
        predictor: &(dyn Predictor + Sync),
        faults: FaultConfig,
        attempts: u32,
    ) -> (Ops, Pass) {
        let bench = Benchmark::generate(BenchmarkConfig::tiny());
        let selector = ExampleSelector::new(&bench);
        let tokenizer = Tokenizer::new();
        let ctx = ctx(&bench, &selector, &tokenizer, 3);
        let reqs = servekit::generate(&load(3, 120), bench.dev.len());
        let mut scfg = serve_config(faults, reqs.len());
        scfg.max_attempts = attempts;
        let p = pass(predictor, &ctx, &reqs, &scfg, &eval::score_item);
        let mut ops = Ops::default();
        let expected = expected_sql(&ctx, &reqs, &p, &scfg);
        check(&p, &reqs, &expected, None, &mut ops);
        (ops, p)
    }

    fn not_ok(p: &Pass) -> u64 {
        p.outcomes
            .iter()
            .filter(|o| !matches!(o, Served::Ok { .. }))
            .count() as u64
    }

    #[test]
    fn corrupt_responses_are_expected_not_failed() {
        let f = FaultConfig {
            corrupt_rate: 1.0,
            error_rate: 0.2,
            ..faults(3)
        };
        let (ops, p) = checked_pass(&DailSql::new(model()), f, 8);
        assert_eq!(
            ops,
            Ops {
                attempted: 120,
                failed: 0
            }
        );
        assert!(p.stats.retries > 0);
    }

    #[test]
    fn refused_requests_count_as_failed_ops() {
        let f = FaultConfig {
            error_rate: 0.5,
            ..faults(3)
        };
        let (ops, p) = checked_pass(&DailSql::new(model()), f, 1);
        assert_eq!(ops.attempted, 120);
        assert!(not_ok(&p) > 0);
        assert_eq!(ops.failed, not_ok(&p));
    }

    #[test]
    fn wrong_sql_counts_as_failed_ops() {
        struct Wrong;
        impl Predictor for Wrong {
            fn name(&self) -> String {
                "wrong".into()
            }
            fn predict(&self, _: &PredictCtx<'_>, _: &ExampleItem) -> dail_core::Prediction {
                dail_core::Prediction {
                    sql: "SELECT 1".into(),
                    prompt_tokens: 0,
                    completion_tokens: 0,
                    api_calls: 1,
                }
            }
        }
        let (ops, _) = checked_pass(&Wrong, faults(3), 8);
        assert_eq!(
            ops,
            Ops {
                attempted: 120,
                failed: 120
            }
        );
    }

    #[test]
    fn panicking_predictor_counts_as_failed_ops() {
        struct Panics;
        impl Predictor for Panics {
            fn name(&self) -> String {
                "panics".into()
            }
            fn predict(&self, _: &PredictCtx<'_>, _: &ExampleItem) -> dail_core::Prediction {
                panic!("injected predictor fault")
            }
        }
        let (ops, p) = checked_pass(&Panics, faults(3), 8);
        assert_eq!(p.stats.panics, p.stats.cache.misses);
        assert_eq!(
            ops,
            Ops {
                attempted: 120,
                failed: 120
            }
        );
    }

    #[test]
    fn traced_pipeline_reproduces_the_untraced_pass() {
        let bench = Benchmark::generate(BenchmarkConfig::tiny());
        let selector = ExampleSelector::new(&bench);
        let tokenizer = Tokenizer::new();
        let ctx = ctx(&bench, &selector, &tokenizer, 3);
        let reqs = servekit::generate(&load(3, 120), bench.dev.len());
        let scfg = serve_config(faults(3), reqs.len());
        let untraced = pass(
            &DailSql::new(model()),
            &ctx,
            &reqs,
            &scfg,
            &eval::score_item,
        );
        let layers = Layers::default();
        let predictor = TracedDail {
            model: model(),
            shots: 5,
            layers: &layers,
        };
        let score =
            |db: &Database, item: &ExampleItem, sql: &str| traced_score(&layers, db, item, sql);
        let traced = pass(&predictor, &ctx, &reqs, &scfg, &score);
        let expected = expected_sql(&ctx, &reqs, &untraced, &scfg);
        let mut ops = Ops::default();
        check(&traced, &reqs, &expected, Some(&untraced), &mut ops);
        assert_eq!(
            ops,
            Ops {
                attempted: 120,
                failed: 0
            }
        );
        assert_eq!(layers.predict.calls(), untraced.stats.cache.misses);
        assert!(layers.execute_query.calls() > 0);
    }
}
