//! Evaluation harness: run a predictor over a dev set, in parallel, and
//! aggregate metrics.

use crate::cost::CostTally;
use crate::digest::DigestAccumulator;
use crate::metrics::{score_item, ItemScore};
use dail_core::{PredictCtx, Predictor};
use promptkit::ExampleSelector;
use spider_gen::{Benchmark, ExampleItem};
use sqlkit::Hardness;
use std::collections::BTreeMap;
use textkit::Tokenizer;

/// Aggregated result of one evaluation run.
#[derive(Debug, Clone)]
pub struct RunResult {
    /// Predictor name.
    pub name: String,
    /// Items evaluated.
    pub n: usize,
    /// Count of valid (parse + execute) predictions.
    pub valid: usize,
    /// Count of execution-accurate predictions.
    pub ex: usize,
    /// Count of exact-set matches.
    pub em: usize,
    /// EX correct/total per hardness bucket.
    pub ex_by_hardness: BTreeMap<Hardness, (usize, usize)>,
    /// Per-item EX outcomes, in item order (for bootstrap CIs).
    pub ex_outcomes: Vec<bool>,
    /// Token/call accounting.
    pub cost: CostTally,
    /// Query-digest rollup over executed predictions. `Some` only when
    /// [`EvalOptions::digests`] was set; the default scoring path never
    /// touches the analyzed executor.
    pub digests: Option<DigestAccumulator>,
}

impl RunResult {
    /// EX percentage.
    pub fn ex_pct(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            100.0 * self.ex as f64 / self.n as f64
        }
    }

    /// EM percentage.
    pub fn em_pct(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            100.0 * self.em as f64 / self.n as f64
        }
    }

    /// Valid-SQL percentage.
    pub fn valid_pct(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            100.0 * self.valid as f64 / self.n as f64
        }
    }

    /// 95% bootstrap confidence interval for EX.
    pub fn ex_ci95(&self, seed: u64) -> crate::stats::ConfidenceInterval {
        crate::stats::bootstrap_ci95(&self.ex_outcomes, seed)
    }
}

/// Knobs for [`evaluate_opts`] beyond the core inputs.
#[derive(Default)]
pub struct EvalOptions {
    /// Worker-thread override. `None` falls back to the `DAIL_THREADS`
    /// environment variable, then to available parallelism.
    pub threads: Option<usize>,
    /// Also run each prediction through the analyzed executor and build a
    /// query-digest rollup in [`RunResult::digests`]. Off by default: scores
    /// are identical either way, but the analyzed run pays per-operator
    /// bookkeeping.
    pub digests: bool,
}

/// Resolve the worker-thread count: explicit override, then `DAIL_THREADS`,
/// then available parallelism, clamped to the number of items.
///
/// An unparsable `DAIL_THREADS` (e.g. `DAIL_THREADS=all`) emits a one-line
/// stderr warning naming the rejected value before falling back — a typo'd
/// override silently running on every core is the kind of surprise that
/// invalidates a benchmark run.
fn resolve_threads(threads: Option<usize>, n_items: usize) -> usize {
    let base = threads
        .or_else(|| {
            let raw = std::env::var("DAIL_THREADS").ok()?;
            match raw.trim().parse::<usize>() {
                Ok(n) => Some(n),
                Err(_) => {
                    // Deliberate user-facing diagnostic, not debug output
                    // (the repo's print lint reserves the print macros for
                    // CLI binaries; a direct stderr write is the sanctioned
                    // escape hatch for warnings).
                    use std::io::Write as _;
                    let _ = writeln!(
                        std::io::stderr(),
                        "warning: ignoring unparsable DAIL_THREADS={raw:?}; \
                         falling back to available parallelism"
                    );
                    None
                }
            }
        })
        .filter(|&n| n > 0)
        .unwrap_or_else(|| {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(4)
        });
    base.min(n_items.max(1))
}

/// Evaluate a predictor over `items`, running chunks on worker threads.
///
/// Per-item seeds derive from `seed ^ item.id`, so results are independent
/// of thread count and item order. Under an enabled recorder (see
/// [`obskit::Recorder::enter`]) the run records an `evaluate` span with
/// one `item` span per item, split into `predict` and `score` children
/// that hold every pipeline layer's spans, plus per-item cost counters. Shorthand for [`evaluate_opts`] with
/// [`EvalOptions::default`].
pub fn evaluate(
    bench: &Benchmark,
    selector: &ExampleSelector<'_>,
    predictor: &(dyn Predictor + Sync),
    items: &[ExampleItem],
    seed: u64,
    realistic: bool,
) -> RunResult {
    evaluate_opts(
        bench,
        selector,
        predictor,
        items,
        seed,
        realistic,
        &EvalOptions::default(),
    )
}

/// [`evaluate`] with explicit [`EvalOptions`] (thread override + tracing).
#[allow(clippy::too_many_arguments)]
pub fn evaluate_opts(
    bench: &Benchmark,
    selector: &ExampleSelector<'_>,
    predictor: &(dyn Predictor + Sync),
    items: &[ExampleItem],
    seed: u64,
    realistic: bool,
    opts: &EvalOptions,
) -> RunResult {
    let threads = resolve_threads(opts.threads, items.len());
    let chunk = items.len().div_ceil(threads.max(1)).max(1);
    let rec = obskit::current();
    let eval_span = rec.span("evaluate");
    rec.set_gauge("eval.threads", threads as f64);

    let digests_on = opts.digests;
    type Scored = (ItemScore, Hardness, usize, usize, usize);
    let (scored, digests): (Vec<Scored>, Option<DigestAccumulator>) = std::thread::scope(|scope| {
        let mut handles = Vec::new();
        for part in items.chunks(chunk) {
            // Each worker records into its own recorder; the buffers are
            // absorbed below in chunk order, so trace ordering is
            // independent of thread scheduling.
            let wrec = if rec.is_enabled() {
                obskit::Recorder::enabled()
            } else {
                obskit::Recorder::disabled()
            };
            let id_lo = part.first().map(|i| i.id).unwrap_or(0);
            let id_hi = part.last().map(|i| i.id).unwrap_or(0);
            let handle = {
                let wrec = wrec.clone();
                scope.spawn(move || {
                    let _scope = wrec.enter();
                    let tokenizer = Tokenizer::new();
                    let ctx = PredictCtx {
                        bench,
                        selector,
                        tokenizer: &tokenizer,
                        seed,
                        realistic,
                        trace: obskit::TraceContext::disabled(),
                    };
                    let mut acc = digests_on.then(DigestAccumulator::new);
                    let part_scores = part
                        .iter()
                        .map(|item| {
                            let _item = wrec.span("item");
                            let pred = {
                                let _s = wrec.span("predict");
                                predictor.predict(&ctx, item)
                            };
                            let score = {
                                let _s = wrec.span("score");
                                let score = score_item(bench.db(item), item, &pred.sql);
                                if let Some(acc) = &mut acc {
                                    acc.observe(bench.db(item), &pred.sql, score.ex);
                                }
                                score
                            };
                            wrec.add_counter("eval.items", 1);
                            wrec.add_counter("eval.prompt_tokens", pred.prompt_tokens as u64);
                            wrec.add_counter(
                                "eval.completion_tokens",
                                pred.completion_tokens as u64,
                            );
                            wrec.add_counter("eval.api_calls", pred.api_calls as u64);
                            (
                                score,
                                item.hardness,
                                pred.prompt_tokens,
                                pred.completion_tokens,
                                pred.api_calls,
                            )
                        })
                        .collect::<Vec<_>>();
                    (part_scores, acc)
                })
            };
            handles.push((handle, wrec, id_lo, id_hi));
        }
        let mut all = Vec::with_capacity(items.len());
        // Merged in chunk order, though digest merging is order-independent
        // anyway, so the rollup matches a single-threaded run.
        let mut merged = digests_on.then(DigestAccumulator::new);
        for (handle, wrec, id_lo, id_hi) in handles {
            match handle.join() {
                Ok((part, acc)) => {
                    all.extend(part);
                    if let (Some(m), Some(a)) = (&mut merged, &acc) {
                        m.merge(a);
                    }
                }
                Err(payload) => {
                    let msg = payload
                        .downcast_ref::<String>()
                        .map(String::as_str)
                        .or_else(|| payload.downcast_ref::<&str>().copied())
                        .unwrap_or("<non-string panic payload>");
                    panic!("evaluation worker panicked on items {id_lo}..={id_hi}: {msg}");
                }
            }
            rec.absorb(&wrec, eval_span.id());
        }
        (all, merged)
    });

    let mut out = RunResult {
        name: predictor.name(),
        n: scored.len(),
        valid: 0,
        ex: 0,
        em: 0,
        ex_by_hardness: BTreeMap::new(),
        ex_outcomes: Vec::with_capacity(scored.len()),
        cost: CostTally::default(),
        digests,
    };
    for (score, hardness, pt, ct, calls) in scored {
        out.valid += usize::from(score.valid);
        out.ex += usize::from(score.ex);
        out.em += usize::from(score.em);
        out.ex_outcomes.push(score.ex);
        let e = out.ex_by_hardness.entry(hardness).or_insert((0, 0));
        e.0 += usize::from(score.ex);
        e.1 += 1;
        out.cost.add(pt, ct, calls);
    }
    rec.set_gauge("eval.ex_pct", out.ex_pct());
    rec.set_gauge("eval.em_pct", out.em_pct());
    rec.set_gauge("eval.valid_pct", out.valid_pct());
    drop(eval_span);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use dail_core::{Prediction, ZeroShot};
    use promptkit::QuestionRepr;
    use simllm::SimLlm;
    use spider_gen::BenchmarkConfig;

    /// A predictor that always returns the gold SQL (oracle).
    struct Oracle;
    impl Predictor for Oracle {
        fn name(&self) -> String {
            "oracle".into()
        }
        fn predict(&self, _ctx: &PredictCtx<'_>, item: &ExampleItem) -> Prediction {
            Prediction {
                sql: item.gold_sql.clone(),
                prompt_tokens: 10,
                completion_tokens: 5,
                api_calls: 1,
            }
        }
    }

    #[test]
    fn oracle_scores_100() {
        let bench = Benchmark::generate(BenchmarkConfig::tiny());
        let selector = ExampleSelector::new(&bench);
        let r = evaluate(&bench, &selector, &Oracle, &bench.dev, 1, false);
        assert_eq!(r.ex, r.n);
        assert_eq!(r.em, r.n);
        assert_eq!(r.valid, r.n);
        assert!((r.ex_pct() - 100.0).abs() < 1e-9);
    }

    #[test]
    fn evaluation_is_deterministic_across_runs() {
        let bench = Benchmark::generate(BenchmarkConfig::tiny());
        let selector = ExampleSelector::new(&bench);
        let z = ZeroShot::new(
            SimLlm::new("gpt-3.5-turbo").unwrap(),
            QuestionRepr::CodeRepr,
        );
        let items = &bench.dev[..20.min(bench.dev.len())];
        let a = evaluate(&bench, &selector, &z, items, 7, false);
        let b = evaluate(&bench, &selector, &z, items, 7, false);
        assert_eq!(a.ex, b.ex);
        assert_eq!(a.em, b.em);
        assert_eq!(a.cost.prompt_tokens, b.cost.prompt_tokens);
    }

    #[test]
    fn hardness_breakdown_sums_to_n() {
        let bench = Benchmark::generate(BenchmarkConfig::tiny());
        let selector = ExampleSelector::new(&bench);
        let r = evaluate(&bench, &selector, &Oracle, &bench.dev, 1, false);
        let total: usize = r.ex_by_hardness.values().map(|(_, t)| t).sum();
        assert_eq!(total, r.n);
    }

    #[test]
    fn thread_override_gives_same_results() {
        let bench = Benchmark::generate(BenchmarkConfig::tiny());
        let selector = ExampleSelector::new(&bench);
        let one = EvalOptions {
            threads: Some(1),
            ..Default::default()
        };
        let many = EvalOptions {
            threads: Some(7),
            ..Default::default()
        };
        let a = evaluate_opts(&bench, &selector, &Oracle, &bench.dev, 1, false, &one);
        let b = evaluate_opts(&bench, &selector, &Oracle, &bench.dev, 1, false, &many);
        assert_eq!(a.ex, b.ex);
        assert_eq!(a.ex_outcomes, b.ex_outcomes);
        assert_eq!(a.cost.prompt_tokens, b.cost.prompt_tokens);
    }

    #[test]
    fn worker_panic_names_item_id_range() {
        struct Bomb;
        impl Predictor for Bomb {
            fn name(&self) -> String {
                "bomb".into()
            }
            fn predict(&self, _ctx: &PredictCtx<'_>, item: &ExampleItem) -> Prediction {
                panic!("boom on item {}", item.id);
            }
        }
        let bench = Benchmark::generate(BenchmarkConfig::tiny());
        let selector = ExampleSelector::new(&bench);
        let items = bench.dev[..4.min(bench.dev.len())].to_vec();
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let opts = EvalOptions {
                threads: Some(1),
                ..Default::default()
            };
            evaluate_opts(&bench, &selector, &Bomb, &items, 1, false, &opts);
        }))
        .unwrap_err();
        let msg = err
            .downcast_ref::<String>()
            .cloned()
            .unwrap_or_else(|| "<none>".into());
        assert!(msg.contains("evaluation worker panicked on items"), "{msg}");
        assert!(msg.contains("boom"), "{msg}");
    }

    #[test]
    fn tracing_run_produces_spans_and_counters() {
        let bench = Benchmark::generate(BenchmarkConfig::tiny());
        let selector = ExampleSelector::new(&bench);
        let items = &bench.dev[..6.min(bench.dev.len())];
        let opts = EvalOptions {
            threads: Some(2),
            digests: false,
        };
        let rec = obskit::Recorder::enabled();
        let r = {
            let _scope = rec.enter();
            evaluate_opts(&bench, &selector, &Oracle, items, 1, false, &opts)
        };
        let m = rec.metrics();
        assert_eq!(m.counters["eval.items"], items.len() as u64);
        assert_eq!(
            m.counters["eval.prompt_tokens"],
            r.cost.prompt_tokens as u64
        );
        // One predict + one score span per item, plus the evaluate span.
        let ends: Vec<String> = rec
            .events()
            .iter()
            .filter_map(|e| match e {
                obskit::Event::SpanEnd { name, .. } => Some(name.clone()),
                _ => None,
            })
            .collect();
        assert_eq!(ends.iter().filter(|s| *s == "predict").count(), items.len());
        assert_eq!(ends.iter().filter(|s| *s == "score").count(), items.len());
        assert_eq!(ends.iter().filter(|s| *s == "evaluate").count(), 1);
    }

    #[test]
    fn trace_event_order_is_independent_of_thread_count() {
        let bench = Benchmark::generate(BenchmarkConfig::tiny());
        let selector = ExampleSelector::new(&bench);
        let items = &bench.dev[..6.min(bench.dev.len())];
        let run = |bench: &Benchmark, threads: usize| {
            let opts = EvalOptions {
                threads: Some(threads),
                digests: false,
            };
            let rec = obskit::Recorder::enabled();
            let _scope = rec.enter();
            evaluate_opts(bench, &selector, &Oracle, items, 1, false, &opts);
            rec.drain_trace()
                .into_iter()
                // The thread-count gauge is the one legitimately varying bit.
                .filter(|e| e.name() != "eval.threads")
                .collect::<Vec<_>>()
        };
        // Event equality excludes timestamps, so identical workloads give
        // identical traces regardless of parallelism. Each run gets its own
        // clone of the benchmark, whose verdict memo starts empty.
        assert_eq!(run(&bench.clone(), 1), run(&bench.clone(), 3));

        // A repeat run on the same benchmark finds every verdict memoized.
        let warm = bench.clone();
        run(&warm, 3);
        let counter = |trace: &[obskit::Event], want: &str| {
            trace.iter().find_map(|e| match e {
                obskit::Event::Counter { name, value } if name == want => Some(*value),
                _ => None,
            })
        };
        let again = run(&warm, 3);
        assert_eq!(
            counter(&again, "eval.verdict_memo.hits"),
            Some(items.len() as u64)
        );
        assert_eq!(counter(&again, "eval.verdict_memo.misses"), None);
    }

    #[test]
    fn harness_spans_hold_every_pipeline_layer() {
        let bench = Benchmark::generate(BenchmarkConfig::tiny());
        let selector = ExampleSelector::new(&bench);
        let dail = dail_core::DailSql::new(SimLlm::new("gpt-4").unwrap());
        let items = &bench.dev[..10.min(bench.dev.len())];
        let opts = EvalOptions {
            threads: Some(2),
            digests: false,
        };
        // Each run scores against its own clone, so neither finds the
        // other's verdicts memoized.
        let untraced = evaluate_opts(&bench.clone(), &selector, &dail, items, 5, false, &opts);
        let rec = obskit::Recorder::enabled();
        let traced = {
            let _scope = rec.enter();
            evaluate_opts(&bench.clone(), &selector, &dail, items, 5, false, &opts)
        };
        assert_eq!(format!("{traced:?}"), format!("{untraced:?}"));

        let mut names = BTreeMap::new();
        let mut children: BTreeMap<u64, Vec<u64>> = BTreeMap::new();
        let mut order = Vec::new();
        for e in rec.events() {
            if let obskit::Event::SpanStart {
                id, parent, name, ..
            } = e
            {
                if let Some(p) = parent {
                    children.entry(p).or_default().push(id);
                }
                order.push(id);
                names.insert(id, name);
            }
        }
        let named = |want: &str| -> Vec<u64> {
            order
                .iter()
                .copied()
                .filter(|id| names[id] == want)
                .collect()
        };
        let child_names = |id: u64| -> Vec<&str> {
            children
                .get(&id)
                .into_iter()
                .flatten()
                .map(|c| names[c].as_str())
                .collect()
        };

        let predicts = named("predict");
        assert_eq!(predicts.len(), items.len());
        for id in predicts {
            let mut below = Vec::new();
            let mut stack = vec![id];
            while let Some(s) = stack.pop() {
                for &c in children.get(&s).into_iter().flatten() {
                    below.push(names[&c].as_str());
                    stack.push(c);
                }
            }
            for layer in [
                "promptkit.build_prompt",
                "promptkit.select",
                "simllm.complete",
            ] {
                assert!(
                    below.contains(&layer),
                    "predict span lacks {layer}: {below:?}"
                );
            }
        }

        // Score spans come in item order (workers are absorbed in chunk
        // order); a prediction that executed gets both scoring stages.
        let tokenizer = Tokenizer::new();
        let ctx = PredictCtx {
            bench: &bench,
            selector: &selector,
            tokenizer: &tokenizer,
            seed: 5,
            realistic: false,
            trace: obskit::TraceContext::disabled(),
        };
        let scores = named("score");
        assert_eq!(scores.len(), items.len());
        let mut valid = 0;
        for (id, item) in scores.into_iter().zip(items) {
            let pred = dail.predict(&ctx, item);
            if score_item(bench.db(item), item, &pred.sql).valid {
                valid += 1;
                assert_eq!(child_names(id), vec!["eval.execution", "eval.comparison"]);
            }
        }
        assert!(
            valid > 0,
            "no prediction executed; the check above was vacuous"
        );
    }
}
