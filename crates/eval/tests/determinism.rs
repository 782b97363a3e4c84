//! Determinism test: the same evaluation run on one worker thread and on
//! four must produce the same report *and* the same trace.
//!
//! Per-item seeds derive from `seed ^ item.id` and workers absorb their
//! local recorders in chunk order, so nothing observable may depend on
//! thread scheduling. Traces are compared through
//! [`obskit::canonical_jsonl`], which zeroes wall-clock timestamps and
//! durations; latency histograms (`*_ns`, measured on the wall clock) keep
//! only their names and counts. Those are the only fields that
//! legitimately vary run to run. The `eval.threads` gauge is filtered out
//! because reporting the thread count is the gauge's whole job.

use dail_core::DailSql;
use eval::{evaluate_opts, EvalOptions, RunResult};
use obskit::canonical_jsonl;
use promptkit::ExampleSelector;
use simllm::SimLlm;
use spider_gen::{Benchmark, BenchmarkConfig};

/// Keep a wall-clock latency histogram's name and observation count only.
fn zero_wall_clock_histogram(e: obskit::Event) -> obskit::Event {
    match e {
        obskit::Event::Histogram { name, count, .. } if name.ends_with("_ns") => {
            obskit::Event::Histogram {
                name,
                count,
                sum: 0,
                min: 0,
                max: 0,
                buckets: Vec::new(),
            }
        }
        other => other,
    }
}

/// Run the full DAIL pipeline over the tiny benchmark with `threads`
/// workers, returning the result and the canonicalised, filtered trace.
fn run(threads: usize) -> (RunResult, String) {
    let bench = Benchmark::generate(BenchmarkConfig::tiny());
    let selector = ExampleSelector::new(&bench);
    let predictor = DailSql::new(SimLlm::new("gpt-4").expect("gpt-4 is in the zoo"));
    let items = &bench.dev[..8.min(bench.dev.len())];
    let opts = EvalOptions {
        threads: Some(threads),
        digests: false,
    };
    let rec = obskit::Recorder::enabled();
    let result = {
        let _scope = rec.enter();
        evaluate_opts(&bench, &selector, &predictor, items, 2023, false, &opts)
    };
    let events: Vec<obskit::Event> = rec
        .drain_trace()
        .into_iter()
        .filter(|e| e.name() != "eval.threads")
        .map(zero_wall_clock_histogram)
        .collect();
    (result, canonical_jsonl(&events))
}

#[test]
fn reports_and_traces_are_identical_across_thread_counts() {
    let (r1, trace1) = run(1);
    let (r4, trace4) = run(4);

    // Every observable field of the report matches...
    assert_eq!(r1.name, r4.name);
    assert_eq!(r1.n, r4.n);
    assert_eq!(r1.valid, r4.valid);
    assert_eq!(r1.ex, r4.ex);
    assert_eq!(r1.em, r4.em);
    assert_eq!(r1.ex_by_hardness, r4.ex_by_hardness);
    assert_eq!(r1.ex_outcomes, r4.ex_outcomes);
    assert_eq!(r1.cost.prompt_tokens, r4.cost.prompt_tokens);
    assert_eq!(r1.cost.completion_tokens, r4.cost.completion_tokens);
    assert_eq!(r1.cost.api_calls, r4.cost.api_calls);
    assert_eq!(r1.cost.items, r4.cost.items);

    // ...and so does every byte of the canonicalised trace.
    assert_eq!(trace1, trace4);
    assert!(!trace1.is_empty(), "tracing must actually record events");
}

#[test]
fn repeat_runs_on_the_same_thread_count_are_stable() {
    let (r_a, trace_a) = run(4);
    let (r_b, trace_b) = run(4);
    assert_eq!(r_a.ex_outcomes, r_b.ex_outcomes);
    assert_eq!(trace_a, trace_b);
}
