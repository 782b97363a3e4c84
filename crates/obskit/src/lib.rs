//! # obskit — zero-dependency tracing and metrics for the DAIL-SQL pipeline
//!
//! The paper this workspace reproduces is a *measurement* study: it compares
//! question representations, example-selection and organization strategies
//! on accuracy **and** token/call cost. This crate is the telemetry
//! substrate that turns the reproduction's aggregate numbers into
//! explanations — per-stage wall-clock, token and failure attribution.
//!
//! Pieces:
//!
//! * [`Span`] — RAII timers with parent/child nesting (thread-local stack).
//! * [`Recorder`] — thread-safe event sink; serializes traces to JSONL.
//! * A thread-scoped *current* recorder: [`Recorder::enter`] makes a
//!   recorder current on the calling thread until the returned [`Scope`]
//!   guard drops, and every layer (`simllm`, `storage`, `promptkit`, …)
//!   records into it through [`current`], [`span`] and [`enabled`] without
//!   threading a handle through its signatures. Outside any scope the
//!   current recorder is disabled, so the untraced path costs one
//!   thread-local read per instrumentation site. Spawn sites that do
//!   traced work capture [`current`] and enter it in each worker.
//! * Named counters, gauges and log-scale latency [`Histogram`]s.
//! * [`Profile`] — replays an event stream into a per-stage markdown
//!   breakdown table (same visual style as `eval::report::Table`).
//! * [`ProfileDiff`] — cross-run comparison of two profiles (per-stage
//!   self-times, counters, histograms) with a CI regression gate.
//! * [`Flame`] — folds a span trace into merged stacks and renders
//!   folded-stack text or a self-contained `flamegraph.svg`.
//! * [`TraceContext`] — request-scoped context (request id, parent span
//!   and a deterministic head-sampling decision), entered at each thread
//!   hop so a served request forms one connected span tree.
//! * [`expo`] — Prometheus text exposition of the counters/gauges/log₂
//!   histograms (and labelled [`tsdb`] series with `# exemplar` lines),
//!   plus a validating mini-parser for tests.
//! * [`tsdb`] — windowed time series: labelled series with a hard
//!   cardinality bound, fixed-step ring-buffer windows (rates, windowed
//!   quantiles), and per-window exemplars linking back to sampled
//!   request traces. All on the virtual clock; a recorder owns its store
//!   ([`Recorder::with_tsdb`]).
//!
//! Determinism: event *ordering* is stable for a fixed workload (workers
//! buffer into local recorders that are absorbed in item order), and
//! [`Event`] equality excludes timestamps, so traces can be compared in
//! tests.

#![warn(missing_docs)]

mod event;
pub mod expo;
mod flame;
mod hist;
mod jsonl;
mod profile;
mod recorder;
pub mod trace;
pub mod tsdb;

pub use event::Event;
pub use flame::{Flame, FlameNode};
pub use hist::{bucket_high, bucket_index, bucket_low, Histogram, BUCKETS};
pub use jsonl::{
    canonical_jsonl, parse_jsonl, parse_jsonl_line, parse_jsonl_lossy, to_json_line,
    SKIPPED_LINES_COUNTER,
};
pub use profile::{fmt_ns, fmt_ns_delta, Profile, ProfileDiff, StageDelta, StageStats};
pub use recorder::{current, enabled, span, MetricsSnapshot, Recorder, Scope, Span};
pub use trace::TraceContext;

#[cfg(test)]
mod tests {
    use super::*;

    fn span_names(r: &Recorder) -> Vec<String> {
        r.events()
            .into_iter()
            .filter_map(|e| match e {
                Event::SpanStart { name, .. } => Some(name),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn threads_with_separate_scopes_record_only_their_own_events() {
        let (a, b) = (Recorder::enabled(), Recorder::enabled());
        std::thread::scope(|scope| {
            for (rec, name) in [(&a, "a"), (&b, "b")] {
                scope.spawn(move || {
                    let _g = rec.enter();
                    for _ in 0..100 {
                        let _s = span(name);
                        current().add_counter(name, 1);
                    }
                });
            }
        });
        for (rec, mine, theirs) in [(&a, "a", "b"), (&b, "b", "a")] {
            let names = span_names(rec);
            assert_eq!(names.len(), 100);
            assert!(names.iter().all(|n| n == mine), "{names:?}");
            let counters = rec.metrics().counters;
            assert_eq!(counters[mine], 100);
            assert!(!counters.contains_key(theirs));
        }
    }

    #[test]
    fn dropping_a_nested_guard_restores_the_outer_recorder() {
        let (outer, inner) = (Recorder::enabled(), Recorder::enabled());
        let _o = outer.enter();
        {
            let _i = inner.enter();
            let _s = span("in");
        }
        let _s = span("out");
        assert_eq!(span_names(&inner), vec!["in"]);
        assert_eq!(span_names(&outer), vec!["out"]);
    }

    #[test]
    fn a_thread_that_enters_nothing_records_nothing() {
        let rec = Recorder::enabled();
        let _g = rec.enter();
        std::thread::scope(|scope| {
            scope.spawn(|| {
                assert!(!enabled());
                assert!(span("lost").id().is_none());
                current().add_counter("lost", 1);
            });
        });
        assert!(rec.events().is_empty());
        assert!(rec.metrics().counters.is_empty());
    }

    #[test]
    fn a_sampled_out_context_records_no_spans_under_an_enabled_recorder() {
        let rec = Recorder::enabled();
        let _g = rec.enter();
        {
            let _req = TraceContext::root(3, false, None).enter();
            assert!(span("dropped").id().is_none());
            assert!(rec.record_span("dropped", 1).is_none());
            current().meta("dropped", &[]);
            current().add_counter("kept", 1);
        }
        let _s = span("after");
        assert_eq!(
            span_names(&rec),
            vec!["after"],
            "sampling ends with the scope"
        );
        assert_eq!(rec.metrics().counters["kept"], 1, "metrics still flow");
    }
}
