//! Request-scoped trace contexts: span parenting across queues, caches
//! and worker threads, with deterministic head sampling.
//!
//! Within one thread, spans nest implicitly through the thread's open-span
//! stack under the recorder entered with [`crate::Recorder::enter`]. A
//! served request hops threads, though: it is admitted on the submission
//! thread, waits in a queue, runs its retry attempts on a worker, and is
//! EX-scored after the serving loop has drained. A [`TraceContext`]
//! carries the request id, the parent span and the sampling decision
//! across each hop; the receiving thread enters it
//! ([`TraceContext::enter`]), and every span any layer opens in that scope
//! lands in the request's tree.
//!
//! Sampling is *head-based* and deterministic: the decision is made
//! once at admission from `(seed, request_id, rate)` via [`sample`], so
//! the same seed always samples the same requests — traces stay
//! reproducible under load. Entering a sampled-out context switches span
//! and meta recording off for its scope, while counters, gauges and
//! histograms (which are not request-scoped) keep flowing into the current
//! recorder.

use crate::recorder::Scope;

/// A request-scoped tracing context: request id, parent span, and the
/// head-sampling decision. `Copy`, so it can be stored in queue items and
/// handed to other threads without lifetime plumbing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceContext {
    request_id: u64,
    parent: Option<u64>,
    sampled: bool,
    /// False for [`TraceContext::disabled`]: no request, nothing to enter.
    live: bool,
}

impl TraceContext {
    /// No request context: entering it leaves the thread's scope as it is.
    pub const fn disabled() -> TraceContext {
        TraceContext {
            request_id: 0,
            parent: None,
            sampled: false,
            live: false,
        }
    }

    /// A context for `request_id` whose spans nest under `parent` (e.g. a
    /// batch-level span), or become trace roots when `parent` is `None`.
    /// `sampled: false` yields a context that records no spans but still
    /// carries the request id.
    pub const fn root(request_id: u64, sampled: bool, parent: Option<u64>) -> TraceContext {
        TraceContext {
            request_id,
            parent,
            sampled,
            live: true,
        }
    }

    /// The request id this context belongs to.
    pub fn request_id(&self) -> u64 {
        self.request_id
    }

    /// The span id spans opened in this context's scope nest under.
    pub fn parent_span(&self) -> Option<u64> {
        self.parent
    }

    /// Do spans opened in this context's scope record? True only for a
    /// sampled request on a thread whose current recorder is enabled.
    #[inline]
    pub fn is_recording(&self) -> bool {
        self.live && self.sampled && crate::enabled()
    }

    /// Enter this request on the calling thread until the guard drops:
    /// spans opened by any layer nest under [`TraceContext::parent_span`]
    /// in the current recorder, or — for a sampled-out request — are not
    /// recorded at all. [`TraceContext::disabled`] changes nothing.
    pub fn enter(&self) -> Scope {
        if self.live {
            Scope::request(self.sampled, self.parent)
        } else {
            Scope::inherit()
        }
    }
}

impl Default for TraceContext {
    fn default() -> Self {
        TraceContext::disabled()
    }
}

/// Deterministic head-sampling decision for one request.
///
/// Hashes `(seed, request_id)` (FNV-1a) into a uniform value in
/// `[0, 1)` and compares it against `rate`. Pure: the same inputs always
/// give the same decision, so traces are reproducible across runs and
/// worker counts. `rate >= 1.0` samples everything, `rate <= 0.0`
/// nothing.
pub fn sample(seed: u64, request_id: u64, rate: f64) -> bool {
    if rate >= 1.0 {
        return true;
    }
    if rate <= 0.0 {
        return false;
    }
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in seed
        .to_le_bytes()
        .into_iter()
        .chain(request_id.to_le_bytes())
    {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    // Top 53 bits → uniform f64 in [0, 1).
    ((h >> 11) as f64 / (1u64 << 53) as f64) < rate
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Event, Recorder};

    #[test]
    fn disabled_context_inherits_the_scope() {
        let ctx = TraceContext::disabled();
        assert!(!ctx.is_recording());
        let r = Recorder::enabled();
        let _g = r.enter();
        let outer = crate::span("outer");
        {
            let _req = ctx.enter();
            let _s = crate::span("inner");
        }
        match &r.events()[1] {
            Event::SpanStart { parent, .. } => assert_eq!(*parent, outer.id()),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn entered_context_parents_spans_across_threads() {
        let r = Recorder::enabled();
        let _g = r.enter();
        let root = crate::span("root");
        let ctx = TraceContext::root(7, true, root.id());
        let worker = crate::current();
        std::thread::scope(|scope| {
            scope.spawn(|| {
                let _g = worker.enter();
                let _req = ctx.enter();
                assert!(ctx.is_recording());
                let _s = crate::span("hop");
            });
        });
        // A parentless context makes its spans trace roots, even with an
        // open span on the thread.
        {
            let _req = TraceContext::root(8, true, None).enter();
            let _s = crate::span("orphan");
        }
        let parents: Vec<(String, Option<u64>)> = r
            .events()
            .into_iter()
            .filter_map(|e| match e {
                Event::SpanStart { name, parent, .. } => Some((name, parent)),
                _ => None,
            })
            .collect();
        assert_eq!(
            parents,
            vec![
                ("root".to_string(), None),
                ("hop".to_string(), root.id()),
                ("orphan".to_string(), None),
            ]
        );
    }

    #[test]
    fn sampling_is_deterministic_and_respects_bounds() {
        for id in 0..64 {
            assert!(sample(7, id, 1.0));
            assert!(!sample(7, id, 0.0));
            assert_eq!(sample(7, id, 0.5), sample(7, id, 0.5));
        }
    }

    #[test]
    fn sampling_rate_is_roughly_honored() {
        let hits = (0..10_000).filter(|&id| sample(42, id, 0.1)).count();
        assert!((500..1500).contains(&hits), "{hits}");
    }

    #[test]
    fn different_seeds_pick_different_requests() {
        let pick = |seed| {
            (0..1000)
                .filter(|&id| sample(seed, id, 0.1))
                .collect::<Vec<_>>()
        };
        assert_ne!(pick(1), pick(2));
    }
}
