//! End-to-end and per-layer benchmark of the DAIL-SQL reproduction.
//!
//! ```text
//! bash perfbench/run.sh --workload paper_tables|serve_hot|ask_large_pool \
//!     [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! `run.sh` builds this package from source and runs it with
//! `DAIL_THREADS` set to the core count and every other `DAIL_*` knob
//! unset. Each workload makes its inputs from `--seed`, sets up several
//! times, measures with tracing off for about `--seconds` (`ask_large_pool`
//! instead asks its fixed question set once), and checks every output. `--trace 1` instead runs an untraced and a traced side in
//! alternating turns and reports per-layer numbers; the traced side must
//! reproduce the untraced outputs item by item.
//!
//! Standard output holds a readable report (host fingerprint, output
//! digests, EX, the workload's headline figures) and, as its last line,
//! one JSON object: `{"correct", "attempted", "failed", "metrics"}`.

mod ask_large_pool;
mod layers;
mod paper_tables;
mod report;
mod serve_hot;

use std::time::{Duration, Instant};

use report::{Metrics, Ops};

/// Workloads by name, with their default seeds.
const WORKLOADS: [(&str, u64); 3] = [("paper_tables", 0), ("serve_hot", 7), ("ask_large_pool", 0)];

/// End-to-end metrics every timed run reports, with units.
pub const END_TO_END: [(&str, &str); 3] = [
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("ops_per_s", "1/s"),
];

/// Per-layer metrics every traced run reports, with units. A layer the
/// workload never calls reports zero calls.
pub const PER_LAYER: [(&str, &str); 41] = [
    ("spider_gen.generate_s", "s"),
    ("promptkit.selector_new_s", "s"),
    ("eval.runner_new_s", "s"),
    ("eval.run_experiment.e1_s", "s"),
    ("eval.run_experiment.e2_s", "s"),
    ("eval.run_experiment.e3_s", "s"),
    ("eval.run_experiment.e4_s", "s"),
    ("eval.run_experiment.e5_s", "s"),
    ("eval.run_experiment.e6_s", "s"),
    ("eval.run_experiment.e7_s", "s"),
    ("eval.run_experiment.e8_s", "s"),
    ("eval.run_experiment.e9_s", "s"),
    ("eval.run_experiment.e10_s", "s"),
    ("eval.run_experiment.a1_s", "s"),
    ("eval.run_experiment.a2_s", "s"),
    ("eval.run_experiment.a3_s", "s"),
    ("eval.run_experiment.a4_s", "s"),
    ("eval.run_experiment.a5_s", "s"),
    ("eval.run_experiment.a6_s", "s"),
    ("promptkit.select.calls", "count"),
    ("promptkit.select.busy_ms", "ms"),
    ("promptkit.build_prompt.calls", "count"),
    ("promptkit.build_prompt.busy_ms", "ms"),
    ("simllm.complete.calls", "count"),
    ("simllm.complete.busy_ms", "ms"),
    ("sqlkit.parse_query.calls", "count"),
    ("sqlkit.parse_query.busy_ms", "ms"),
    ("sqlkit.exact_set_match.calls", "count"),
    ("sqlkit.exact_set_match.busy_ms", "ms"),
    ("storage.execute_query.calls", "count"),
    ("storage.execute_query.busy_ms", "ms"),
    ("storage.execute_query.distinct_share", "ratio"),
    ("storage.results_match.calls", "count"),
    ("storage.results_match.busy_ms", "ms"),
    ("core.predict.calls", "count"),
    ("core.predict.busy_ms", "ms"),
    ("servekit.serve_s", "s"),
    ("servekit.cache_hit_ratio", "ratio"),
    ("servekit.retries", "count"),
    ("servekit.shed", "count"),
    ("trace_overhead_share", "ratio"),
];

/// One workload run's settings.
#[derive(Debug, Clone, Copy)]
pub struct RunArgs {
    /// Workload seed.
    pub seed: u64,
    /// Measurement window.
    pub seconds: Duration,
}

/// What a workload run hands back.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Ops attempted and failed.
    pub ops: Ops,
    /// Timed runs: `setup_s` and `ops_per_s`. Traced runs: the per-layer
    /// metrics the workload measures.
    pub metrics: Metrics,
    /// Readable report lines (digests, EX, headline figures).
    pub lines: Vec<String>,
}

/// The backbone model of every DAIL-SQL prediction.
pub fn model() -> simllm::SimLlm {
    simllm::SimLlm::new("gpt-4").expect("gpt-4 is in the model zoo")
}

/// An untraced prediction context over the standard questions.
pub fn ctx<'a>(
    bench: &'a spider_gen::Benchmark,
    selector: &'a promptkit::ExampleSelector<'a>,
    tokenizer: &'a textkit::Tokenizer,
    seed: u64,
) -> dail_core::PredictCtx<'a> {
    dail_core::PredictCtx {
        bench,
        selector,
        tokenizer,
        seed,
        realistic: false,
        trace: obskit::TraceContext::disabled(),
    }
}

/// Run `setup` `reps - 1` times for timing only, then once more keeping
/// its result. Returns every set-up time and the kept result; a timed run
/// reports their median as `setup_s`.
pub fn repeated_setup<T>(reps: usize, mut setup: impl FnMut() -> T) -> (Vec<Duration>, T) {
    let mut times = Vec::with_capacity(reps);
    for _ in 1..reps {
        let started = Instant::now();
        let discarded = setup();
        times.push(started.elapsed());
        drop(discarded);
    }
    let started = Instant::now();
    let kept = setup();
    times.push(started.elapsed());
    (times, kept)
}

/// The host fingerprint recorded with every result.
struct Host {
    cores: usize,
    cpu: String,
    /// Every `DAIL_*` variable the run sees, sorted, plus the knobs the
    /// benchmark pins, even when unset.
    env: Vec<(String, Option<String>)>,
}

/// Knobs that change what the library does; the benchmark runs with all
/// of them unset.
const UNSET_KNOBS: [&str; 5] = [
    "DAIL_RETRIEVAL",
    "DAIL_EXEC",
    "DAIL_ANALYZE",
    "DAIL_TRACE_SAMPLE",
    "DAIL_CRASH_POINT",
];

/// The host the bounds in `BENCHMARK.json` were calibrated on.
const REFERENCE_HOST: &str = include_str!("../reference_host.txt");

impl Host {
    fn detect() -> Host {
        let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
        let cpu = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|s| {
                s.lines()
                    .find_map(|l| l.strip_prefix("model name"))
                    .map(|v| v.trim_start_matches([' ', '\t', ':']).trim().to_string())
            })
            .unwrap_or_else(|| "unknown".to_string());
        let mut env: Vec<(String, Option<String>)> = std::env::vars()
            .filter(|(k, _)| k.starts_with("DAIL_"))
            .map(|(k, v)| (k, Some(v)))
            .collect();
        for knob in std::iter::once("DAIL_THREADS").chain(UNSET_KNOBS) {
            if !env.iter().any(|(k, _)| k == knob) {
                env.push((knob.to_string(), None));
            }
        }
        env.sort();
        Host { cores, cpu, env }
    }

    fn fingerprint(&self) -> String {
        format!("cores={} cpu={}", self.cores, self.cpu)
    }

    /// Lines describing the host, flagging any difference from the
    /// reference host and from the pinned environment.
    fn report(&self) -> Vec<String> {
        let env = self
            .env
            .iter()
            .map(|(k, v)| format!("{k}={}", v.as_deref().unwrap_or("<unset>")))
            .collect::<Vec<_>>()
            .join(" ");
        let mut lines = vec![format!("host: {} | env: {env}", self.fingerprint())];
        let reference = REFERENCE_HOST.trim();
        if self.fingerprint() == reference {
            lines.push("host check: matches the reference host".to_string());
        } else {
            lines.push(format!(
                "host check: MISMATCH (reference: {reference}); compare these figures \
                 only with runs on this host"
            ));
        }
        let threads = self
            .env
            .iter()
            .find(|(k, _)| k == "DAIL_THREADS")
            .and_then(|(_, v)| v.clone());
        let stray: Vec<&str> = self
            .env
            .iter()
            .filter(|(k, v)| v.is_some() && UNSET_KNOBS.contains(&k.as_str()))
            .map(|(k, _)| k.as_str())
            .collect();
        if threads.as_deref() != Some(self.cores.to_string().as_str()) || !stray.is_empty() {
            lines.push(format!(
                "env check: MISMATCH (want DAIL_THREADS={} and {} unset)",
                self.cores,
                UNSET_KNOBS.join(", ")
            ));
        }
        lines
    }
}

fn usage(msg: &str) -> ! {
    eprintln!("perfbench: {msg}");
    eprintln!(
        "usage: perfbench --workload <{}> [--seed N] [--seconds S] [--trace 0|1]",
        WORKLOADS.map(|(w, _)| w).join("|")
    );
    std::process::exit(2);
}

fn parse_args() -> (&'static str, RunArgs, bool) {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let mut seed = None;
    let mut seconds = 30u64;
    let mut trace = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let Some(value) = it.next() else {
            usage(&format!("{flag} needs a value"));
        };
        let number = || {
            value
                .parse::<u64>()
                .unwrap_or_else(|_| usage(&format!("{flag} wants a whole number, got {value:?}")))
        };
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    WORKLOADS
                        .iter()
                        .find(|(w, _)| w == value)
                        .unwrap_or_else(|| usage(&format!("unknown workload {value:?}"))),
                )
            }
            "--seed" => seed = Some(number()),
            "--seconds" => seconds = number().max(1),
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage("--trace wants 0 or 1"),
                }
            }
            _ => usage(&format!("unknown flag {flag}")),
        }
    }
    let Some(&(name, default_seed)) = workload else {
        usage("--workload is required");
    };
    let run = RunArgs {
        seed: seed.unwrap_or(default_seed),
        seconds: Duration::from_secs(seconds),
    };
    (name, run, trace)
}

fn main() {
    let (workload, args, trace) = parse_args();
    let host = Host::detect();
    let mut out = match (workload, trace) {
        ("paper_tables", false) => paper_tables::timed(&args),
        ("paper_tables", true) => paper_tables::traced(&args),
        ("serve_hot", false) => serve_hot::timed(&args),
        ("serve_hot", true) => serve_hot::traced(&args),
        ("ask_large_pool", false) => ask_large_pool::timed(&args),
        ("ask_large_pool", true) => ask_large_pool::traced(&args),
        _ => unreachable!("workload names are checked by parse_args"),
    };

    let mut metrics = Metrics::default();
    if trace {
        for (name, unit) in PER_LAYER {
            metrics.set(name, out.metrics.get(name).unwrap_or(0.0), unit);
        }
    } else {
        out.metrics.set("peak_rss_mb", report::peak_rss_mb(), "MiB");
        for (name, unit) in END_TO_END {
            let value = out
                .metrics
                .get(name)
                .unwrap_or_else(|| panic!("{workload} did not measure {name}"));
            metrics.set(name, value, unit);
        }
    }

    println!(
        "workload: {workload} | seed: {} | seconds: {} | mode: {}",
        args.seed,
        args.seconds.as_secs(),
        if trace { "traced" } else { "timed" }
    );
    for line in host.report().iter().chain(&out.lines) {
        println!("{line}");
    }
    println!(
        "ops: {} | ops_failed: {}",
        out.ops.attempted, out.ops.failed
    );
    print!("{}", metrics.render_lines());
    println!("{}", report::result_line(out.ops, &metrics));
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every metric the program can print is declared in `BENCHMARK.json`
    /// with the same unit, and the file declares nothing else.
    #[test]
    fn metric_lists_match_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json next to perfbench/");
        let compact: String = json.split_whitespace().collect();
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER.iter()) {
            assert!(report::valid_metric_name(name), "{name}");
            let entry = format!("{{\"name\":\"{name}\",\"unit\":\"{unit}\"");
            assert!(compact.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        for (workload, _) in WORKLOADS {
            assert!(compact.contains(&format!("{{\"name\":\"{workload}\"")));
        }
        let declared = compact.matches("{\"name\":").count();
        assert_eq!(
            declared,
            END_TO_END.len() + PER_LAYER.len() + WORKLOADS.len()
        );
    }
}
