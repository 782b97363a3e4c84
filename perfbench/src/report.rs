//! Result accounting and output: op counts, metric sets, percentiles,
//! output digests and the one-line JSON result.

use std::fmt::Write as _;
use std::time::Duration;

/// Operations attempted and failed in one run. An op fails when it
/// panics, when the system refuses it (a non-OK serve outcome), or when
/// an output check finds it wrong.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Ops {
    /// Operations started.
    pub attempted: u64,
    /// Operations that failed or produced a wrong output.
    pub failed: u64,
}

impl Ops {
    /// Record one finished op and whether it succeeded.
    pub fn record(&mut self, ok: bool) {
        self.attempted += 1;
        self.failed += u64::from(!ok);
    }

    /// Mark an already-recorded op as failed (a check that runs after the
    /// op, such as a re-ask, found its output wrong).
    pub fn fail_recorded(&mut self) {
        self.failed = (self.failed + 1).min(self.attempted);
    }
}

/// Whether `name` is a valid metric name: 1 to 64 letters, digits, `_`,
/// `.` and `-`, starting with a letter or digit.
pub fn valid_metric_name(name: &str) -> bool {
    let mut chars = name.chars();
    let Some(first) = chars.next() else {
        return false;
    };
    name.len() <= 64
        && first.is_ascii_alphanumeric()
        && chars.all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// An ordered set of named metrics with units.
#[derive(Debug, Default, Clone)]
pub struct Metrics {
    entries: Vec<(String, f64, &'static str)>,
}

impl Metrics {
    /// Set `name` to `value` (replacing an earlier value of the same name).
    ///
    /// Panics on an invalid name or a non-finite value: both are bugs in
    /// the benchmark, never properties of the measured program.
    pub fn set(&mut self, name: &str, value: f64, unit: &'static str) {
        assert!(valid_metric_name(name), "invalid metric name {name:?}");
        assert!(value.is_finite(), "metric {name} is not finite: {value}");
        match self.entries.iter_mut().find(|(n, _, _)| n == name) {
            Some(e) => {
                e.1 = value;
                e.2 = unit;
            }
            None => self.entries.push((name.to_string(), value, unit)),
        }
    }

    /// The value of `name`, if set.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.entries.iter().find(|(n, _, _)| n == name).map(|e| e.1)
    }

    /// `name value unit` lines for the human-readable report.
    pub fn render_lines(&self) -> String {
        let mut s = String::new();
        for (name, value, unit) in &self.entries {
            let _ = writeln!(s, "  {name:<40} {value:>14.4} {unit}");
        }
        s
    }
}

/// The JSON result line: `correct`, `attempted`, `failed` and `metrics`.
pub fn result_line(ops: Ops, metrics: &Metrics) -> String {
    let mut s = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        ops.failed == 0,
        ops.attempted,
        ops.failed
    );
    for (i, (name, value, unit)) in metrics.entries.iter().enumerate() {
        if i > 0 {
            s.push_str(", ");
        }
        // `{:?}` prints the shortest round-trip form of an f64: every digit
        // as measured, and always with a decimal point.
        let _ = write!(
            s,
            "\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
        );
    }
    s.push_str("}}");
    s
}

/// Nearest-rank percentile `p` (in `0..100`) of ascending `sorted`
/// samples, or `None` when fewer than ten samples lie beyond it — a tail
/// percentile read off a handful of samples is noise, not a measurement.
pub fn percentile(sorted: &[f64], p: f64) -> Option<f64> {
    let n = sorted.len();
    if n == 0 || !(0.0..100.0).contains(&p) {
        return None;
    }
    let rank = ((p / 100.0) * n as f64).ceil().max(1.0) as usize;
    (n - rank >= 10).then(|| sorted[rank - 1])
}

/// Median of `values` (mean of the two middle values for an even count).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no values");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Median of durations, in seconds.
pub fn median_secs(values: &[Duration]) -> f64 {
    median(&values.iter().map(Duration::as_secs_f64).collect::<Vec<_>>())
}

/// Durations as space-separated seconds, for the readable report.
pub fn fmt_secs(values: &[Duration]) -> String {
    values
        .iter()
        .map(|d| format!("{:.3}", d.as_secs_f64()))
        .collect::<Vec<_>>()
        .join(" ")
}

/// 64-bit FNV-1a digest of a stream of fields. Fields are separated, so
/// `("ab", "c")` and `("a", "bc")` differ.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    /// Feed one field.
    pub fn field(&mut self, field: impl AsRef<[u8]>) -> &mut Self {
        for &b in field.as_ref().iter().chain(&[0x1f]) {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
        self
    }

    /// The digest as 16 hex digits.
    pub fn hex(&self) -> String {
        format!("{:016x}", self.0)
    }
}

/// Peak resident set size of this process so far, in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_needs_ten_samples_beyond_it() {
        let sorted: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&sorted, 99.0), Some(990.0));
        assert_eq!(percentile(&sorted, 50.0), Some(500.0));
        // 999 samples leave only 9 beyond the 99th percentile.
        assert_eq!(percentile(&sorted[..999], 99.0), None);
        assert_eq!(percentile(&sorted[..20], 50.0), Some(10.0));
        assert_eq!(percentile(&sorted[..19], 50.0), None);
        assert_eq!(percentile(&[], 50.0), None);
        assert_eq!(percentile(&sorted, 100.0), None);
    }

    #[test]
    fn metric_names_use_the_allowed_characters() {
        for ok in [
            "setup_s",
            "storage.execute_query.busy_ms",
            "a-b",
            "9x",
            &"a".repeat(64),
        ] {
            assert!(valid_metric_name(ok), "{ok}");
        }
        for bad in [
            "",
            "_lead",
            ".lead",
            "sp ace",
            "slash/",
            "ü",
            "a:b",
            &"a".repeat(65),
        ] {
            assert!(!valid_metric_name(bad), "{bad}");
        }
    }

    #[test]
    #[should_panic(expected = "invalid metric name")]
    fn metrics_reject_invalid_names() {
        Metrics::default().set("bad name", 1.0, "s");
    }

    #[test]
    fn ops_count_failures_once() {
        let mut ops = Ops::default();
        ops.record(true);
        ops.record(false);
        ops.fail_recorded();
        ops.fail_recorded();
        assert_eq!(
            ops,
            Ops {
                attempted: 2,
                failed: 2
            }
        );
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let mut m = Metrics::default();
        m.set("setup_s", 0.5, "s");
        m.set("ops_per_s", 1200.0, "1/s");
        let line = result_line(
            Ops {
                attempted: 3,
                failed: 0,
            },
            &m,
        );
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": {\
             \"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}, \
             \"ops_per_s\": {\"value\": 1200.0, \"unit\": \"1/s\"}}}"
        );
    }

    #[test]
    fn digest_separates_fields() {
        let mut a = Digest::default();
        a.field("ab").field("c");
        let mut b = Digest::default();
        b.field("a").field("bc");
        assert_ne!(a, b);
        assert_eq!(a.hex().len(), 16);
    }

    #[test]
    fn median_of_even_and_odd_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }
}
