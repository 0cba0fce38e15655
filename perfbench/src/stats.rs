//! Sample summaries, histogram and counter deltas, and the result line.

use sinclave_cas::{CasServer, HistogramView, StatsSnapshot};
use std::time::Duration;

/// Latency samples in nanoseconds.
#[derive(Clone, Debug, Default)]
pub struct Samples(Vec<u64>);

impl Samples {
    pub fn with_capacity(n: usize) -> Samples {
        Samples(Vec::with_capacity(n))
    }

    pub fn from_nanos(nanos: Vec<u64>) -> Samples {
        Samples(nanos)
    }

    pub fn push(&mut self, d: Duration) {
        self.0.push(u64::try_from(d.as_nanos()).unwrap_or(u64::MAX));
    }

    pub fn extend(&mut self, other: Samples) {
        self.0.extend(other.0);
    }

    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// The `q` quantile (nearest rank on the sorted samples), in
    /// nanoseconds; 0 when empty.
    pub fn quantile_ns(&self, q: f64) -> f64 {
        if self.0.is_empty() {
            return 0.0;
        }
        let mut sorted = self.0.clone();
        sorted.sort_unstable();
        let rank = (q * sorted.len() as f64).ceil() as usize;
        sorted[rank.clamp(1, sorted.len()) - 1] as f64
    }

    pub fn mean_ns(&self) -> f64 {
        if self.0.is_empty() {
            return 0.0;
        }
        self.0.iter().map(|&v| v as f64).sum::<f64>() / self.0.len() as f64
    }

    pub fn p50_ms(&self) -> f64 {
        self.quantile_ns(0.5) / 1e6
    }

    pub fn p99_ms(&self) -> f64 {
        self.quantile_ns(0.99) / 1e6
    }
}

/// Median of `values` (sorted copy); 0 when empty.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// One stage's `(count, sum)` at a point in time.
#[derive(Clone, Copy, Debug, Default)]
pub struct StagePoint {
    pub count: u64,
    pub sum: Duration,
}

impl From<HistogramView> for StagePoint {
    fn from(view: HistogramView) -> Self {
        StagePoint { count: view.count(), sum: view.sum() }
    }
}

/// Every stage histogram of one server plus its counters, read through
/// the public views `CasServer::latency()` and `stats.snapshot()`.
#[derive(Clone, Debug)]
pub struct ServerPoint {
    pub verify: StagePoint,
    pub sign: StagePoint,
    pub seal: StagePoint,
    pub journal_flush: StagePoint,
    pub request: StagePoint,
    pub stats: StatsSnapshot,
}

impl ServerPoint {
    pub fn read(server: &CasServer) -> ServerPoint {
        let l = server.latency();
        ServerPoint {
            verify: l.verify.view().into(),
            sign: l.sign.view().into(),
            seal: l.seal.view().into(),
            journal_flush: l.journal_flush.view().into(),
            request: l.request.view().into(),
            stats: server.stats.snapshot(),
        }
    }
}

/// A stage's growth between two points.
#[derive(Clone, Copy, Debug, Default)]
pub struct StageDelta {
    pub count: u64,
    pub sum_ns: f64,
}

impl StageDelta {
    fn between(a: StagePoint, b: StagePoint) -> StageDelta {
        StageDelta {
            count: b.count.saturating_sub(a.count),
            sum_ns: b.sum.saturating_sub(a.sum).as_nanos() as f64,
        }
    }

    /// Δsum / Δcount in microseconds; 0 when nothing was recorded.
    pub fn mean_us(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum_ns / self.count as f64 / 1e3
        }
    }

    fn plus(self, other: StageDelta) -> StageDelta {
        StageDelta { count: self.count + other.count, sum_ns: self.sum_ns + other.sum_ns }
    }
}

/// Growth of every stage between two [`ServerPoint`]s.
#[derive(Clone, Copy, Debug, Default)]
pub struct ServerDelta {
    pub verify: StageDelta,
    pub sign: StageDelta,
    pub seal: StageDelta,
    pub journal_flush: StageDelta,
    pub request: StageDelta,
}

impl ServerDelta {
    pub fn between(a: &ServerPoint, b: &ServerPoint) -> ServerDelta {
        ServerDelta {
            verify: StageDelta::between(a.verify, b.verify),
            sign: StageDelta::between(a.sign, b.sign),
            seal: StageDelta::between(a.seal, b.seal),
            journal_flush: StageDelta::between(a.journal_flush, b.journal_flush),
            request: StageDelta::between(a.request, b.request),
        }
    }

    /// Stage-wise sum of two servers' growth (a fleet's stages run on
    /// whichever node does the work).
    pub fn plus(self, other: ServerDelta) -> ServerDelta {
        ServerDelta {
            verify: self.verify.plus(other.verify),
            sign: self.sign.plus(other.sign),
            seal: self.seal.plus(other.seal),
            journal_flush: self.journal_flush.plus(other.journal_flush),
            request: self.request.plus(other.request),
        }
    }

    /// Σ time of the stages nested inside a request, in nanoseconds.
    pub fn stage_sum_ns(&self) -> f64 {
        self.verify.sum_ns + self.sign.sum_ns + self.seal.sum_ns + self.journal_flush.sum_ns
    }
}

/// Stage coverage of a request-time total and its residual per op:
/// `(Σ stage ÷ request, (request − Σ stage) ÷ ops in µs)`.
pub fn reconcile(stages: &ServerDelta, request_ns: f64, ops: usize) -> (f64, f64) {
    if request_ns <= 0.0 || ops == 0 {
        return (0.0, 0.0);
    }
    let covered = stages.stage_sum_ns();
    (covered / request_ns, (request_ns - covered) / ops as f64 / 1e3)
}

/// Counter growth between two snapshots, by field name.
pub fn counter_delta(a: &StatsSnapshot, b: &StatsSnapshot, name: &str) -> u64 {
    let find =
        |s: &StatsSnapshot| s.named().into_iter().find(|(n, _)| *n == name).map_or(0, |(_, v)| v);
    find(b).saturating_sub(find(a))
}

/// The process's high-water resident set (`VmHWM`) in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// A metric row of the result line.
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

pub fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// Renders a finite number for JSON (non-finite values become 0).
pub fn json_number(value: f64) -> String {
    if value.is_finite() {
        format!("{value}")
    } else {
        "0".to_owned()
    }
}

/// Escapes a string for a JSON string literal.
pub fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// The final result line: `correct`, `attempted`, `failed`, `metrics`.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_string(m.name),
                json_number(m.value),
                json_string(m.unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_use_nearest_rank() {
        let mut s = Samples::default();
        for v in 1..=100u64 {
            s.push(Duration::from_nanos(v));
        }
        assert_eq!(s.quantile_ns(0.5), 50.0);
        assert_eq!(s.quantile_ns(0.99), 99.0);
        assert_eq!(s.quantile_ns(1.0), 100.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn result_line_is_json_shaped() {
        let line = result_line(true, 3, 0, &[metric("setup_s", 1.5, "s")]);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": {\"setup_s\": {\"value\": 1.5, \"unit\": \"s\"}}}"
        );
    }
}
