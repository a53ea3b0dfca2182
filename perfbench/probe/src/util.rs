//! Measurement helpers: percentiles with the sample-count rule, peak
//! RSS from `/proc`, a deterministic RNG, flat-JSON field extraction,
//! and the in-memory span recorder used by traced runs.

use std::fmt::Write as _;
use std::time::Instant;

/// Median of `v` (mean of the two middle values for even lengths).
pub fn median(v: &[f64]) -> f64 {
    assert!(!v.is_empty(), "median of no samples");
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// Nearest-rank percentile `q` (0 < q < 1) of `v`, or `None` when
/// fewer than ten samples lie beyond it — a tail percentile is only
/// reported when it is backed by at least ten observations.
pub fn tail_percentile(v: &[f64], q: f64) -> Option<f64> {
    let n = v.len();
    let rank = (q * n as f64).ceil() as usize;
    if n == 0 || n - rank.min(n) < 10 {
        return None;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    Some(s[rank.max(1) - 1])
}

/// Peak resident set size (`VmHWM`) of a live process, in KiB.
pub fn vm_hwm_kib(pid: u32) -> Option<u64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// SplitMix64: a tiny seeded generator, so inputs depend only on the
/// seed and this file.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x5DEE_CE66_D1CE_4E5B)
    }

    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    pub fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

/// FNV-1a over bytes: a cheap digest for comparing verdict streams.
pub fn fnv1a(bytes: &[u8], mut h: u64) -> u64 {
    for b in bytes {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x100_0000_01B3);
    }
    h
}

pub const FNV_SEED: u64 = 0xCBF2_9CE4_8422_2325;

/// Extracts the unsigned number after `"key": ` in a flat JSON body.
pub fn u64_field(body: &str, key: &str) -> Option<u64> {
    let pat = format!("\"{key}\": ");
    let at = body.find(&pat)? + pat.len();
    let rest = &body[at..];
    let end = rest
        .find(|c: char| !c.is_ascii_digit())
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// One metric of the result line.
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
    /// Extra context printed in the human-readable table (sample
    /// counts, bases of ratios).
    pub note: String,
}

pub fn metric(
    name: &'static str,
    value: f64,
    unit: &'static str,
    note: impl Into<String>,
) -> Metric {
    Metric {
        name,
        value,
        unit,
        note: note.into(),
    }
}

/// The result of one benchmark run.
pub struct Outcome {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
}

impl Outcome {
    /// Prints the human-readable table, then the machine-readable
    /// result as the last stdout line.
    pub fn print(&self) {
        for m in &self.metrics {
            println!(
                "  {:<36} {:>16.6} {:<6} {}",
                m.name, m.value, m.unit, m.note
            );
        }
        let frac = self.failed as f64 / self.attempted.max(1) as f64;
        println!(
            "  {:<36} {:>16.6} {:<6} {} failed of {} attempted",
            "failed_frac", frac, "1", self.failed, self.attempted
        );
        let mut s = String::new();
        let _ = write!(
            s,
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct, self.attempted, self.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            if i > 0 {
                s.push_str(", ");
            }
            let v = if m.value.is_finite() { m.value } else { 0.0 };
            let _ = write!(
                s,
                "\"{}\": {{\"value\": {:e}, \"unit\": \"{}\"}}",
                m.name, v, m.unit
            );
        }
        s.push_str("}}");
        println!("{s}");
    }
}

/// A correctness or protocol failure: counted against `attempted`,
/// and it makes the run exit non-zero.
pub struct Gates {
    pub attempted: u64,
    pub failed: u64,
}

impl Gates {
    pub fn new() -> Gates {
        Gates {
            attempted: 0,
            failed: 0,
        }
    }

    /// Records `n` attempted operations.
    pub fn attempt(&mut self, n: u64) {
        self.attempted += n;
    }

    /// Records a failed check (one failed operation).
    pub fn fail(&mut self, why: impl Into<String>) {
        self.failed += 1;
        eprintln!("perfbench: FAILED: {}", why.into());
    }

    /// Checks `ok`, recording a failure described by `why` otherwise.
    pub fn check(&mut self, ok: bool, why: impl FnOnce() -> String) {
        if !ok {
            self.fail(why());
        }
    }
}

/// One recorded span: a named interval with its parent and the number
/// of operations it covered.
pub struct Span {
    pub name: &'static str,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
    pub ops: u64,
}

/// In-memory span recorder for traced runs. Spans are written out
/// once, at the end, as Chrome trace-event JSON. When disabled,
/// `enter`/`exit` only keep the nesting bookkeeping, so the same code
/// path runs with and without tracing.
pub struct Tracer {
    t0: Instant,
    pub enabled: bool,
    pub spans: Vec<Span>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            t0: Instant::now(),
            enabled,
            spans: Vec::new(),
        }
    }

    fn now(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    /// Opens a span; returns its id (`usize::MAX` when disabled).
    pub fn enter(&mut self, name: &'static str, parent: Option<usize>) -> usize {
        if !self.enabled {
            return usize::MAX;
        }
        let start_ns = self.now();
        self.spans.push(Span {
            name,
            parent,
            start_ns,
            end_ns: start_ns,
            ops: 0,
        });
        self.spans.len() - 1
    }

    /// Closes span `id`, recording how many operations it covered.
    pub fn exit(&mut self, id: usize, ops: u64) {
        if id == usize::MAX {
            return;
        }
        let end = self.now();
        let s = &mut self.spans[id];
        s.end_ns = end;
        s.ops = ops;
    }

    /// Durations (ns) of the spans called `name`, paired with the
    /// operations each covered, in recording order.
    pub fn durations(&self, name: &str) -> Vec<(u64, u64)> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns, s.ops))
            .collect()
    }

    /// Total ns per operation over every span called `name`.
    pub fn ns_per_op(&self, name: &str) -> f64 {
        let (ns, ops) = self
            .durations(name)
            .iter()
            .fold((0u64, 0u64), |(a, b), (n, o)| (a + n, b + o));
        ns as f64 / ops.max(1) as f64
    }

    /// Writes every span as Chrome trace-event JSON (Perfetto-loadable).
    pub fn write_chrome(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut out = String::from("{\"traceEvents\": [\n");
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push_str(",\n");
            }
            let _ = write!(
                out,
                "{{\"name\": \"{}\", \"ph\": \"X\", \"pid\": 1, \"tid\": 1, \"ts\": {:.3}, \"dur\": {:.3}, \"args\": {{\"id\": {i}, \"parent\": {}, \"ops\": {}}}}}",
                s.name,
                s.start_ns as f64 / 1e3,
                (s.end_ns - s.start_ns) as f64 / 1e3,
                s.parent.map_or(-1, |p| p as i64),
                s.ops
            );
        }
        out.push_str("\n]}\n");
        std::fs::write(path, out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_percentile_needs_ten_samples_beyond() {
        let v: Vec<f64> = (1..=999).map(f64::from).collect();
        assert_eq!(tail_percentile(&v, 0.99), None);
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(tail_percentile(&v, 0.99), Some(990.0));
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn field_extraction() {
        let b = "{\"a\": 12, \"fired\": [\"G1a\", \"G2\"], \"s\": \"PL-1\"}";
        assert_eq!(u64_field(b, "a"), Some(12));
        assert_eq!(u64_field(b, "s"), None);
    }
}
