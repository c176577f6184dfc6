//! Samples, histograms, percentiles and the metric report.

use std::fmt::Write as _;

/// Whether a metric is an end-to-end number (untraced runs) or a
/// per-layer number (the traced run).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Tag {
    E2e,
    Layer,
}

impl Tag {
    fn as_str(self) -> &'static str {
        match self {
            Tag::E2e => "e2e",
            Tag::Layer => "layer",
        }
    }
}

/// One reported number.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub unit: &'static str,
    pub value: f64,
    /// How many samples (calls, ops, runs) the value summarises.
    pub samples: u64,
    pub tag: Tag,
}

/// Every metric one run produced, in emission order.
#[derive(Debug, Default)]
pub struct Report {
    pub metrics: Vec<Metric>,
}

impl Report {
    fn push(
        &mut self,
        tag: Tag,
        name: impl Into<String>,
        unit: &'static str,
        value: f64,
        samples: u64,
    ) {
        // Ratios over empty denominators are reported as 0, never as NaN,
        // so the JSON stays valid.
        let value = if value.is_finite() { value } else { 0.0 };
        self.metrics.push(Metric {
            name: name.into(),
            unit,
            value,
            samples,
            tag,
        });
    }

    pub fn e2e(&mut self, name: &str, unit: &'static str, value: f64, samples: u64) {
        self.push(Tag::E2e, name, unit, value, samples);
    }

    pub fn layer(&mut self, name: impl Into<String>, unit: &'static str, value: f64, samples: u64) {
        self.push(Tag::Layer, name, unit, value, samples);
    }

    /// The human-readable table printed beside the JSON.
    pub fn table(&self) -> String {
        let width = self.metrics.iter().map(|m| m.name.len()).max().unwrap_or(4);
        let mut out = String::new();
        for m in &self.metrics {
            let _ = writeln!(
                out,
                "  {:<5} {:<width$} {:>16.6} {:<6} (n={})",
                m.tag.as_str(),
                m.name,
                m.value,
                m.unit,
                m.samples
            );
        }
        out
    }

    /// The metrics as a JSON array of `{name, value, unit, samples, tag}`.
    pub fn json_array(&self) -> String {
        let items: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "{{\"name\": {}, \"value\": {}, \"unit\": {}, \"samples\": {}, \"tag\": \"{}\"}}",
                    json_str(&m.name),
                    m.value,
                    json_str(m.unit),
                    m.samples,
                    m.tag.as_str()
                )
            })
            .collect();
        format!("[{}]", items.join(", "))
    }

    /// The metrics with `tag` as a JSON object `{name: {value, unit}}`.
    pub fn json_object(&self, tag: Tag) -> String {
        let items: Vec<String> = self
            .metrics
            .iter()
            .filter(|m| m.tag == tag)
            .map(|m| {
                format!(
                    "{}: {{\"value\": {}, \"unit\": {}}}",
                    json_str(&m.name),
                    m.value,
                    json_str(m.unit)
                )
            })
            .collect();
        format!("{{{}}}", items.join(", "))
    }
}

/// `^[A-Za-z0-9_.-]+$`: the metric-name alphabet.
pub fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name
            .bytes()
            .all(|b| b.is_ascii_alphanumeric() || b"_.-".contains(&b))
}

/// A JSON string literal.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// The `p`-th percentile of ascending `sorted`, interpolating linearly
/// between the two closest ranks. `None` on an empty slice.
pub fn percentile(sorted: &[f64], p: f64) -> Option<f64> {
    let last = sorted.len().checked_sub(1)?;
    let pos = p / 100.0 * last as f64;
    let lo = pos.floor() as usize;
    let hi = (lo + 1).min(last);
    Some(sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64))
}

/// The percentiles a tail is reported at, highest first.
const TAIL_LADDER: [f64; 5] = [99.9, 99.0, 95.0, 90.0, 75.0];

/// The highest percentile on the tail ladder that leaves at least ten of
/// `n` samples strictly beyond its interpolation point, or `None` when
/// even p75 does not.
pub fn tail_percentile(n: usize) -> Option<f64> {
    let last = n.checked_sub(1)?;
    TAIL_LADDER.into_iter().find(|p| {
        let pos = (p / 100.0 * last as f64).floor() as usize;
        last - pos >= 10
    })
}

/// Timing samples (ns) with exact percentiles.
#[derive(Debug, Default, Clone)]
pub struct Samples {
    pub ns: Vec<u64>,
}

impl Samples {
    pub fn with_capacity(n: usize) -> Samples {
        Samples {
            ns: Vec::with_capacity(n),
        }
    }

    pub fn push(&mut self, ns: u64) {
        self.ns.push(ns);
    }

    pub fn len(&self) -> usize {
        self.ns.len()
    }

    pub fn total_ns(&self) -> u64 {
        self.ns.iter().sum()
    }

    fn sorted(&self, scale: f64) -> Vec<f64> {
        let mut sorted: Vec<f64> = self.ns.iter().map(|&v| v as f64 * scale).collect();
        sorted.sort_by(f64::total_cmp);
        sorted
    }

    /// The `p`-th percentile in `scale` units per ns (`1e-3` for µs).
    pub fn pct(&self, p: f64, scale: f64) -> f64 {
        percentile(&self.sorted(scale), p).unwrap_or(0.0)
    }

    /// The tail: the value at [`tail_percentile`], or the maximum when
    /// too few samples leave ten beyond even p75.
    pub fn tail(&self, scale: f64) -> f64 {
        let p = tail_percentile(self.len()).unwrap_or(100.0);
        percentile(&self.sorted(scale), p).unwrap_or(0.0)
    }
}

/// Sub-buckets per power of two: relative bucket width ≤ 1/32.
const SUB_BITS: u32 = 5;
const SUB: u64 = 1 << SUB_BITS;
const N_BUCKETS: usize = ((64 - SUB_BITS as usize) + 1) << SUB_BITS;

fn bucket_of(v: u64) -> usize {
    if v < SUB {
        return v as usize;
    }
    let shift = 63 - v.leading_zeros() - SUB_BITS;
    (((shift + 1) as usize) << SUB_BITS) + ((v >> shift) - SUB) as usize
}

/// `(lowest value, width)` of bucket `idx`.
fn bucket_range(idx: usize) -> (u64, u64) {
    if idx < SUB as usize {
        return (idx as u64, 1);
    }
    let shift = (idx >> SUB_BITS) as u32 - 1;
    let mant = (idx as u64 & (SUB - 1)) + SUB;
    (mant << shift, 1 << shift)
}

/// Count, total and a log-linear histogram of one hot call's durations:
/// constant memory however many calls are recorded.
#[derive(Debug, Clone)]
pub struct Hist {
    pub count: u64,
    pub total: u64,
    buckets: Vec<u64>,
}

impl Default for Hist {
    fn default() -> Hist {
        Hist {
            count: 0,
            total: 0,
            buckets: vec![0; N_BUCKETS],
        }
    }
}

impl Hist {
    pub fn record(&mut self, v: u64) {
        self.count += 1;
        self.total += v;
        self.buckets[bucket_of(v)] += 1;
    }

    /// The `q`-quantile (0..=1), interpolated by rank inside its bucket.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let rank = q.clamp(0.0, 1.0) * (self.count - 1) as f64;
        let mut below = 0u64;
        for (idx, &n) in self.buckets.iter().enumerate() {
            if n > 0 && rank < (below + n) as f64 {
                let (lo, width) = bucket_range(idx);
                return lo as f64 + width as f64 * (rank - below as f64 + 0.5) / n as f64;
            }
            below += n;
        }
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_percentile_keeps_ten_samples_beyond() {
        assert_eq!(tail_percentile(12_000), Some(99.9));
        assert_eq!(tail_percentile(1_000), Some(99.0));
        assert_eq!(tail_percentile(800), Some(95.0));
        assert_eq!(tail_percentile(200), Some(95.0));
        assert_eq!(tail_percentile(100), Some(90.0));
        assert_eq!(tail_percentile(41), Some(75.0));
        assert_eq!(tail_percentile(20), None);
        assert_eq!(tail_percentile(0), None);
        // The defining property, over a range of sample counts.
        for n in 41..5_000usize {
            let p = tail_percentile(n).expect("p75 leaves ten beyond from n = 41");
            let pos = (p / 100.0 * (n - 1) as f64).floor() as usize;
            assert!(n - 1 - pos >= 10, "n={n} p={p}");
            if let Some(higher) = TAIL_LADDER.iter().copied().rev().find(|&h| h > p) {
                let pos = (higher / 100.0 * (n - 1) as f64).floor() as usize;
                assert!(n - 1 - pos < 10, "n={n}: p{higher} also qualifies");
            }
        }
    }

    #[test]
    fn percentile_interpolates_between_ranks() {
        let v = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(percentile(&v, 50.0), Some(2.5));
        assert_eq!(percentile(&v, 0.0), Some(1.0));
        assert_eq!(percentile(&v, 100.0), Some(4.0));
        assert_eq!(percentile(&[], 50.0), None);
    }

    #[test]
    fn buckets_tile_the_range() {
        for v in (0..100_000u64).chain([u64::MAX / 3, u64::MAX]) {
            let (lo, width) = bucket_range(bucket_of(v));
            assert!(lo <= v && v - lo < width, "v={v} lo={lo} width={width}");
        }
        assert_eq!(bucket_of(u64::MAX), N_BUCKETS - 1);
    }

    #[test]
    fn histogram_median_is_close_to_exact() {
        let mut h = Hist::default();
        for v in 1..=10_001u64 {
            h.record(v * 7);
        }
        let median = h.quantile(0.5);
        assert!(
            (median - 35_007.0).abs() / 35_007.0 < 1.0 / 32.0,
            "median {median}"
        );
        assert_eq!(h.count, 10_001);
    }

    #[test]
    fn metric_names_use_the_allowed_alphabet() {
        assert!(valid_name("rossl.advance_ns.read_start"));
        assert!(valid_name("peak_rss_mib"));
        assert!(!valid_name("bad name"));
        assert!(!valid_name(""));
        assert!(!valid_name("µs"));
    }

    #[test]
    fn report_json_is_well_formed() {
        let mut r = Report::default();
        r.e2e("a", "ms", 1.5, 3);
        r.layer("b.c", "count", f64::NAN, 0);
        assert_eq!(
            r.json_object(Tag::E2e),
            "{\"a\": {\"value\": 1.5, \"unit\": \"ms\"}}"
        );
        assert!(r.json_array().contains("\"value\": 0,"));
        assert_eq!(json_str("q\"\\\n"), "\"q\\\"\\\\\\u000a\"");
    }
}
