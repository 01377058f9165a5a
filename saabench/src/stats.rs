//! Samples, percentiles and the metric records the benchmark prints.
//!
//! Percentiles are nearest-rank over the sorted samples and always
//! travel with their sample count. Counts and ratios keep their own
//! units; nothing is encoded as a fake duration.

use std::time::Duration;

/// Latency samples in nanoseconds.
#[derive(Debug, Clone, Default)]
pub struct Lat(Vec<u64>);

impl Lat {
    pub fn push(&mut self, d: Duration) {
        self.0.push(d.as_nanos() as u64);
    }

    pub fn len(&self) -> usize {
        self.0.len()
    }

    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    pub fn extend(&mut self, other: &Lat) {
        self.0.extend_from_slice(&other.0);
    }

    /// Nearest-rank percentile `p` (0..=100) in microseconds; 0 when
    /// there are no samples.
    pub fn pct_us(&self, p: f64) -> f64 {
        if self.0.is_empty() {
            return 0.0;
        }
        let mut v = self.0.clone();
        v.sort_unstable();
        let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
        v[rank.clamp(1, v.len()) - 1] as f64 / 1e3
    }
}

/// One named metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    /// Sample count behind a percentile or mean, when it has one.
    pub samples: Option<usize>,
}

impl Metric {
    pub fn new(name: &str, value: f64, unit: &'static str) -> Metric {
        Metric {
            name: name.to_owned(),
            value,
            unit,
            samples: None,
        }
    }

    pub fn with_samples(mut self, n: usize) -> Metric {
        self.samples = Some(n);
        self
    }
}

/// `p50` and `p99` of `lat` as two metrics named `<base>_p50_us` and
/// `<base>_p99_us`.
pub fn p50_p99(base: &str, lat: &Lat) -> [Metric; 2] {
    [
        Metric::new(&format!("{base}_p50_us"), lat.pct_us(50.0), "us").with_samples(lat.len()),
        Metric::new(&format!("{base}_p99_us"), lat.pct_us(99.0), "us").with_samples(lat.len()),
    ]
}

/// `num / den`, or 0 when nothing was measured.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Median of a non-empty slice.
pub fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// The process high-water resident set (`VmHWM`) in MiB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Escape a string for a JSON literal.
pub fn json_str(s: &str) -> String {
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

/// A finite JSON number with all its digits.
pub fn json_num(x: f64) -> String {
    if x.is_finite() {
        format!("{x:?}")
    } else {
        "0.0".to_owned()
    }
}

/// The result line: `{"correct", "attempted", "failed", "metrics"}`.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_str(&m.name),
                json_num(m.value),
                json_str(m.unit)
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
    fn nearest_rank_percentiles() {
        let mut l = Lat::default();
        for us in 1..=100u64 {
            l.push(Duration::from_micros(us));
        }
        assert_eq!(l.pct_us(50.0), 50.0);
        assert_eq!(l.pct_us(99.0), 99.0);
        assert_eq!(l.pct_us(100.0), 100.0);
        assert_eq!(Lat::default().pct_us(50.0), 0.0);
    }

    #[test]
    fn result_line_shape() {
        let line = result_line(true, 3, 0, &[Metric::new("x_us", 1.5, "us")]);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": {\"x_us\": {\"value\": 1.5, \"unit\": \"us\"}}}"
        );
    }

    #[test]
    fn median_even_and_odd() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }
}
