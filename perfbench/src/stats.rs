//! Sample summaries and result reporting.

use std::fmt::Write as _;

/// Median of `values` (mean of the two middle values for even counts).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => v[n / 2],
        n => 0.5 * (v[n / 2 - 1] + v[n / 2]),
    }
}

/// Nearest-rank percentile `q` (0..=100) of `values`.
pub fn percentile(values: &[f64], q: f64) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    if v.is_empty() {
        return f64::NAN;
    }
    let rank = ((q / 100.0) * v.len() as f64).ceil().max(1.0) as usize;
    v[rank.min(v.len()) - 1]
}

/// The tail percentile and its value: p95 once at least ten samples lie
/// beyond it (200 samples), otherwise the highest of p90 and p75 that
/// has ten beyond it, and the median below 40 samples. Capped at p95:
/// a p99 over a run's ~2000 sweep cells rests on a handful of the
/// slowest trainings and swings with every host stall.
pub fn tail(values: &[f64]) -> (f64, f64) {
    let n = values.len() as f64;
    for q in [95.0, 90.0, 75.0] {
        if n * (100.0 - q) >= 1000.0 {
            return (q, percentile(values, q));
        }
    }
    (50.0, median(values))
}

/// Median and tail of one timing sample set, with its sample count.
pub struct Timing {
    pub n: usize,
    pub p50: f64,
    pub tail_q: f64,
    pub tail: f64,
}

impl Timing {
    pub fn of(values: &[f64]) -> Timing {
        let (tail_q, tail) = tail(values);
        Timing {
            n: values.len(),
            p50: median(values),
            tail_q,
            tail,
        }
    }
}

/// An ordered list of named metrics with units.
#[derive(Default)]
pub struct Metrics {
    entries: Vec<(String, f64, String)>,
}

impl Metrics {
    pub fn put(&mut self, name: impl Into<String>, value: f64, unit: &str) {
        let name = name.into();
        match self.entries.iter_mut().find(|(n, _, _)| *n == name) {
            Some(entry) => *entry = (name, value, unit.to_string()),
            None => self.entries.push((name, value, unit.to_string())),
        }
    }

    pub fn iter(&self) -> impl Iterator<Item = &(String, f64, String)> {
        self.entries.iter()
    }

    /// The `metrics` object of the result line. Non-finite values
    /// (a layer that measured nothing) render as `null`.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{");
        for (i, (name, value, unit)) in self.entries.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            let value = if value.is_finite() {
                format!("{value}")
            } else {
                "null".to_string()
            };
            let _ = write!(
                out,
                "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            );
        }
        out.push('}');
        out
    }
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Wall time of `f` in milliseconds, with its result.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t0 = std::time::Instant::now();
    let out = f();
    (out, t0.elapsed().as_secs_f64() * 1e3)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles() {
        let v: Vec<f64> = (1..=200).map(f64::from).collect();
        assert_eq!(median(&v), 100.5);
        assert_eq!(percentile(&v, 95.0), 190.0);
        assert_eq!(tail(&v), (95.0, 190.0));
        assert_eq!(tail(&v[..100]).0, 90.0);
        assert_eq!(tail(&v[..10]).0, 50.0);
    }
}
