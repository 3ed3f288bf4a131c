//! Metric plumbing: quantiles, process memory, and the result line.

use std::fmt::Write as _;

/// The `q`-quantile of `values` by linear interpolation between the
/// closest ranks (0.0 for an empty slice).
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Peak resident set size of this process in MiB (`VmHWM`), or 0.0
/// where `/proc` does not report it.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next()?.parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Filesystem type of the mount holding `path` (longest mount-point
/// prefix in `/proc/mounts`), or `unknown`.
pub fn filesystem_of(path: &std::path::Path) -> String {
    let Ok(path) = path.canonicalize() else {
        return "unknown".to_string();
    };
    let mounts = std::fs::read_to_string("/proc/mounts").unwrap_or_default();
    mounts
        .lines()
        .filter_map(|l| {
            let mut f = l.split_whitespace();
            let _dev = f.next()?;
            let point = f.next()?;
            let fstype = f.next()?;
            path.starts_with(point).then_some((point.len(), fstype))
        })
        .max_by_key(|&(len, _)| len)
        .map_or_else(|| "unknown".to_string(), |(_, t)| t.to_string())
}

/// One run's outcome: the benchmark's result line plus the problems
/// that made it incorrect.
#[derive(Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    pub problems: Vec<String>,
    /// Values by metric name, as the workload measured them.
    pub measured: Vec<(&'static str, f64)>,
    /// The printed metrics with their units, in declaration order.
    pub metrics: Vec<(&'static str, f64, &'static str)>,
}

impl Report {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.measured.push((name, value));
    }

    /// Fills `metrics` from `declared` (name, unit) pairs; a metric the
    /// workload did not measure reads 0.
    pub fn declare(&mut self, declared: &[(&'static str, &'static str)]) {
        for &(name, _) in &self.measured {
            debug_assert!(
                declared.iter().any(|&(n, _)| n == name),
                "undeclared metric {name}"
            );
        }
        self.metrics = declared
            .iter()
            .map(|&(name, unit)| {
                let value = self
                    .measured
                    .iter()
                    .find(|&&(n, _)| n == name)
                    .map_or(0.0, |&(_, v)| v);
                (name, value, unit)
            })
            .collect();
    }

    /// Records a failed check. Only the first few problems are kept
    /// verbatim; all of them count.
    pub fn problem(&mut self, text: String) {
        if self.problems.len() < 20 {
            self.problems.push(text);
        }
    }

    pub fn correct(&self) -> bool {
        self.failed == 0 && self.problems.is_empty()
    }

    /// The machine-readable result line.
    pub fn json(&self) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct(),
            self.attempted,
            self.failed
        );
        for (k, (name, value, unit)) in self.metrics.iter().enumerate() {
            if k > 0 {
                out.push_str(", ");
            }
            let value = if value.is_finite() { *value } else { 0.0 };
            let _ = write!(
                out,
                "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            );
        }
        out.push_str("}}");
        out
    }

    /// A human-readable table of the metrics.
    pub fn table(&self) -> String {
        let mut out = String::new();
        for (name, value, unit) in &self.metrics {
            let _ = writeln!(out, "  {name:<28} {value:>16.4} {unit}");
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate_between_ranks() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
        assert_eq!(median(&v), 2.5);
        assert_eq!(quantile(&[], 0.5), 0.0);
    }

    #[test]
    fn result_line_has_the_contract_keys() {
        let mut r = Report {
            attempted: 3,
            ..Report::default()
        };
        r.set("op_ms_p50", 1.5);
        r.declare(&[("op_ms_p50", "ms")]);
        assert_eq!(
            r.json(),
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": \
             {\"op_ms_p50\": {\"value\": 1.5, \"unit\": \"ms\"}}}"
        );
    }
}
