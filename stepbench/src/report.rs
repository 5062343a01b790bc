//! A run's result: the checked-operation tally and the named metrics,
//! printed as a table and as the final JSON line.

use std::fmt::Write as _;

/// The end-to-end metrics, printed by every untraced run: name and unit.
pub const END_TO_END: &[(&str, &str)] = &[
    ("step_s", "s"),
    ("setup_s", "s"),
    ("force_err", "ratio"),
    ("peak_heap_mb", "MiB"),
];

/// The per-layer metrics, printed by every traced run: name and unit. A
/// layer a workload does not exercise reads 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("apply.busy_s", "s"),
    ("apply.share", "ratio"),
    ("apply.interactions", "count"),
    ("apply.flops", "count"),
    ("apply.gflops", "Gflop/s"),
    ("dwalk.s", "s"),
    ("dwalk.self_s", "s"),
    ("dwalk.sends", "count"),
    ("dwalk.consensus_msgs", "count"),
    ("dwalk.request_msgs", "count"),
    ("dwalk.rounds", "count"),
    ("dwalk.parks", "count"),
    ("dwalk.cells_opened", "count"),
    ("dwalk.prefetch_hit_ratio", "ratio"),
    ("decomp.s", "s"),
    ("decomp.sends", "count"),
    ("decomp.bytes", "B"),
    ("decomp.migrated_bodies", "count"),
    ("decomp.rebalance_frac", "ratio"),
    ("dtree.s", "s"),
    ("dtree.sends", "count"),
    ("dtree.bytes", "B"),
    ("tree.busy_s", "s"),
    ("serial.compute_s", "s"),
    ("comm.sends", "count"),
    ("comm.bytes", "B"),
    ("comm.max_sends_per_rank", "count"),
    ("ckpt.save_s", "s"),
    ("ckpt.load_s", "s"),
    ("ckpt.bytes", "B"),
    ("supervisor.segments", "count"),
    ("supervisor.recoveries", "count"),
    ("rss.peak_mb", "MiB"),
    ("trace.overhead", "ratio"),
];

/// One named measurement.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    /// Metric name as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit as listed in `BENCHMARK.json`.
    pub unit: &'static str,
    /// Measured value.
    pub value: f64,
    /// Samples the value is a statistic of (1 for a single measurement).
    pub samples: usize,
}

/// What one run did.
#[derive(Clone, Debug, Default)]
pub struct Outcome {
    /// Checked operations (steps, jobs, launches, accuracy checks).
    pub attempted: u64,
    /// Checked operations whose check failed.
    pub failed: u64,
    /// Metrics in print order.
    pub metrics: Vec<Metric>,
    /// One line per failed check.
    pub failures: Vec<String>,
}

impl Outcome {
    /// Count one checked operation; a failure records `why()`.
    pub fn check(&mut self, ok: bool, why: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.failures.push(why());
        }
    }

    /// Add the metric `name` of [`END_TO_END`] or [`PER_LAYER`].
    pub fn metric(&mut self, name: &'static str, value: f64, samples: usize) {
        let (name, unit) = *END_TO_END
            .iter()
            .chain(PER_LAYER)
            .find(|(n, _)| *n == name)
            .unwrap_or_else(|| panic!("metric {name} is not listed"));
        self.metrics.push(Metric {
            name,
            unit,
            value,
            samples,
        });
    }

    /// Put the metrics in `list` order, adding 0 (from no samples) for
    /// each listed metric the run did not measure.
    pub fn complete(&mut self, list: &[(&'static str, &'static str)]) {
        let mut have = std::mem::take(&mut self.metrics);
        for &(name, unit) in list {
            let m = match have.iter().position(|m| m.name == name) {
                Some(i) => have.swap_remove(i),
                None => Metric {
                    name,
                    unit,
                    value: 0.0,
                    samples: 0,
                },
            };
            self.metrics.push(m);
        }
        assert!(have.is_empty(), "unlisted metrics: {have:?}");
    }

    /// Fold another outcome's checks in (metrics are not merged).
    pub fn absorb_checks(&mut self, o: Outcome) {
        self.attempted += o.attempted;
        self.failed += o.failed;
        self.failures.extend(o.failures);
    }

    /// Value of the metric `name`, if present.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }

    /// Every check passed and every metric is a finite number.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0 && self.metrics.iter().all(|m| m.value.is_finite())
    }

    /// Human-readable table, one metric per line with its sample count.
    pub fn table(&self) -> String {
        let mut s = String::new();
        for m in &self.metrics {
            let _ = writeln!(
                s,
                "{:<28} {:>16.6e} {:<8} (n={})",
                m.name, m.value, m.unit, m.samples
            );
        }
        for f in &self.failures {
            let _ = writeln!(s, "FAILED: {f}");
        }
        s
    }

    /// The result line: `{"correct", "attempted", "failed", "metrics"}`.
    pub fn json(&self) -> String {
        let mut s = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct(),
            self.attempted,
            self.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            // `{:?}` prints the shortest round-tripping form: all digits.
            let v = if m.value.is_finite() {
                format!("{:?}", m.value)
            } else {
                "null".into()
            };
            let _ = write!(
                s,
                "{sep}\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}",
                m.name, m.unit
            );
        }
        s.push_str("}}");
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_shape() {
        let mut o = Outcome::default();
        o.check(true, String::new);
        o.metric("step_s", 0.125, 3);
        assert_eq!(
            o.json(),
            "{\"correct\": true, \"attempted\": 1, \"failed\": 0, \"metrics\": \
             {\"step_s\": {\"value\": 0.125, \"unit\": \"s\"}}}"
        );
        o.check(false, || "boom".into());
        assert!(!o.correct());
        assert!(o
            .json()
            .starts_with("{\"correct\": false, \"attempted\": 2, \"failed\": 1"));
    }
}
