//! Every count a traced run reports repeats exactly between runs with the
//! same seed, and the composition guard holds, for each distributed-step
//! workload at reduced size; a second seed changes the inputs.

use hot_core::decomp::DecompPolicy;
use hot_stepbench::ics::initial_bodies;
use hot_stepbench::report::Outcome;
use hot_stepbench::step;
use hot_stepbench::workload::{Layout, Spec, StepSpec, Workload};

/// The counted-step layer metrics: counts, bytes, and ratios of counts.
fn counts(o: &Outcome) -> Vec<(&'static str, f64)> {
    let ratio_of_counts = ["decomp.rebalance_frac", "dwalk.prefetch_hit_ratio"];
    o.metrics
        .iter()
        .filter(|m| m.unit == "count" || m.unit == "B" || ratio_of_counts.contains(&m.name))
        .map(|m| (m.name, m.value))
        .collect()
}

/// Each distributed-step workload, shrunk so a debug-built test stays fast.
fn reduced() -> Vec<(Workload, StepSpec)> {
    Workload::ALL
        .into_iter()
        .filter_map(|w| match w.spec() {
            Spec::Step(s) => Some((w, s)),
            Spec::Supervised(_) => None,
        })
        .map(|(w, s)| {
            let (np, per_rank) = match s.layout {
                Layout::Uniform if s.np <= 2 => (2, 512),
                Layout::Uniform => (24, 8),
                Layout::Clustered { .. } => (12, 64),
            };
            (
                w,
                StepSpec {
                    np,
                    per_rank,
                    count_steps: s.count_steps.min(3),
                    rounds: 1,
                    ..s
                },
            )
        })
        .collect()
}

#[test]
fn traced_counts_repeat_and_seeds_change_inputs() {
    for (w, spec) in reduced() {
        let a = step::run(&spec, 7, 0.01, true, None);
        let b = step::run(&spec, 7, 0.01, true, None);
        assert!(a.correct(), "{}: {:?}", w.name(), a.failures);
        assert!(b.correct(), "{}: {:?}", w.name(), b.failures);
        let (ca, cb) = (counts(&a), counts(&b));
        assert!(
            ca.len() >= 15,
            "{}: only {} count metrics",
            w.name(),
            ca.len()
        );
        assert_eq!(ca, cb, "{}: counts differ between identical runs", w.name());
        assert!(
            a.get("comm.sends").is_some_and(|s| s > 0.0),
            "{}: no traffic",
            w.name()
        );
        if matches!(spec.policy, DecompPolicy::Adaptive { .. }) {
            let migrated = a.get("decomp.migrated_bodies").unwrap_or(0.0);
            assert!(migrated > 0.0, "{}: drift never moved a body", w.name());
        }

        assert_ne!(
            initial_bodies(&spec, 7),
            initial_bodies(&spec, 8),
            "{}",
            w.name()
        );
    }
}

#[test]
fn untraced_run_reports_every_end_to_end_metric() {
    let (_, spec) = reduced().remove(0);
    let o = step::run(&spec, 3, 0.01, false, None);
    assert!(o.correct(), "{:?}", o.failures);
    let names: Vec<&str> = o.metrics.iter().map(|m| m.name).collect();
    assert_eq!(names, ["step_s", "setup_s", "force_err", "peak_heap_mb"]);
    assert!(o.metrics.iter().all(|m| m.value > 0.0), "{:?}", o.metrics);
}
