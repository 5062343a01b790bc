//! The hot97 step benchmark.
//!
//! One command runs a named workload with a seed and prints every
//! end-to-end metric of the distributed treecode step; `--trace 1` runs the
//! same workload with the step composed from the public layer calls
//! (`hot_core::{decomp, tree, dtree, dwalk}`, the `hot_gravity` evaluator)
//! timed from outside, and prints the per-layer metrics. See `README.md`
//! in this directory for the workloads, the metrics and which end-to-end
//! metric each layer metric should move.

pub mod heap;
pub mod ics;
pub mod report;
pub mod stats;
pub mod step;
pub mod supervised;
pub mod workload;

pub use report::Outcome;
pub use workload::Workload;

/// Run `workload` for about `seconds` of measurement. `trace` selects the
/// per-layer run. `scratch` receives the traced run's span file and the
/// supervised jobs' checkpoint file.
pub fn run(
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    scratch: &std::path::Path,
) -> Outcome {
    let mut o = match workload.spec() {
        workload::Spec::Step(spec) => {
            let spans =
                trace.then(|| scratch.join(format!("spans-{}-{seed}.jsonl", workload.name())));
            step::run(&spec, seed, seconds, trace, spans.as_deref())
        }
        workload::Spec::Supervised(spec) => supervised::run(&spec, seed, seconds, trace, scratch),
    };
    o.complete(if trace {
        report::PER_LAYER
    } else {
        report::END_TO_END
    });
    o
}
