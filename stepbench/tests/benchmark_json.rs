//! `BENCHMARK.json` at the repository root lists exactly the workloads and
//! metrics this benchmark prints, with the same units.

use hot_stepbench::report::{END_TO_END, PER_LAYER};
use hot_stepbench::Workload;

const JSON: &str = include_str!(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"));

#[test]
fn benchmark_json_matches_the_program() {
    for w in Workload::ALL {
        assert!(
            JSON.contains(&format!("{{\"name\": \"{}\", \"why\": ", w.name())),
            "{}",
            w.name()
        );
    }
    for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
        let entry = format!("{{\"name\": \"{name}\", \"unit\": \"{unit}\", \"better\": ");
        assert!(
            JSON.contains(&entry),
            "{name} ({unit}) missing from BENCHMARK.json"
        );
    }
    let listed = JSON.matches("{\"name\": ").count();
    assert_eq!(
        listed,
        Workload::ALL.len() + END_TO_END.len() + PER_LAYER.len()
    );
}
