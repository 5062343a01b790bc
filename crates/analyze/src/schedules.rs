//! Dynamic schedule checker for the rank runtime.
//!
//! Reruns communication-heavy workloads under many seeded rank
//! interleavings ([`FuzzScheduler`]) and asserts the three properties the
//! paper's reported numbers depend on:
//!
//! 1. **No deadlock** — the fuzz scheduler serializes ranks, so "every rank
//!    blocked with no matching in-flight or future send" is *proved*, not
//!    timed out; the failure report names each rank's wanted
//!    `(source, tag)` and its queued mailbox state.
//! 2. **Clean teardown** — no message (poison aside) left undrained in any
//!    mailbox after the SPMD bodies return.
//! 3. **Schedule independence** — results (and, for the collectives
//!    workload, the full per-rank [`TrafficStats`]) are bitwise identical
//!    across every seed. The ABM workload compares results and its
//!    posted/delivered message counts but not raw traffic: batch
//!    boundaries legitimately vary with the schedule (documented in
//!    VERIFICATION.md).
//!
//! Every workload is swept twice: once under [`FuzzScheduler`] on the
//! thread runtime, and once under the event runtime's seeded serialized
//! mode (`RunConfig::event_seed`), with the event results compared against
//! the thread-runtime reference — so the checker also proves the
//! thread→fiber substrate swap is invisible to workload behavior.

use crate::workloads;
use hot_comm::{Comm, FuzzScheduler, RunConfig, TrafficStats};
use std::fmt::Debug;
use std::panic::AssertUnwindSafe;
use std::sync::Arc;

/// Outcome of one workload checked across seeds.
#[derive(Debug)]
pub struct WorkloadReport {
    /// Workload name.
    pub name: &'static str,
    /// Seeds exercised.
    pub seeds: u64,
    /// Human-readable failures; empty means the workload passed.
    pub failures: Vec<String>,
}

impl WorkloadReport {
    /// True when every seed passed every assertion.
    #[must_use]
    pub fn passed(&self) -> bool {
        self.failures.is_empty()
    }
}

/// What one run under one schedule produced.
struct RunSnapshot<T> {
    results: Vec<T>,
    stats: Vec<TrafficStats>,
    undrained: usize,
    trace: Vec<u32>,
}

/// Run `body` on `np` ranks under the seeded fuzz scheduler, catching rank
/// panics (deadlock reports arrive as panics) into `Err`.
fn run_one<T, F>(np: u32, seed: u64, body: F) -> Result<RunSnapshot<T>, String>
where
    T: Send,
    F: Fn(&mut Comm) -> T + Sync,
{
    let sched = Arc::new(FuzzScheduler::new(np, seed));
    let sched2 = sched.clone();
    let out = std::panic::catch_unwind(AssertUnwindSafe(|| {
        RunConfig::builder().np(np).scheduler(sched2).run(body)
    }))
    .map_err(|p| {
        let msg = p
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| p.downcast_ref::<&str>().map(ToString::to_string))
            .unwrap_or_else(|| "non-string panic payload".to_string());
        format!("seed {seed}: rank panic: {msg}")
    })?;
    Ok(RunSnapshot {
        results: out.results,
        stats: out.stats,
        undrained: out.undrained.len(),
        trace: sched.trace(),
    })
}

/// The same run on the event runtime's seeded serialized mode (fibers on
/// one worker, splitmix64 schedule): the thread→fiber substrate swap must
/// be invisible to results, traffic, and teardown.
fn run_one_events<T, F>(np: u32, seed: u64, body: F) -> Result<RunSnapshot<T>, String>
where
    T: Send,
    F: Fn(&mut Comm) -> T + Sync,
{
    let out = std::panic::catch_unwind(AssertUnwindSafe(|| {
        RunConfig::builder().np(np).event_seed(seed).run(body)
    }))
    .map_err(|p| {
        let msg = p
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| p.downcast_ref::<&str>().map(ToString::to_string))
            .unwrap_or_else(|| "non-string panic payload".to_string());
        format!("event seed {seed}: rank panic: {msg}")
    })?;
    Ok(RunSnapshot {
        results: out.results,
        stats: out.stats,
        undrained: out.undrained.len(),
        trace: Vec::new(),
    })
}

/// Check one workload across `seeds` schedules. `compare_traffic` demands
/// bitwise-identical per-rank [`TrafficStats`] on top of identical results.
fn check_workload<T, F>(
    name: &'static str,
    np: u32,
    seeds: u64,
    compare_traffic: bool,
    body: F,
) -> WorkloadReport
where
    T: Send + PartialEq + Debug,
    F: Fn(&mut Comm) -> T + Sync,
{
    let mut failures = Vec::new();
    let mut reference: Option<RunSnapshot<T>> = None;
    for seed in 0..seeds {
        match run_one(np, seed, &body) {
            Err(e) => failures.push(e),
            Ok(snap) => {
                if snap.undrained > 0 {
                    failures.push(format!(
                        "seed {seed}: {} message(s) left undrained at teardown \
                         (schedule trace: {:?})",
                        snap.undrained, snap.trace
                    ));
                }
                match &reference {
                    None => reference = Some(snap),
                    Some(r) => {
                        if snap.results != r.results {
                            failures.push(format!(
                                "seed {seed}: results differ from seed 0 — the \
                                 reduction is schedule-dependent\n  seed 0: {:?}\n  \
                                 seed {seed}: {:?}\n  trace: {:?}",
                                r.results, snap.results, snap.trace
                            ));
                        }
                        if compare_traffic && snap.stats != r.stats {
                            failures.push(format!(
                                "seed {seed}: TrafficStats differ from seed 0 — \
                                 message pattern is schedule-dependent\n  seed 0: \
                                 {:?}\n  seed {seed}: {:?}",
                                r.stats, snap.stats
                            ));
                        }
                    }
                }
            }
        }
    }
    // The same seeds on the event runtime (seeded serialized fibers),
    // compared against the thread-runtime reference: one more way a
    // schedule-dependent reduction or a substrate-visible difference in
    // the thread→fiber swap would surface.
    for seed in 0..seeds {
        match run_one_events(np, seed, &body) {
            Err(e) => failures.push(e),
            Ok(snap) => {
                if snap.undrained > 0 {
                    failures.push(format!(
                        "event seed {seed}: {} message(s) left undrained at teardown",
                        snap.undrained
                    ));
                }
                if let Some(r) = &reference {
                    if snap.results != r.results {
                        failures.push(format!(
                            "event seed {seed}: results differ from the thread-runtime \
                             reference\n  reference: {:?}\n  event seed {seed}: {:?}",
                            r.results, snap.results
                        ));
                    }
                    if compare_traffic && snap.stats != r.stats {
                        failures.push(format!(
                            "event seed {seed}: TrafficStats differ from the \
                             thread-runtime reference\n  reference: {:?}\n  \
                             event seed {seed}: {:?}",
                            r.stats, snap.stats
                        ));
                    }
                }
            }
        }
    }
    WorkloadReport { name, seeds, failures }
}

/// Collectives sweep (see [`workloads::collectives`]): deterministic by
/// construction, so results *and* traffic must match bitwise across seeds.
#[must_use]
pub fn check_collectives(np: u32, seeds: u64) -> WorkloadReport {
    check_workload("collectives", np, seeds, true, workloads::collectives)
}

/// ABM traversal (see [`workloads::abm_traversal`]): results and
/// posted/delivered counts must be schedule-free; batch counts (and hence
/// raw traffic) legitimately are not.
#[must_use]
pub fn check_abm(np: u32, seeds: u64) -> WorkloadReport {
    check_workload("abm-traversal", np, seeds, false, workloads::abm_traversal)
}

/// Traced treecode pipeline (see [`workloads::traced_pipeline`]): a pass
/// proves the *ledger itself* is bitwise schedule-independent — the
/// property the golden-snapshot test and the paper-style phase tables rely
/// on. Raw traffic is not compared (ABM batch boundaries legitimately
/// vary); the ledger only ever records the schedule-free counters, which
/// is exactly what this check enforces.
#[must_use]
pub fn check_traced_pipeline(np: u32, seeds: u64) -> WorkloadReport {
    check_workload("traced-pipeline", np, seeds, false, workloads::traced_pipeline)
}

/// Low-density traced pipeline (see [`workloads::sparse_pipeline`]): one
/// sink group per rank, so each walk round carries a whole frontier of
/// wants. Ledger, forces and per-rank request counts must be bitwise
/// schedule-independent, exactly as for the dense pipeline.
#[must_use]
pub fn check_sparse_pipeline(np: u32, seeds: u64) -> WorkloadReport {
    check_workload("sparse-pipeline", np, seeds, false, workloads::sparse_pipeline)
}

/// Adaptive-rebalance pipeline (see [`workloads::rebalance_pipeline`]):
/// the feedback-driven repartition — re-cost from the ledger, move the
/// cuts, migrate the key-range diff — must produce bitwise identical
/// accelerations, body ownership, trace reports and rebalance counters on
/// every schedule, or the migration protocol has a schedule dependence.
#[must_use]
pub fn check_rebalance(np: u32, seeds: u64) -> WorkloadReport {
    check_workload("rebalance-pipeline", np, seeds, false, workloads::rebalance_pipeline)
}

/// The full checker: all workloads at several machine sizes.
#[must_use]
pub fn check_all(seeds: u64) -> Vec<WorkloadReport> {
    let mut reports = Vec::new();
    for np in [2, 4, 5] {
        reports.push(check_collectives(np, seeds));
        reports.push(check_abm(np, seeds));
    }
    // The traced pipeline is heavier; two sizes keep the sweep affordable
    // while still covering the odd-np branch-exchange paths.
    for np in [2, 3] {
        reports.push(check_traced_pipeline(np, seeds));
    }
    // Many ranks with one walk each: the frontier-gathering regime.
    reports.push(check_sparse_pipeline(8, seeds));
    // The rebalance pipeline runs three adaptive steps per seed; one
    // multi-rank size exercises the migration protocol's receive ordering.
    reports.push(check_rebalance(3, seeds));
    reports
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn collectives_pass_across_seeds() {
        let rep = check_collectives(4, 8);
        assert!(rep.passed(), "{:?}", rep.failures);
    }

    #[test]
    fn abm_passes_across_seeds() {
        let rep = check_abm(3, 8);
        assert!(rep.passed(), "{:?}", rep.failures);
    }

    /// The trace ledger (reduced report JSON included) must be bitwise
    /// identical across fuzzed schedules — tracing with the deterministic
    /// model clock never records wall-clock or schedule-dependent state.
    #[test]
    fn traced_pipeline_ledger_is_schedule_independent() {
        let rep = check_traced_pipeline(2, 6);
        assert!(rep.passed(), "{:?}", rep.failures);
    }

    /// The low-density sweep is only meaningful if every rank really has
    /// a single walk and its rounds really carry several keys each.
    #[test]
    fn sparse_pipeline_is_schedule_independent() {
        let rep = check_sparse_pipeline(8, 4);
        assert!(rep.passed(), "{:?}", rep.failures);
        let out = hot_comm::RunConfig::builder().np(8).run(crate::workloads::sparse_pipeline);
        for (rank, (_, _, _, groups, keys, rounds)) in out.results.iter().enumerate() {
            assert_eq!(*groups, 1, "rank {rank}: not a one-group-per-rank workload");
            assert!(keys > rounds, "rank {rank}: {keys} keys in {rounds} rounds");
        }
    }

    /// The adaptive rebalance — re-cost, move cuts, migrate the diff —
    /// must be bitwise schedule-independent end to end, and the sweep is
    /// only meaningful if the feedback loop actually fired.
    #[test]
    fn rebalance_pipeline_is_schedule_independent() {
        let rep = check_rebalance(3, 4);
        assert!(rep.passed(), "{:?}", rep.failures);
        let out = hot_comm::RunConfig::builder().np(3).run(crate::workloads::rebalance_pipeline);
        let (_, _, _, rebalances, migrated) = &out.results[0];
        assert!(*rebalances > 0, "clustered workload never repartitioned");
        assert!(*migrated > 0, "repartition moved no bodies");
    }

    /// Planted fixture 1: a two-rank head-to-head deadlock (both ranks
    /// receive before sending). The checker must flag it with an actionable
    /// report naming both ranks' tag state rather than hanging.
    #[test]
    fn detects_planted_deadlock() {
        let rep = check_workload("fixture-deadlock", 2, 4, false, |c| {
            let other = 1 - c.rank();
            // Deadlock: both sides recv first; no send is ever in flight.
            let v: u64 = c.recv(other, 0x77);
            c.send(other, 0x77, &v);
            v
        });
        assert!(!rep.passed(), "planted deadlock not detected");
        let msg = rep.failures.join("\n");
        assert!(msg.contains("deadlock"), "{msg}");
        assert!(msg.contains("rank 0"), "{msg}");
        assert!(msg.contains("rank 1"), "{msg}");
        assert!(msg.contains("tag=0x77"), "{msg}");
    }

    /// Planted fixture 2: an order-sensitive floating-point reduction.
    /// Rank 0 sums contributions in *arrival* order; the addends are chosen
    /// so that float addition order changes the rounded result. Different
    /// schedules permute arrivals, so results differ across seeds and the
    /// checker must say so.
    #[test]
    fn detects_planted_nondeterministic_reduction() {
        let rep = check_workload("fixture-nondet-reduction", 4, 16, false, |c| {
            let vals = [0.0, 1.0e16, 3.0, -1.0e16];
            if c.rank() == 0 {
                let mut acc = 0.0f64;
                for _ in 1..c.size() {
                    let (_, v) = c.recv_any::<f64>(9);
                    acc += v; // arrival order = schedule order: nondeterministic
                }
                acc.to_bits()
            } else {
                c.send(0, 9, &vals[c.rank() as usize]);
                0
            }
        });
        assert!(!rep.passed(), "planted nondeterministic reduction not detected");
        let msg = rep.failures.join("\n");
        assert!(msg.contains("results differ"), "{msg}");
        assert!(msg.contains("schedule-dependent"), "{msg}");
    }

    /// An unreceived message must surface as an undrained-teardown failure.
    #[test]
    fn detects_undrained_message() {
        let rep = check_workload("fixture-undrained", 2, 2, false, |c| {
            if c.rank() == 0 {
                c.send(1, 5, &1u8); // never received
            }
            c.rank()
        });
        assert!(!rep.passed(), "undrained message not detected");
        assert!(rep.failures.join("\n").contains("undrained"), "{:?}", rep.failures);
    }

    /// The full default sweep stays green — the same invariant CI enforces.
    #[test]
    fn full_sweep_passes() {
        for rep in check_all(4) {
            assert!(rep.passed(), "{}: {:?}", rep.name, rep.failures);
        }
    }
}
