//! The four workloads and their parameters.

use hot_core::decomp::DecompPolicy;

/// A named workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// 2 ranks × 8192 uniform bodies, static decomposition: apply and list
    /// building dominate.
    ComputeNp2,
    /// 128 ranks × 16 uniform bodies, static decomposition: termination
    /// consensus in the walk dominates.
    CommNp128,
    /// 64 ranks × 256 clustered bodies, adaptive decomposition: rebalance,
    /// key-range migration, tree graft and the branch cache.
    ClusteredAdaptiveNp64,
    /// Repeated 10-step supervised jobs on 16384 bodies at np = 2 under a
    /// message-fault plan, checkpointing every 5 steps.
    SupervisedNp2,
}

/// How a distributed-step workload lays out its bodies.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Layout {
    /// Uniform in the unit cube.
    Uniform,
    /// A quarter uniform background, the rest in `clumps` Gaussian clumps.
    Clustered {
        /// Number of clumps.
        clumps: usize,
    },
}

/// Parameters of a distributed-step workload (Events runtime, one worker).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct StepSpec {
    /// Ranks.
    pub np: u32,
    /// Bodies per rank.
    pub per_rank: usize,
    /// Initial body layout.
    pub layout: Layout,
    /// Decomposition policy.
    pub policy: DecompPolicy,
    /// Unmeasured steps after launch.
    pub warmup: usize,
    /// Measured steps whose counts are reported (every traced run makes at
    /// least this many, so counts are comparable across runs).
    pub count_steps: usize,
    /// Launches per untraced run; `setup_s` is their median set-up time.
    pub rounds: usize,
}

impl StepSpec {
    /// Total bodies.
    pub fn n(&self) -> usize {
        self.np as usize * self.per_rank
    }
}

/// Parameters of the supervised workload.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SupervisedSpec {
    /// Ranks.
    pub np: u32,
    /// Bodies (`demo_state`).
    pub n: usize,
    /// Steps per job.
    pub steps: u64,
    /// Checkpoint cadence in steps.
    pub ckpt_every: u64,
    /// Scale-factor increment per step.
    pub da: f64,
    /// Drop, duplicate and corrupt probability of the fault plan.
    pub fault_rate: f64,
    /// Set-ups per untraced run; `setup_s` is their median.
    pub rounds: usize,
}

/// A workload's parameters.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Spec {
    /// A distributed-step workload.
    Step(StepSpec),
    /// The supervised-job workload.
    Supervised(SupervisedSpec),
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 4] = [
        Workload::ComputeNp2,
        Workload::CommNp128,
        Workload::ClusteredAdaptiveNp64,
        Workload::SupervisedNp2,
    ];

    /// The workload's name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::ComputeNp2 => "compute_np2",
            Workload::CommNp128 => "comm_np128",
            Workload::ClusteredAdaptiveNp64 => "clustered_adaptive_np64",
            Workload::SupervisedNp2 => "supervised_np2",
        }
    }

    /// Look a workload up by name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The workload's parameters.
    pub fn spec(self) -> Spec {
        let step = |np, per_rank, layout, policy, warmup, count_steps, rounds| {
            Spec::Step(StepSpec {
                np,
                per_rank,
                layout,
                policy,
                warmup,
                count_steps,
                rounds,
            })
        };
        match self {
            Workload::ComputeNp2 => step(2, 8192, Layout::Uniform, DecompPolicy::Static, 1, 8, 5),
            // 2048 bodies: the force error varies more between inputs, so
            // more rounds (each on its own inputs) average it.
            Workload::CommNp128 => step(128, 16, Layout::Uniform, DecompPolicy::Static, 1, 2, 6),
            Workload::ClusteredAdaptiveNp64 => step(
                64,
                256,
                Layout::Clustered { clumps: 8 },
                DecompPolicy::adaptive(),
                2,
                4,
                3,
            ),
            Workload::SupervisedNp2 => Spec::Supervised(SupervisedSpec {
                np: 2,
                n: 16384,
                steps: 10,
                ckpt_every: 5,
                da: 0.01,
                fault_rate: 0.01,
                rounds: 3,
            }),
        }
    }
}
