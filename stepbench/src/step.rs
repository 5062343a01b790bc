//! The distributed-step workloads, on the Events runtime with one worker
//! (all ranks share one core, so the logical schedule is fixed and every
//! message count repeats).
//!
//! The untraced run times `distributed_step_traced`, the public step
//! entry. The traced run composes the same step from the public layer
//! calls, with a barrier after each phase so rank 0's elapsed time is the
//! machine-wide phase time, and a timing [`ListConsumer`] around
//! [`GravityEvaluator`] for the apply busy time. It also makes an
//! untraced launch on the same inputs and requires the two to agree
//! bitwise, step by step (the composition guard).

use crate::ics::{
    drift, force_error, id_hash, initial_bodies, round_seed, sample_ids, ForceError, EPS2,
    ERR_SINKS,
};
use crate::report::Outcome;
use crate::stats::{lower_decile, median, peak_rss_mb, Fnv};
use crate::workload::StepSpec;
use hot_base::flops::FlopCounter;
use hot_base::{Aabb, Vec3};
use hot_comm::{Comm, RunConfig, Runtime, TrafficStats};
use hot_core::decomp::{
    body_cost, decompose_costed_traced, decompose_traced, rebalance_traced, Body, CostModel,
    DecompPolicy,
};
use hot_core::dtree::DistTree;
use hot_core::dwalk::{dwalk_with_traced, DwalkStats};
use hot_core::ilist::{InteractionList, ListConsumer};
use hot_core::moments::MassMoments;
use hot_core::tree::Tree;
use hot_gravity::dist::{distributed_step_traced, DecompState, DistForces, DistOptions};
use hot_gravity::treecode::{ForceCalc, TreecodeOptions};
use hot_gravity::{record_force_phase, GravityEvaluator};
use hot_trace::{Counter, Ledger, Phase};
use std::io::Write as _;
use std::ops::Range;
use std::path::Path;
use std::time::{Duration, Instant};

/// Force-accuracy tolerance: relative RMS error against direct summation
/// at the default Barnes–Hut θ = 0.7 with quadrupoles.
pub(crate) const FORCE_ERR_TOL: f64 = 1e-2;

/// Steps at the start of every launch whose forces are checked against
/// direct summation. Small drifts flip marginal acceptance decisions, so
/// pooling a few steps steadies the error estimate.
const ERR_STEPS: usize = 3;

/// Repetitions of the serial single-core baseline per traced run.
const SERIAL_REPS: usize = 3;

/// The options every distributed-step workload runs with: library defaults
/// (θ = 0.7, quadrupoles, bucket 16, groups of 32, default walk pipeline)
/// plus softening and the workload's decomposition policy.
fn dist_options(policy: DecompPolicy) -> DistOptions {
    DistOptions::default().with_eps2(EPS2).with_policy(policy)
}

/// Which step a launch runs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Mode {
    /// `distributed_step_traced`, untouched.
    Plain,
    /// The step composed from the public layer calls, timed per phase.
    Composed,
}

/// One span: a timed call into a layer, on one rank, in one step.
#[derive(Clone, Debug)]
struct Span {
    /// Layer call (`step`, `decomp`, `tree`, `dtree`, `dwalk`, `apply`).
    name: &'static str,
    /// Rank that made the call.
    rank: u32,
    /// Measured-step index.
    step: usize,
    /// Start, seconds since the launch began.
    start: f64,
    /// End, seconds since the launch began.
    end: f64,
    /// Index of the enclosing span in the same rank's list.
    parent: Option<usize>,
}

/// A rank's span list; recording is off outside the counted steps.
struct SpanLog {
    epoch: Instant,
    rank: u32,
    step: usize,
    on: bool,
    spans: Vec<Span>,
}

impl SpanLog {
    fn open(&mut self, name: &'static str, parent: Option<usize>) -> Option<usize> {
        if !self.on {
            return None;
        }
        let t = self.epoch.elapsed().as_secs_f64();
        let s = Span {
            name,
            rank: self.rank,
            step: self.step,
            start: t,
            end: t,
            parent,
        };
        self.spans.push(s);
        Some(self.spans.len() - 1)
    }

    fn close(&mut self, id: Option<usize>) {
        if let Some(i) = id {
            self.spans[i].end = self.epoch.elapsed().as_secs_f64();
        }
    }
}

/// Per-rank record of one composed step. Phase times are barrier-bounded,
/// so rank 0's are the machine-wide phase times; busy times and counts are
/// this rank's own.
#[derive(Clone, Copy, Debug, Default)]
struct LayerStep {
    decomp_s: f64,
    dtree_s: f64,
    dwalk_s: f64,
    tree_busy_s: f64,
    apply_busy_s: f64,
    decomp: TrafficStats,
    dtree: TrafficStats,
    dwalk: TrafficStats,
    migrated: u64,
    repartitioned: bool,
    abm_batches: u64,
    request_msgs: u64,
    rounds: u64,
    parks: u64,
    cells_opened: u64,
    prefetched: u64,
    prefetch_hits: u64,
    interactions: u64,
    flops: u64,
}

/// The apply stage with a stopwatch: a [`GravityEvaluator`] whose
/// `consume` calls (which never yield) are summed as busy time.
struct TimedApply<'a, 'b> {
    inner: GravityEvaluator<'a>,
    busy: Duration,
    log: &'b mut SpanLog,
    parent: Option<usize>,
}

impl ListConsumer<MassMoments> for TimedApply<'_, '_> {
    fn consume(
        &mut self,
        sink_pos: &[Vec3],
        sink_charge: &[f64],
        sinks: Range<usize>,
        list: &InteractionList<MassMoments>,
    ) {
        let span = self.log.open("apply", self.parent);
        let t = Instant::now();
        self.inner.consume(sink_pos, sink_charge, sinks, list);
        self.busy += t.elapsed();
        self.log.close(span);
    }
}

/// `distributed_step_traced`, composed from its public layer calls with a
/// barrier after each phase (collective call). Must compute bitwise what
/// the library entry computes; the composition guard checks it.
fn composed_step(
    c: &mut Comm,
    bodies: Vec<Body<f64>>,
    opts: &DistOptions,
    counter: &FlopCounter,
    state: &mut DecompState,
    log: &mut SpanLog,
) -> (DistForces, LayerStep) {
    let domain = Aabb::unit();
    let mut rec = LayerStep::default();
    let mut ledger = Ledger::scratch();
    let step_span = log.open("step", None);
    let adaptive = match opts.policy {
        DecompPolicy::Adaptive {
            threshold_milli,
            smoothing,
        } => Some((threshold_milli, smoothing)),
        DecompPolicy::Static => None,
    };

    // Decomposition: sample sort, or the incremental rebalance.
    let t = Instant::now();
    let w = c.stats();
    let span = log.open("decomp", step_span);
    let (bodies, intervals, rebalance) = match (adaptive, state.intervals.take()) {
        (None, _) => {
            let (b, iv) = decompose_traced(c, bodies, opts.oversample, &mut ledger);
            (b, iv, None)
        }
        (Some((threshold, _)), Some(prev)) => {
            let (b, iv, r) = rebalance_traced(c, bodies, prev, threshold, &mut ledger);
            (b, iv, Some(r))
        }
        (Some(_), None) => {
            let (b, iv) = decompose_costed_traced(c, bodies, opts.oversample, &mut ledger);
            (b, iv, None)
        }
    };
    log.close(span);
    rec.decomp = c.stats().since(&w);
    c.barrier();
    rec.decomp_s = t.elapsed().as_secs_f64();
    rec.migrated = ledger.totals().get(Counter::MigratedBodies);
    rec.repartitioned = rebalance.is_some_and(|r| r.repartitioned);

    // Local tree: fresh build, or octant graft onto the previous tree.
    let t = Instant::now();
    let pos: Vec<Vec3> = bodies.iter().map(|b| b.pos).collect();
    let mass: Vec<f64> = bodies.iter().map(|b| b.charge).collect();
    let span = log.open("tree", step_span);
    let tree = match (adaptive, &state.tree) {
        (Some(_), Some(prev)) => Tree::build_with_reuse(domain, &pos, &mass, opts.bucket, prev).0,
        _ => Tree::<MassMoments>::build(domain, &pos, &mass, opts.bucket),
    };
    log.close(span);
    rec.tree_busy_s = t.elapsed().as_secs_f64();
    ledger.begin(Phase::TreeBuild);
    tree.record_build(&mut ledger);
    c.barrier();

    // Branch exchange and top tree.
    let t = Instant::now();
    let w = c.stats();
    let span = log.open("dtree", step_span);
    let mut dt = match adaptive {
        Some(_) => {
            DistTree::build_cached_traced(
                c,
                tree,
                intervals.clone(),
                &mut state.branches,
                &mut ledger,
            )
            .0
        }
        None => DistTree::build_traced(c, tree, intervals.clone(), &mut ledger),
    };
    ledger.end();
    log.close(span);
    rec.dtree = c.stats().since(&w);
    c.barrier();
    rec.dtree_s = t.elapsed().as_secs_f64();

    // Walk, with the apply stage timed inside it.
    let t = Instant::now();
    let w = c.stats();
    let n = dt.local.n_particles();
    let mut acc_sorted = vec![Vec3::ZERO; n];
    let mut work_sorted = vec![0.0f32; n];
    let flops_before = counter.report().flops();
    let span = log.open("dwalk", step_span);
    let (stats, busy) = {
        let mut ev = TimedApply {
            inner: GravityEvaluator {
                acc: &mut acc_sorted,
                pot: None,
                eps2: opts.eps2,
                quadrupole: opts.quadrupole,
                counter,
                work: &mut work_sorted,
                base: 0,
            },
            busy: Duration::ZERO,
            log,
            parent: span,
        };
        let stats = dwalk_with_traced(
            c,
            &mut dt,
            &opts.mac,
            &mut ev,
            opts.group_size,
            &opts.walk,
            &mut ledger,
        );
        (stats, ev.busy)
    };
    log.close(span);
    let flops = counter.report().flops() - flops_before;
    record_force_phase(&mut ledger, &stats.walk, flops);
    rec.dwalk = c.stats().since(&w);
    c.barrier();
    rec.dwalk_s = t.elapsed().as_secs_f64();
    rec.apply_busy_s = busy.as_secs_f64();
    rec.abm_batches = stats.abm.batches_sent;
    rec.request_msgs = stats.request_msgs;
    rec.rounds = stats.rounds;
    rec.parks = stats.parks;
    rec.cells_opened = stats.walk.opened;
    rec.prefetched = stats.prefetched_cells;
    rec.prefetch_hits = stats.prefetch_hits;
    rec.interactions = stats.walk.interactions();
    rec.flops = flops;

    // Back to body order; refresh work weights as the library does.
    let mut bodies_out = bodies;
    let mut acc = vec![Vec3::ZERO; n];
    match adaptive {
        None => {
            for (sorted_i, &orig) in dt.local.order.iter().enumerate() {
                acc[orig as usize] = acc_sorted[sorted_i];
                bodies_out[orig as usize].work = work_sorted[sorted_i].max(1.0);
            }
        }
        Some((_, smoothing)) => {
            let mut opened = vec![0u64; n];
            for &(gi, op) in &stats.group_costs {
                let span = dt.local.cells[gi as usize].span();
                let len = span.len() as u64;
                if len == 0 {
                    continue;
                }
                let (share, rem) = (op / len, (op % len) as usize);
                for (j, i) in span.enumerate() {
                    opened[i] += share + u64::from(j < rem);
                }
            }
            let model = CostModel::new(smoothing);
            for (sorted_i, &orig) in dt.local.order.iter().enumerate() {
                acc[orig as usize] = acc_sorted[sorted_i];
                let prev = body_cost(&bodies_out[orig as usize]);
                let measured = work_sorted[sorted_i] as u64 + opened[sorted_i];
                bodies_out[orig as usize].work = model.blend(prev, measured) as f32;
            }
            state.intervals = Some(intervals.clone());
            state.tree = Some(dt.local);
        }
    }
    log.close(step_span);
    (
        DistForces {
            bodies: bodies_out,
            acc,
            stats,
            intervals,
            rebalance,
        },
        rec,
    )
}

/// Digest of everything a step produced on one rank: bodies, accelerations,
/// every walk counter, the intervals and the rebalance outcome.
fn step_digest(r: &DistForces) -> u64 {
    let mut h = Fnv::default();
    for (b, a) in r.bodies.iter().zip(&r.acc) {
        for v in [
            b.id,
            b.key.0,
            b.pos.x.to_bits(),
            b.pos.y.to_bits(),
            b.pos.z.to_bits(),
        ] {
            h.eat(v);
        }
        for v in [b.charge.to_bits(), u64::from(b.work.to_bits())] {
            h.eat(v);
        }
        for v in [a.x.to_bits(), a.y.to_bits(), a.z.to_bits()] {
            h.eat(v);
        }
    }
    let s: &DwalkStats = &r.stats;
    let w = &s.walk;
    for v in [w.pp, w.pc, w.opened, w.listed_pp, w.listed_pc] {
        h.eat(v);
    }
    for &(g, op) in &s.group_costs {
        h.eat(u64::from(g));
        h.eat(op);
    }
    for v in [
        s.cell_requests,
        s.body_requests,
        s.parks,
        s.request_msgs,
        s.rounds,
        s.prefetched_cells,
        s.prefetched_bytes,
        s.prefetch_hits,
        s.prefetch_wasted_bytes,
        s.abm.posted,
        s.abm.delivered,
        s.abm.bytes_posted,
        s.abm.bytes_delivered,
        s.abm.batches_sent,
        s.abm.dup_batches,
    ] {
        h.eat(v);
    }
    for &b in &r.intervals.bounds {
        h.eat(b);
    }
    if let Some(rb) = r.rebalance {
        h.eat(u64::from(rb.repartitioned));
        h.eat(rb.skew_milli);
    }
    h.0
}

/// One rank's share of a step kept for the accuracy check: every body as
/// `(id, position, mass)` and the sampled sinks' accelerations.
#[derive(Default)]
struct Snapshot {
    bodies: Vec<(u64, Vec3, f64)>,
    sampled: Vec<(u64, Vec3)>,
}

/// What one rank brings back from a launch.
#[derive(Default)]
struct RankOut {
    /// Rank 0: launch start to the first measured step.
    setup_s: f64,
    /// Rank 0: wall time of each measured step.
    step_s: Vec<f64>,
    /// Rank 0: per step (warm-up included), whether the machine-wide
    /// checks passed, with the reason when not.
    checks: Vec<Result<(), String>>,
    /// The first [`ERR_STEPS`] steps' inputs and sampled accelerations.
    checked: Vec<Snapshot>,
    /// Digest of each counted step.
    digests: Vec<u64>,
    /// Composed launches: each measured step's layer record.
    layers: Vec<LayerStep>,
    spans: Vec<Span>,
}

/// One machine launch and what it measured.
struct Launch {
    ranks: Vec<RankOut>,
    checks: Outcome,
}

/// Launch the machine on the seeded inputs and step until `budget` has
/// elapsed after warm-up and at least `min_steps` steps were measured.
fn launch(spec: &StepSpec, seed: u64, mode: Mode, budget: Duration, min_steps: usize) -> Launch {
    let start = Instant::now();
    let min_steps = min_steps.max(ERR_STEPS.saturating_sub(spec.warmup));
    let ics = initial_bodies(spec, seed);
    let n = spec.n() as u64;
    let expect_hash = id_hash(0..n);
    let opts = dist_options(spec.policy);
    let samples = sample_ids(spec.n(), ERR_SINKS, seed);
    let out = RunConfig::builder()
        .np(spec.np)
        .runtime(Runtime::Events)
        .workers(1)
        .run(|c| {
            let rank = c.rank();
            let mut bodies = ics[rank as usize].clone();
            let mut state = DecompState::default();
            let counter = FlopCounter::new();
            let mut out = RankOut::default();
            let mut log = SpanLog {
                epoch: start,
                rank,
                step: 0,
                on: false,
                spans: Vec::new(),
            };
            let mut measure_start: Option<Instant> = None;
            for step in 0usize.. {
                let k = step.checked_sub(spec.warmup);
                if let Some(k) = k {
                    let more = rank == 0
                        && (k < min_steps || measure_start.is_none_or(|t| t.elapsed() < budget));
                    if !c.bcast(0, more) {
                        break;
                    }
                }
                let counted = k.is_some_and(|k| k < spec.count_steps);
                log.step = k.unwrap_or(0);
                log.on = counted && mode == Mode::Composed;
                c.barrier();
                let t0 = Instant::now();
                if k == Some(0) {
                    out.setup_s = (t0 - start).as_secs_f64();
                    measure_start = Some(t0);
                }
                let res = match mode {
                    Mode::Plain => {
                        let domain = Aabb::unit();
                        let mut scratch = Ledger::scratch();
                        distributed_step_traced(
                            c,
                            bodies,
                            domain,
                            &opts,
                            &counter,
                            &mut state,
                            &mut scratch,
                        )
                    }
                    Mode::Composed => {
                        let (res, rec) =
                            composed_step(c, bodies, &opts, &counter, &mut state, &mut log);
                        if k.is_some() {
                            out.layers.push(rec);
                        }
                        res
                    }
                };
                c.barrier();
                if k.is_some() {
                    out.step_s.push(t0.elapsed().as_secs_f64());
                }

                // Machine-wide checks: finite accelerations, conserved count and
                // id set.
                let bad = res
                    .acc
                    .iter()
                    .filter(|a| !(a.x.is_finite() && a.y.is_finite() && a.z.is_finite()));
                let mine = (
                    res.bodies.len() as u64,
                    id_hash(res.bodies.iter().map(|b| b.id)),
                    bad.count() as u64,
                );
                let (got_n, got_hash, nonfinite) =
                    c.allreduce(mine, |a, b| (a.0 + b.0, a.1.wrapping_add(b.1), a.2 + b.2));
                out.checks.push(if got_n != n || got_hash != expect_hash {
                    Err(format!(
                        "step {step}: {got_n} bodies with id hash {got_hash:#x}, want {n}"
                    ))
                } else if nonfinite > 0 {
                    Err(format!("step {step}: {nonfinite} non-finite accelerations"))
                } else {
                    Ok(())
                });
                if step < ERR_STEPS {
                    out.checked.push(Snapshot {
                        bodies: res.bodies.iter().map(|b| (b.id, b.pos, b.charge)).collect(),
                        sampled: res
                            .bodies
                            .iter()
                            .zip(&res.acc)
                            .filter(|(b, _)| samples.binary_search(&b.id).is_ok())
                            .map(|(b, a)| (b.id, *a))
                            .collect(),
                    });
                }
                if counted {
                    out.digests.push(step_digest(&res));
                }
                bodies = res.bodies;
                drift(&mut bodies, &res.acc);
            }
            if rank != 0 {
                out.checks.clear();
                out.step_s.clear();
            }
            out.spans = log.spans;
            out
        });
    let mut checks = Outcome::default();
    for r in &out.results[0].checks {
        checks.check(r.is_ok(), || r.clone().unwrap_err());
    }
    checks.check(out.undrained.is_empty(), || {
        format!("undrained messages: {:?}", out.undrained)
    });
    let measured = out.results[0].step_s.len();
    checks.check(measured >= min_steps, || {
        format!("{measured} measured steps, want {min_steps}")
    });
    Launch {
        ranks: out.results,
        checks,
    }
}

/// Force error of the first [`ERR_STEPS`] steps of the launch `l` over the
/// sampled sinks.
fn launch_force_error(spec: &StepSpec, l: &Launch, o: &mut Outcome) -> ForceError {
    let n = spec.n();
    let want = ERR_SINKS.min(n);
    let mut err = ForceError::default();
    for k in 0..ERR_STEPS {
        let (mut pos, mut mass) = (vec![Vec3::ZERO; n], vec![0.0; n]);
        let mut got = Vec::with_capacity(want);
        for snap in l.ranks.iter().filter_map(|r| r.checked.get(k)) {
            for &(id, p, m) in &snap.bodies {
                pos[id as usize] = p;
                mass[id as usize] = m;
            }
            got.extend(snap.sampled.iter().map(|&(id, a)| (id as usize, a)));
        }
        o.check(got.len() == want, || {
            format!("step {k}: {} sampled sinks, want {want}", got.len())
        });
        err.add(force_error(&pos, &mass, EPS2, &got));
    }
    err
}

/// Check a relative force error against [`FORCE_ERR_TOL`].
pub(crate) fn check_force_error(err: f64, o: &mut Outcome) {
    o.check(err < FORCE_ERR_TOL, || {
        format!("force_err {err:.3e} over tolerance {FORCE_ERR_TOL:.0e}")
    });
}

/// Run a distributed-step workload: untraced (end-to-end metrics) or
/// traced (per-layer metrics, composition guard).
pub fn run(
    spec: &StepSpec,
    seed: u64,
    seconds: f64,
    trace: bool,
    spans_out: Option<&Path>,
) -> Outcome {
    let mut o = Outcome::default();
    if !trace {
        let budget = Duration::from_secs_f64(seconds / spec.rounds as f64);
        let (mut setups, mut steps, mut err) = (Vec::new(), Vec::new(), ForceError::default());
        for round in 0..spec.rounds {
            let seed = round_seed(seed, round);
            let l = launch(spec, seed, Mode::Plain, budget, 1);
            err.add(launch_force_error(spec, &l, &mut o));
            setups.push(l.ranks[0].setup_s);
            steps.extend_from_slice(&l.ranks[0].step_s);
            o.absorb_checks(l.checks);
        }
        check_force_error(err.relative(), &mut o);
        o.metric("step_s", lower_decile(&steps), steps.len());
        o.metric("setup_s", median(&setups), setups.len());
        o.metric("force_err", err.relative(), spec.rounds);
        o.metric("peak_heap_mb", crate::heap::peak_mb(), 1);
        return o;
    }

    let budget = Duration::from_secs_f64(seconds / 2.0);
    let plain = launch(spec, seed, Mode::Plain, budget, spec.count_steps);
    check_force_error(launch_force_error(spec, &plain, &mut o).relative(), &mut o);
    let composed = launch(spec, seed, Mode::Composed, budget, spec.count_steps);
    for (r, (a, b)) in plain.ranks.iter().zip(&composed.ranks).enumerate() {
        let same = a.digests.len() == spec.count_steps && a.digests == b.digests;
        o.check(same, || {
            let at = a.digests.iter().zip(&b.digests).position(|(x, y)| x != y);
            format!("composition guard: rank {r} differs from distributed_step_traced at counted step {at:?}")
        });
    }
    let untraced_step = lower_decile(&plain.ranks[0].step_s);
    layer_metrics(spec, seed, &composed, untraced_step, &mut o);
    if let Some(path) = spans_out {
        let written = write_spans(path, composed.ranks.iter().map(|r| &r.spans[..]));
        o.check(written.is_ok(), || {
            format!("cannot write {}: {written:?}", path.display())
        });
    }
    o.absorb_checks(plain.checks);
    o.absorb_checks(composed.checks);
    o
}

/// The per-layer metrics of a composed launch. Times are medians over the
/// measured steps; counts are per-step means over the counted steps, which
/// every traced run makes, so they repeat exactly.
fn layer_metrics(spec: &StepSpec, seed: u64, l: &Launch, untraced_step: f64, o: &mut Outcome) {
    let steps = l.ranks[0].layers.len();
    let step_s = &l.ranks[0].step_s;
    let at = |k: usize| l.ranks.iter().map(move |r| r.layers[k]);
    let sum_busy = |f: fn(&LayerStep) -> f64| -> Vec<f64> {
        (0..steps).map(|k| at(k).map(|s| f(&s)).sum()).collect()
    };
    let rank0 =
        |f: fn(&LayerStep) -> f64| -> Vec<f64> { l.ranks[0].layers.iter().map(f).collect() };
    let apply = sum_busy(|s| s.apply_busy_s);
    let dwalk = rank0(|s| s.dwalk_s);
    let share: Vec<f64> = apply.iter().zip(step_s).map(|(a, s)| a / s).collect();
    let walk_self: Vec<f64> = dwalk.iter().zip(&apply).map(|(w, a)| w - a).collect();

    let counted = spec.count_steps;
    let counted_steps = || l.ranks.iter().flat_map(|r| &r.layers[..counted]);
    let per_step = |f: &dyn Fn(&LayerStep) -> u64| -> f64 {
        counted_steps().map(f).sum::<u64>() as f64 / counted as f64
    };
    let interactions = per_step(&|s| s.interactions);
    let flops = per_step(&|s| s.flops);
    let apply_counted = counted_steps().map(|s| s.apply_busy_s).sum::<f64>() / counted as f64;
    let prefetched = per_step(&|s| s.prefetched);
    let step_sends = |s: &LayerStep| s.decomp.sends + s.dtree.sends + s.dwalk.sends;
    let max_sends = (0..counted)
        .map(|k| {
            l.ranks
                .iter()
                .map(|r| step_sends(&r.layers[k]))
                .max()
                .unwrap_or(0)
        })
        .sum::<u64>() as f64
        / counted as f64;
    let repartitions = l.ranks[0].layers[..counted]
        .iter()
        .filter(|s| s.repartitioned)
        .count();

    o.metric("apply.busy_s", median(&apply), steps);
    o.metric("apply.share", median(&share), steps);
    o.metric("apply.interactions", interactions, counted);
    o.metric("apply.flops", flops, counted);
    o.metric("apply.gflops", flops / apply_counted / 1e9, counted);
    o.metric("dwalk.s", median(&dwalk), steps);
    o.metric("dwalk.self_s", median(&walk_self), steps);
    o.metric("dwalk.sends", per_step(&|s| s.dwalk.sends), counted);
    o.metric(
        "dwalk.consensus_msgs",
        per_step(&|s| s.dwalk.sends - s.abm_batches),
        counted,
    );
    o.metric("dwalk.request_msgs", per_step(&|s| s.request_msgs), counted);
    o.metric("dwalk.rounds", per_step(&|s| s.rounds), counted);
    o.metric("dwalk.parks", per_step(&|s| s.parks), counted);
    o.metric("dwalk.cells_opened", per_step(&|s| s.cells_opened), counted);
    let hit_ratio = if prefetched > 0.0 {
        per_step(&|s| s.prefetch_hits) / prefetched
    } else {
        0.0
    };
    o.metric("dwalk.prefetch_hit_ratio", hit_ratio, counted);
    o.metric("decomp.s", median(&rank0(|s| s.decomp_s)), steps);
    o.metric("decomp.sends", per_step(&|s| s.decomp.sends), counted);
    o.metric("decomp.bytes", per_step(&|s| s.decomp.bytes_sent), counted);
    o.metric("decomp.migrated_bodies", per_step(&|s| s.migrated), counted);
    o.metric(
        "decomp.rebalance_frac",
        repartitions as f64 / counted as f64,
        counted,
    );
    o.metric("dtree.s", median(&rank0(|s| s.dtree_s)), steps);
    o.metric("dtree.sends", per_step(&|s| s.dtree.sends), counted);
    o.metric("dtree.bytes", per_step(&|s| s.dtree.bytes_sent), counted);
    o.metric("tree.busy_s", median(&sum_busy(|s| s.tree_busy_s)), steps);
    o.metric(
        "serial.compute_s",
        serial_compute_s(spec, seed),
        SERIAL_REPS,
    );
    o.metric("comm.sends", per_step(&|s| step_sends(s)), counted);
    let step_bytes = |s: &LayerStep| s.decomp.bytes_sent + s.dtree.bytes_sent + s.dwalk.bytes_sent;
    o.metric("comm.bytes", per_step(&step_bytes), counted);
    o.metric("comm.max_sends_per_rank", max_sends, counted);
    o.metric("rss.peak_mb", peak_rss_mb(), 1);
    o.metric(
        "trace.overhead",
        lower_decile(step_s) / untraced_step - 1.0,
        steps,
    );
}

/// The plain single-core baseline: `ForceCalc` on the same bodies with
/// the same accuracy settings, serial (median of [`SERIAL_REPS`]).
fn serial_compute_s(spec: &StepSpec, seed: u64) -> f64 {
    let all: Vec<Body<f64>> = initial_bodies(spec, seed).into_iter().flatten().collect();
    let pos: Vec<Vec3> = all.iter().map(|b| b.pos).collect();
    let mass: Vec<f64> = all.iter().map(|b| b.charge).collect();
    let d = dist_options(spec.policy);
    let opts = TreecodeOptions::default()
        .with_mac(d.mac)
        .with_bucket(d.bucket)
        .with_eps2(d.eps2)
        .with_quadrupole(d.quadrupole)
        .with_parallel(false);
    let mut calc = ForceCalc::new();
    let times: Vec<f64> = (0..SERIAL_REPS)
        .map(|_| {
            let t = Instant::now();
            let r = calc.compute(Aabb::unit(), &pos, &mass, &opts, &FlopCounter::new(), false);
            std::hint::black_box(r);
            t.elapsed().as_secs_f64()
        })
        .collect();
    median(&times)
}

/// Write spans as JSON lines; `id` and `parent` index the rank's own list.
fn write_spans<'a>(path: &Path, ranks: impl Iterator<Item = &'a [Span]>) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
    for spans in ranks {
        for (id, s) in spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                w,
                "{{\"name\": \"{}\", \"rank\": {}, \"step\": {}, \"id\": {id}, \"parent\": {parent}, \
                 \"start_s\": {:?}, \"end_s\": {:?}}}",
                s.name, s.rank, s.step, s.start, s.end
            )?;
        }
    }
    w.flush()
}
