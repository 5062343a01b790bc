//! The supervised workload: repeated `run_supervised` jobs under a
//! message-fault plan, each checked against a fault-free reference job.

use crate::ics::{force_error, round_seed, sample_ids, ForceError, ERR_SINKS};
use crate::report::Outcome;
use crate::stats::{lower_decile, median, mix, peak_rss_mb};
use crate::step::check_force_error;
use crate::workload::SupervisedSpec;
use hot_base::flops::FlopCounter;
use hot_base::Vec3;
use hot_comm::{FaultConfig, RunConfig};
use hot_core::decomp::Body;
use hot_cosmo::checkpoint;
use hot_cosmo::sim::domain_for;
use hot_cosmo::supervisor::{demo_state, run_supervised, state_digest, SupervisorConfig};
use hot_cosmo::CosmoSim;
use hot_gravity::{distributed_accelerations, DistOptions};
use hot_morton::Key;
use std::path::Path;
use std::time::Instant;

/// Checkpoint save/load repetitions per traced job.
const CKPT_REPS: usize = 3;

fn config(spec: &SupervisedSpec, ckpt: &Path, faults: Option<FaultConfig>) -> SupervisorConfig {
    SupervisorConfig {
        faults,
        ..SupervisorConfig::golden(
            spec.np,
            spec.steps,
            spec.da,
            spec.ckpt_every,
            ckpt.to_path_buf(),
        )
    }
}

/// The message-fault plan of job `job`: drops, duplicates and corruption
/// at `fault_rate` each, no kills.
fn fault_plan(spec: &SupervisedSpec, seed: u64, job: u64) -> FaultConfig {
    FaultConfig {
        drop: spec.fault_rate,
        duplicate: spec.fault_rate,
        corrupt: spec.fault_rate,
        ..FaultConfig::clean(mix(seed ^ mix(job)))
    }
}

/// Force error of one distributed force evaluation of `sim`, partitioned
/// by index over `np` ranks as the supervisor does, over sampled sinks.
fn supervised_force_error(sim: &CosmoSim, np: u32, seed: u64) -> ForceError {
    let n = sim.pos.len();
    let domain = domain_for(&sim.pos);
    let opts = DistOptions::default()
        .with_mac(sim.opts.mac)
        .with_bucket(sim.opts.bucket)
        .with_eps2(sim.opts.eps2)
        .with_quadrupole(sim.opts.quadrupole);
    let samples = sample_ids(n, ERR_SINKS, seed);
    let out = RunConfig::builder().np(np).run(|c| {
        let per = n / np as usize;
        let lo = c.rank() as usize * per;
        let hi = if c.rank() == np - 1 { n } else { lo + per };
        let bodies: Vec<Body<f64>> = (lo..hi)
            .map(|i| Body {
                key: Key::from_point(sim.pos[i], &domain),
                pos: sim.pos[i],
                charge: sim.mass[i],
                work: 1.0,
                id: i as u64,
            })
            .collect();
        let r = distributed_accelerations(c, bodies, domain, &opts, &FlopCounter::new());
        r.bodies
            .iter()
            .zip(&r.acc)
            .filter(|(b, _)| samples.binary_search(&b.id).is_ok())
            .map(|(b, a)| (b.id as usize, *a))
            .collect::<Vec<(usize, Vec3)>>()
    });
    let got: Vec<(usize, Vec3)> = out.results.into_iter().flatten().collect();
    force_error(&sim.pos, &sim.mass, sim.opts.eps2, &got)
}

/// Run the supervised workload. Untraced: `rounds` set-ups (initial state
/// plus the fault-free reference job), each followed by faulty jobs for
/// its share of `seconds`. Traced: one set-up, untraced jobs for half the
/// time, then jobs followed by timed checkpoint save/load of their final
/// state.
pub fn run(spec: &SupervisedSpec, seed: u64, seconds: f64, trace: bool, scratch: &Path) -> Outcome {
    let mut o = Outcome::default();
    if let Err(e) = std::fs::create_dir_all(scratch) {
        o.check(false, || {
            format!("cannot create {}: {e}", scratch.display())
        });
        return o;
    }
    let ckpt = scratch.join("supervised.ckpt");
    let rounds = if trace { 1 } else { spec.rounds };
    let budget = seconds / if trace { 2.0 } else { rounds as f64 };
    let want_segments = spec.steps.div_ceil(spec.ckpt_every);
    let (mut setups, mut job_s, mut traced_s) = (Vec::new(), Vec::new(), Vec::new());
    let (mut saves, mut loads, mut ckpt_bytes) = (Vec::new(), Vec::new(), 0u64);
    let (mut segments, mut recoveries, mut err) = (0u64, 0u64, ForceError::default());
    let mut job = 0u64;
    for round in 0..rounds {
        let start = Instant::now();
        let seed = round_seed(seed, round);
        let sim = demo_state(spec.n, seed);
        let reference = match run_supervised(sim.clone(), &config(spec, &ckpt, None)) {
            Ok(r) => r.state_digest,
            Err(e) => {
                o.check(false, || format!("reference job failed: {e}"));
                return o;
            }
        };
        setups.push(start.elapsed().as_secs_f64());
        err.add(supervised_force_error(&sim, spec.np, seed));
        let phases: &[bool] = if trace { &[false, true] } else { &[false] };
        for &timed_ckpt in phases {
            let t = Instant::now();
            let mut first = true;
            while first || t.elapsed().as_secs_f64() < budget {
                first = false;
                job += 1;
                let cfg = config(spec, &ckpt, Some(fault_plan(spec, seed, job)));
                let tj = Instant::now();
                let rep = run_supervised(sim.clone(), &cfg);
                let per_step = tj.elapsed().as_secs_f64() / spec.steps as f64;
                let rep = match rep {
                    Ok(r) => r,
                    Err(e) => {
                        o.check(false, || format!("job {job} failed: {e}"));
                        continue;
                    }
                };
                let ok = rep.state_digest == reference
                    && rep.recoveries == 0
                    && rep.segments == want_segments;
                o.check(ok, || {
                    format!(
                        "job {job}: digest {:#x} vs reference {reference:#x}, {} recoveries, \
                         {} segments",
                        rep.state_digest, rep.recoveries, rep.segments
                    )
                });
                segments = rep.segments;
                recoveries += u64::from(rep.recoveries);
                if !timed_ckpt {
                    job_s.push(per_step);
                    continue;
                }
                traced_s.push(per_step);
                for _ in 0..CKPT_REPS {
                    let ts = Instant::now();
                    let saved = checkpoint::save(&rep.sim, &ckpt);
                    saves.push(ts.elapsed().as_secs_f64());
                    let tl = Instant::now();
                    let loaded = checkpoint::load(&ckpt);
                    loads.push(tl.elapsed().as_secs_f64());
                    let ok = matches!((&saved, &loaded), (Ok(_), Ok(s)) if state_digest(s) == rep.state_digest);
                    o.check(ok, || format!("job {job}: checkpoint round trip failed"));
                    ckpt_bytes = saved.unwrap_or(0);
                }
            }
        }
    }
    check_force_error(err.relative(), &mut o);
    let _ = std::fs::remove_file(&ckpt);
    if !trace {
        o.metric("step_s", lower_decile(&job_s), job_s.len());
        o.metric("setup_s", median(&setups), setups.len());
        o.metric("force_err", err.relative(), rounds);
        o.metric("peak_heap_mb", crate::heap::peak_mb(), 1);
        return o;
    }
    o.metric("serial.compute_s", serial_compute_s(spec, seed), 1);
    o.metric("ckpt.save_s", median(&saves), saves.len());
    o.metric("ckpt.load_s", median(&loads), loads.len());
    o.metric("ckpt.bytes", ckpt_bytes as f64, 1);
    o.metric("supervisor.segments", segments as f64, 1);
    o.metric("supervisor.recoveries", recoveries as f64, job as usize);
    o.metric("rss.peak_mb", peak_rss_mb(), 1);
    o.metric(
        "trace.overhead",
        lower_decile(&traced_s) / lower_decile(&job_s) - 1.0,
        traced_s.len(),
    );
    o
}

/// Serial `CosmoSim::accelerations` (the `ForceCalc` treecode) on the
/// initial state: the single-core baseline for one of the job's force
/// evaluations.
fn serial_compute_s(spec: &SupervisedSpec, seed: u64) -> f64 {
    let mut sim = demo_state(spec.n, seed);
    sim.opts.parallel = false;
    let t = Instant::now();
    std::hint::black_box(sim.accelerations(&FlopCounter::new()));
    t.elapsed().as_secs_f64()
}
