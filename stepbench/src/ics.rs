//! Seeded inputs, the drift that moves them between steps, and the
//! direct-summation accuracy reference.

use crate::stats::{mix, SplitMix};
use crate::workload::{Layout, StepSpec};
use hot_base::{Aabb, Vec3};
use hot_core::decomp::Body;
use hot_gravity::kernels::pp_acc;
use hot_morton::Key;

/// Plummer softening squared of the distributed-step workloads.
pub const EPS2: f64 = 1e-4;

/// Sinks per checked step whose accelerations are compared with direct
/// summation.
pub const ERR_SINKS: usize = 1024;

/// Largest distance a body moves in one drift.
pub const MAX_DRIFT: f64 = 1e-3;

/// Drift time squared: a body moves `acc · DRIFT_DT2`, capped at
/// [`MAX_DRIFT`].
pub const DRIFT_DT2: f64 = 1e-5;

/// Keep a coordinate strictly inside the unit domain.
fn inside(x: f64) -> f64 {
    x.clamp(1e-9, 1.0 - 1e-9)
}

fn body(id: u64, pos: Vec3, mass: f64) -> Body<f64> {
    Body {
        key: Key::from_point(pos, &Aabb::unit()),
        pos,
        charge: mass,
        work: 1.0,
        id,
    }
}

/// The initial bodies of `spec` under `seed`, split by id range into one
/// vector per rank (ids `0..n`, total mass 1).
pub fn initial_bodies(spec: &StepSpec, seed: u64) -> Vec<Vec<Body<f64>>> {
    let n = spec.n();
    let mut rng = SplitMix(mix(seed ^ 0x5354_4550_4245_4e43));
    let mass = 1.0 / n as f64;
    // Clump centres sit in fixed octants (jittered by the seed), so every
    // seed has the same large-scale structure and the same cost profile.
    let centers: Vec<Vec3> = match spec.layout {
        Layout::Uniform => Vec::new(),
        Layout::Clustered { clumps } => (0..clumps)
            .map(|c| {
                let mut axis = |bit: usize| {
                    let base = if (c >> bit) & 1 == 0 { 0.28 } else { 0.72 };
                    base + 0.08 * (rng.next_f64() - 0.5)
                };
                Vec3::new(axis(0), axis(1), axis(2))
            })
            .collect(),
    };
    let gauss = |rng: &mut SplitMix| {
        // Box–Muller; 1 − u keeps the logarithm finite.
        let (u, v) = (1.0 - rng.next_f64(), rng.next_f64());
        (-2.0 * u.ln()).sqrt() * (std::f64::consts::TAU * v).cos()
    };
    let all: Vec<Body<f64>> = (0..n as u64)
        .map(|id| {
            let uniform = Vec3::new(rng.next_f64(), rng.next_f64(), rng.next_f64());
            let pos = if centers.is_empty() || id % 4 == 0 {
                uniform
            } else {
                let c = centers[(id as usize / 4) % centers.len()];
                let s = 0.02;
                Vec3::new(
                    inside(c.x + s * gauss(&mut rng)),
                    inside(c.y + s * gauss(&mut rng)),
                    inside(c.z + s * gauss(&mut rng)),
                )
            };
            body(id, pos, mass)
        })
        .collect();
    all.chunks(spec.per_rank).map(<[_]>::to_vec).collect()
}

/// Move each body along its acceleration (`acc · DRIFT_DT2`, at most
/// [`MAX_DRIFT`]) and re-key it. The bodies carry no velocity across
/// ranks, so this is an overdamped drift: enough to change key ownership
/// from step to step without any state beyond the bodies themselves.
pub fn drift(bodies: &mut [Body<f64>], acc: &[Vec3]) {
    for (b, a) in bodies.iter_mut().zip(acc) {
        let mut d = *a * DRIFT_DT2;
        let len = d.norm();
        if len > MAX_DRIFT {
            d *= MAX_DRIFT / len;
        }
        let p = b.pos + d;
        b.pos = Vec3::new(inside(p.x), inside(p.y), inside(p.z));
        b.key = Key::from_point(b.pos, &Aabb::unit());
    }
}

/// Order-independent checksum of an id set (wrapping sum of mixed ids).
pub fn id_hash(ids: impl Iterator<Item = u64>) -> u64 {
    ids.fold(0u64, |h, id| h.wrapping_add(mix(id ^ 0x1d)))
}

/// The input seed of round `round` of a run with `seed`: round 0 uses the
/// seed itself, so traced and untraced runs share their first inputs.
pub fn round_seed(seed: u64, round: usize) -> u64 {
    if round == 0 {
        seed
    } else {
        mix(seed ^ mix(round as u64))
    }
}

/// `k` distinct ids out of `0..n`, sorted, chosen by `seed`.
pub fn sample_ids(n: usize, k: usize, seed: u64) -> Vec<u64> {
    let mut ids: Vec<u64> = (0..n as u64).collect();
    let mut rng = SplitMix(mix(seed ^ 0x5341_4d50));
    let k = k.min(n);
    for i in 0..k {
        let j = i + (rng.next_u64() % (n - i) as u64) as usize;
        ids.swap(i, j);
    }
    ids.truncate(k);
    ids.sort_unstable();
    ids
}

/// Squared force error against direct summation over all of
/// `pos`/`mass`, and the squared direct force, summed over `got` (pairs of
/// sink index and its acceleration). The relative RMS error of one or more
/// such sums is `sqrt(Σ err² / Σ direct²)`.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct ForceError {
    /// `Σ |a − a_direct|²`.
    pub err2: f64,
    /// `Σ |a_direct|²`.
    pub direct2: f64,
}

impl ForceError {
    /// Add another sum in.
    pub fn add(&mut self, o: ForceError) {
        self.err2 += o.err2;
        self.direct2 += o.direct2;
    }

    /// Relative RMS error.
    pub fn relative(&self) -> f64 {
        (self.err2 / self.direct2).sqrt()
    }
}

/// [`ForceError`] of `got` against direct summation.
pub fn force_error(pos: &[Vec3], mass: &[f64], eps2: f64, got: &[(usize, Vec3)]) -> ForceError {
    let (mut num, mut den) = (0.0, 0.0);
    for &(i, a) in got {
        let xi = pos[i];
        let mut exact = Vec3::ZERO;
        for (j, (&xj, &mj)) in pos.iter().zip(mass).enumerate() {
            if j != i {
                exact += pp_acc(xi - xj, mj, eps2);
            }
        }
        num += (a - exact).norm2();
        den += exact.norm2();
    }
    ForceError {
        err2: num,
        direct2: den,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::{Spec, Workload};
    use hot_base::flops::FlopCounter;
    use hot_gravity::direct::direct_serial;

    #[test]
    fn force_error_matches_library_direct_sum() {
        let mut rng = SplitMix(3);
        let pos: Vec<Vec3> = (0..200)
            .map(|_| Vec3::new(rng.next_f64(), rng.next_f64(), rng.next_f64()))
            .collect();
        let mass = vec![0.005; 200];
        let exact = direct_serial(&pos, &mass, EPS2, &FlopCounter::new());
        let got: Vec<(usize, Vec3)> = (0..200).step_by(7).map(|i| (i, exact[i])).collect();
        assert_eq!(force_error(&pos, &mass, EPS2, &got).relative(), 0.0);
        let off: Vec<(usize, Vec3)> = got.iter().map(|&(i, a)| (i, a * 1.01)).collect();
        let e = force_error(&pos, &mass, EPS2, &off).relative();
        assert!((e - 0.01).abs() < 1e-9, "{e}");
    }

    #[test]
    fn samples_are_distinct_and_in_range() {
        let s = sample_ids(100, 10, 5);
        assert_eq!(s.len(), 10);
        assert!(s.windows(2).all(|w| w[0] < w[1]) && s[9] < 100);
        assert_eq!(sample_ids(5, 10, 5), [0, 1, 2, 3, 4]);
    }

    #[test]
    fn inputs_are_seeded_and_in_domain() {
        for w in Workload::ALL {
            let Spec::Step(spec) = w.spec() else { continue };
            let a = initial_bodies(&spec, 1);
            assert_eq!(a, initial_bodies(&spec, 1));
            assert_ne!(a, initial_bodies(&spec, 2));
            assert_ne!(a, initial_bodies(&spec, round_seed(1, 1)));
            assert_eq!(a.len(), spec.np as usize);
            assert!(a.iter().flatten().all(|b| (0.0..1.0).contains(&b.pos.x)
                && (0.0..1.0).contains(&b.pos.y)
                && (0.0..1.0).contains(&b.pos.z)));
        }
    }
}
