//! Seeded CT inputs: analytic projections of a Shepp-Logan head with a
//! few extra ellipsoids whose size, place and density come from the seed.
//! The same seed gives bit-identical projections.

use ct_core::forward::project_analytic;
use ct_core::math::Vec3;
use ct_core::phantom::{Ellipsoid, Phantom};
use ct_core::{CbctGeometry, Dims2, Dims3, ProjectionImage, ProjectionStack};

/// Extra ellipsoids added to the head.
const EXTRA_ELLIPSOIDS: usize = 4;

/// SplitMix64: small, seedable, and the same on every platform.
struct SplitMix64(u64);

impl SplitMix64 {
    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[lo, hi)`.
    fn range(&mut self, lo: f64, hi: f64) -> f64 {
        let unit = (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
        lo + (hi - lo) * unit
    }
}

/// The scan geometry of a workload: square detector, cubic volume.
pub fn geometry(detector: usize, np: usize, volume: usize) -> CbctGeometry {
    CbctGeometry::standard(Dims2::new(detector, detector), np, Dims3::cube(volume))
}

/// The phantom for `seed`, sized to a cubic volume of edge `n` voxels.
pub fn phantom(seed: u64, n: usize) -> Phantom {
    let scale = 0.45 * n as f64;
    let mut ph = Phantom::shepp_logan(scale);
    let mut rng = SplitMix64(seed);
    for _ in 0..EXTRA_ELLIPSOIDS {
        let r = 0.05 * scale;
        ph.ellipsoids.push(Ellipsoid {
            density: rng.range(-0.05, 0.05),
            a: rng.range(r, 3.0 * r),
            b: rng.range(r, 3.0 * r),
            c: rng.range(r, 3.0 * r),
            center: Vec3::new(
                rng.range(-0.4, 0.4) * scale,
                rng.range(-0.4, 0.4) * scale,
                rng.range(-0.4, 0.4) * scale,
            ),
            phi: rng.range(0.0, std::f64::consts::PI),
        });
    }
    ph
}

/// Every projection of `geo` through the seeded phantom, computed on
/// `threads` threads (each projection is an independent exact ray sum,
/// so the result does not depend on the thread count).
pub fn projections(geo: &CbctGeometry, seed: u64, threads: usize) -> ProjectionStack {
    let ph = phantom(seed, geo.volume.nx);
    let np = geo.num_projections;
    let mut slots: Vec<Option<ProjectionImage>> = vec![None; np];
    std::thread::scope(|s| {
        let workers: Vec<_> = (0..threads.max(1))
            .map(|t| {
                let ph = &ph;
                s.spawn(move || {
                    (t..np)
                        .step_by(threads.max(1))
                        .map(|i| (i, project_analytic(geo, ph, i)))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        for w in workers {
            for (i, img) in w.join().expect("projection worker panicked") {
                slots[i] = Some(img);
            }
        }
    });
    let images = slots
        .into_iter()
        .map(|s| s.expect("every projection index is generated once"))
        .collect();
    ProjectionStack::from_images(geo.detector, images)
        .expect("the projector produces geometry-shaped images")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs_other_seed_other_inputs() {
        let geo = geometry(16, 4, 8);
        let a = projections(&geo, 7, 2);
        let b = projections(&geo, 7, 1);
        let c = projections(&geo, 8, 2);
        assert_eq!(a.to_flat(), b.to_flat());
        assert_ne!(a.to_flat(), c.to_flat());
        assert_eq!(a.len(), 4);
    }
}
