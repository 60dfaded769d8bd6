//! Lane-array back-projection: the hot `accumulate_column` sweep
//! restructured around fixed-width `[f32; 8]` chunks.
//!
//! The warp kernel's transposed fast path (see
//! `<TransposedProjection as Sampler>::accumulate_column`) already
//! hoists the `u` interpolation out of the depth loop, but its
//! per-voxel body still runs `floor` (a libm call below SSE4.1), an
//! `isize` conversion, and an `Option`/slice-pattern bounds dance per
//! element — none of which the autovectorizer can lift into SIMD. This
//! module is the CPU performance-portability scheme of
//! "Performance Portable Back-projection Algorithms on CPUs"
//! (arXiv:2104.13248, same first author as iFDK): per-column
//! interpolation weights are resolved once per `(u, projection)` pair
//! ([`ct_core::interp::AxisWeight`]), and the depth sweep is processed
//! in [`LANE_WIDTH`]-wide chunks whose index, weight and blend loops
//! all have constant trip counts over fixed arrays — the shape rustc
//! reliably lowers to packed SSE/AVX.
//!
//! **Bit-identity discipline.** Every per-element value is produced by
//! *exactly* the reference expressions: in-range lanes replace
//! `v.floor()` with an integer truncation that provably equals it for
//! `v >= 0` (plus a `+ 0.0` canonicalisation so `v = -0.0` yields the
//! same `+0.0` fraction the reference computes), and the blend is the
//! same `a*(1-d) + b*d` association. Scalar IEEE arithmetic in identical
//! order gives identical bits, so the lane kernel is bit-identical to
//! the warp kernel for any chunking, tiling or thread count — the
//! equivalence suite asserts exactly that. No blend is contracted with
//! `f32::mul_add`: on the baseline x86-64 build that is a libm call per
//! element, and it would change the bits.

use crate::pair::SlabPair;
use crate::tiled::{backproject_pair_into, TileConfig, TileReport};
use crate::warp::{Sampler, LANE_WIDTH};
use ct_core::geometry::ProjectionMatrix;
use ct_core::interp::AxisWeight;
use ct_core::problem::Dims3;
use ct_core::projection::TransposedProjection;
use ct_core::volume::{Volume, VolumeLayout};
use ct_par::Pool;

/// Which back-projection implementation the drivers dispatch to — the
/// kernel-generation selector layered on top of the Table 3
/// [`crate::KernelVariant`] axis (which picks *data layout*, not
/// implementation). Both are bit-identical; the choice is a plain
/// config value ([`crate::BpConfig::kernel`]) set by the caller.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum KernelImpl {
    /// The original per-element kernels (`ct_bp::warp`), kept as the
    /// oracle the lane kernel is verified against.
    Scalar,
    /// The lane-array kernel of this module: bit-identical to
    /// [`KernelImpl::Scalar`] and faster, so it is the default.
    #[default]
    Lanes,
}

impl KernelImpl {
    /// Stable name for reports and bench cell keys.
    pub fn name(&self) -> &'static str {
        match self {
            KernelImpl::Scalar => "scalar",
            KernelImpl::Lanes => "lanes",
        }
    }
}

/// Per-column state of the `u` axis, resolved once per
/// `(u, projection)` pair instead of once per voxel: the
/// [`AxisWeight`] plus the two transposed detector rows it selects.
///
/// `None` when either `u` sample falls outside the detector — those
/// columns take the reference zero-border path.
struct UColumn<'a> {
    row0: &'a [f32],
    row1: &'a [f32],
    du: f32,
}

impl<'a> UColumn<'a> {
    /// Resolve the column weights against a transposed projection.
    #[inline]
    fn resolve(proj: &'a TransposedProjection, u: f32) -> Option<(Self, AxisWeight)> {
        let dims = proj.dims();
        let (nu, nv) = (dims.nu, dims.nv);
        let uw = AxisWeight::resolve(u);
        if !uw.interior(nu) {
            return None;
        }
        let iu = usize::try_from(uw.i).ok()?;
        let rows = proj.data().get(iu * nv..(iu + 2) * nv)?;
        let (row0, row1) = rows.split_at(nv);
        Some((
            Self {
                row0,
                row1,
                du: uw.frac,
            },
            uw,
        ))
    }
}

/// Blend one element exactly as the reference does.
#[allow(clippy::too_many_arguments)] // the flat bilinear dataflow
#[inline]
fn blend(a0: f32, a1: f32, b0: f32, b1: f32, d: f32, du: f32, w: f32) -> f32 {
    let t1 = a0 * (1.0 - d) + a1 * d;
    let t2 = b0 * (1.0 - d) + b1 * d;
    w * (t1 * (1.0 - du) + t2 * du)
}

/// A [`Sampler`] running the lane-array sweep over a transposed
/// projection. Borrowing wrapper, so the one generic driver takes the
/// lane path with no signature changes.
#[derive(Debug, Clone, Copy)]
pub struct LaneSampler<'a> {
    proj: &'a TransposedProjection,
}

impl<'a> LaneSampler<'a> {
    /// Wrap one projection.
    #[inline]
    pub fn new(proj: &'a TransposedProjection) -> Self {
        Self { proj }
    }

    /// Wrap a whole batch of projections.
    pub fn wrap(projs: &'a [&TransposedProjection]) -> Vec<LaneSampler<'a>> {
        // analyze: allow(alloc, reason = "batch setup: one sampler table per projection batch, built before the per-column sweep starts")
        let mut out = Vec::with_capacity(projs.len());
        // analyze: allow(alloc, reason = "bounded: capacity reserved above at projs.len(); extend fills exactly that many slots")
        out.extend(projs.iter().map(|p| Self::new(p)));
        out
    }

    /// Reference per-element v handling for lanes the fast predicate
    /// rejects: the exact expressions of the warp fast path's border
    /// branch (floor-based index, zero-border fetch).
    #[inline]
    fn border_element(&self, col: &UColumn<'_>, v: f32, w: f32, o: &mut f32) {
        let vw = AxisWeight::resolve(v);
        let s = |r: &[f32], x: isize| {
            usize::try_from(x)
                .ok()
                .and_then(|i| r.get(i))
                .copied()
                .unwrap_or(0.0)
        };
        let (a0, a1) = (s(col.row0, vw.i), s(col.row0, vw.i + 1));
        let (b0, b1) = (s(col.row1, vw.i), s(col.row1, vw.i + 1));
        *o += blend(a0, a1, b0, b1, vw.frac, col.du, w);
    }
}

impl Sampler for LaneSampler<'_> {
    #[inline]
    fn sample(&self, u: f32, v: f32) -> f32 {
        self.proj.sample(u, v)
    }

    /// The lane-array sweep: `u` weights once per column, then the
    /// depth loop in [`LANE_WIDTH`]-wide chunks of fixed-size array
    /// arithmetic. Bit-identical to the warp fast path (which is itself
    /// bit-identical to `interp2`).
    fn accumulate_column(&self, u: f32, vs: &[f32], w: f32, out: &mut [f32]) {
        let Some((col, _)) = UColumn::resolve(self.proj, u) else {
            // u border: both axes need the zero-border blend — the
            // reference path, as in the warp kernel.
            for (o, &v) in out.iter_mut().zip(vs) {
                *o += w * self.sample(u, v);
            }
            return;
        };
        let nv = col.row0.len();
        // In-range predicate: `0 <= v < nv-1` makes `trunc(v)` equal
        // `floor(v)` and keeps both v samples inside the row. `-0.0`
        // passes (trunc also gives 0 there); its fraction sign is fixed
        // by the `+ 0.0` below, matching `v - floor(v)` bit for bit.
        let vhi = if nv >= 2 { (nv - 1) as f32 } else { 0.0 };

        let mut chunks_v = vs.chunks_exact(LANE_WIDTH);
        let mut chunks_o = out.chunks_exact_mut(LANE_WIDTH);
        for (vc, oc) in (&mut chunks_v).zip(&mut chunks_o) {
            let mut in_range = true;
            for &v in vc {
                in_range &= (0.0..vhi).contains(&v);
            }
            if !in_range {
                for (o, &v) in oc.iter_mut().zip(vc) {
                    self.border_element(&col, v, w, o);
                }
                continue;
            }
            // Index + fraction lanes: trunc (cvttps2dq) instead of
            // floor, exact for the in-range predicate above.
            let mut iv = [0usize; LANE_WIDTH];
            let mut d = [0.0f32; LANE_WIDTH];
            for ((i, dl), &v) in iv.iter_mut().zip(d.iter_mut()).zip(vc) {
                let t = v as i32;
                *i = t as usize;
                *dl = (v - t as f32) + 0.0;
            }
            // Gather lanes: the predicate guarantees `iv + 1 <= nv-1`,
            // so the fallback value of the checked fetch is never used.
            let mut a0 = [0.0f32; LANE_WIDTH];
            let mut a1 = [0.0f32; LANE_WIDTH];
            let mut b0 = [0.0f32; LANE_WIDTH];
            let mut b1 = [0.0f32; LANE_WIDTH];
            for ((((pa0, pa1), pb0), pb1), &i) in a0
                .iter_mut()
                .zip(a1.iter_mut())
                .zip(b0.iter_mut())
                .zip(b1.iter_mut())
                .zip(&iv)
            {
                *pa0 = col.row0.get(i).copied().unwrap_or(0.0);
                *pa1 = col.row0.get(i + 1).copied().unwrap_or(0.0);
                *pb0 = col.row1.get(i).copied().unwrap_or(0.0);
                *pb1 = col.row1.get(i + 1).copied().unwrap_or(0.0);
            }
            // Blend lanes: constant trip count over fixed arrays.
            for (o, ((((&la0, &la1), &lb0), &lb1), &ld)) in oc.iter_mut().zip(
                a0.iter()
                    .zip(a1.iter())
                    .zip(b0.iter())
                    .zip(b1.iter())
                    .zip(d.iter()),
            ) {
                *o += blend(la0, la1, lb0, lb1, ld, col.du, w);
            }
        }
        // Tail: same expressions, scalar.
        for (o, &v) in chunks_o
            .into_remainder()
            .iter_mut()
            .zip(chunks_v.remainder())
        {
            if (0.0..vhi).contains(&v) {
                let t = v as i32;
                let i = t as usize;
                let d = (v - t as f32) + 0.0;
                let a0 = col.row0.get(i).copied().unwrap_or(0.0);
                let a1 = col.row0.get(i + 1).copied().unwrap_or(0.0);
                let b0 = col.row1.get(i).copied().unwrap_or(0.0);
                let b1 = col.row1.get(i + 1).copied().unwrap_or(0.0);
                *o += blend(a0, a1, b0, b1, d, col.du, w);
            } else {
                self.border_element(&col, v, w, o);
            }
        }
    }
}

/// Full-volume batched back-projection over transposed projections,
/// dispatched on [`KernelImpl`]: the single slab pair covering the whole
/// volume through [`backproject_pair_batch_into`], into a fresh volume.
/// Output is k-major; `dims.nz` must be even.
#[allow(clippy::too_many_arguments)] // the dispatch arguments
pub fn backproject_batch(
    pool: &Pool,
    kernel: KernelImpl,
    mats: &[ProjectionMatrix],
    projs: &[&TransposedProjection],
    nv: usize,
    dims: Dims3,
    batch: usize,
    tile: TileConfig,
) -> Volume {
    // analyze: allow(panic, reason = "caller-contract validation at the public driver entry; fires before any work starts")
    assert!(dims.nz.is_multiple_of(2), "symmetric kernel needs even Nz");
    let mut vol = Volume::zeros(dims, VolumeLayout::KMajor);
    // `None` only for a degenerate zero-depth volume.
    if let Some(pair) = SlabPair::whole(dims.nz) {
        backproject_pair_batch_into(
            pool, kernel, mats, projs, nv, dims, pair, batch, tile, &mut vol,
        );
    }
    vol
}

/// [`backproject_pair_batch_into`] into a fresh k-major pair volume,
/// returned with the per-tile reports.
#[allow(clippy::too_many_arguments)] // the dispatch arguments
pub fn backproject_pair_batch_reporting(
    pool: &Pool,
    kernel: KernelImpl,
    mats: &[ProjectionMatrix],
    projs: &[&TransposedProjection],
    nv: usize,
    dims: Dims3,
    pair: SlabPair,
    batch: usize,
    tile: TileConfig,
) -> (Volume, Vec<TileReport>) {
    let local = Dims3::new(dims.nx, dims.ny, pair.local_nz());
    let mut vol = Volume::zeros(local, VolumeLayout::KMajor);
    let reports = backproject_pair_batch_into(
        pool, kernel, mats, projs, nv, dims, pair, batch, tile, &mut vol,
    );
    (vol, reports)
}

/// Slab-pair back-projection dispatched on [`KernelImpl`], added in
/// place into `out` (the k-major pair volume, which may already hold
/// earlier batches): the crate's one kernel match and the route every
/// pipeline calls. Returns the driver's per-tile reports, in tile
/// order. Both kernels are bit-identical at every tile shape.
#[allow(clippy::too_many_arguments)] // mirrors backproject_pair_into + kernel
pub fn backproject_pair_batch_into(
    pool: &Pool,
    kernel: KernelImpl,
    mats: &[ProjectionMatrix],
    projs: &[&TransposedProjection],
    nv: usize,
    dims: Dims3,
    pair: SlabPair,
    batch: usize,
    tile: TileConfig,
    out: &mut Volume,
) -> Vec<TileReport> {
    match kernel {
        KernelImpl::Scalar => {
            backproject_pair_into(pool, mats, projs, nv, dims, pair, batch, tile, out)
        }
        KernelImpl::Lanes => {
            let samplers = LaneSampler::wrap(projs);
            backproject_pair_into(pool, mats, &samplers, nv, dims, pair, batch, tile, out)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::warp::{backproject_warp, WARP_BATCH};
    use ct_core::geometry::CbctGeometry;
    use ct_core::problem::Dims2;
    use ct_core::projection::{ProjectionImage, ProjectionStack};

    /// The whole pair as one tile: a single i-block, no sub pairs.
    const ONE_TILE: TileConfig = TileConfig {
        i_block: usize::MAX,
        slab_pairs: 1,
    };

    fn setup(np: usize, n: usize) -> (CbctGeometry, Vec<ProjectionMatrix>, ProjectionStack) {
        let geo = CbctGeometry::standard(Dims2::new(2 * n, 2 * n), np, Dims3::cube(n));
        let mats = geo.projection_matrices();
        let mut stack = ProjectionStack::new(geo.detector);
        for s in 0..np {
            let mut img = ProjectionImage::zeros(geo.detector);
            for v in 0..geo.detector.nv {
                for u in 0..geo.detector.nu {
                    img.set(u, v, (((u * 7 + v * 5 + s * 3) % 29) as f32) * 0.5 - 7.0);
                }
            }
            stack.push(img).unwrap();
        }
        (geo, mats, stack)
    }

    #[test]
    fn strict_lane_column_is_bit_identical_to_warp_fast_path() {
        let (geo, _, stack) = setup(1, 8);
        let q = stack.iter().next().unwrap().transposed();
        let lane = LaneSampler::new(&q);
        let nv = geo.detector.nv as f32;
        // u positions across interior and borders; v series crossing in
        // and out of range, lengths exercising chunk tails.
        for ui in [-1.5f32, -0.2, 0.0, 3.3, 7.9, nv - 1.0, 40.0] {
            for (v0, dv) in [(-2.0f32, 0.7f32), (0.1, 1.3), (14.0, -0.9), (-0.0, 0.0)] {
                for len in [1usize, 7, 8, 9, 16, 23] {
                    let vs: Vec<f32> = (0..len).map(|k| v0 + k as f32 * dv).collect();
                    let mut fast = vec![0.0f32; len];
                    let mut reference = vec![0.0f32; len];
                    lane.accumulate_column(ui, &vs, 0.37, &mut fast);
                    q.accumulate_column(ui, &vs, 0.37, &mut reference);
                    assert_eq!(
                        fast.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
                        reference.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
                        "u = {ui}, v0 = {v0}, dv = {dv}, len = {len}"
                    );
                }
            }
        }
    }

    #[test]
    fn strict_full_volume_is_bit_identical_to_warp() {
        let (geo, mats, stack) = setup(40, 16);
        let reference = backproject_warp(&Pool::serial(), &mats, &stack, geo.volume);
        let transposed: Vec<_> = stack.iter().map(|p| p.transposed()).collect();
        let refs: Vec<&TransposedProjection> = transposed.iter().collect();
        for tile in [TileConfig::AUTO, ONE_TILE] {
            for threads in [1usize, 3] {
                let pool = Pool::new(threads);
                let v = backproject_batch(
                    &pool,
                    KernelImpl::Lanes,
                    &mats,
                    &refs,
                    stack.dims().nv,
                    geo.volume,
                    WARP_BATCH,
                    tile,
                );
                assert_eq!(v.data(), reference.data(), "tile {tile:?} x{threads}");
            }
        }
    }

    #[test]
    fn kernel_impl_names_and_default() {
        assert_eq!(KernelImpl::default(), KernelImpl::Lanes);
        assert_eq!(KernelImpl::Scalar.name(), "scalar");
        assert_eq!(KernelImpl::Lanes.name(), "lanes");
    }

    #[test]
    fn pair_dispatch_matches_scalar_pair() {
        let (geo, mats, stack) = setup(9, 16);
        let transposed: Vec<_> = stack.iter().map(|p| p.transposed()).collect();
        let refs: Vec<&TransposedProjection> = transposed.iter().collect();
        let nv = stack.dims().nv;
        let pair = SlabPair::new(16, 2, 5).unwrap();
        for tile in [TileConfig::AUTO, ONE_TILE] {
            let (scalar, _) = backproject_pair_batch_reporting(
                &Pool::serial(),
                KernelImpl::Scalar,
                &mats,
                &refs,
                nv,
                geo.volume,
                pair,
                WARP_BATCH,
                tile,
            );
            let (lanes, _) = backproject_pair_batch_reporting(
                &Pool::new(2),
                KernelImpl::Lanes,
                &mats,
                &refs,
                nv,
                geo.volume,
                pair,
                WARP_BATCH,
                tile,
            );
            assert_eq!(lanes.data(), scalar.data(), "tile {tile:?}");
        }
    }
}
