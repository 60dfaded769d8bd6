//! The cache-blocked, thread-parallel back-projection driver — the one
//! driver every back-projection route runs through.
//!
//! The Table 3 kernels walk the whole volume once per projection batch;
//! at production sizes a single voxel column's working set already spills
//! the last-level cache and the batched reuse of [`crate::warp`] stops
//! paying. This driver splits the caller's pair volume into contiguous
//! **i-blocks** of voxel columns, dispatched over [`ct_par::Pool`] with
//! work stealing, and inside each block walks z-symmetric *sub* slab
//! pairs one at a time (reusing [`SlabPair`] for the z split, exactly the
//! paper's Figure 3 decomposition recursed one level down). One i-block
//! crossed with one sub pair is a **tile**, sized to stay in cache.
//!
//! Each batch is added into the caller's volume in place. Workers write
//! only their own i-block, and each voxel is accumulated by exactly one
//! tile in a fixed projection order, so the result is **bit-identical**
//! for every thread count and tile shape. The per-tile wall-clock
//! intervals are reported back so the caller can attribute them to
//! observability spans (tile-level load balance in traces).

use crate::pair::SlabPair;
use crate::warp::{sweep_column, Sampler, SweepBuffers, WARP_BATCH};
use ct_core::error::{CtError, Result};
use ct_core::geometry::ProjectionMatrix;
use ct_core::problem::Dims3;
use ct_core::volume::{Volume, VolumeLayout};
use ct_obs::clock::{self, Instant};
use ct_par::Pool;

/// Tile shape of the back-projection driver. A field set to `0` means
/// "choose automatically" from the problem shape and pool width; the
/// shape changes scheduling and cache reuse, never the output bits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TileConfig {
    /// Number of consecutive `i` voxel columns per tile (`0` = auto).
    pub i_block: usize,
    /// Number of sub slab pairs the z extent is split into (`0` = auto).
    pub slab_pairs: usize,
}

impl TileConfig {
    /// Fully automatic tile shape.
    pub const AUTO: TileConfig = TileConfig {
        i_block: 0,
        slab_pairs: 0,
    };

    /// Resolve the `0 = auto` fields against a concrete problem. The pool
    /// parallelises over i-blocks only; sub pairs just bound the cache
    /// footprint (each re-runs the per-column lane setup), so
    /// `slab_pairs` only grows beyond 1 when a single full-depth column
    /// row already busts the ~256 KiB cache budget. The i-block is then
    /// sized so one tile's output (`i_block * ny * 2*sub_len` voxels)
    /// stays inside the budget and the pool gets two blocks per thread
    /// to steal.
    pub fn resolve(&self, dims: Dims3, pair: SlabPair, threads: usize) -> (usize, usize) {
        const CACHE_BUDGET: usize = 256 * 1024;
        let parts = if self.slab_pairs == 0 {
            let row_bytes = dims.ny * 2 * pair.len * 4;
            row_bytes.div_ceil(CACHE_BUDGET).clamp(1, pair.len)
        } else {
            self.slab_pairs.min(pair.len).max(1)
        };
        let sub_nz = 2 * pair.len.div_ceil(parts);
        let i_block = if self.i_block == 0 {
            let cache_cap = CACHE_BUDGET
                .checked_div(dims.ny * sub_nz * 4)
                .unwrap_or(usize::MAX)
                .max(1);
            let steal_cap = dims.nx.div_ceil(2 * threads.max(1)).max(1);
            cache_cap.min(steal_cap).min(dims.nx)
        } else {
            self.i_block.min(dims.nx).max(1)
        };
        (i_block, parts)
    }
}

impl Default for TileConfig {
    fn default() -> Self {
        Self::AUTO
    }
}

/// One tile of the blocked decomposition: `i_len` voxel columns starting
/// at `i0`, crossed with one sub slab pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Tile {
    /// Ordinal of the tile in dispatch order.
    pub index: usize,
    /// First `i` of the tile.
    pub i0: usize,
    /// Number of consecutive `i` columns.
    pub i_len: usize,
    /// The z-symmetric sub slab pair this tile accumulates.
    pub pair: SlabPair,
}

/// Wall-clock record of one executed tile, for span attribution.
#[derive(Debug, Clone, Copy)]
pub struct TileReport {
    /// Which tile ran.
    pub tile: Tile,
    /// When a worker started the tile.
    pub started: Instant,
    /// When the tile's accumulation finished.
    pub finished: Instant,
}

/// Split a slab pair into `parts` sub pairs covering the same slices.
/// Ragged splits are allowed: the leading sub pairs take one extra slice
/// when `pair.len` does not divide evenly.
pub fn partition_pairs(pair: SlabPair, parts: usize) -> Result<Vec<SlabPair>> {
    if parts == 0 || parts > pair.len {
        return Err(CtError::InvalidConfig(format!(
            "cannot split a {}-slice slab into {parts} sub pairs",
            pair.len
        )));
    }
    let base = pair.len.checked_div(parts).unwrap_or(0);
    let extra = pair.len.checked_rem(parts).unwrap_or(0);
    let mut out = Vec::with_capacity(parts);
    let mut k0 = pair.k0;
    for p in 0..parts {
        let len = base + usize::from(p < extra);
        out.push(SlabPair::new(pair.nz_full, k0, len)?);
        k0 += len;
    }
    Ok(out)
}

/// Enumerate the tiles of a resolved configuration, sub pair major (all
/// i-blocks of sub pair 0 first). The order is the report order and is
/// independent of thread count.
pub fn tiles_for(dims: Dims3, pair: SlabPair, i_block: usize, parts: usize) -> Result<Vec<Tile>> {
    let subs = partition_pairs(pair, parts)?;
    let mut tiles = Vec::new();
    for sub in subs {
        let mut i0 = 0;
        while i0 < dims.nx {
            let i_len = i_block.min(dims.nx - i0);
            tiles.push(Tile {
                index: tiles.len(),
                i0,
                i_len,
                pair: sub,
            });
            i0 += i_len;
        }
    }
    Ok(tiles)
}

/// The tiles of one i-block, each with its report slot and sweep
/// buffers, built before the dispatch so workers allocate nothing.
type BlockTiles = Vec<(TileReport, SweepBuffers)>;

/// Accumulate every tile of one i-block (`cols`) in place: per sub pair,
/// the [`crate::warp`] column-batched kernel over the block's columns,
/// writing the sub pair's upper and mirror runs of each pair-local
/// column.
#[allow(clippy::too_many_arguments)] // the block, the kernel inputs and the pair
fn accumulate_block<S: Sampler>(
    cols: &mut [f32],
    tiles: &mut BlockTiles,
    rows: &[[[f32; 4]; 3]],
    samplers: &[S],
    pair: SlabPair,
    vmax: f32,
    ny: usize,
    batch: usize,
) {
    let local_nz = pair.local_nz();
    for (report, buf) in tiles {
        report.started = clock::now();
        let Tile { i0, pair: sub, .. } = report.tile;
        // Offsets of the sub pair's two runs inside the pair-local
        // column: the upper slab ascending from `up`, the mirror slab
        // (kept in ascending global order) from `down`.
        let up = sub.k0 - pair.k0;
        let down = 2 * pair.len - up - sub.len;
        // analyze: allow(bounds, reason = "blocks exist only for a nonempty volume, so ny >= 1, and local_nz = 2 * pair.len >= 2")
        for (i, plane) in cols.chunks_exact_mut(ny * local_nz).enumerate() {
            let ifl = (i0 + i) as f32;
            for (rows_b, samplers_b) in rows.chunks(batch).zip(samplers.chunks(batch)) {
                // analyze: allow(bounds, reason = "local_nz = 2 * pair.len and SlabPair::new rejects len == 0")
                for (j, col) in plane.chunks_exact_mut(local_nz).enumerate() {
                    let Some((upper, mirror)) = col.split_at_mut_checked(down) else {
                        continue;
                    };
                    let (Some(col_up), Some(col_down)) =
                        (upper.get_mut(up..up + sub.len), mirror.get_mut(..sub.len))
                    else {
                        continue;
                    };
                    let jf = j as f32;
                    sweep_column(
                        rows_b, samplers_b, ifl, jf, sub.k0, vmax, buf, col_up, col_down,
                    );
                }
            }
        }
        report.finished = clock::now();
    }
}

/// Back-project projections into `out`, the caller's k-major
/// `(nx, ny, 2*pair.len)` pair volume, **in place**: every voxel gains
/// the contribution of `mats`/`samplers`, taken in `batch`-sized chunks
/// (Listing 1: one read-modify-write per voxel per batch). `out` may
/// already hold earlier batches; the result is bit-identical to
/// feeding all projections through one call, for every thread count
/// and tile shape.
///
/// The pool runs over contiguous i-blocks of `out` (the `i_block` of
/// [`TileConfig::resolve`]); each worker owns its block and walks the
/// sub slab pairs inside it. Returns one [`TileReport`] per tile of
/// [`tiles_for`], in index order, for span attribution.
#[allow(clippy::too_many_arguments)] // the kernel inputs, the tile shape and the output
pub fn backproject_pair_into<S: Sampler>(
    pool: &Pool,
    mats: &[ProjectionMatrix],
    samplers: &[S],
    nv: usize,
    dims: Dims3,
    pair: SlabPair,
    batch: usize,
    tile: TileConfig,
    out: &mut Volume,
) -> Vec<TileReport> {
    // analyze: allow(panic, reason = "caller-contract validation at the public driver entry; fires before any work starts")
    assert_eq!(mats.len(), samplers.len(), "one matrix per projection");
    // analyze: allow(panic, reason = "caller-contract validation at the public driver entry; fires before any work starts")
    assert_eq!(dims.nz, pair.nz_full, "pair must match volume Nz");
    // analyze: allow(panic, reason = "caller-contract validation at the public driver entry; fires before any work starts")
    assert!((1..=WARP_BATCH).contains(&batch), "batch must be in 1..=32");
    let local = Dims3::new(dims.nx, dims.ny, pair.local_nz());
    // analyze: allow(panic, reason = "caller-contract validation at the public driver entry; fires before any work starts")
    assert!(
        out.dims() == local && out.layout() == VolumeLayout::KMajor,
        "output must be the k-major pair volume"
    );
    let (i_block, parts) = tile.resolve(dims, pair, pool.threads());
    let tiles = tiles_for(dims, pair, i_block, parts)
        // analyze: allow(panic, reason = "resolve() clamps i_block and parts into the range tiles_for accepts")
        .expect("resolved tile shape is valid");
    let rows: Vec<[[f32; 4]; 3]> = mats.iter().map(|m| m.rows_f32()).collect();
    let vmax = nv as f32 - 1.0;

    // Tiles are sub pair major, so block `b` owns every `n_blocks`-th
    // tile starting at `b`.
    let n_blocks = dims.nx.div_ceil(i_block);
    let block_len = (i_block * dims.ny * local.nz).max(1);
    let now = clock::now();
    let mut blocks: Vec<(&mut [f32], BlockTiles)> = out
        .data_mut()
        .chunks_mut(block_len)
        .enumerate()
        .map(|(b, cols)| {
            let own = tiles.iter().skip(b).step_by(n_blocks);
            let slots = own.map(|&tile| {
                let report = TileReport {
                    tile,
                    started: now,
                    finished: now,
                };
                (report, SweepBuffers::new(tile.pair.len))
            });
            (cols, slots.collect())
        })
        .collect();
    pool.parallel_chunks_mut(&mut blocks, 1, |_, chunk| {
        for (cols, tiles) in chunk {
            accumulate_block(cols, tiles, &rows, samplers, pair, vmax, dims.ny, batch);
        }
    });
    let mut reports: Vec<TileReport> = blocks
        .into_iter()
        .flat_map(|(_, tiles)| tiles.into_iter().map(|(report, _)| report))
        .collect();
    reports.sort_unstable_by_key(|r| r.tile.index);
    reports
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::warp::backproject_warp;
    use ct_core::geometry::CbctGeometry;
    use ct_core::problem::Dims2;
    use ct_core::projection::{ProjectionImage, ProjectionStack};

    fn setup(np: usize, n: usize) -> (CbctGeometry, Vec<ProjectionMatrix>, ProjectionStack) {
        let geo = CbctGeometry::standard(Dims2::new(2 * n, 2 * n), np, Dims3::cube(n));
        let mats = geo.projection_matrices();
        let mut stack = ProjectionStack::new(geo.detector);
        for s in 0..np {
            let mut img = ProjectionImage::zeros(geo.detector);
            for v in 0..geo.detector.nv {
                for u in 0..geo.detector.nu {
                    img.set(u, v, (((u * 7 + v * 3 + s * 11) % 31) as f32) * 0.25 - 2.0);
                }
            }
            stack.push(img).unwrap();
        }
        (geo, mats, stack)
    }

    #[test]
    fn partition_is_exact_and_ragged() {
        let pair = SlabPair::new(32, 2, 11).unwrap();
        let subs = partition_pairs(pair, 3).unwrap();
        assert_eq!(subs.len(), 3);
        assert_eq!(subs.iter().map(|s| s.len).sum::<usize>(), 11);
        assert_eq!(subs[0].k0, 2);
        for w in subs.windows(2) {
            assert_eq!(w[0].k0 + w[0].len, w[1].k0);
        }
        assert!(partition_pairs(pair, 0).is_err());
        assert!(partition_pairs(pair, 12).is_err());
    }

    #[test]
    fn tiles_cover_the_volume_once() {
        let dims = Dims3::new(13, 8, 32);
        let pair = SlabPair::new(32, 0, 16).unwrap();
        let tiles = tiles_for(dims, pair, 4, 3).unwrap();
        let mut hits = vec![0u32; dims.nx * dims.nz];
        for t in &tiles {
            for i in t.i0..t.i0 + t.i_len {
                for local in 0..t.pair.local_nz() {
                    hits[i * dims.nz + t.pair.global_k(local)] += 1;
                }
            }
        }
        assert!(hits.iter().all(|&h| h == 1), "every (i, k) covered once");
        for (idx, t) in tiles.iter().enumerate() {
            assert_eq!(t.index, idx);
        }
    }

    #[test]
    fn auto_config_resolves_to_valid_shape() {
        let dims = Dims3::new(64, 64, 64);
        let pair = SlabPair::new(64, 0, 32).unwrap();
        for threads in [1, 2, 4, 16] {
            let (ib, parts) = TileConfig::AUTO.resolve(dims, pair, threads);
            assert!((1..=dims.nx).contains(&ib));
            assert!((1..=pair.len).contains(&parts));
            assert!(tiles_for(dims, pair, ib, parts).is_ok());
        }
        // Explicit fields are clamped, not trusted.
        let (ib, parts) = TileConfig {
            i_block: 10_000,
            slab_pairs: 10_000,
        }
        .resolve(dims, pair, 4);
        assert_eq!(ib, dims.nx);
        assert_eq!(parts, pair.len);
    }

    /// The whole volume through the driver at tile shape
    /// `(i_block, slab_pairs)`, with its tile reports.
    fn whole(
        pool: &Pool,
        geo: &CbctGeometry,
        stack: &ProjectionStack,
        shape: (usize, usize),
    ) -> (Volume, Vec<TileReport>) {
        let (mats, nv, dims) = (geo.projection_matrices(), geo.detector.nv, geo.volume);
        let transposed: Vec<_> = stack.iter().map(|p| p.transposed()).collect();
        let pair = SlabPair::whole(dims.nz).unwrap();
        let (i_block, slab_pairs) = shape;
        let tile = TileConfig {
            i_block,
            slab_pairs,
        };
        let mut out = Volume::zeros(dims, VolumeLayout::KMajor);
        let reports = backproject_pair_into(
            pool,
            &mats,
            &transposed,
            nv,
            dims,
            pair,
            WARP_BATCH,
            tile,
            &mut out,
        );
        (out, reports)
    }

    #[test]
    fn tiled_is_bit_identical_to_warp_kernel() {
        let (geo, mats, stack) = setup(40, 16);
        let reference = backproject_warp(&Pool::serial(), &mats, &stack, geo.volume);
        for shape in [(3, 2), (16, 8)] {
            let (tiled, _) = whole(&Pool::serial(), &geo, &stack, shape);
            assert_eq!(tiled.data(), reference.data(), "{shape:?}");
        }
    }

    #[test]
    fn tiled_is_bit_identical_across_thread_counts() {
        let (geo, _, stack) = setup(17, 16);
        let (serial, _) = whole(&Pool::serial(), &geo, &stack, (5, 3));
        for threads in [2, 4] {
            let (par, _) = whole(&Pool::new(threads), &geo, &stack, (5, 3));
            assert_eq!(par.data(), serial.data(), "{threads} threads");
        }
    }

    #[test]
    fn reports_cover_every_tile_in_order() {
        let (geo, _, stack) = setup(5, 8);
        let (_, reports) = whole(&Pool::new(3), &geo, &stack, (2, 2));
        let pair = SlabPair::whole(8).unwrap();
        let tiles = tiles_for(geo.volume, pair, 2, 2).unwrap();
        assert_eq!(reports.len(), tiles.len());
        for (r, t) in reports.iter().zip(&tiles) {
            assert_eq!(r.tile, *t);
            assert!(r.finished >= r.started);
        }
    }
}
