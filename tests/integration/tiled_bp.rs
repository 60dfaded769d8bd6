//! Property-style checks of the tiled, thread-parallel back-projection
//! driver: on random geometries it must be bit-identical across pool
//! widths and tile shapes and agree with the serial standard kernel
//! (Algorithm 2) at tight tolerance, and adding projections batch by
//! batch in place must equal one call over all of them, bit for bit.
//!
//! Uses `rand` with a fixed seed rather than proptest so every run
//! exercises the same (still randomly shaped) cases deterministically.

use ct_bp::tiled::TileConfig;
use ct_bp::warp::backproject_warp_with;
use ct_bp::{backproject_standard, WARP_BATCH};
use ct_core::geometry::{CbctGeometry, ProjectionMatrix};
use ct_core::metrics::nrmse;
use ct_core::problem::{Dims2, Dims3};
use ct_core::projection::{ProjectionImage, ProjectionStack};
use ct_core::volume::Volume;
use ct_par::Pool;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn pick(rng: &mut StdRng, choices: &[usize]) -> usize {
    choices[rng.gen::<u64>() as usize % choices.len()]
}

/// A random-but-valid problem: even-depth volume, detector sized to
/// cover it, random pixel content.
fn random_case(rng: &mut StdRng) -> (CbctGeometry, ProjectionStack) {
    let nx = pick(rng, &[10, 14, 16, 22]);
    let ny = pick(rng, &[10, 14, 16, 22]);
    let nz = pick(rng, &[8, 12, 16, 20]);
    let np = pick(rng, &[7, 16, 33, 40]);
    let side = 2 * nx.max(ny).max(nz);
    let geo = CbctGeometry::standard(Dims2::new(side, side), np, Dims3::new(nx, ny, nz));
    geo.validate().expect("generated geometry is valid");
    let mut stack = ProjectionStack::new(geo.detector);
    for _ in 0..np {
        let mut img = ProjectionImage::zeros(geo.detector);
        for p in img.data_mut() {
            *p = (rng.gen::<u64>() % 2048) as f32 / 1024.0 - 1.0;
        }
        stack.push(img).unwrap();
    }
    (geo, stack)
}

/// Whole-volume back-projection through the driver at tile shape `cfg`.
fn backproject_tiled(
    pool: &Pool,
    mats: &[ProjectionMatrix],
    stack: &ProjectionStack,
    dims: Dims3,
    cfg: TileConfig,
) -> Volume {
    let transposed: Vec<_> = stack.iter().map(|p| p.transposed()).collect();
    let nv = stack.dims().nv;
    backproject_warp_with(pool, mats, &transposed, nv, dims, WARP_BATCH, cfg)
}

#[test]
fn tiled_bp_is_thread_invariant_and_matches_standard() {
    let mut rng = StdRng::seed_from_u64(0x1FDC);
    for case in 0..5 {
        let (geo, stack) = random_case(&mut rng);
        let mats = geo.projection_matrices();
        let dims = geo.volume;
        let label = format!(
            "case {case}: {}x{}x{} volume, {} projections",
            dims.nx,
            dims.ny,
            dims.nz,
            stack.len()
        );

        // Random explicit tile shape (clamped by the driver) alongside
        // the auto heuristic.
        let cfg = if rng.gen::<u64>() % 2 == 0 {
            TileConfig::AUTO
        } else {
            TileConfig {
                i_block: 1 + (rng.gen::<u64>() as usize % dims.nx),
                slab_pairs: 1 + (rng.gen::<u64>() as usize % (dims.nz / 2)),
            }
        };

        let serial = backproject_tiled(&Pool::new(1), &mats, &stack, dims, cfg);
        for threads in [2usize, 4] {
            let par = backproject_tiled(&Pool::new(threads), &mats, &stack, dims, cfg);
            assert_eq!(
                par.data(),
                serial.data(),
                "{label}: {threads}-thread tiled BP must be bit-identical to 1-thread ({cfg:?})"
            );
        }

        let reference = backproject_standard(&Pool::new(1), &mats, &stack, dims);
        let tiled = serial.into_layout(ct_core::volume::VolumeLayout::IMajor);
        let e = nrmse(reference.data(), tiled.data()).unwrap();
        assert!(e < 1e-5, "{label}: nrmse vs standard {e} ({cfg:?})");
    }
}

#[test]
fn tiled_bp_handles_degenerate_tile_shapes() {
    let mut rng = StdRng::seed_from_u64(0xBEEF);
    let (geo, stack) = random_case(&mut rng);
    let mats = geo.projection_matrices();
    let dims = geo.volume;
    let reference = backproject_tiled(&Pool::new(1), &mats, &stack, dims, TileConfig::AUTO);
    // One-column tiles, one big tile, and a deliberately oversized config.
    for cfg in [
        TileConfig {
            i_block: 1,
            slab_pairs: dims.nz / 2,
        },
        TileConfig {
            i_block: dims.nx,
            slab_pairs: 1,
        },
        TileConfig {
            i_block: 100 * dims.nx,
            slab_pairs: 100 * dims.nz,
        },
    ] {
        let v = backproject_tiled(&Pool::new(3), &mats, &stack, dims, cfg);
        assert_eq!(v.data(), reference.data(), "{cfg:?}");
    }
    // Batch granularity doesn't change the tiled result materially either.
    let transposed: Vec<_> = stack.iter().map(|p| p.transposed()).collect();
    let nv = geo.detector.nv;
    let auto = TileConfig::AUTO;
    let pool = Pool::new(2);
    let full = backproject_warp_with(&pool, &mats, &transposed, nv, dims, WARP_BATCH, auto);
    let small_batch = backproject_warp_with(&pool, &mats, &transposed, nv, dims, 5, auto);
    let e = nrmse(full.data(), small_batch.data()).unwrap();
    assert!(e < 1e-6, "batch granularity changed the result: {e}");
}

/// Listing 1's batch loop, checked end to end: feeding the projections
/// batch by batch, in place, into one running pair volume equals one
/// call over all of them, bit for bit, for every pair, tile shape, pool
/// width and kernel; and each call reports exactly the `tiles_for`
/// tiles, in index order. Np = 75 is two full 32-projection batches
/// plus a tail.
#[test]
fn batch_by_batch_accumulation_equals_one_call_bitwise() {
    use ct_bp::lanes::{backproject_pair_batch_into, backproject_pair_batch_reporting, KernelImpl};
    use ct_bp::tiled::tiles_for;
    use ct_bp::SlabPair;
    use ct_core::projection::TransposedProjection;
    use ct_core::volume::VolumeLayout;

    let mut rng = StdRng::seed_from_u64(0x75);
    let dims = Dims3::new(12, 10, 16);
    let geo = CbctGeometry::standard(Dims2::new(32, 32), 75, dims);
    let mats = geo.projection_matrices();
    let transposed: Vec<TransposedProjection> = (0..geo.num_projections)
        .map(|_| {
            let mut img = ProjectionImage::zeros(geo.detector);
            for p in img.data_mut() {
                *p = (rng.gen::<u64>() % 2048) as f32 / 1024.0 - 1.0;
            }
            img.transposed()
        })
        .collect();
    let projs: Vec<&TransposedProjection> = transposed.iter().collect();
    let nv = geo.detector.nv;
    let bits = |v: &Volume| -> Vec<u32> { v.data().iter().map(|x| x.to_bits()).collect() };

    let whole = SlabPair::new(dims.nz, 0, dims.nz / 2).unwrap();
    for pair in [whole, SlabPair::new(16, 2, 5).unwrap()] {
        let local = Dims3::new(dims.nx, dims.ny, pair.local_nz());
        for tile in [
            TileConfig::AUTO,
            TileConfig {
                i_block: 3,
                slab_pairs: 3,
            },
            TileConfig {
                i_block: 1,
                slab_pairs: 1,
            },
            TileConfig {
                i_block: 100 * dims.nx,
                slab_pairs: 100 * dims.nz,
            },
        ] {
            for threads in [1usize, 2, 3] {
                let pool = Pool::new(threads);
                let (ib, parts) = tile.resolve(dims, pair, threads);
                let want_tiles = tiles_for(dims, pair, ib, parts).unwrap();
                for kernel in [KernelImpl::Scalar, KernelImpl::Lanes] {
                    let label = format!("{pair:?} {tile:?} x{threads} {}", kernel.name());
                    let check_reports = |reports: &[ct_bp::TileReport]| {
                        let got: Vec<_> = reports.iter().map(|r| r.tile).collect();
                        assert_eq!(got, want_tiles, "{label}: reports");
                        assert!(reports.iter().all(|r| r.finished >= r.started));
                    };
                    let (once, reports) = backproject_pair_batch_reporting(
                        &pool, kernel, &mats, &projs, nv, dims, pair, WARP_BATCH, tile,
                    );
                    check_reports(&reports);

                    let mut running = Volume::zeros(local, VolumeLayout::KMajor);
                    for (m, q) in mats.chunks(WARP_BATCH).zip(projs.chunks(WARP_BATCH)) {
                        let reports = backproject_pair_batch_into(
                            &pool,
                            kernel,
                            m,
                            q,
                            nv,
                            dims,
                            pair,
                            WARP_BATCH,
                            tile,
                            &mut running,
                        );
                        check_reports(&reports);
                    }
                    assert_eq!(bits(&running), bits(&once), "{label}: batch by batch");
                }
            }
        }
    }
}
