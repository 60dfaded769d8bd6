//! The batch → back-project → accumulate loop every pipeline shares.
//!
//! Filtered projections arrive one at a time (from a circular buffer or
//! a streaming caller) and are grouped into fixed `batch`-sized chunks
//! of the stream — Listing 1's `Nbatch = 32` — so the result depends
//! only on the projection order, never on arrival timing. Each chunk
//! goes through the one `ct_bp` dispatch,
//! [`backproject_pair_batch_into`], which adds it in place into the
//! running volume of this pipeline's slab pair (the whole volume on a
//! single node, the row's pair on a rank).

use ct_bp::lanes::backproject_pair_batch_into;
use ct_bp::tiled::TileReport;
use ct_bp::warp::WARP_BATCH;
use ct_bp::{BpConfig, SlabPair};
use ct_core::error::{CtError, Result};
use ct_core::geometry::{CbctGeometry, ProjectionMatrix};
use ct_core::problem::Dims3;
use ct_core::projection::TransposedProjection;
use ct_core::volume::{Volume, VolumeLayout};
use ct_par::Pool;

/// Reject a projection batch outside the kernels' `1..=WARP_BATCH`
/// range — the one check every entry point runs before any work starts.
pub(crate) fn check_batch(batch: usize) -> Result<()> {
    if (1..=WARP_BATCH).contains(&batch) {
        Ok(())
    } else {
        Err(CtError::InvalidConfig(format!(
            "batch = {batch} must be in 1..={WARP_BATCH}"
        )))
    }
}

/// Reject a zero circular-buffer capacity before any thread starts.
pub(crate) fn check_ring_capacity(capacity: usize) -> Result<()> {
    match capacity {
        0 => Err(CtError::InvalidConfig(
            "ring_capacity must be nonzero".into(),
        )),
        _ => Ok(()),
    }
}

/// Pending projections plus the running pair volume of one pipeline.
pub(crate) struct BatchAccumulator {
    pool: Pool,
    mats: Vec<ProjectionMatrix>,
    bp: BpConfig,
    nv: usize,
    dims: Dims3,
    pair: SlabPair,
    pending: Vec<(usize, TransposedProjection)>,
    acc: Volume,
}

impl BatchAccumulator {
    /// An empty accumulator for `pair` of `geo`'s volume. `bp.batch`
    /// must already have passed [`check_batch`].
    pub(crate) fn new(geo: &CbctGeometry, pair: SlabPair, bp: BpConfig, pool: Pool) -> Self {
        let dims = geo.volume;
        Self {
            pool,
            mats: geo.projection_matrices(),
            bp,
            nv: geo.detector.nv,
            dims,
            pair,
            pending: Vec::with_capacity(bp.batch),
            acc: Volume::zeros(
                Dims3::new(dims.nx, dims.ny, pair.local_nz()),
                VolumeLayout::KMajor,
            ),
        }
    }

    /// Projections buffered but not yet back-projected.
    pub(crate) fn pending(&self) -> usize {
        self.pending.len()
    }

    /// Buffer projection `index`; returns `true` once a full batch is
    /// pending (the caller then [`flush`](Self::flush)es).
    pub(crate) fn push(&mut self, index: usize, q: TransposedProjection) -> bool {
        self.pending.push((index, q));
        self.pending.len() >= self.bp.batch
    }

    /// Pull projections from `next` until a full batch is pending or
    /// the source is exhausted; returns how many are pending.
    pub(crate) fn fill(
        &mut self,
        mut next: impl FnMut() -> Option<(usize, TransposedProjection)>,
    ) -> usize {
        while self.pending.len() < self.bp.batch {
            let Some(item) = next() else { break };
            self.pending.push(item);
        }
        self.pending.len()
    }

    /// Back-project the pending projections into the pair volume, in
    /// place. Returns the driver's per-tile reports (empty when nothing
    /// was pending).
    pub(crate) fn flush(&mut self) -> Vec<TileReport> {
        if self.pending.is_empty() {
            return Vec::new();
        }
        let mats: Vec<ProjectionMatrix> = self.pending.iter().map(|(i, _)| self.mats[*i]).collect();
        let projs: Vec<&TransposedProjection> = self.pending.iter().map(|(_, q)| q).collect();
        // Every kernel and tile shape is bit-identical; the config only
        // changes scheduling and instruction mix, not arithmetic.
        let reports = backproject_pair_batch_into(
            &self.pool,
            self.bp.kernel,
            &mats,
            &projs,
            self.nv,
            self.dims,
            self.pair,
            self.bp.batch,
            self.bp.tile,
            &mut self.acc,
        );
        self.pending.clear();
        reports
    }

    /// The pair volume accumulated so far (pending projections excluded).
    pub(crate) fn volume(&self) -> &Volume {
        &self.acc
    }

    /// Flush whatever is pending and return the k-major pair volume.
    pub(crate) fn finish(mut self) -> Volume {
        self.flush();
        self.acc
    }
}
