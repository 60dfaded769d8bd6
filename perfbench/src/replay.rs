//! The traced replay: each workload's stage sequence re-driven from this
//! file, one public layer call at a time, with a span around every call.
//!
//! The replay mirrors what the shipped pipeline does per rank (load,
//! filter, AllGather, batch back-projection, accumulate, Reduce, store)
//! but runs the stages of a rank one after another, so each span is that
//! layer's own busy time. A barrier before each collective keeps waiting
//! on a slower peer out of the collective's busy time; the barrier's span
//! is the layer's wait time. Ring stalls cannot be replayed (the rings are
//! inside the pipelines), so they come from one shipped run: the
//! `DistReport` ring counters, or the live ring probe of
//! `reconstruct_pipelined_live`.

use crate::check::Checker;
use crate::spans::{Ctx, Span, Tracer};
use crate::workload::{self, Pipeline, Workload};
use ct_bp::lanes::{backproject_batch, backproject_pair_batch_reporting};
use ct_bp::{fdk_scale, BpConfig, WARP_BATCH};
use ct_comm::Universe;
use ct_core::projection::TransposedProjection;
use ct_core::{
    CbctGeometry, CtError, Dims3, ProjectionImage, ProjectionMatrix, ProjectionStack, Result,
    Volume, VolumeLayout,
};
use ct_filter::{FilterConfig, Filterer};
use ct_obs::live::LiveRegistry;
use ct_par::Pool;
use ct_pfs::PfsStore;
use ifdk::distributed::{download_volume, upload_projections};
use ifdk::{reconstruct_distributed, reconstruct_pipelined_live, DistConfig};
use std::collections::BTreeMap;
use std::time::Instant;

/// Ring stall counts from one shipped run.
#[derive(Debug, Default, Clone, Copy)]
pub struct RingStalls {
    /// Pushes that blocked on a full ring.
    pub push: u64,
    /// Pops that blocked on an empty ring.
    pub pop: u64,
}

/// Run the shipped pipeline once to read its ring stall counters; the
/// output is checked like any other.
pub fn ring_stalls(w: &Workload, stack: &ProjectionStack, check: &mut Checker) -> RingStalls {
    let geo = w.geometry();
    match w.pipeline {
        Pipeline::Pipelined => {
            let live = LiveRegistry::new();
            let out = reconstruct_pipelined_live(&geo, stack, &workload::recon_options(), &live);
            check.record("ring-probe reconstruction", out);
            live.snapshot()
                .rings
                .iter()
                .fold(RingStalls::default(), |acc, r| RingStalls {
                    push: acc.push + r.state.push_stalls,
                    pop: acc.pop + r.state.pop_stalls,
                })
        }
        Pipeline::Grid { .. } => {
            let cfg = w.dist_config().expect("grid workload");
            let input = PfsStore::memory();
            let output = PfsStore::memory();
            let run = upload_projections(&input, stack)
                .and_then(|()| reconstruct_distributed(&cfg, &input, &output));
            let mut stalls = RingStalls::default();
            let out = run.and_then(|report| {
                for c in &report.trace.counters {
                    match c.name {
                        n if n.starts_with("ring.") && n.ends_with(".push_stalls") => {
                            stalls.push += c.value
                        }
                        n if n.starts_with("ring.") && n.ends_with(".pop_stalls") => {
                            stalls.pop += c.value
                        }
                        _ => {}
                    }
                }
                download_volume(&output, geo.volume)
            });
            check.record("ring-probe reconstruction", out);
            stalls
        }
        // The streaming reconstructor has no ring: BP runs on the caller.
        Pipeline::Stream => RingStalls::default(),
    }
}

/// Replay `w` once as run `run`, recording spans into `t`; returns the
/// finished volume.
pub fn replay(
    w: &Workload,
    stack: &ProjectionStack,
    rate: f64,
    t: &Tracer,
    run: u32,
) -> Result<Volume> {
    let geo = w.geometry();
    let ctx = Ctx::root(run, 0);
    match w.pipeline {
        Pipeline::Pipelined => t.span(ctx, "replay", |c| (single_rank(&geo, stack, t, c, None), 0)),
        Pipeline::Grid { .. } => {
            let cfg = w.dist_config().expect("grid workload");
            t.span(ctx, "replay", |c| (grid(&cfg, stack, t, c), 0))
        }
        Pipeline::Stream => t.span(ctx, "replay", |c| {
            // The layer sequence of the streaming reconstructor, closed
            // loop, then one traced open-loop scan through the shipped
            // reconstructor itself for the `ifdk.stream.*` spans.
            let layers = single_rank(&geo, stack, t, c, Some(workload::previews_after));
            let streamed = traced_scan(&geo, stack, rate, t, c);
            let out = match (layers, streamed) {
                (Ok(a), Ok(b)) if a.data() == b.data() => Ok(b),
                (Ok(_), Ok(_)) => Err(CtError::InvalidConfig(
                    "layer replay and traced scan disagree".into(),
                )),
                (Err(e), _) | (_, Err(e)) => Err(e),
            };
            (out, 0)
        }),
    }
}

/// Updates of one batch: voxels times projections.
fn updates(dims: Dims3, projections: usize) -> u64 {
    (dims.len() * projections) as u64
}

/// Bytes `Volume::accumulate` touches: two volumes read, one written
/// (computed from sizes, not measured).
fn accumulate_bytes(v: &Volume) -> u64 {
    3 * 4 * v.data().len() as u64
}

/// One rank's single-node sequence: filter and transpose each projection,
/// back-project full batches, accumulate, reshape. With `preview_after`,
/// the streaming reconstructor's sequence instead: a partial batch is
/// flushed and the volume copied out after every projection count the
/// predicate names.
fn single_rank(
    geo: &CbctGeometry,
    stack: &ProjectionStack,
    t: &Tracer,
    c: Ctx,
    preview_after: Option<fn(usize) -> bool>,
) -> Result<Volume> {
    let pool = Pool::new(workload::THREADS);
    let bp = BpConfig::default();
    let batch = bp.batch.clamp(1, WARP_BATCH);
    let filterer = Filterer::new(geo, FilterConfig::default());
    let mats = geo.projection_matrices();
    let dims = geo.volume;
    let nv = geo.detector.nv;
    let mut acc = Volume::zeros(dims, VolumeLayout::KMajor);
    let mut pending: Vec<(usize, TransposedProjection)> = Vec::with_capacity(batch);
    let flush = |pending: &mut Vec<(usize, TransposedProjection)>, acc: &mut Volume| {
        if pending.is_empty() {
            return Ok(());
        }
        let m: Vec<ProjectionMatrix> = pending.iter().map(|(i, _)| mats[*i]).collect();
        let q: Vec<&TransposedProjection> = pending.iter().map(|(_, q)| q).collect();
        let part = t.span(c, "ct-bp", |_| {
            let v = backproject_batch(&pool, bp.kernel, &m, &q, nv, dims, batch, bp.tile);
            (v, updates(dims, q.len()))
        });
        drop(q);
        pending.clear();
        t.span(c, "ct-core.accumulate", |_| {
            (acc.accumulate(&part), accumulate_bytes(&part))
        })
    };
    for (i, img) in stack.iter().enumerate() {
        let f = t.span(c, "ct-filter", |_| (filterer.filter_indexed(i, img), 1));
        let q = t.span(c, "ct-core.relayout", |_| (f.transposed(), 0));
        pending.push((i, q));
        if pending.len() >= batch {
            flush(&mut pending, &mut acc)?;
        }
        if preview_after.is_some_and(|p| p(i + 1)) {
            flush(&mut pending, &mut acc)?;
            let preview = acc.clone();
            std::hint::black_box(t.span(c, "ct-core.relayout", |_| {
                (preview.into_layout(VolumeLayout::IMajor), 0)
            }));
        }
    }
    flush(&mut pending, &mut acc)?;
    let mut vol = t.span(c, "ct-core.relayout", |_| {
        (acc.into_layout(VolumeLayout::IMajor), 0)
    });
    vol.scale(fdk_scale(geo));
    Ok(vol)
}

/// An open-loop scan through the shipped streaming reconstructor, with a
/// span around every `feed` (named `ifdk.stream.flush` when the feed
/// back-projected a batch), `preview` and `finish`.
fn traced_scan(
    geo: &CbctGeometry,
    stack: &ProjectionStack,
    rate: f64,
    t: &Tracer,
    c: Ctx,
) -> Result<Volume> {
    let mut s = workload::streamer(geo)?;
    let start = Instant::now();
    for (i, img) in stack.iter().enumerate() {
        workload::wait_until_due(start, i, rate);
        // A feed that leaves nothing pending back-projected a batch.
        t.span_named_after(c, |_| {
            let r = s.feed(img);
            let name = if s.pending() == 0 {
                "ifdk.stream.flush"
            } else {
                "ifdk.stream.feed"
            };
            (r, 1, name)
        })?;
        if workload::previews_after(i + 1) {
            std::hint::black_box(t.span(c, "ifdk.stream.preview", |_| (s.preview(), 1))?);
        }
    }
    t.span(c, "ifdk.stream.finish", |_| (s.finish(), 1))
}

/// The grid sequence: every rank of `cfg.grid` on its own thread, like
/// `reconstruct_distributed`, with the default RootReduce post stage;
/// the stored slices are read back into one volume.
fn grid(cfg: &DistConfig, stack: &ProjectionStack, t: &Tracer, c: Ctx) -> Result<Volume> {
    let input = PfsStore::memory();
    upload_projections(&input, stack)?;
    let output = PfsStore::memory();
    let mats = cfg.geo.projection_matrices();
    let results = Universe::with_timeout(cfg.timeout)
        .launch(cfg.grid.n_ranks(), |comm| {
            let rc = Ctx {
                rank: comm.rank() as u32,
                ..c
            };
            t.span(rc, "replay.rank", |rc| {
                (rank(cfg, &mats, &input, &output, comm, t, rc), 0)
            })
        })
        .map_err(|e| CtError::InvalidConfig(format!("replay ranks failed: {e}")))?;
    for r in results {
        r?;
    }
    download_volume(&output, cfg.geo.volume)
}

fn rank(
    cfg: &DistConfig,
    mats: &[ProjectionMatrix],
    input: &PfsStore,
    output: &PfsStore,
    comm: &ct_comm::Comm,
    t: &Tracer,
    c: Ctx,
) -> Result<()> {
    let geo = &cfg.geo;
    let grid = cfg.grid;
    let r = comm.rank();
    let (row, col) = (grid.row_of(r), grid.col_of(r));
    let col_comm = comm.split(col as u64, row as u64);
    let row_comm = comm.split(row as u64, col as u64);
    let my_range = grid.projections_of_rank(r, geo.num_projections)?;
    let col_range = grid.projections_of_column(col, geo.num_projections)?;
    let ops = my_range.len();
    let pair = grid.slab_pair_of_row(row, geo.volume.nz)?;
    let pool = Pool::new(cfg.threads_per_rank);
    let filterer = Filterer::new(geo, cfg.filter);
    let (dims, nv, per) = (geo.volume, geo.detector.nv, geo.detector.len());
    let local = Dims3::new(dims.nx, dims.ny, pair.local_nz());
    let mut acc = Volume::zeros(local, VolumeLayout::KMajor);
    let mut pending: Vec<(usize, TransposedProjection)> = Vec::with_capacity(cfg.batch);

    let flush = |pending: &mut Vec<(usize, TransposedProjection)>, acc: &mut Volume| {
        let m: Vec<ProjectionMatrix> = pending.iter().map(|(i, _)| mats[*i]).collect();
        let q: Vec<&TransposedProjection> = pending.iter().map(|(_, q)| q).collect();
        let part = t.span(c, "ct-bp", |_| {
            let (v, _tiles) = backproject_pair_batch_reporting(
                &pool, cfg.kernel, &m, &q, nv, dims, pair, cfg.batch, cfg.tile,
            );
            (v, updates(local, q.len()))
        });
        drop(q);
        pending.clear();
        t.span(c, "ct-core.accumulate", |_| {
            (acc.accumulate(&part), accumulate_bytes(&part))
        })
    };

    for o in 0..ops {
        let i = my_range.start + o;
        let data = t.span(c, "ct-pfs.read", |_| {
            let d = input.read_f32(&PfsStore::projection_name(i));
            let bytes = d.as_ref().map_or(0, |d| 4 * d.len() as u64);
            (d, bytes)
        });
        let data =
            data.map_err(|e| CtError::InvalidConfig(format!("loading projection {i}: {e}")))?;
        let img = ProjectionImage::from_vec(geo.detector, data)?;
        let q = t.span(c, "ct-filter", |_| (filterer.filter_indexed(i, &img), 1));
        t.span(c, "ct-comm.allgather.wait", |_| (col_comm.barrier(), 0));
        let gathered = t.span(c, "ct-comm.allgather", |_| {
            let before = col_comm.local_stats();
            let g = col_comm.all_gather_with(cfg.allgather, q.data());
            (g, col_comm.local_stats().since(before).bytes_sent)
        });
        for (rp, chunk) in gathered.chunks_exact(per).enumerate() {
            let idx = col_range.start + rp * ops + o;
            let img = ProjectionImage::from_vec(geo.detector, chunk.to_vec())?;
            pending.push((
                idx,
                t.span(c, "ct-core.relayout", |_| (img.transposed(), 0)),
            ));
            if pending.len() == cfg.batch {
                flush(&mut pending, &mut acc)?;
            }
        }
    }
    if !pending.is_empty() {
        flush(&mut pending, &mut acc)?;
    }

    t.span(c, "ct-comm.reduce.wait", |_| (row_comm.barrier(), 0));
    let reduced = t.span(c, "ct-comm.reduce", |_| {
        let before = row_comm.local_stats();
        let r = row_comm.reduce_sum_f32(0, acc.data());
        (r, row_comm.local_stats().since(before).bytes_sent)
    });
    if let Some(data) = reduced {
        let mut vol = Volume::from_vec(local, VolumeLayout::KMajor, data)?;
        vol.scale(if cfg.apply_scale { fdk_scale(geo) } else { 1.0 });
        for lk in 0..pair.local_nz() {
            let k = pair.global_k(lk);
            let slice = t.span(c, "ct-core.relayout", |_| (vol.slice_xy(lk), 0))?;
            t.span(c, "ct-pfs.write", |_| {
                let bytes = 4 * slice.len() as u64;
                (output.write_f32(&PfsStore::slice_name(k), &slice), bytes)
            })
            .map_err(|e| CtError::InvalidConfig(format!("storing slice {k}: {e}")))?;
        }
    }
    Ok(())
}

/// Per-layer metric names and units, in `BENCHMARK.json` order.
pub const LAYER_METRICS: [(&str, &str); 26] = [
    ("ct-bp.updates", "count"),
    ("ct-bp.busy_s", "s"),
    ("ct-bp.gups", "GUPS"),
    ("ct-filter.projections", "count"),
    ("ct-filter.busy_s", "s"),
    ("ct-filter.proj_per_s", "1/s"),
    ("ct-comm.allgather.bytes", "B"),
    ("ct-comm.allgather.busy_s", "s"),
    ("ct-comm.allgather.wait_s", "s"),
    ("ct-comm.reduce.bytes", "B"),
    ("ct-comm.reduce.busy_s", "s"),
    ("ct-comm.reduce.wait_s", "s"),
    ("ct-pfs.read.bytes", "B"),
    ("ct-pfs.read.busy_s", "s"),
    ("ct-pfs.write.bytes", "B"),
    ("ct-pfs.write.busy_s", "s"),
    ("ct-core.accumulate.bytes", "B"),
    ("ct-core.accumulate.busy_s", "s"),
    ("ct-core.relayout.busy_s", "s"),
    ("ct-sync.ring.push_stalls", "count"),
    ("ct-sync.ring.pop_stalls", "count"),
    ("ifdk.stream.feed_busy_s", "s"),
    ("ifdk.stream.flush_busy_s", "s"),
    ("ifdk.stream.preview_busy_s", "s"),
    ("ifdk.stream.lag_tail_flush_share", "ratio"),
    ("trace.wall_s", "s"),
];

/// The span-derived per-layer values of one replay run, by metric name
/// (the ring stall counts come from [`ring_stalls`], the lag-tail share
/// from [`lag_tail_flush_share`] over every run).
pub fn layer_values(spans: &[Span], run: u32) -> BTreeMap<&'static str, f64> {
    let tot = crate::spans::totals(spans, run);
    let get = |n: &str| tot.get(n).copied().unwrap_or_default();
    let ratio = |work: f64, busy: f64| if busy > 0.0 { work / busy } else { 0.0 };
    let bp = get("ct-bp");
    let flt = get("ct-filter");
    let (ag, ag_wait) = (get("ct-comm.allgather"), get("ct-comm.allgather.wait"));
    let (red, red_wait) = (get("ct-comm.reduce"), get("ct-comm.reduce.wait"));
    let (rd, wr) = (get("ct-pfs.read"), get("ct-pfs.write"));
    let acc = get("ct-core.accumulate");
    BTreeMap::from([
        ("ct-bp.updates", bp.work as f64),
        ("ct-bp.busy_s", bp.busy_s),
        // The paper's GUPS: updates / (s * 2^30).
        (
            "ct-bp.gups",
            ratio(bp.work as f64 / f64::from(1u32 << 30), bp.busy_s),
        ),
        ("ct-filter.projections", flt.work as f64),
        ("ct-filter.busy_s", flt.busy_s),
        ("ct-filter.proj_per_s", ratio(flt.work as f64, flt.busy_s)),
        ("ct-comm.allgather.bytes", ag.work as f64),
        ("ct-comm.allgather.busy_s", ag.busy_s),
        ("ct-comm.allgather.wait_s", ag_wait.busy_s),
        ("ct-comm.reduce.bytes", red.work as f64),
        ("ct-comm.reduce.busy_s", red.busy_s),
        ("ct-comm.reduce.wait_s", red_wait.busy_s),
        ("ct-pfs.read.bytes", rd.work as f64),
        ("ct-pfs.read.busy_s", rd.busy_s),
        ("ct-pfs.write.bytes", wr.work as f64),
        ("ct-pfs.write.busy_s", wr.busy_s),
        ("ct-core.accumulate.bytes", acc.work as f64),
        ("ct-core.accumulate.busy_s", acc.busy_s),
        ("ct-core.relayout.busy_s", get("ct-core.relayout").busy_s),
        ("ifdk.stream.feed_busy_s", get("ifdk.stream.feed").busy_s),
        ("ifdk.stream.flush_busy_s", get("ifdk.stream.flush").busy_s),
        (
            "ifdk.stream.preview_busy_s",
            get("ifdk.stream.preview").busy_s,
        ),
        ("trace.wall_s", get("replay").busy_s),
    ])
}

/// Of the traced scans' pooled lag tail (the samples beyond the tail
/// percentile), the share whose wait overlapped a flushing feed or a
/// preview: the calls that back-project on the caller's thread. One scan
/// is too short for a tail, so the scans of runs `0..runs` are pooled.
/// 0 without scans.
pub fn lag_tail_flush_share(spans: &[Span], runs: u32, rate: f64) -> f64 {
    let mut lags = Vec::new();
    let mut stalled = Vec::new();
    for run in 0..runs {
        let mut scan: Vec<&Span> = spans
            .iter()
            .filter(|s| s.run == run && s.name.starts_with("ifdk.stream."))
            .collect();
        scan.sort_by_key(|s| s.start_ns);
        let feeds: Vec<&Span> = scan
            .iter()
            .copied()
            .filter(|s| s.name == "ifdk.stream.feed" || s.name == "ifdk.stream.flush")
            .collect();
        let Some(origin) = feeds.first().map(|s| s.start_ns) else {
            continue;
        };
        let stalls: Vec<(u64, u64)> = scan
            .iter()
            .filter(|s| s.name == "ifdk.stream.flush" || s.name == "ifdk.stream.preview")
            .map(|s| (s.start_ns, s.end_ns))
            .collect();
        let done_s: Vec<f64> = feeds
            .iter()
            .map(|f| (f.end_ns - origin) as f64 / 1e9)
            .collect();
        lags.extend(crate::stats::open_loop_lag(&done_s, rate));
        for (i, f) in feeds.iter().enumerate() {
            // Due `i / rate` after the first send, as the scan scheduled it.
            let due = origin + (i as f64 / rate * 1e9) as u64;
            stalled.push(stalls.iter().any(|&(a, b)| a < f.end_ns && b > due));
        }
    }
    let Some(tail) = crate::stats::tail_percentile(&lags) else {
        return 0.0;
    };
    let in_tail: Vec<bool> = (0..lags.len())
        .filter(|&i| lags[i] > tail.value)
        .map(|i| stalled[i])
        .collect();
    if in_tail.is_empty() {
        return 0.0;
    }
    in_tail.iter().filter(|&&s| s).count() as f64 / in_tail.len() as f64
}
