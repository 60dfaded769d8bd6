//! The four workloads and their end-to-end runs.
//!
//! Each end-to-end run drives one shipped pipeline through its public
//! entry point with default configuration apart from thread count and
//! grid, and carries no benchmark tracing. Why each workload exists is
//! recorded in `BENCHMARK.json` and `perfbench/README.md`.

use crate::check::Checker;
use crate::inputs;
use ct_bp::BpConfig;
use ct_core::{CbctGeometry, ProjectionStack, Result, Volume};
use ct_filter::FilterConfig;
use ct_par::Pool;
use ct_pfs::PfsStore;
use ifdk::distributed::{download_volume, upload_projections};
use ifdk::{
    reconstruct_distributed, reconstruct_pipelined, DistConfig, RankGrid, ReconOptions,
    StreamingReconstructor,
};
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Times the set-up is repeated per run; `setup_s` is their median.
pub const SETUPS: usize = 5;
/// Threads for `pipe-bp`, the stream's pool and the reference.
pub const THREADS: usize = 2;
/// `stream-scan` calls `preview()` every this many projections ...
pub const PREVIEW_EVERY: usize = 32;
/// ... this many projections off the 32-projection batch boundary.
pub const PREVIEW_OFFSET: usize = 16;

/// Which shipped pipeline a workload drives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Pipeline {
    /// `ifdk::reconstruct_pipelined`.
    Pipelined,
    /// `ifdk::reconstruct_distributed` on a `rows x cols` grid.
    Grid { rows: usize, cols: usize },
    /// `ifdk::StreamingReconstructor`, fed open-loop.
    Stream,
}

/// One workload: a pipeline and a problem size.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    /// Name on the command line.
    pub name: &'static str,
    /// Pipeline under test.
    pub pipeline: Pipeline,
    /// Detector edge, pixels.
    pub detector: usize,
    /// Projections per scan.
    pub np: usize,
    /// Volume edge, voxels.
    pub volume: usize,
}

/// Every workload, in `BENCHMARK.json` order.
pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "pipe-bp",
        pipeline: Pipeline::Pipelined,
        detector: 128,
        np: 128,
        volume: 96,
    },
    Workload {
        name: "grid-gather",
        pipeline: Pipeline::Grid { rows: 2, cols: 1 },
        detector: 256,
        np: 128,
        volume: 64,
    },
    Workload {
        name: "grid-reduce",
        pipeline: Pipeline::Grid { rows: 1, cols: 2 },
        detector: 128,
        np: 32,
        volume: 160,
    },
    Workload {
        name: "stream-scan",
        pipeline: Pipeline::Stream,
        detector: 128,
        np: 64,
        volume: 128,
    },
];

impl Workload {
    /// Look a workload up by name.
    pub fn by_name(name: &str) -> Option<Workload> {
        WORKLOADS.iter().copied().find(|w| w.name == name)
    }

    /// The scan geometry.
    pub fn geometry(&self) -> CbctGeometry {
        inputs::geometry(self.detector, self.np, self.volume)
    }

    /// The grid configuration as shipped: `DistConfig::new` defaults.
    pub fn dist_config(&self) -> Option<DistConfig> {
        match self.pipeline {
            Pipeline::Grid { rows, cols } => {
                let grid = RankGrid::new(rows, cols).expect("workload grids are valid");
                Some(DistConfig::new(self.geometry(), grid))
            }
            _ => None,
        }
    }
}

/// Single-node reconstruction options as shipped, with the thread count.
pub fn recon_options() -> ReconOptions {
    ReconOptions {
        threads: THREADS,
        ..ReconOptions::default()
    }
}

/// A streaming reconstructor as shipped, with a `THREADS`-wide pool.
pub fn streamer(geo: &CbctGeometry) -> Result<StreamingReconstructor> {
    StreamingReconstructor::new(
        geo.clone(),
        FilterConfig::default(),
        BpConfig::default(),
        Pool::new(THREADS),
        true,
    )
}

/// Whether `stream-scan` previews after the `fed`-th projection.
pub fn previews_after(fed: usize) -> bool {
    fed % PREVIEW_EVERY == PREVIEW_OFFSET
}

/// What an end-to-end run measured.
#[derive(Debug, Default)]
pub struct EndToEnd {
    /// Seconds from the first program call to the end of the first,
    /// untimed reconstruction, once per set-up.
    pub setup_s: Vec<f64>,
    /// Seconds per timed reconstruction (`stream-scan`: from the last
    /// projection's due time to the finished volume).
    pub time_to_volume_s: Vec<f64>,
    /// `stream-scan`: lateness of every timed projection.
    pub feed_lag_s: Vec<f64>,
    /// `stream-scan`: latency of every timed `preview()`.
    pub preview_s: Vec<f64>,
    /// `stream-scan`: seconds from the first due time to the volume.
    pub scan_s: Vec<f64>,
}

/// Run `w` end to end: set up `SETUPS` times, then time reconstructions
/// until `window` has passed (at least one).
pub fn run(
    w: &Workload,
    stack: &ProjectionStack,
    window: Duration,
    rate: f64,
    check: &mut Checker,
) -> EndToEnd {
    let geo = w.geometry();
    let mut m = EndToEnd::default();
    match w.pipeline {
        Pipeline::Pipelined => {
            let opts = recon_options();
            let recon = || {
                let t = Instant::now();
                let out = reconstruct_pipelined(&geo, stack, &opts);
                (t.elapsed().as_secs_f64(), out)
            };
            for _ in 0..SETUPS {
                let (s, out) = recon();
                m.setup_s.push(s);
                check.record("set-up reconstruction", out);
            }
            let start = Instant::now();
            // Count attempts, not samples: a run whose every attempt fails
            // must still end.
            for _ in (0..).take_while(|&n| n == 0 || start.elapsed() < window) {
                let (s, out) = recon();
                m.time_to_volume_s.push(s);
                check.record("timed reconstruction", out);
            }
        }
        Pipeline::Grid { .. } => {
            let cfg = w.dist_config().expect("grid workload");
            // Each set-up uploads into a fresh store; the timed runs read
            // the last one.
            let mut input = None;
            for _ in 0..SETUPS {
                let t = Instant::now();
                let store = PfsStore::memory();
                let out = upload_projections(&store, stack).and_then(|()| grid_recon(&cfg, &store));
                m.setup_s.push(t.elapsed().as_secs_f64());
                check.record("set-up reconstruction", out.and_then(|(_, o)| o));
                input = Some(store);
            }
            let input = input.expect("SETUPS > 0");
            let start = Instant::now();
            // Count attempts, not samples: a run whose every attempt fails
            // must still end.
            for _ in (0..).take_while(|&n| n == 0 || start.elapsed() < window) {
                match grid_recon(&cfg, &input) {
                    Ok((s, out)) => {
                        m.time_to_volume_s.push(s);
                        check.record("timed reconstruction", out);
                    }
                    Err(e) => {
                        check.record("timed reconstruction", Err(e));
                    }
                }
            }
        }
        Pipeline::Stream => {
            for _ in 0..SETUPS {
                let t = Instant::now();
                let out = streamer(&geo).and_then(|s| scan(s, stack, None));
                m.setup_s.push(t.elapsed().as_secs_f64());
                check.record("set-up scan", out.map(|s| s.volume));
            }
            let start = Instant::now();
            // Count attempts, not samples: a run whose every attempt fails
            // must still end.
            for _ in (0..).take_while(|&n| n == 0 || start.elapsed() < window) {
                let out = streamer(&geo).and_then(|s| scan(s, stack, Some(rate)));
                let out = out.map(|s| {
                    let last_due = (geo.num_projections - 1) as f64 / rate;
                    m.time_to_volume_s.push(s.done_s - last_due);
                    m.scan_s.push(s.done_s);
                    m.feed_lag_s
                        .extend(crate::stats::open_loop_lag(&s.fed_s, rate));
                    m.preview_s.extend(s.preview_s);
                    s.volume
                });
                check.record("timed scan", out);
            }
        }
    }
    m
}

/// One timed `reconstruct_distributed` into a fresh output store: the
/// seconds it took and the volume read back (untimed).
fn grid_recon(cfg: &DistConfig, input: &PfsStore) -> Result<(f64, Result<Volume>)> {
    let output = PfsStore::memory();
    let t = Instant::now();
    reconstruct_distributed(cfg, input, &output)?;
    let s = t.elapsed().as_secs_f64();
    Ok((s, download_volume(&output, cfg.geo.volume)))
}

/// One streamed scan.
pub struct Scan {
    /// The finished volume.
    pub volume: Volume,
    /// When each `feed` returned, seconds from the schedule's start.
    pub fed_s: Vec<f64>,
    /// Latency of each `preview()`.
    pub preview_s: Vec<f64>,
    /// When `finish` returned, seconds from the schedule's start.
    pub done_s: f64,
}

/// Feed every projection to `s`, previewing on the workload's schedule.
/// With `rate`, projection `i` is due `i / rate` seconds after the start
/// and is sent no earlier (open loop); without, as fast as `s` takes them.
pub fn scan(
    mut s: StreamingReconstructor,
    stack: &ProjectionStack,
    rate: Option<f64>,
) -> Result<Scan> {
    let mut fed_s = Vec::with_capacity(stack.len());
    let mut preview_s = Vec::new();
    let start = Instant::now();
    for (i, img) in stack.iter().enumerate() {
        if let Some(rate) = rate {
            wait_until_due(start, i, rate);
        }
        s.feed(img)?;
        fed_s.push(start.elapsed().as_secs_f64());
        if previews_after(i + 1) {
            let t = Instant::now();
            black_box(s.preview()?);
            preview_s.push(t.elapsed().as_secs_f64());
        }
    }
    let volume = s.finish()?;
    Ok(Scan {
        volume,
        fed_s,
        preview_s,
        done_s: start.elapsed().as_secs_f64(),
    })
}

/// Sleep until arrival `i` of an open-loop schedule that started at
/// `start` with `rate` arrivals per second is due; return at once if it
/// is already late.
pub fn wait_until_due(start: Instant, i: usize, rate: f64) {
    let due = start + Duration::from_secs_f64(i as f64 / rate);
    let now = Instant::now();
    if due > now {
        std::thread::sleep(due - now);
    }
}
