//! Time-to-volume benchmark for the iFDK pipelines.
//!
//! ```text
//! ifdk-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//!                --arrival-rate <proj/s> [--out-dir <dir>]
//! ```
//!
//! `--trace 0` runs the workload's shipped pipeline end to end and prints
//! the end-to-end metrics; `--trace 1` replays the workload's stage
//! sequence with a span around every layer call and prints the per-layer
//! metrics (spans go to `<out-dir>/spans-<workload>-seed<n>.json`). Both
//! print a human-readable report, then one JSON result line. Exit status:
//! 0 when the run completed (output failures are counted in the result,
//! not fatal), 1 when the reference reconstruction or the span file
//! failed (no result line), 2 on bad usage or a refused environment.

mod check;
mod inputs;
mod replay;
mod spans;
mod stats;
mod workload;

use check::Checker;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};
use workload::{Pipeline, Workload};

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
    rate: f64,
    out_dir: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut kv: BTreeMap<String, String> = BTreeMap::new();
    let mut it = std::env::args().skip(1);
    while let Some(k) = it.next() {
        let key = k
            .strip_prefix("--")
            .ok_or_else(|| format!("unexpected argument {k:?}"))?;
        let v = it.next().ok_or_else(|| format!("{k} needs a value"))?;
        kv.insert(key.to_string(), v);
    }
    let mut take = |k: &str| kv.remove(k).ok_or_else(|| format!("--{k} is required"));
    let name = take("workload")?;
    let workload = Workload::by_name(&name).ok_or_else(|| {
        let names: Vec<&str> = workload::WORKLOADS.iter().map(|w| w.name).collect();
        format!("unknown workload {name:?}; one of {names:?}")
    })?;
    let num = |k: &str, v: String| v.parse::<u64>().map_err(|e| format!("--{k} {v:?}: {e}"));
    let seed = num("seed", take("seed")?)?;
    let seconds = num("seconds", take("seconds")?)?;
    let trace = match take("trace")?.as_str() {
        "0" => false,
        "1" => true,
        t => return Err(format!("--trace must be 0 or 1, not {t:?}")),
    };
    let rate_s = take("arrival-rate")?;
    let rate: f64 = rate_s
        .parse()
        .map_err(|e| format!("--arrival-rate {rate_s:?}: {e}"))?;
    if !(rate.is_finite() && rate > 0.0) {
        return Err(format!("--arrival-rate must be positive, not {rate}"));
    }
    let out_dir = PathBuf::from(
        kv.remove("out-dir")
            .unwrap_or_else(|| ".bench_build/perfbench".into()),
    );
    if let Some(k) = kv.keys().next() {
        return Err(format!("unknown option --{k}"));
    }
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
        rate,
        out_dir,
    })
}

/// Vector ISA features this binary was compiled for (not what the CPU
/// offers: that is in the machine fingerprint's flags).
fn target_features() -> String {
    let on = [
        ("sse2", cfg!(target_feature = "sse2")),
        ("sse4.1", cfg!(target_feature = "sse4.1")),
        ("sse4.2", cfg!(target_feature = "sse4.2")),
        ("avx", cfg!(target_feature = "avx")),
        ("avx2", cfg!(target_feature = "avx2")),
        ("fma", cfg!(target_feature = "fma")),
        ("avx512f", cfg!(target_feature = "avx512f")),
        ("neon", cfg!(target_feature = "neon")),
    ];
    let v: Vec<&str> = on.iter().filter(|(_, b)| *b).map(|(n, _)| *n).collect();
    if v.is_empty() {
        "none".into()
    } else {
        v.join(",")
    }
}

/// The last-level (L3) cache size as the kernel reports it, if any.
fn l3_size() -> String {
    (0..8)
        .find_map(|i| {
            let dir = format!("/sys/devices/system/cpu/cpu0/cache/index{i}");
            let level = std::fs::read_to_string(format!("{dir}/level")).ok()?;
            (level.trim() == "3")
                .then(|| std::fs::read_to_string(format!("{dir}/size")).ok())
                .flatten()
                .map(|s| s.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

/// Peak resident set (VmHWM) of this process, MiB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("VmHWM:"))?;
            let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
            Some(kb / 1024.0)
        })
        .unwrap_or(0.0)
}

/// Total and stolen CPU time so far, in clock ticks, from the first line
/// of `/proc/stat` (`user nice system idle iowait irq softirq steal`).
fn cpu_ticks() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let line = stat.lines().next()?.strip_prefix("cpu ")?;
    let v: Vec<u64> = line
        .split_whitespace()
        .take(8)
        .map(|x| x.parse().ok())
        .collect::<Option<_>>()?;
    (v.len() == 8).then(|| (v.iter().sum(), v[7]))
}

/// The provenance stamped on every output.
fn stamp(a: &Args) -> Vec<(&'static str, String)> {
    let m = ct_perfdb::MachineInfo::detect();
    let w = &a.workload;
    let grid = match w.pipeline {
        Pipeline::Grid { rows, cols } => format!("{rows}x{cols}"),
        _ => "-".into(),
    };
    let threads = match w.pipeline {
        Pipeline::Grid { .. } => {
            let cfg = w.dist_config().expect("grid workload");
            format!("{} per rank", cfg.threads_per_rank)
        }
        _ => workload::THREADS.to_string(),
    };
    vec![
        ("workload", w.name.into()),
        ("seed", a.seed.to_string()),
        ("machine", m.fingerprint()),
        ("cpu", m.cpu_model.clone()),
        ("cpu_flags", m.cpu_flags.join(",")),
        ("target_features", target_features()),
        ("nproc", m.logical_cpus.to_string()),
        ("l3", l3_size()),
        ("threads", threads),
        ("grid", grid),
        ("arrival_rate_per_s", a.rate.to_string()),
        (
            "sizes",
            format!(
                "detector {0}x{0}, Np {1}, volume {2}^3",
                w.detector, w.np, w.volume
            ),
        ),
    ]
}

/// `name  median <v> unit  [q1 .. q3]  n=<count>` for a sample set.
fn summary_line(name: &str, unit: &str, v: &[f64]) -> String {
    let mut line = format!("{name:<24}");
    match stats::median(v) {
        Some(m) => {
            let _ = write!(line, " median {m:.6} {unit}");
        }
        None => line.push_str(" no samples"),
    }
    if let Some((q1, q3)) = stats::quartiles(v) {
        let _ = write!(line, "  q1 {q1:.6} q3 {q3:.6}");
    }
    let _ = write!(line, "  n={}", v.len());
    line
}

fn result_line(check: &Checker, metrics: &[(&str, &str, f64)]) -> String {
    let mut m = String::new();
    for (i, (name, unit, value)) in metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            m,
            "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        );
    }
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{m}}}}}",
        check.failed == 0 && check.attempted > 0,
        check.attempted,
        check.failed
    )
}

fn end_to_end(a: &Args, stack: &ct_core::ProjectionStack, check: &mut Checker) -> String {
    let window = Duration::from_secs(a.seconds);
    let before = cpu_ticks();
    let m = workload::run(&a.workload, stack, window, a.rate, check);
    // On a VM the hypervisor can take CPU time away mid-run; the share it
    // took explains a slow run without changing what was measured.
    match (before, cpu_ticks()) {
        (Some((t0, s0)), Some((t1, s1))) if t1 > t0 => println!(
            "# host steal during set-up and timed window: {:.1}% of CPU time",
            100.0 * (s1 - s0) as f64 / (t1 - t0) as f64
        ),
        _ => println!("# host steal during set-up and timed window: unknown"),
    }
    let ttv_name = match a.workload.pipeline {
        Pipeline::Stream => "scan_end_s",
        _ => "recon_s",
    };
    println!("{}", summary_line(ttv_name, "s", &m.time_to_volume_s));
    if a.workload.pipeline == Pipeline::Stream {
        println!("{}", summary_line("scan_s", "s", &m.scan_s));
        println!("{}", summary_line("feed_lag_s_p50", "s", &m.feed_lag_s));
        match stats::tail_percentile(&m.feed_lag_s) {
            Some(t) => println!(
                "{:<24} {:.6} s  n={} ({} beyond)",
                format!("feed_lag_s_p{}", t.pct),
                t.value,
                t.samples,
                t.beyond
            ),
            None => println!(
                "{:<24} fewer than 100 samples  n={}",
                "feed_lag_s_tail",
                m.feed_lag_s.len()
            ),
        }
        println!("{}", summary_line("preview_s", "s", &m.preview_s));
    }
    println!("{}", summary_line("setup_s", "s", &m.setup_s));
    let rss = peak_rss_mb();
    println!("{:<24} {rss:.3} MiB  n=1", "peak_rss_mb");
    println!(
        "{:<24} {}/{} = {}",
        "error_rate",
        check.failed,
        check.attempted,
        check.failed as f64 / check.attempted.max(1) as f64
    );
    let median = |v: &[f64]| stats::median(v).unwrap_or(0.0);
    result_line(
        check,
        &[
            ("time_to_volume_s", "s", median(&m.time_to_volume_s)),
            ("setup_s", "s", median(&m.setup_s)),
            ("peak_rss_mb", "MiB", rss),
        ],
    )
}

fn traced(
    a: &Args,
    stack: &ct_core::ProjectionStack,
    check: &mut Checker,
    header: &[(&str, String)],
) -> Result<String, String> {
    let w = &a.workload;
    let stalls = replay::ring_stalls(w, stack, check);
    let tracer = spans::Tracer::new();
    let window = Duration::from_secs(a.seconds);
    let start = Instant::now();
    let mut runs = 0u32;
    while runs == 0 || start.elapsed() < window {
        let out = replay::replay(w, stack, a.rate, &tracer, runs);
        check.record("traced replay", out);
        runs += 1;
    }
    let all = tracer.spans();
    let mut per_run: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    for run in 0..runs {
        for (k, v) in replay::layer_values(&all, run) {
            per_run.entry(k).or_default().push(v);
        }
    }
    per_run.insert("ct-sync.ring.push_stalls", vec![stalls.push as f64]);
    per_run.insert("ct-sync.ring.pop_stalls", vec![stalls.pop as f64]);
    per_run.insert(
        "ifdk.stream.lag_tail_flush_share",
        vec![replay::lag_tail_flush_share(&all, runs, a.rate)],
    );

    std::fs::create_dir_all(&a.out_dir)
        .map_err(|e| format!("creating {}: {e}", a.out_dir.display()))?;
    let path = a
        .out_dir
        .join(format!("spans-{}-seed{}.json", w.name, a.seed));
    std::fs::write(&path, spans::to_json(header, &all))
        .map_err(|e| format!("writing {}: {e}", path.display()))?;
    println!("# spans: {} in {}", all.len(), path.display());

    let mut metrics = Vec::new();
    for (name, unit) in replay::LAYER_METRICS {
        let v = per_run.get(name).map(Vec::as_slice).unwrap_or(&[]);
        println!("{}", summary_line(name, unit, v));
        metrics.push((name, unit, stats::median(v).unwrap_or(0.0)));
    }
    Ok(result_line(check, &metrics))
}

fn main() -> ExitCode {
    let a = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    // The benchmark measures the kernel the library picks by default; an
    // override would silently measure something else.
    if std::env::var_os("IFDK_KERNEL").is_some() {
        eprintln!("perfbench: IFDK_KERNEL is set; unset it to measure the shipped default");
        return ExitCode::from(2);
    }
    let header = stamp(&a);
    for (k, v) in &header {
        println!("# {k}: {v}");
    }

    // Inputs and the reference are made before any timing.
    let geo = a.workload.geometry();
    let t = Instant::now();
    let stack = inputs::projections(&geo, a.seed, workload::THREADS);
    println!(
        "# generated {} projections in {:.3} s",
        stack.len(),
        t.elapsed().as_secs_f64()
    );
    let reference = ifdk::reconstruct(&geo, &stack, &workload::recon_options());
    let reference = match reference {
        Ok(v) => v,
        Err(e) => {
            eprintln!("perfbench: reference reconstruction failed: {e}");
            return ExitCode::from(1);
        }
    };
    let mut check = Checker::new(reference);

    let result = if a.trace {
        match traced(&a, &stack, &mut check, &header) {
            Ok(r) => r,
            Err(e) => {
                eprintln!("perfbench: {e}");
                return ExitCode::from(1);
            }
        }
    } else {
        end_to_end(&a, &stack, &mut check)
    };
    println!("{result}");
    ExitCode::SUCCESS
}
