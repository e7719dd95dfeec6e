//! Wall-clock benchmark: the fixed sweep behind `BENCH_*.json`.
//!
//! Times every point of a fixed sweep on the shipping engine (the driver
//! loop with idle-cycle fast-forward on) and writes per-point wall-times
//! as JSON in the `millipede-bench/3` schema (documented in
//! EXPERIMENTS.md). The sweep itself is deterministic — fixed points,
//! fixed seeds, median of N runs — so regenerating the file changes only
//! the measured times, never the shape. The `poll_*` names are kept from
//! schema /2, so `millipede-cli report --check` joins /2 and /3 baselines
//! on the same `poll_median_ms` key.
//!
//! `--baseline FILE` points at a previous sweep (`millipede-bench/1`, `/2`
//! or `/3`); every current point whose label appears there additionally
//! reports the baseline median and the wall-clock speedup against it.
//!
//! The designated idle-heavy point (a bandwidth-starved Millipede node:
//! 8-bit DRAM channel, one context per corelet, so every row takes ~4×
//! longer to arrive than it takes to consume) is additionally timed with
//! fast-forward off, the per-edge oracle that walks every clock edge.
//! Both must give bit-identical results, so the comparison is
//! apples-to-apples; the binary exits nonzero if they ever disagree.
//!
//! `--manifest-out FILE` additionally writes a `millipede-manifest/1`
//! JSON covering the standard points (median wall per point) with full
//! per-run metrics and host self-profiling; the idle-heavy point runs
//! outside the shared driver and is not included.
//!
//! ```text
//! millipede-bench [--runs N] [--out FILE] [--baseline FILE] [--manifest-out FILE]
//! ```

use millipede::core_arch::{self, MillipedeConfig, NodeResult};
use millipede::dram::DramTiming;
use millipede::metrics::SelfProfile;
use millipede::sim::manifest::{self, ManifestRun};
use millipede::sim::{run_one, Arch, RunResult, SimConfig, TelemetryConfig};
use millipede::workloads::{Benchmark, Workload};
use std::time::Instant;

/// One standard sweep point, timed through the shared [`run_one`] driver.
struct Point {
    label: &'static str,
    arch: Arch,
    arch_name: &'static str,
    bench: Benchmark,
    chunks: usize,
}

const POINTS: [Point; 10] = [
    Point {
        label: "millipede-count",
        arch: Arch::Millipede,
        arch_name: "millipede",
        bench: Benchmark::Count,
        chunks: 128,
    },
    Point {
        label: "millipede-no-rate-match-count",
        arch: Arch::MillipedeNoRateMatch,
        arch_name: "millipede-no-rate-match",
        bench: Benchmark::Count,
        chunks: 128,
    },
    Point {
        label: "ssmc-count",
        arch: Arch::Ssmc,
        arch_name: "ssmc",
        bench: Benchmark::Count,
        chunks: 128,
    },
    Point {
        label: "vws-row-count",
        arch: Arch::VwsRow,
        arch_name: "vws-row",
        bench: Benchmark::Count,
        chunks: 128,
    },
    Point {
        label: "gpgpu-variance",
        arch: Arch::Gpgpu,
        arch_name: "gpgpu",
        bench: Benchmark::Variance,
        chunks: 64,
    },
    // Compute-heavy points: GDA and k-means spend most retired
    // instructions in straight-line ALU runs, so they are where the
    // predecoded interpreter's burst retire shows up.
    Point {
        label: "ssmc-gda",
        arch: Arch::Ssmc,
        arch_name: "ssmc",
        bench: Benchmark::Gda,
        chunks: 64,
    },
    Point {
        label: "vws-row-kmeans",
        arch: Arch::VwsRow,
        arch_name: "vws-row",
        bench: Benchmark::Kmeans,
        chunks: 64,
    },
    // Workload-family points (graph + dense; see EXPERIMENTS.md,
    // "Workload families"): the irregular indexed-local case on
    // Millipede, the ALU-burst-heavy dense tile on SSMC, and the
    // lowest-intensity streaming microkernel on the GPGPU baseline.
    Point {
        label: "millipede-pagerank",
        arch: Arch::Millipede,
        arch_name: "millipede",
        bench: Benchmark::Pagerank,
        chunks: 64,
    },
    Point {
        label: "ssmc-gemm",
        arch: Arch::Ssmc,
        arch_name: "ssmc",
        bench: Benchmark::Gemm,
        chunks: 32,
    },
    Point {
        label: "gpgpu-streamadd",
        arch: Arch::Gpgpu,
        arch_name: "gpgpu",
        bench: Benchmark::StreamAdd,
        chunks: 64,
    },
];

/// Chunks for the idle-heavy point (long enough that per-run wall time
/// dwarfs workload construction).
const IDLE_HEAVY_CHUNKS: usize = 128;

/// The idle-heavy configuration: Millipede without rate matching on a
/// deliberately bandwidth-starved node. An 8-bit channel delivers a 2 KB
/// row in 2048 channel cycles (~1.7 µs) while a single context per
/// corelet consumes it in a fraction of that, so the compute domain
/// spends most of simulated time quiescent, waiting on fills.
fn idle_heavy_config(fast_forward: bool) -> MillipedeConfig {
    MillipedeConfig {
        corelets: 64,
        contexts: 1,
        timing: DramTiming {
            width_bits: 8,
            ..DramTiming::default()
        },
        fast_forward,
        ..MillipedeConfig::no_rate_match()
    }
}

/// Times `runs` repetitions of a closure-built run. Returns per-run
/// wall-times in milliseconds and the last run's result.
fn time_runs<R>(runs: usize, mut run: impl FnMut() -> R) -> (Vec<f64>, R) {
    let mut ms = Vec::with_capacity(runs);
    let mut last = None;
    for _ in 0..runs {
        let t = Instant::now();
        last = Some(run());
        ms.push(t.elapsed().as_secs_f64() * 1e3);
    }
    (ms, last.expect("runs >= 1"))
}

/// Times one standard point with fast-forward on (the shipping default).
/// Returns per-run wall-times and the last run's full result (for the
/// manifest).
fn measure(p: &Point, runs: usize) -> (Vec<f64>, RunResult) {
    let cfg = SimConfig {
        num_chunks: p.chunks,
        fast_forward: true,
        // Pin the observational knobs so ambient MILLIPEDE_* variables
        // cannot skew the comparison.
        telemetry: TelemetryConfig::default(),
        ..SimConfig::default()
    };
    time_runs(runs, || run_one(p.arch, p.bench, &cfg))
}

/// Times the idle-heavy point with fast-forward on or off.
fn measure_idle_heavy(fast_forward: bool, runs: usize) -> (Vec<f64>, NodeResult) {
    let cfg = idle_heavy_config(fast_forward);
    let w = Workload::build(Benchmark::Count, IDLE_HEAVY_CHUNKS, 2048, 42);
    time_runs(runs, || core_arch::run(&w, &cfg))
}

/// Bit-equality of two runs' observable results (`ff_skipped_cycles` is
/// skip bookkeeping, excluded exactly as in the digests).
fn same_result(a: &NodeResult, b: &NodeResult) -> bool {
    let mut sa = a.stats.clone();
    let mut sb = b.stats.clone();
    sa.ff_skipped_cycles = 0;
    sb.ff_skipped_cycles = 0;
    sa == sb && a.dram == b.dram && a.elapsed_ps == b.elapsed_ps && a.output == b.output
}

fn median(ms: &[f64]) -> f64 {
    let mut sorted = ms.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("wall-times are finite"));
    sorted[sorted.len() / 2]
}

fn fmt_ms_list(ms: &[f64]) -> String {
    let items: Vec<String> = ms.iter().map(|m| format!("{m:.3}")).collect();
    format!("[{}]", items.join(", "))
}

/// Extracts `poll_median_ms` for the point labelled `label` from a prior
/// sweep's JSON text. The bench files are written by this binary in a
/// fixed shape, so a targeted scan (find the label, read the key before
/// the next label) is all the parsing needed.
fn baseline_median(doc: &str, label: &str) -> Option<f64> {
    let needle = format!("\"label\": \"{label}\"");
    let start = doc.find(&needle)?;
    let scope_all = &doc[start + needle.len()..];
    let scope_end = scope_all.find("\"label\":").unwrap_or(scope_all.len());
    let scope = &scope_all[..scope_end];
    let k = "\"poll_median_ms\":";
    let tail = scope[scope.find(k)? + k.len()..].trim_start();
    let num: String = tail
        .chars()
        .take_while(|c| c.is_ascii_digit() || *c == '.' || *c == '-')
        .collect();
    num.parse().ok()
}

fn main() {
    let mut prof = SelfProfile::start();
    prof.begin("decode");
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut runs = 3usize;
    let mut out: Option<String> = None;
    let mut baseline_path: Option<String> = None;
    let mut manifest_out: Option<String> = None;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--runs" => {
                i += 1;
                runs = args.get(i).and_then(|v| v.parse().ok()).unwrap_or_else(|| {
                    eprintln!("--runs needs a positive integer");
                    std::process::exit(2);
                });
                runs = runs.max(1);
            }
            "--out" => {
                i += 1;
                out = Some(args.get(i).cloned().unwrap_or_else(|| {
                    eprintln!("--out needs a file path");
                    std::process::exit(2);
                }));
            }
            "--baseline" => {
                i += 1;
                baseline_path = Some(args.get(i).cloned().unwrap_or_else(|| {
                    eprintln!("--baseline needs a file path");
                    std::process::exit(2);
                }));
            }
            "--manifest-out" => {
                i += 1;
                manifest_out = Some(args.get(i).cloned().unwrap_or_else(|| {
                    eprintln!("--manifest-out needs a file path");
                    std::process::exit(2);
                }));
            }
            other => {
                eprintln!(
                    "unknown flag `{other}` (usage: millipede-bench [--runs N] [--out FILE] \
                     [--baseline FILE] [--manifest-out FILE])"
                );
                std::process::exit(2);
            }
        }
        i += 1;
    }
    let baseline_doc: Option<String> = baseline_path.as_ref().map(|p| {
        std::fs::read_to_string(p).unwrap_or_else(|e| {
            eprintln!("{p}: {e}");
            std::process::exit(2);
        })
    });

    prof.begin("run");
    let mut entries: Vec<String> = Vec::new();
    // (result, median wall, chunks) per standard point, for the optional
    // run manifest.
    let mut manifest_points: Vec<(RunResult, f64, usize)> = Vec::new();
    for p in &POINTS {
        eprintln!("bench: {} ...", p.label);
        let (ms, r) = measure(p, runs);
        let med = median(&ms);
        manifest_points.push((r, med, p.chunks));
        let baseline = baseline_doc
            .as_deref()
            .and_then(|doc| baseline_median(doc, p.label));
        let baseline_fields = match baseline {
            Some(b) => format!(
                "      \"baseline_poll_median_ms\": {b:.3},\n      \
                 \"speedup_vs_baseline_poll\": {:.3},\n",
                b / med,
            ),
            None => String::new(),
        };
        entries.push(format!(
            "    {{\n      \"label\": \"{}\",\n      \"arch\": \"{}\",\n      \
             \"bench\": \"{}\",\n      \"chunks\": {},\n      \"corelets\": 32,\n      \
             \"contexts\": 4,\n{baseline_fields}      \"poll_ms\": {},\n      \
             \"poll_median_ms\": {med:.3}\n    }}",
            p.label,
            p.arch_name,
            p.bench.name(),
            p.chunks,
            fmt_ms_list(&ms),
        ));
        let vs_baseline = match baseline {
            Some(b) => format!(" ({:.2}x vs baseline)", b / med),
            None => String::new(),
        };
        eprintln!("bench: {}: {med:.1} ms{vs_baseline}", p.label);
    }

    eprintln!("bench: idle-heavy-low-bandwidth ...");
    let (ff_ms, ff_r) = measure_idle_heavy(true, runs);
    let (edge_ms, edge_r) = measure_idle_heavy(false, runs);
    let digests_match = same_result(&ff_r, &edge_r);
    let ff_med = median(&ff_ms);
    let edge_med = median(&edge_ms);
    let vs_edge = edge_med / ff_med;
    eprintln!(
        "bench: idle-heavy-low-bandwidth: per-edge {edge_med:.1} ms, fast-forward \
         {ff_med:.1} ms ({vs_edge:.2}x vs per-edge), digests {}",
        if digests_match { "match" } else { "MISMATCH" }
    );

    let idle_entry = format!(
        "  \"idle_heavy\": {{\n    \"label\": \"idle-heavy-low-bandwidth\",\n    \
         \"arch\": \"millipede-no-rate-match\",\n    \"bench\": \"count\",\n    \
         \"chunks\": {IDLE_HEAVY_CHUNKS},\n    \"corelets\": 64,\n    \"contexts\": 1,\n    \
         \"dram_width_bits\": 8,\n    \"per_edge_poll_ms\": {},\n    \
         \"poll_ms\": {},\n    \"per_edge_poll_median_ms\": {edge_med:.3},\n    \
         \"poll_median_ms\": {ff_med:.3},\n    \
         \"speedup_vs_per_edge_poll\": {vs_edge:.3},\n    \
         \"digests_match\": {digests_match}\n  }}",
        fmt_ms_list(&edge_ms),
        fmt_ms_list(&ff_ms),
    );

    prof.begin("report");
    let baseline_header = match &baseline_path {
        Some(p) => format!("  \"baseline\": \"{p}\",\n"),
        None => String::new(),
    };
    let json = format!(
        "{{\n  \"schema\": \"millipede-bench/3\",\n  \"runs_per_point\": {runs},\n\
         {baseline_header}  \
         \"notes\": \"Wall-times of the driver loop with idle-cycle fast-forward on \
         (the shipping default) at each point; medians over runs_per_point in-process \
         runs. Points carrying baseline_* fields are compared against the sweep named in \
         `baseline` (speedup_vs_baseline_poll = baseline median / this median). The \
         idle-heavy point is a bandwidth-starved Millipede node (8-bit DRAM channel, one \
         context per corelet) also timed with fast-forward off, which walks every clock \
         edge; both produce bit-identical results.\",\n{idle_entry},\n  \
         \"points\": [\n{}\n  ]\n}}\n",
        entries.join(",\n")
    );

    match out {
        Some(path) => {
            if let Err(e) = std::fs::write(&path, &json) {
                eprintln!("{path}: {e}");
                std::process::exit(2);
            }
            eprintln!("bench: wrote {path}");
        }
        None => print!("{json}"),
    }
    if let Some(path) = manifest_out {
        // The standard points share everything in SimConfig except chunks,
        // which each manifest run carries individually.
        let cfg = SimConfig {
            fast_forward: true,
            telemetry: TelemetryConfig::default(),
            ..SimConfig::default()
        };
        prof.end();
        let mruns: Vec<ManifestRun> = manifest_points
            .iter()
            .map(|(r, wall_ms, chunks)| ManifestRun {
                result: r,
                wall_ms: *wall_ms,
                chunks: *chunks,
            })
            .collect();
        let doc = manifest::render(&cfg, &prof, 1, &mruns);
        if let Err(e) = std::fs::write(&path, &doc) {
            eprintln!("{path}: {e}");
            std::process::exit(2);
        }
        eprintln!("bench: wrote run manifest {path}");
    }
    if !digests_match {
        eprintln!("bench: RESULT MISMATCH between fast-forward and per-edge ticking");
        std::process::exit(1);
    }
}
