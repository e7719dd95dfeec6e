//! Host-time benchmark of the Millipede simulator.
//!
//! ```text
//! simbench --workload <paper-figures|starved-scaleout|families>
//!          --seed <n> --seconds <n> --trace <0|1>
//! ```
//!
//! Runs whole rounds of one workload until `--seconds` have passed and
//! prints, as its last line, one JSON object with `correct`, `attempted`,
//! `failed` and `metrics`: the end-to-end metrics with `--trace 0`, the
//! per-layer metrics with `--trace 1`. `run.py` builds this program and
//! runs it with the simulator's environment knobs cleared; see README.md.

mod check;
mod suite;
mod trace;

use millipede::workloads::Benchmark;
use std::collections::BTreeMap;
use std::time::Instant;
use suite::{model_span, Kind, Outcome, Round};
use trace::{self_times, Span, Tracer};

/// Directory the traced run writes its spans to, relative to the working
/// directory.
const SPANS_DIR: &str = ".bench_out";

struct Args {
    kind: Kind,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut kind = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                kind = Some(
                    Kind::from_name(&value).ok_or_else(|| format!("unknown workload {value:?}"))?,
                );
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value:?}"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse()
                        .map_err(|_| format!("bad seconds {value:?}"))?,
                );
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value:?}")),
                });
            }
            _ => return Err(format!("unknown argument {flag:?}")),
        }
    }
    Ok(Args {
        kind: kind.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Peak resident set of this process in MiB (Linux `VmHWM`).
fn peak_rss_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM in /proc/self/status")?;
    Ok(kib / 1024.0)
}

/// A metric name, its value and its unit.
type Metric = (String, f64, &'static str);

fn metric(name: &str, value: f64, unit: &'static str) -> Metric {
    (name.to_string(), value, unit)
}

fn instructions(points: &[Outcome]) -> u64 {
    points.iter().map(|o| o.node.stats.instructions).sum()
}

fn end_to_end(rounds: &[Summary]) -> Result<Vec<Metric>, String> {
    let setup: Vec<f64> = rounds
        .iter()
        .flat_map(|r| r.setup_reps.iter().copied())
        .collect();
    let walls: Vec<f64> = rounds.iter().map(|r| r.wall_s).collect();
    let mips: Vec<f64> = rounds
        .iter()
        .map(|r| ratio(r.instructions as f64, r.simulate_s) / 1e6)
        .collect();
    Ok(vec![
        metric("wall_s", median(&walls), "s"),
        metric("sim_mips", median(&mips), "MIPS"),
        metric("setup_s", median(&setup), "s"),
        metric("peak_rss_mib", peak_rss_mib()?, "MiB"),
    ])
}

/// Total seconds of the spans named `name`, optionally only those whose
/// parent is named `parent`.
fn span_secs(spans: &[Span], base: usize, name: &str, parent: Option<&str>) -> f64 {
    spans
        .iter()
        .filter(|s| s.name == name)
        .filter(|s| {
            parent.is_none_or(|p| {
                s.parent
                    .is_some_and(|i| i >= base && spans[i - base].name == p)
            })
        })
        .map(Span::secs)
        .sum()
}

/// Per-layer metrics of one traced round; `spans` are that round's spans,
/// starting at tracer index `base`.
fn per_layer(r: &Round, spans: &[Span], base: usize, overhead_s: f64) -> Vec<Metric> {
    // Counters come from the points that the model spans timed.
    let pts = if r.replayed.is_empty() {
        &r.outcomes
    } else {
        &r.replayed
    };
    let sum = |f: &dyn Fn(&Outcome) -> u64| pts.iter().map(f).sum::<u64>() as f64;
    let ticked = |o: &Outcome| o.node.stats.compute_cycles - o.node.stats.ff_skipped_cycles;
    let secs = |name| span_secs(spans, base, name, None);
    let model = |span: &'static str, per_edge: bool| -> Vec<Metric> {
        let mine: Vec<&Outcome> = pts.iter().filter(|o| model_span(o.arch) == span).collect();
        let run_s = secs(span);
        let ins: u64 = mine.iter().map(|o| o.node.stats.instructions).sum();
        let edges: u64 = mine.iter().map(|o| ticked(o)).sum();
        let layer = &span[..span.len() - ".run".len()];
        let name = |suffix: &str| format!("{layer}.{suffix}");
        let mut m = vec![
            metric(&name("run_s"), run_s, "s"),
            metric(
                &name("ns_per_instr"),
                ratio(run_s * 1e9, ins as f64),
                "ns/instr",
            ),
        ];
        if per_edge {
            m.push(metric(
                &name("ns_per_edge"),
                ratio(run_s * 1e9, edges as f64),
                "ns/edge",
            ));
        }
        m
    };
    let sections: f64 = spans
        .iter()
        .filter(|s| s.name.starts_with("sim.experiments."))
        .map(Span::secs)
        .sum();
    let replay_s = if r.replayed.is_empty() {
        secs("simulate")
    } else {
        secs("replay")
    };
    let cycles = sum(&|o| o.node.stats.compute_cycles);
    let skipped = sum(&|o| o.node.stats.ff_skipped_cycles);
    let mut m: Vec<Metric> = vec![
        metric("sim.sections_s", sections, "s"),
        metric("sim.replay_s", replay_s, "s"),
        metric("sim.points", pts.len() as f64, "count"),
        metric(
            "sim.simulated_us",
            pts.iter().map(|o| o.node.runtime_us()).sum(),
            "us",
        ),
        metric(
            "workloads.build_s",
            span_secs(spans, base, "workloads.build", Some("setup")),
            "s",
        ),
        metric(
            "workloads.input_mib",
            r.inputs
                .values()
                .map(|w| w.dataset.total_bytes())
                .sum::<u64>() as f64
                / 1048576.0,
            "MiB",
        ),
        metric("engine.functional_s", secs("engine.functional"), "s"),
        metric("engine.edges_ticked", sum(&ticked), "count"),
        metric("engine.edges_skipped", skipped, "count"),
        metric("engine.skip_ratio", ratio(skipped, cycles), "ratio"),
        metric(
            "engine.instructions",
            sum(&|o| o.node.stats.instructions),
            "count",
        ),
        metric(
            "engine.stall_slots",
            sum(&|o| o.node.stats.stall_slots),
            "count",
        ),
        metric(
            "engine.lane_idle",
            sum(&|o| o.node.stats.lane_idle),
            "count",
        ),
        metric(
            "engine.divergent_branches",
            sum(&|o| o.node.stats.divergent_branches),
            "count",
        ),
    ];
    m.extend(model("core.run", true));
    m.extend([
        metric("core.pbuf_hits", sum(&|o| o.node.stats.pbuf_hits), "count"),
        metric(
            "core.flow_blocks",
            sum(&|o| o.node.stats.flow_blocks),
            "count",
        ),
        metric(
            "core.premature_evictions",
            sum(&|o| o.node.stats.premature_evictions),
            "count",
        ),
    ]);
    m.extend(model("ssmc.run", true));
    m.extend(model("gpgpu.run", true));
    m.extend(model("multicore.run", false));
    m.extend([
        metric("mem.l1_hits", sum(&|o| o.node.stats.l1_hits), "count"),
        metric("mem.l1_misses", sum(&|o| o.node.stats.l1_misses), "count"),
        metric(
            "mem.demand_stalls",
            sum(&|o| o.node.stats.demand_stalls),
            "count",
        ),
        metric("mem.prefetches", sum(&|o| o.node.stats.prefetches), "count"),
        metric("dram.requests", sum(&|o| o.node.dram.requests), "count"),
        metric("dram.row_misses", sum(&|o| o.node.dram.row_misses), "count"),
        metric(
            "dram.activations",
            sum(&|o| o.node.dram.activations),
            "count",
        ),
        metric(
            "dram.bytes_mib",
            sum(&|o| o.node.dram.bytes_transferred) / 1048576.0,
            "MiB",
        ),
        metric("energy.compute_s", secs("energy.compute"), "s"),
        metric(
            "energy.total_uj",
            pts.iter().map(|o| o.energy.total_uj()).sum(),
            "uJ",
        ),
        metric("trace.overhead_s", overhead_s, "s"),
    ]);
    m
}

fn json(correct: bool, attempted: usize, failed: usize, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, v, unit)| {
            // `+ 0.0` turns the -0.0 of an empty float sum into 0.0.
            let v = if v.is_finite() { v + 0.0 } else { 0.0 };
            format!("\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

/// What is kept of a round once its points have been checked: the
/// benchmark holds one round's points at a time, so its peak resident set
/// does not grow with the number of rounds.
struct Summary {
    setup_reps: Vec<f64>,
    wall_s: f64,
    simulate_s: f64,
    instructions: u64,
    digest: u64,
    attempted: usize,
    failures: Vec<String>,
}

fn summarize(r: &Round) -> Summary {
    Summary {
        setup_reps: r.setup_reps.clone(),
        wall_s: r.wall_s,
        simulate_s: r.simulate_s,
        instructions: instructions(&r.outcomes),
        digest: check::digest(&r.outcomes),
        attempted: r.attempted,
        failures: r.failures.clone(),
    }
}

/// Prints what only the first round needs to show.
fn describe(kind: Kind, r: &Round) {
    if let Some(h) = r.headline {
        println!(
            "Fig. 3 Millipede speed-up: {:.3}x over GPGPU (paper 2.35x), {:.3}x over SSMC (paper 1.35x)",
            h.speedup_vs_gpgpu, h.speedup_vs_ssmc
        );
        println!(
            "Fig. 4 Millipede energy saving: {:.1}% vs GPGPU (paper 27%), {:.1}% vs SSMC (paper 36%)",
            100.0 * h.energy_saving_vs_gpgpu,
            100.0 * h.energy_saving_vs_ssmc
        );
    }
    let inputs: Vec<&str> = r.inputs.keys().map(|b: &Benchmark| b.name()).collect();
    println!(
        "{}: {} points over inputs {}",
        kind.name(),
        r.outcomes.len(),
        inputs.join(" ")
    );
}

fn run(args: &Args) -> Result<String, String> {
    let kind = args.kind;
    let start = Instant::now();
    let mut rounds: Vec<Summary> = Vec::new();
    let mut layers: Vec<Vec<Metric>> = Vec::new();
    let mut tracer = Tracer::new(args.trace);
    while rounds.is_empty() || start.elapsed().as_secs_f64() < args.seconds as f64 {
        if args.trace {
            // Each traced round is paired with an untraced one, the two
            // taking turns to go first; the difference of their set-up +
            // simulate walls is the tracing overhead.
            let traced_first = layers.len() % 2 == 1;
            let mut plain = None;
            if !traced_first {
                plain = Some(suite::round(
                    kind,
                    args.seed,
                    &mut Tracer::new(false),
                    false,
                ));
            }
            let base = tracer.len();
            let traced = suite::round(kind, args.seed, &mut tracer, true);
            let plain = plain
                .unwrap_or_else(|| suite::round(kind, args.seed, &mut Tracer::new(false), false));
            let spans = tracer.since(base);
            let overhead = span_secs(spans, base, "setup", None)
                + span_secs(spans, base, "simulate", None)
                - plain.wall_s;
            layers.push(per_layer(&traced, spans, base, overhead));
            if layers.len() == 1 {
                describe(kind, &traced);
                println!("self time per span name, first traced round (total s / self s):");
                for (name, (total, own)) in self_times(spans, base) {
                    println!("  {name:<28} {total:>10.4} {own:>10.4}");
                }
            }
            rounds.push(summarize(&plain));
            rounds.push(summarize(&traced));
        } else {
            let r = suite::round(kind, args.seed, &mut tracer, false);
            if rounds.is_empty() {
                describe(kind, &r);
            }
            rounds.push(summarize(&r));
        }
        let r = rounds.last().expect("a round ran");
        println!(
            "round {}: setup {:.4} s, simulate {:.4} s, {} points, {} failed",
            rounds.len(),
            r.setup_reps.last().copied().unwrap_or(0.0),
            r.simulate_s,
            r.attempted,
            r.failures.len()
        );
    }

    let attempted: usize = rounds.iter().map(|r| r.attempted).sum();
    let failed: usize = rounds.iter().map(|r| r.failures.len()).sum();
    for f in rounds.iter().flat_map(|r| &r.failures) {
        println!("FAILED {f}");
    }
    let digest = rounds[0].digest;
    let stable = rounds.iter().all(|r| r.digest == digest);
    if !stable {
        println!("FAILED the simulated results differ between rounds");
    }
    println!("digest {} seed {}: {digest:016x}", kind.name(), args.seed);

    let metrics = if args.trace {
        let path = std::path::Path::new(SPANS_DIR).join(format!(
            "spans-{}-seed{}.jsonl",
            kind.name(),
            args.seed
        ));
        tracer
            .write(&path)
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
        println!("spans: {}", path.display());
        let mut by_name: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
        for round in &layers {
            for (name, v, _) in round {
                by_name.entry(name).or_default().push(*v);
            }
        }
        layers[0]
            .iter()
            .map(|(name, _, unit)| metric(name, median(&by_name[name.as_str()]), unit))
            .collect()
    } else {
        end_to_end(&rounds)?
    };
    Ok(json(failed == 0 && stable, attempted, failed, &metrics))
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("simbench: {e}");
            eprintln!("usage: simbench --workload <name> --seed <n> --seconds <n> --trace <0|1>");
            std::process::exit(2);
        }
    };
    match run(&args) {
        Ok(line) => println!("{line}"),
        Err(e) => {
            eprintln!("simbench: {e}");
            std::process::exit(1);
        }
    }
}
