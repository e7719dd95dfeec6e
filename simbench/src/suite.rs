//! The benchmark's three workloads and one round of each.
//!
//! A round builds every distinct input (set-up), simulates every point of
//! the workload (the simulate phase), and then, outside every timing,
//! checks each delivered point. A traced round also replays the points of
//! the experiment-driven workloads through the layer calls one by one, so
//! their time can be attributed to layers.

use crate::check;
use crate::trace::Tracer;
use millipede::core_arch::{MillipedeConfig, NodeResult};
use millipede::energy::EnergyBreakdown;
use millipede::mapreduce::ThreadGrid;
use millipede::sim::experiments::{families, fig3, fig4, table4};
use millipede::sim::{Arch, RunResult, SimConfig};
use millipede::workloads::{Benchmark, Workload};
use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

/// Set-up is repeated this many times per round; `setup_s` is the median.
pub const SETUP_REPS: usize = 5;

/// `paper-figures` input size in 2 KB-row chunks.
const PAPER_CHUNKS: usize = 4;
/// `families` input size in 2 KB-row chunks.
const FAMILIES_CHUNKS: usize = 16;
/// `starved-scaleout` input size in chunks of `STARVED_ROW_BYTES` rows.
const STARVED_CHUNKS: usize = 64;
/// `starved-scaleout` DRAM row bytes.
const STARVED_ROW_BYTES: u64 = 4096;
/// The memory-bound kernels of `starved-scaleout`.
const STARVED_BENCHES: [Benchmark; 4] = [
    Benchmark::Count,
    Benchmark::Sample,
    Benchmark::Variance,
    Benchmark::StreamAdd,
];
/// The Millipede half of `starved-scaleout`: row-oriented variants on a
/// 1024 × 1 grid, where nearly every compute edge is idle.
const STARVED_ROW_ARCHES: [Arch; 4] = [
    Arch::Millipede,
    Arch::MillipedeNoFlowControl,
    Arch::MillipedeNoRateMatch,
    Arch::VwsRow,
];
const STARVED_ROW_GRID: (usize, usize) = (1024, 1);
/// The SSMC half: 256 single-context cores, whose stalled contexts
/// re-probe L1 every cycle and so are never idle-skipped.
const STARVED_SSMC_BENCHES: [Benchmark; 2] = [Benchmark::Count, Benchmark::Variance];
const STARVED_SSMC_GRID: (usize, usize) = (256, 1);

/// One of the benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Table IV, Fig. 3 and Fig. 4 at the paper's hardware.
    PaperFigures,
    /// Memory-bound kernels on nodes scaled far past the paper's size.
    StarvedScaleout,
    /// The graph and dense kernels on all eight variants.
    Families,
}

impl Kind {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Kind; 3] = [Kind::PaperFigures, Kind::StarvedScaleout, Kind::Families];

    /// The workload's name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Kind::PaperFigures => "paper-figures",
            Kind::StarvedScaleout => "starved-scaleout",
            Kind::Families => "families",
        }
    }

    /// Parses a workload name.
    pub fn from_name(name: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == name)
    }

    fn benches(self) -> &'static [Benchmark] {
        match self {
            Kind::PaperFigures => &Benchmark::BMLA,
            Kind::StarvedScaleout => &STARVED_BENCHES,
            Kind::Families => &families::BENCHES,
        }
    }

    /// The configuration every point starts from: the paper's hardware
    /// with this workload's input size and the given seed.
    pub fn config(self, seed: u64) -> SimConfig {
        let (num_chunks, row_bytes) = match self {
            Kind::PaperFigures => (PAPER_CHUNKS, 2048),
            Kind::StarvedScaleout => (STARVED_CHUNKS, STARVED_ROW_BYTES),
            Kind::Families => (FAMILIES_CHUNKS, 2048),
        };
        SimConfig {
            num_chunks,
            row_bytes,
            seed,
            ..SimConfig::default()
        }
    }

    fn sections(self) -> &'static [Section] {
        match self {
            Kind::PaperFigures => &[Section::Table4, Section::Fig3, Section::Fig4],
            Kind::StarvedScaleout => &[],
            Kind::Families => &[Section::Families],
        }
    }

    /// Every point of the workload in the order its results come back:
    /// section by section for the experiment-driven workloads.
    pub fn points(self, seed: u64) -> Vec<Point> {
        let base = self.config(seed);
        let grid = |(corelets, contexts): (usize, usize)| SimConfig {
            corelets,
            contexts,
            ..base.clone()
        };
        let each = |archs: &[Arch], benches: &[Benchmark], cfg: &SimConfig| -> Vec<Point> {
            benches
                .iter()
                .flat_map(|&bench| {
                    archs.iter().map(move |&arch| Point {
                        arch,
                        bench,
                        cfg: cfg.clone(),
                    })
                })
                .collect()
        };
        match self {
            Kind::PaperFigures => {
                let mut v = each(&[Arch::Ssmc, Arch::Millipede], &Benchmark::BMLA, &base);
                v.extend(each(&Arch::FIG3, &Benchmark::BMLA, &base));
                v.extend(each(&Arch::FIG4, &Benchmark::BMLA, &base));
                v
            }
            Kind::StarvedScaleout => {
                let mut v = each(
                    &STARVED_ROW_ARCHES,
                    &STARVED_BENCHES,
                    &grid(STARVED_ROW_GRID),
                );
                v.extend(each(
                    &[Arch::Ssmc],
                    &STARVED_SSMC_BENCHES,
                    &grid(STARVED_SSMC_GRID),
                ));
                v
            }
            Kind::Families => each(&families::ARCHES, &families::BENCHES, &base),
        }
    }
}

/// One simulated point: architecture × kernel × configuration.
#[derive(Debug, Clone)]
pub struct Point {
    /// The architecture.
    pub arch: Arch,
    /// The kernel.
    pub bench: Benchmark,
    /// The configuration.
    pub cfg: SimConfig,
}

/// One experiment entry point of `sim::experiments`.
#[derive(Debug, Clone, Copy)]
enum Section {
    Table4,
    Fig3,
    Fig4,
    Families,
}

impl Section {
    fn span(self) -> &'static str {
        match self {
            Section::Table4 => "sim.experiments.table4",
            Section::Fig3 => "sim.experiments.fig3",
            Section::Fig4 => "sim.experiments.fig4",
            Section::Families => "sim.experiments.families",
        }
    }

    fn points(self) -> usize {
        let bmla = Benchmark::BMLA.len();
        match self {
            Section::Table4 => 2 * bmla,
            Section::Fig3 => Arch::FIG3.len() * bmla,
            Section::Fig4 => Arch::FIG4.len() * bmla,
            Section::Families => families::ARCHES.len() * families::BENCHES.len(),
        }
    }

    fn run(self, cfg: &SimConfig, headline: &mut Headline) -> Vec<RunResult> {
        match self {
            Section::Table4 => table4::run(cfg).runs,
            Section::Fig3 => {
                let f = fig3::run(cfg);
                // FIG3 bar order: GPGPU, VWS, SSMC, ..., Millipede (no DFS).
                headline.speedup_vs_gpgpu = f.geomean(5);
                headline.speedup_vs_ssmc = f.geomean(5) / f.geomean(2);
                f.runs.into_iter().flatten().collect()
            }
            Section::Fig4 => {
                let f = fig4::run(cfg);
                // FIG4 bar order: GPGPU, VWS, SSMC, ..., Millipede.
                headline.energy_saving_vs_gpgpu = 1.0 - f.mean_energy(5);
                headline.energy_saving_vs_ssmc = 1.0 - f.mean_energy(5) / f.mean_energy(2);
                f.runs.into_iter().flatten().collect()
            }
            Section::Families => families::run(cfg).runs.into_iter().flatten().collect(),
        }
    }
}

/// The paper's headline ratios as simulated by `paper-figures`.
#[derive(Debug, Clone, Copy, Default)]
pub struct Headline {
    /// Fig. 3 geomean speed-up of Millipede over GPGPU (paper: 2.35×).
    pub speedup_vs_gpgpu: f64,
    /// Fig. 3 geomean speed-up of Millipede over SSMC (paper: 1.35×).
    pub speedup_vs_ssmc: f64,
    /// Fig. 4 mean energy saving of Millipede against GPGPU (paper: 27%).
    pub energy_saving_vs_gpgpu: f64,
    /// Fig. 4 mean energy saving of Millipede against SSMC (paper: 36%).
    pub energy_saving_vs_ssmc: f64,
}

/// A delivered point with what its checks need.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// The architecture.
    pub arch: Arch,
    /// The kernel.
    pub bench: Benchmark,
    /// Corelets × contexts of the simulated node.
    pub grid: (usize, usize),
    /// Hardware threads the records were partitioned over.
    pub threads: usize,
    /// Bytes of the point's dataset.
    pub input_bytes: u64,
    /// The timing result.
    pub node: NodeResult,
    /// The energy result.
    pub energy: EnergyBreakdown,
}

/// The layer a timing model belongs to, as a span name.
pub fn model_span(arch: Arch) -> &'static str {
    match arch {
        Arch::Millipede | Arch::MillipedeNoFlowControl | Arch::MillipedeNoRateMatch => "core.run",
        Arch::Gpgpu | Arch::Vws | Arch::VwsRow => "gpgpu.run",
        Arch::Ssmc => "ssmc.run",
        Arch::Multicore => "multicore.run",
    }
}

/// What one round measured and delivered.
#[derive(Debug)]
pub struct Round {
    /// Seconds of each set-up repetition.
    pub setup_reps: Vec<f64>,
    /// Seconds of the simulate phase.
    pub simulate_s: f64,
    /// The last set-up repetition plus the simulate phase, in seconds.
    pub wall_s: f64,
    /// Points attempted, replayed ones included.
    pub attempted: usize,
    /// One line per failed point.
    pub failures: Vec<String>,
    /// The points the simulate phase delivered.
    pub outcomes: Vec<Outcome>,
    /// The points the replay delivered (traced rounds only).
    pub replayed: Vec<Outcome>,
    /// The distinct inputs.
    pub inputs: BTreeMap<Benchmark, Workload>,
    /// Fig. 3 / Fig. 4 headline ratios (`paper-figures` only).
    pub headline: Option<Headline>,
}

fn build_inputs(kind: Kind, cfg: &SimConfig, t: &mut Tracer) -> BTreeMap<Benchmark, Workload> {
    t.span("setup", |t| {
        kind.benches()
            .iter()
            .map(|&b| {
                let w = t.span("workloads.build", |_| {
                    Workload::build(b, cfg.num_chunks, cfg.row_bytes, cfg.seed)
                });
                (b, w)
            })
            .collect()
    })
}

fn outcome(
    arch: Arch,
    bench: Benchmark,
    cfg: &SimConfig,
    w: &Workload,
    node: NodeResult,
    energy: EnergyBreakdown,
) -> Outcome {
    let threads = if arch == Arch::Multicore {
        ThreadGrid::paper_default().num_threads()
    } else {
        cfg.corelets * cfg.contexts
    };
    Outcome {
        arch,
        bench,
        grid: (cfg.corelets, cfg.contexts),
        threads,
        input_bytes: w.dataset.total_bytes(),
        node,
        energy,
    }
}

/// Simulates one point through `Arch::run` and `millipede_energy::compute`,
/// each in its own span; `None` when the program panicked.
fn run_point(t: &mut Tracer, p: &Point, w: &Workload) -> Option<Outcome> {
    let node = t.span(model_span(p.arch), |_| {
        catch_unwind(AssertUnwindSafe(|| p.arch.run(w, &p.cfg))).ok()
    })?;
    let (kind, lanes) = p.arch.energy_kind(&p.cfg);
    let energy = t.span("energy.compute", |_| {
        millipede::energy::compute(
            kind,
            lanes,
            &node.stats,
            &node.dram,
            node.elapsed_ps,
            &p.cfg.energy,
        )
    });
    Some(outcome(p.arch, p.bench, &p.cfg, w, node, energy))
}

/// Runs one round of `kind`. With `replay`, the experiment-driven
/// workloads' points are simulated a second time through the layer calls.
pub fn round(kind: Kind, seed: u64, t: &mut Tracer, replay: bool) -> Round {
    let cfg = kind.config(seed);
    let points = kind.points(seed);
    let mut setup_reps = Vec::with_capacity(SETUP_REPS);
    for _ in 1..SETUP_REPS {
        let start = Instant::now();
        std::hint::black_box(build_inputs(kind, &cfg, &mut Tracer::new(false)));
        setup_reps.push(start.elapsed().as_secs_f64());
    }
    let start = Instant::now();
    let inputs = build_inputs(kind, &cfg, t);
    let setup_s = start.elapsed().as_secs_f64();
    setup_reps.push(setup_s);

    let mut headline = Headline::default();
    let start = Instant::now();
    // `None` marks a point that panicked.
    let delivered: Vec<Option<Outcome>> = t.span("simulate", |t| {
        if kind.sections().is_empty() {
            return points
                .iter()
                .map(|p| run_point(t, p, &inputs[&p.bench]))
                .collect();
        }
        let mut out = Vec::with_capacity(points.len());
        for &s in kind.sections() {
            let runs = t.span(s.span(), |_| {
                catch_unwind(AssertUnwindSafe(|| s.run(&cfg, &mut headline))).ok()
            });
            match runs {
                Some(runs) => out.extend(runs.into_iter().map(|r| {
                    Some(outcome(
                        r.arch,
                        r.bench,
                        &cfg,
                        &inputs[&r.bench],
                        r.node,
                        r.energy,
                    ))
                })),
                None => out.extend((0..s.points()).map(|_| None)),
            }
        }
        out
    });
    let simulate_s = start.elapsed().as_secs_f64();

    let replaying = replay && !kind.sections().is_empty();
    let replayed: Vec<Option<Outcome>> = if replaying {
        t.span("replay", |t| {
            if kind == Kind::PaperFigures {
                for &b in &Benchmark::BMLA {
                    let f = t.span("engine.functional", |_| {
                        catch_unwind(AssertUnwindSafe(|| {
                            table4::functional_characteristics(b, &cfg)
                        }))
                    });
                    std::hint::black_box(f.ok());
                }
            }
            points
                .iter()
                .map(|p| {
                    let w = t.span("workloads.build", |_| {
                        Workload::build(p.bench, p.cfg.num_chunks, p.cfg.row_bytes, p.cfg.seed)
                    });
                    run_point(t, p, &w)
                })
                .collect()
        })
    } else {
        Vec::new()
    };

    let mut failures = Vec::new();
    let outcomes = settle(&points, delivered, &inputs, &mut failures);
    let mut attempted = points.len();
    let replayed = if replaying {
        attempted += points.len();
        let r = settle(&points, replayed, &inputs, &mut failures);
        if failures.is_empty() && check::digest(&r) != check::digest(&outcomes) {
            failures
                .push("replayed points differ from the experiment sections' points".to_string());
        }
        r
    } else {
        Vec::new()
    };
    Round {
        setup_reps,
        simulate_s,
        wall_s: setup_s + simulate_s,
        attempted,
        failures,
        outcomes,
        replayed,
        inputs,
        headline: (kind == Kind::PaperFigures).then_some(headline),
    }
}

/// Checks every delivered point; a point that panicked, was delivered out
/// of order, or failed a check is recorded in `failures` and dropped.
fn settle(
    points: &[Point],
    delivered: Vec<Option<Outcome>>,
    inputs: &BTreeMap<Benchmark, Workload>,
    failures: &mut Vec<String>,
) -> Vec<Outcome> {
    let nominal = MillipedeConfig::default().compute_mhz;
    let mut kept = Vec::new();
    let mut verdicts: Vec<Option<String>> = Vec::new();
    // A section that delivered too few results leaves the rest as `None`.
    let padded = delivered
        .into_iter()
        .map(Some)
        .chain(std::iter::repeat(None));
    for (p, d) in points.iter().zip(padded) {
        let why = match d.flatten() {
            None => "the simulator panicked or delivered no result".to_string(),
            Some(o) if (o.arch, o.bench) != (p.arch, p.bench) => {
                format!(
                    "delivered {} {} in its place",
                    o.arch.label(),
                    o.bench.name()
                )
            }
            Some(o) => {
                let recs = &inputs[&o.bench].dataset.records;
                verdicts.push(check::check_output(o.bench, recs, o.threads, &o.node.output).err());
                kept.push(o);
                continue;
            }
        };
        failures.push(format!("{} {}: {why}", p.arch.label(), p.bench.name()));
    }
    for (v, prop) in verdicts.iter_mut().zip(check::properties(&kept, nominal)) {
        if v.is_none() {
            *v = prop;
        }
    }
    let mut out = Vec::with_capacity(kept.len());
    for (o, v) in kept.into_iter().zip(verdicts) {
        match v {
            Some(why) => failures.push(format!("{} {}: {why}", o.arch.label(), o.bench.name())),
            None => out.push(o),
        }
    }
    out
}
