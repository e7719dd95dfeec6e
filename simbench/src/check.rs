//! Output evaluation made apart from the simulator, and checks of
//! properties every simulated point must have.
//!
//! Every expected output is recomputed here from the generated records
//! alone. Nothing in this file calls the program's own references
//! (`Workload::reference`, `Workload::run_functional`); it reads only the
//! kernels' published constants (bin counts, dimensions, thresholds), which
//! are part of each kernel's specification.
//!
//! * Order-independent integer outputs must match exactly.
//! * Floating-point outputs are recomputed in `f64` and must lie within
//!   [`FLOAT_REL_TOL`] of the sum of the absolute values of their terms.
//! * Order-dependent outputs (`sample`'s kept representatives,
//!   `streamadd`'s XOR checksum, `scan`'s prefix checksum) are checked by
//!   properties they must have whatever the visit order.

use crate::suite::Outcome;
use millipede::sim::Arch;
use millipede::workloads::{
    bfs, classify, count, gda, gemm, graph, nbayes, pagerank, pca, sample, variance, Benchmark,
    Reduced,
};
use std::collections::BTreeSet;

/// Tolerance of a floating-point output, as a share of the sum of the
/// absolute values of the terms that make it up. A serial `f32` sum of `n`
/// terms errs by at most about `n · 2⁻²⁴` of that sum; per-thread sums here
/// have at most a few hundred terms, so the bound is `~2e-5`.
pub const FLOAT_REL_TOL: f64 = 1e-4;

/// Two centroid distances closer than this share are a tie that `f32`
/// rounding in the kernel may break either way; such a point may be
/// assigned to any of the tied centroids.
pub const TIE_REL: f64 = 1e-5;

/// Checks one simulated output against the evaluation recomputed from the
/// generated `records`. `threads` is the hardware thread count the records
/// were evenly partitioned over.
pub fn check_output(
    bench: Benchmark,
    records: &[Vec<u32>],
    threads: usize,
    out: &Reduced,
) -> Result<(), String> {
    match bench {
        Benchmark::Count => check_count(records, out),
        Benchmark::Sample => check_sample(records, out),
        Benchmark::Variance => check_variance(records, out),
        Benchmark::NBayes => check_nbayes(records, out),
        Benchmark::Classify => check_classify(records, out),
        Benchmark::Kmeans => check_kmeans(records, out),
        Benchmark::Pca => check_pca(records, out),
        Benchmark::Gda => check_gda(records, out),
        Benchmark::Pagerank => check_pagerank(records, out),
        Benchmark::Bfs => check_bfs(records, out),
        Benchmark::Gemm => check_gemm(records, out),
        Benchmark::StreamAdd => check_streamadd(records, threads, out),
        Benchmark::Reduction => check_reduction(records, out),
        Benchmark::Scan => check_scan(records, threads, out),
    }
}

/// Whether a benchmark's integer outputs depend on how records are split
/// over threads, so that they may differ between architectures.
pub fn order_dependent(bench: Benchmark) -> bool {
    matches!(
        bench,
        Benchmark::Sample | Benchmark::StreamAdd | Benchmark::Scan
    )
}

/// The integer part of an output.
pub fn int_part(out: &Reduced) -> &[i64] {
    match out {
        Reduced::Ints(v) | Reduced::Mixed { ints: v, .. } => v,
        Reduced::Floats(_) => &[],
    }
}

fn ints(out: &Reduced, len: usize) -> Result<&[i64], String> {
    match out {
        Reduced::Ints(v) if v.len() == len => Ok(v),
        other => Err(format!("expected {len} integer outputs, got {other:?}")),
    }
}

fn floats(out: &Reduced, len: usize) -> Result<&[f32], String> {
    match out {
        Reduced::Floats(v) if v.len() == len => Ok(v),
        other => Err(format!("expected {len} float outputs, got {other:?}")),
    }
}

fn mixed(out: &Reduced, ni: usize, nf: usize) -> Result<(&[i64], &[f32]), String> {
    match out {
        Reduced::Mixed { ints, floats } if ints.len() == ni && floats.len() == nf => {
            Ok((ints, floats))
        }
        other => Err(format!(
            "expected {ni} integer and {nf} float outputs, got {other:?}"
        )),
    }
}

fn exact(what: &str, got: &[i64], want: &[i64]) -> Result<(), String> {
    match got.iter().zip(want).position(|(g, w)| g != w) {
        None if got.len() == want.len() => Ok(()),
        None => Err(format!(
            "{what}: {} outputs, expected {}",
            got.len(),
            want.len()
        )),
        Some(i) => Err(format!("{what}[{i}] = {}, expected {}", got[i], want[i])),
    }
}

/// An `f64` sum of terms, with the sum of their magnitudes (for the
/// tolerance) and the total of terms that may or may not belong to it
/// (`slack`, non-negative: tied points of `kmeans`).
#[derive(Debug, Clone, Copy, Default)]
struct Acc {
    sum: f64,
    abs: f64,
    slack: f64,
}

impl Acc {
    fn add(&mut self, x: f64) {
        self.sum += x;
        self.abs += x.abs();
    }
}

fn near(what: &str, got: &[f32], want: &[Acc]) -> Result<(), String> {
    for (i, (&g, w)) in got.iter().zip(want).enumerate() {
        let g = f64::from(g);
        let tol = FLOAT_REL_TOL * (w.abs + w.slack);
        if !(g >= w.sum - tol && g <= w.sum + w.slack + tol) {
            return Err(format!(
                "{what}[{i}] = {g}, expected {} (+{} tied) within {tol}",
                w.sum, w.slack
            ));
        }
    }
    Ok(())
}

/// Checks `got ≡ total (mod 2³²)`, and equality when the total cannot have
/// wrapped: kernels keep per-thread `u32` sums that wrap.
fn wrapped_sum(what: &str, got: i64, total: u64) -> Result<(), String> {
    let ok = if total < 1 << 32 {
        got == total as i64
    } else {
        (got as u64) % (1 << 32) == total % (1 << 32)
    };
    if ok {
        Ok(())
    } else {
        Err(format!("{what} = {got}, expected {total} (mod 2^32)"))
    }
}

fn check_count(records: &[Vec<u32>], out: &Reduced) -> Result<(), String> {
    let bins = count::NUM_BINS;
    let width = count::RATING_RANGE as usize / bins;
    let mut want = vec![0i64; bins];
    for r in records {
        want[(r[0] as usize / width).min(bins - 1)] += 1;
    }
    exact("count.bins", ints(out, bins)?, &want)
}

fn check_sample(records: &[Vec<u32>], out: &Reduced) -> Result<(), String> {
    let bins = sample::NUM_BINS;
    let v = ints(out, 3 * bins + 1)?;
    let mut want = vec![0i64; bins];
    let mut seen = BTreeSet::new();
    for r in records {
        want[r[0] as usize % bins] += 1;
        seen.insert(i64::from(r[0]));
    }
    exact("sample.count", &v[..bins], &want)?;
    let kept: i64 = v[bins..2 * bins].iter().sum();
    if kept + v[3 * bins] != records.len() as i64 {
        return Err(format!(
            "sample: {kept} kept + {} skipped != {} records",
            v[3 * bins],
            records.len()
        ));
    }
    for b in 0..bins {
        let (n, k, elem) = (v[b], v[bins + b], v[2 * bins + b]);
        if k * i64::from(sample::KEEP_EVERY) > n {
            return Err(format!("sample bin {b}: {k} kept of {n}"));
        }
        // The representative is the largest kept element of the bin over
        // all threads: a record of that bin, or 0 when none was kept.
        let valid = if k == 0 {
            elem == 0
        } else {
            elem as usize % bins == b && seen.contains(&elem)
        };
        if !valid {
            return Err(format!(
                "sample bin {b}: representative {elem} is not a record of the bin"
            ));
        }
    }
    Ok(())
}

fn check_variance(records: &[Vec<u32>], out: &Reduced) -> Result<(), String> {
    let bins = variance::NUM_BINS;
    let mut want = vec![0i64; 3 * bins + 1];
    for r in records {
        if r[0] == variance::INVALID {
            want[3 * bins] += 1;
            continue;
        }
        let x = i64::from(r[0]);
        let b = (r[0] as usize / 16) % bins;
        want[b] += 1;
        want[bins + b] += x;
        want[2 * bins + b] += x * x;
    }
    exact("variance", ints(out, 3 * bins + 1)?, &want)
}

fn check_nbayes(records: &[Vec<u32>], out: &Reduced) -> Result<(), String> {
    let (dims, vals) = (nbayes::DIMS, nbayes::VALS);
    let mut want = vec![0i64; 2 + dims * vals * 3];
    for r in records {
        let class = usize::from(r[0] > nbayes::THRESHOLD);
        want[class] += 1;
        for d in 0..dims {
            let x = r[1 + d] as usize;
            want[2 + 2 * (d * vals + x) + class] += 1;
            want[2 + 2 * dims * vals + d * vals + x] += 1;
        }
    }
    exact("nbayes", ints(out, want.len())?, &want)
}

/// The centroids a point is nearest to: one, or several tied within
/// [`TIE_REL`].
fn nearest(point: &[u32]) -> Vec<usize> {
    let dist: Vec<f64> = (0..classify::K)
        .map(|c| {
            (0..classify::DIMS)
                .map(|d| {
                    let diff =
                        f64::from(f32::from_bits(point[d])) - f64::from(classify::centroid(c, d));
                    diff * diff
                })
                .sum()
        })
        .collect();
    let best = dist.iter().copied().fold(f64::INFINITY, f64::min);
    (0..classify::K)
        .filter(|&c| dist[c] <= best * (1.0 + TIE_REL) + 1e-9)
        .collect()
}

/// Checks cluster counts against the untied assignments, allowing each
/// tied point to land on any of its tied centroids.
fn check_assignment(what: &str, records: &[Vec<u32>], got: &[i64]) -> Result<(), String> {
    let k = classify::K;
    let (mut lo, mut hi) = (vec![0i64; k], vec![0i64; k]);
    for r in records {
        let near = nearest(r);
        for &c in &near {
            hi[c] += 1;
        }
        if near.len() == 1 {
            lo[near[0]] += 1;
        }
    }
    if got.iter().sum::<i64>() != records.len() as i64 {
        return Err(format!(
            "{what}: counts {got:?} do not cover {} points",
            records.len()
        ));
    }
    for c in 0..k {
        if got[c] < lo[c] || got[c] > hi[c] {
            return Err(format!(
                "{what}[{c}] = {}, expected {}..={}",
                got[c], lo[c], hi[c]
            ));
        }
    }
    Ok(())
}

fn check_classify(records: &[Vec<u32>], out: &Reduced) -> Result<(), String> {
    check_assignment("classify.counts", records, ints(out, classify::K)?)
}

fn check_kmeans(records: &[Vec<u32>], out: &Reduced) -> Result<(), String> {
    let (k, dims) = (classify::K, classify::DIMS);
    let (counts, sums) = mixed(out, k, k * dims)?;
    check_assignment("kmeans.counts", records, counts)?;
    let mut want = vec![Acc::default(); k * dims];
    for r in records {
        let near = nearest(r);
        for &c in &near {
            for d in 0..dims {
                let x = f64::from(f32::from_bits(r[d]));
                let acc = &mut want[c * dims + d];
                if near.len() == 1 {
                    acc.add(x);
                } else {
                    acc.slack += x.abs();
                }
            }
        }
    }
    near("kmeans.sums", sums, &want)
}

/// Mean sums then the row-major upper triangle of `Σ x xᵀ`.
fn moments(xs: &[f64], mean: &mut [Acc], cov: &mut [Acc]) {
    let mut idx = 0;
    for i in 0..xs.len() {
        mean[i].add(xs[i]);
        for j in i..xs.len() {
            cov[idx].add(xs[i] * xs[j]);
            idx += 1;
        }
    }
}

fn as_f64(words: &[u32]) -> Vec<f64> {
    words
        .iter()
        .map(|&w| f64::from(f32::from_bits(w)))
        .collect()
}

fn check_pca(records: &[Vec<u32>], out: &Reduced) -> Result<(), String> {
    let (dims, tri) = (pca::DIMS, pca::TRI);
    let mut want = vec![Acc::default(); dims + tri];
    let (mean, cov) = want.split_at_mut(dims);
    for r in records {
        moments(&as_f64(r), mean, cov);
    }
    near("pca", floats(out, dims + tri)?, &want)
}

fn check_gda(records: &[Vec<u32>], out: &Reduced) -> Result<(), String> {
    let (dims, tri) = (gda::DIMS, gda::TRI);
    let (counts, sums) = mixed(out, 2, 2 * dims + 2 * tri)?;
    let mut want_counts = [0i64; 2];
    let mut mean = vec![Acc::default(); 2 * dims];
    let mut cov = vec![Acc::default(); 2 * tri];
    for r in records {
        let class = r[0] as usize;
        if class > 1 {
            return Err(format!("gda: generated class label {class} out of range"));
        }
        want_counts[class] += 1;
        moments(
            &as_f64(&r[1..]),
            &mut mean[class * dims..(class + 1) * dims],
            &mut cov[class * tri..(class + 1) * tri],
        );
    }
    exact("gda.counts", counts, &want_counts)?;
    mean.extend(cov);
    near("gda.sums", sums, &mean)
}

/// `(src, dst)` of an edge record, masked to the kernel's vertex table.
fn edge(r: &[u32], vertices: usize) -> (usize, usize) {
    (r[0] as usize % vertices, r[1] as usize % vertices)
}

fn check_pagerank(records: &[Vec<u32>], out: &Reduced) -> Result<(), String> {
    let v = pagerank::VERTICES;
    let (counts, acc) = mixed(out, 2, v)?;
    let mut degree = vec![0u64; v];
    for r in records {
        degree[edge(r, v).0] += 1;
    }
    let mut want_counts = [0i64; 2];
    let mut want = vec![Acc::default(); v];
    for r in records {
        let (src, dst) = edge(r, v);
        // First power iteration from a uniform rank: each source pushes
        // rank / out-degree along every out-edge.
        want[dst].add(1.0 / v as f64 / degree[src] as f64);
        want_counts[usize::from(dst as u32 >= pagerank::HUB_CUT)] += 1;
    }
    exact("pagerank.edges", counts, &want_counts)?;
    near("pagerank.rank", acc, &want)
}

fn check_bfs(records: &[Vec<u32>], out: &Reduced) -> Result<(), String> {
    let v = bfs::VERTICES;
    // The preloaded partial BFS: levels from vertex 0, cut at the
    // frontier level.
    let mut level = vec![graph::UNREACHED; v];
    level[0] = 0;
    for depth in 1..=bfs::FRONTIER_LEVEL {
        for r in records {
            let (src, dst) = edge(r, v);
            if level[src] == depth - 1 && level[dst] == graph::UNREACHED {
                level[dst] = depth;
            }
        }
    }
    let mut want = vec![0i64; 2 + v];
    want[2..].fill(i64::from(graph::UNREACHED));
    for r in records {
        let (src, dst) = edge(r, v);
        if level[src] == graph::UNREACHED {
            want[1] += 1;
        } else {
            want[0] += 1;
            want[2 + dst] = want[2 + dst].min(i64::from(level[src]) + 1);
        }
    }
    exact("bfs", ints(out, 2 + v)?, &want)
}

fn check_gemm(records: &[Vec<u32>], out: &Reduced) -> Result<(), String> {
    let (m, n) = (gemm::M, gemm::N);
    let mut want = vec![Acc::default(); m * n];
    for r in records {
        let x = as_f64(r);
        for i in 0..m {
            for j in 0..n {
                want[i * n + j].add(x[i] * x[m + j]);
            }
        }
    }
    near("gemm", floats(out, m * n)?, &want)
}

fn check_streamadd(records: &[Vec<u32>], threads: usize, out: &Reduced) -> Result<(), String> {
    let v = ints(out, 2)?;
    let sums: Vec<u64> = records
        .iter()
        .map(|r| u64::from(r[0]) + u64::from(r[1]))
        .collect();
    wrapped_sum("streamadd.sum", v[0], sums.iter().sum())?;
    // Each thread's XOR checksum stays below the next power of two above
    // every sum, and the low bits of the per-thread checksums XOR to the
    // low bit of the whole stream's checksum.
    let top = sums
        .iter()
        .max()
        .map_or(0, |&m| (m + 1).next_power_of_two() - 1);
    let odd = sums.iter().filter(|&&s| s % 2 == 1).count() as i64;
    if v[1] < 0 || v[1] as u64 > top * threads as u64 {
        return Err(format!(
            "streamadd.xor = {} exceeds {threads} × {top}",
            v[1]
        ));
    }
    if v[1] % 2 != odd % 2 {
        return Err(format!(
            "streamadd.xor = {} has the wrong parity for {odd} odd sums",
            v[1]
        ));
    }
    Ok(())
}

fn check_reduction(records: &[Vec<u32>], out: &Reduced) -> Result<(), String> {
    let v = ints(out, 3)?;
    let xs = records.iter().map(|r| r[0]);
    wrapped_sum("reduction.sum", v[0], xs.clone().map(u64::from).sum())?;
    let (min, max) = (xs.clone().min().unwrap_or(0), xs.max().unwrap_or(0));
    exact(
        "reduction.min_max",
        &v[1..],
        &[i64::from(min), i64::from(max)],
    )
}

fn check_scan(records: &[Vec<u32>], threads: usize, out: &Reduced) -> Result<(), String> {
    let v = ints(out, 2)?;
    let total: u64 = records.iter().map(|r| u64::from(r[0])).sum();
    wrapped_sum("scan.last", v[0], total)?;
    // The prefix checksum counts every record once per prefix that holds
    // it: at least once, at most once per record of its thread.
    let per_thread = records.len().div_ceil(threads.max(1)) as u64;
    if total * per_thread < 1 << 32 {
        let (lo, hi) = (total as i64, (total * per_thread) as i64);
        if v[1] < lo || v[1] > hi {
            return Err(format!("scan.checksum = {}, expected {lo}..={hi}", v[1]));
        }
    }
    Ok(())
}

/// Checks the properties the method must have across the points of one
/// round, and returns the first violation of each point (`None` when it
/// holds them all):
///
/// * integer outputs agree across architectures on the same input, except
///   for the order-dependent kernels;
/// * thread-level instruction counts agree across the in-memory variants
///   on the same corelet × context grid, except for the order-dependent
///   kernels: `sample`'s keep and skip paths differ in length, and which
///   records a thread keeps depends on how the variant assigns records to
///   threads;
/// * the flow-controlled row-oriented variants move exactly the dataset's
///   bytes from DRAM, with no premature eviction and no demand refetch;
/// * the rate-matched clock never exceeds the nominal clock.
pub fn properties(points: &[Outcome], nominal_mhz: f64) -> Vec<Option<String>> {
    let mut verdict: Vec<Option<String>> = vec![None; points.len()];
    let mut fail = |i: usize, why: String| {
        verdict[i].get_or_insert(why);
    };
    for (i, p) in points.iter().enumerate() {
        let same_input = points
            .iter()
            .find(|q| q.bench == p.bench)
            .expect("p itself");
        if !order_dependent(p.bench)
            && int_part(&p.node.output) != int_part(&same_input.node.output)
        {
            fail(
                i,
                format!(
                    "integer outputs differ from {} on the same input",
                    same_input.arch.label()
                ),
            );
        }
        if p.arch != Arch::Multicore && !order_dependent(p.bench) {
            let same_grid = points
                .iter()
                .find(|q| q.arch != Arch::Multicore && q.bench == p.bench && q.grid == p.grid)
                .expect("p itself");
            if p.node.stats.instructions != same_grid.node.stats.instructions {
                fail(
                    i,
                    format!(
                        "{} instructions, {} on {} with the same grid",
                        p.node.stats.instructions,
                        same_grid.node.stats.instructions,
                        same_grid.arch.label()
                    ),
                );
            }
        }
        if matches!(
            p.arch,
            Arch::Millipede | Arch::MillipedeNoRateMatch | Arch::VwsRow
        ) {
            let s = &p.node.stats;
            if p.node.dram.bytes_transferred != p.input_bytes
                || s.premature_evictions != 0
                || s.demand_fetches != 0
            {
                fail(i, format!(
                    "flow control moved {} B of a {} B dataset ({} premature evictions, {} demand refetches)",
                    p.node.dram.bytes_transferred, p.input_bytes, s.premature_evictions, s.demand_fetches
                ));
            }
        }
        let s = &p.node.stats;
        let top = s
            .rate_trace
            .iter()
            .map(|&(_, mhz)| mhz)
            .fold(s.rate_match_final_mhz, f64::max);
        if top > nominal_mhz {
            fail(
                i,
                format!("rate-matched clock {top} MHz exceeds the nominal {nominal_mhz} MHz"),
            );
        }
    }
    verdict
}

/// FNV-1a digest of every simulated result of a list of points, in order:
/// simulated time, every modelled counter, the output and the energy. The
/// fast-forward skip count is left out, since it records how the host
/// stepped the model and not what the model did.
pub fn digest(points: &[Outcome]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut put = |x: u64| {
        for b in x.to_le_bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    };
    for p in points {
        put(p.arch as u64);
        put(p.bench as u64);
        put(p.node.elapsed_ps);
        let s = &p.node.stats;
        for x in [
            s.instructions,
            s.issues,
            s.branches,
            s.divergent_branches,
            s.input_loads,
            s.local_loads,
            s.local_stores,
            s.shared_passes,
            s.l1_hits,
            s.l1_misses,
            s.pbuf_hits,
            s.demand_stalls,
            s.prefetches,
            s.demand_fetches,
            s.compute_cycles,
            s.issue_slots,
            s.stall_slots,
            s.lane_idle,
            s.flow_blocks,
            s.premature_evictions,
            s.rate_match_final_mhz.to_bits(),
        ] {
            put(x);
        }
        for &(cycle, mhz) in &s.rate_trace {
            put(cycle);
            put(mhz.to_bits());
        }
        let d = &p.node.dram;
        for x in [
            d.row_hits,
            d.row_misses,
            d.activations,
            d.bytes_transferred,
            d.bus_busy_ps,
            d.requests,
        ] {
            put(x);
        }
        match &p.node.output {
            Reduced::Ints(v) => v.iter().for_each(|&x| put(x as u64)),
            Reduced::Floats(v) => v.iter().for_each(|&x| put(u64::from(x.to_bits()))),
            Reduced::Mixed { ints, floats } => {
                ints.iter().for_each(|&x| put(x as u64));
                floats.iter().for_each(|&x| put(u64::from(x.to_bits())));
            }
        }
        for x in [p.energy.core_pj, p.energy.dram_pj, p.energy.static_pj] {
            put(x.to_bits());
        }
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;
    use millipede::mapreduce::ThreadGrid;
    use millipede::workloads::Workload;

    /// The functional output of every kernel passes, and each way of
    /// corrupting it is caught.
    #[test]
    fn functional_outputs_pass_and_corrupted_outputs_fail() {
        let grid = ThreadGrid::paper_default();
        for bench in Benchmark::ALL {
            let w = Workload::build(bench, 4, 2048, 11);
            let recs = &w.dataset.records;
            let threads = grid.num_threads();
            let good = w.run_functional(&grid);
            check_output(bench, recs, threads, &good)
                .unwrap_or_else(|e| panic!("{}: {e}", bench.name()));
            for bad in corruptions(&good) {
                assert!(
                    check_output(bench, recs, threads, &bad).is_err(),
                    "{}: corrupted output {bad:?} passed",
                    bench.name()
                );
            }
        }
    }

    /// Outputs with one element changed: an integer off by one, a float
    /// off by a tenth of its magnitude (or by one when it is small), and
    /// one element dropped.
    fn corruptions(out: &Reduced) -> Vec<Reduced> {
        let bump = |x: f32| x + (x.abs() * 0.1).max(1.0);
        let mut all = Vec::new();
        match out {
            Reduced::Ints(v) => {
                let mut a = v.clone();
                a[0] += 1;
                all.push(Reduced::Ints(a));
                all.push(Reduced::Ints(v[1..].to_vec()));
            }
            Reduced::Floats(v) => {
                let mut a = v.clone();
                a[0] = bump(a[0]);
                all.push(Reduced::Floats(a));
                all.push(Reduced::Floats(v[1..].to_vec()));
            }
            Reduced::Mixed { ints, floats } => {
                let mut a = ints.clone();
                a[0] += 1;
                all.push(Reduced::Mixed {
                    ints: a,
                    floats: floats.clone(),
                });
                let mut f = floats.clone();
                let last = f.len() - 1;
                f[last] = bump(f[last]);
                all.push(Reduced::Mixed {
                    ints: ints.clone(),
                    floats: f,
                });
            }
        }
        all
    }

    #[test]
    fn a_tied_point_may_go_to_either_centroid() {
        // Midway between centroids 0 and 1 on every axis.
        let point: Vec<u32> = (0..classify::DIMS)
            .map(|d| ((classify::centroid(0, d) + classify::centroid(1, d)) / 2.0).to_bits())
            .collect();
        assert_eq!(nearest(&point), vec![0, 1]);
        let recs = vec![point];
        for counts in [[1, 0, 0, 0], [0, 1, 0, 0]] {
            check_assignment("tie", &recs, &counts).expect("either side of a tie");
        }
        assert!(check_assignment("tie", &recs, &[0, 0, 1, 0]).is_err());
    }
}
