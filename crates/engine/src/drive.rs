//! The one driver loop every clock-driven timing model runs on.
//!
//! A simulated node has two clock domains (§IV-F, Table III): the compute
//! clock, whose period Millipede's rate matcher rescales, and the DRAM
//! channel clock. [`drive`] walks their merged edge sequence
//! ([`DualClock::pop`]) until the model reports that every thread halted:
//!
//! * on a compute edge the model issues ([`TimingModel::compute_edge`]).
//!   If nothing issued and the quiescence fingerprint
//!   ([`Instrumented::fingerprint`]) is unchanged, the edge was a proven
//!   no-op, so every following edge is one too until the memory controller
//!   acts. With fast-forward on, the clock then jumps to the controller's
//!   next event ([`DualClock::fast_forward`]) and the skipped edges'
//!   accounting is replayed by count: the shared issue/stall slots here,
//!   the model's own recounts in [`TimingModel::replay`] (see DESIGN.md,
//!   "Idle-cycle fast-forward");
//! * on a channel edge the controller ticks and each completed request goes
//!   to [`TimingModel::on_completion`].
//!
//! With fast-forward off the same loop ticks every edge: that is the
//! per-edge oracle the differential suites compare skipping against.

use crate::clock::{DualClock, Edge, TimePs};
use crate::instrument::Instrumented;
use crate::stats::CoreStats;
use millipede_dram::{Completion, MemoryController};
use millipede_telemetry::Telemetry;

/// What a clock-driven timing model supplies to [`drive`]: its compute
/// edge, its completion handling, its replay of per-edge recounts, and
/// (through [`Instrumented`]) its fingerprint, telemetry samples and
/// invariant hooks.
pub trait TimingModel: Instrumented {
    /// The node's memory controller; the driver ticks it on channel edges
    /// and asks it for the next event to skip to.
    fn mc(&mut self) -> &mut MemoryController;

    /// The node's statistics; the driver adds the skipped edges' slot
    /// accounting and sets `compute_cycles` at the end of the run.
    fn stats(&mut self) -> &mut CoreStats;

    /// Whether every thread has halted, which ends the run.
    fn finished(&self) -> bool;

    /// Runs the `cycle`-th compute edge at time `now`: one issue attempt on
    /// every issue slot, with `stats.issue_slots` and `stats.stall_slots`
    /// charged per slot. Returns whether anything issued. A model with
    /// dynamic frequency scaling rescales `clock` here.
    fn compute_edge(
        &mut self,
        now: TimePs,
        cycle: u64,
        clock: &mut DualClock,
        tel: &mut Telemetry,
    ) -> bool;

    /// Whether a quiescent edge may be skipped at `cycle`. A model with
    /// cycle-keyed wake-up timers that memory progress does not end
    /// returns false while one is pending.
    fn skippable(&self, _cycle: u64) -> bool {
        true
    }

    /// Replays the model's own per-edge recounts (its
    /// [`crate::ReplayDeltas`] from the last compute edge) for `skipped`
    /// proven-no-op edges.
    fn replay(&mut self, _skipped: u64) {}

    /// Applies one completed DRAM request.
    fn on_completion(&mut self, comp: Completion);

    /// Ends a channel edge at `now`, after every completion was applied.
    /// `room` is true when a request completed or the controller's queue
    /// gained a free slot on this edge.
    fn channel_edge_done(&mut self, _now: TimePs, _room: bool) {}
}

/// The fixed parameters of one [`drive`] run.
#[derive(Debug, Clone, Copy)]
pub struct DriveConfig {
    /// Names the model in the deadlock panic.
    pub label: &'static str,
    /// Issue slots per compute edge, replayed per skipped edge.
    pub slots_per_cycle: u64,
    /// Panic if nothing issues for more than this many consecutive
    /// compute edges (deadlock guard).
    pub max_idle_cycles: u64,
    /// Skip proven-no-op compute edges; off ticks every edge.
    pub fast_forward: bool,
    /// DRAM row size, for the row of each `row_conflict` telemetry event.
    pub row_bytes: u64,
}

/// Where a [`drive`] run ended.
#[derive(Debug, Clone)]
pub struct DriveEnd {
    /// Time of the last edge walked.
    pub elapsed_ps: TimePs,
    /// The clock as the run left it (its final compute period is the
    /// rate matcher's converged frequency).
    pub clock: DualClock,
}

/// Runs `model` on `clock` until every thread halts.
///
/// # Panics
///
/// Panics if no issue slot issues for more than `cfg.max_idle_cycles`
/// consecutive compute edges.
pub fn drive<M: TimingModel>(
    model: &mut M,
    mut clock: DualClock,
    tel: &mut Telemetry,
    cfg: DriveConfig,
) -> DriveEnd {
    let guard = |idle_streak: u64| {
        assert!(
            idle_streak <= cfg.max_idle_cycles,
            "{} deadlock: no issue for {idle_streak} cycles",
            cfg.label
        );
    };
    let mut cycle: u64 = 0;
    let mut elapsed_ps: TimePs = 0;
    let mut idle_streak: u64 = 0;
    while !model.finished() {
        match clock.pop() {
            Edge::Compute(now) => {
                elapsed_ps = now;
                cycle += 1;
                let fp_before = if cfg.fast_forward {
                    model.fingerprint()
                } else {
                    0
                };
                let issued = model.compute_edge(now, cycle, &mut clock, tel);
                idle_streak = if issued { 0 } else { idle_streak + 1 };
                guard(idle_streak);
                let edge_cycle = cycle;
                if cfg.fast_forward
                    && !issued
                    && model.skippable(cycle)
                    && model.fingerprint() == fp_before
                {
                    if let Some(event) = model.mc().next_event_at() {
                        // Every skipped edge visits every issue slot and
                        // stalls it.
                        let skipped = clock.fast_forward(event);
                        let slots = skipped * cfg.slots_per_cycle;
                        let stats = model.stats();
                        stats.ff_skipped_cycles += skipped;
                        stats.issue_slots += slots;
                        stats.stall_slots += slots;
                        model.replay(skipped);
                        cycle += skipped;
                        idle_streak += skipped;
                        guard(idle_streak);
                    }
                }
                // Telemetry is observational. Epoch boundaries inside a
                // skip are reconstructed exactly: the compute period is
                // constant across it, so cycle `edge_cycle + k` happened
                // at `now + k·period`.
                if tel.enabled() {
                    model.emit_epoch_samples(tel, cycle, edge_cycle, now, clock.compute_period());
                }
            }
            Edge::Channel(now) => {
                elapsed_ps = now;
                let mc = model.mc();
                let free_before = mc.free_slots();
                mc.tick(now);
                let completions = mc.pop_completed(now);
                let fills = completions.len();
                for comp in completions {
                    if !comp.row_hit {
                        // Stamped with the last compute cycle: channel
                        // edges have no compute-cycle identity.
                        tel.event(
                            "dram::controller",
                            "row_conflict",
                            cycle,
                            now,
                            (comp.addr / cfg.row_bytes) as f64,
                        );
                    }
                    model.on_completion(comp);
                }
                let room = fills > 0 || model.mc().free_slots() > free_before;
                model.channel_edge_done(now, room);
            }
        }
    }
    model.stats().compute_cycles = cycle;
    DriveEnd { elapsed_ps, clock }
}

#[cfg(test)]
mod tests {
    use super::*;
    use millipede_dram::{DramGeometry, DramTiming, Request};

    /// A node whose one slot issues only when a fill landed since its last
    /// issue: it fetches one row, waits for it, and issues once per row.
    struct Fetcher {
        mc: MemoryController,
        stats: CoreStats,
        rows_left: u64,
        waiting: bool,
        ready: bool,
        replayed: u64,
    }

    impl Fetcher {
        fn new(rows: u64) -> Fetcher {
            Fetcher {
                mc: MemoryController::new(DramGeometry::default(), DramTiming::default()),
                stats: CoreStats::default(),
                rows_left: rows,
                waiting: false,
                ready: false,
                replayed: 0,
            }
        }
    }

    impl Instrumented for Fetcher {
        fn prefix(&self) -> &'static str {
            "fetcher"
        }
        fn fingerprint(&self) -> u64 {
            self.stats.demand_fetches + self.stats.instructions
        }
        fn sample_epoch(&self, _tel: &mut Telemetry, _due: u64, _at: TimePs, _rewind: u64) {}
        fn assert_clean(&self) {}
    }

    impl TimingModel for Fetcher {
        fn mc(&mut self) -> &mut MemoryController {
            &mut self.mc
        }
        fn stats(&mut self) -> &mut CoreStats {
            &mut self.stats
        }
        fn finished(&self) -> bool {
            self.rows_left == 0
        }
        fn compute_edge(
            &mut self,
            now: TimePs,
            _cycle: u64,
            _clock: &mut DualClock,
            _tel: &mut Telemetry,
        ) -> bool {
            self.stats.issue_slots += 1;
            if self.ready {
                self.ready = false;
                self.rows_left -= 1;
                self.stats.instructions += 1;
                return true;
            }
            if !self.waiting {
                let req = Request {
                    addr: self.rows_left * 2048,
                    bytes: 2048,
                    tag: 0,
                };
                self.mc.try_push(req, now).expect("queue has room");
                self.waiting = true;
                self.stats.demand_fetches += 1;
            }
            self.stats.stall_slots += 1;
            false
        }
        fn replay(&mut self, skipped: u64) {
            self.replayed += skipped;
        }
        fn on_completion(&mut self, _comp: Completion) {
            self.waiting = false;
            self.ready = true;
        }
    }

    fn cfg(fast_forward: bool) -> DriveConfig {
        DriveConfig {
            label: "Test",
            slots_per_cycle: 1,
            max_idle_cycles: 1_000_000,
            fast_forward,
            row_bytes: 2048,
        }
    }

    fn run(fast_forward: bool) -> (Fetcher, DriveEnd) {
        let mut m = Fetcher::new(3);
        let end = drive(
            &mut m,
            DualClock::new(1429, 833),
            &mut Telemetry::off(),
            cfg(fast_forward),
        );
        (m, end)
    }

    #[test]
    fn skipping_replays_exactly_what_per_edge_ticking_counts() {
        let (slow, slow_end) = run(false);
        let (fast, fast_end) = run(true);
        assert_eq!(slow.stats.ff_skipped_cycles, 0);
        assert_eq!(slow.replayed, 0);
        assert!(fast.stats.ff_skipped_cycles > 0, "nothing was skipped");
        assert_eq!(fast.replayed, fast.stats.ff_skipped_cycles);
        let mut fs = fast.stats.clone();
        fs.ff_skipped_cycles = 0;
        assert_eq!(fs, slow.stats);
        assert_eq!(fast_end.elapsed_ps, slow_end.elapsed_ps);
        assert_eq!(slow.stats.compute_cycles, slow.stats.issue_slots);
    }

    #[test]
    #[should_panic(expected = "Test deadlock: no issue for 4 cycles")]
    fn deadlock_guard_fires() {
        // One row fetched at the start takes far longer than 3 compute
        // edges to arrive.
        let mut m = Fetcher::new(1);
        let cfg = DriveConfig {
            max_idle_cycles: 3,
            ..cfg(false)
        };
        drive(
            &mut m,
            DualClock::new(1429, 833),
            &mut Telemetry::off(),
            cfg,
        );
    }

    #[test]
    #[should_panic(expected = "Test deadlock")]
    fn deadlock_guard_counts_skipped_edges() {
        let mut m = Fetcher::new(1);
        let cfg = DriveConfig {
            max_idle_cycles: 3,
            ..cfg(true)
        };
        drive(
            &mut m,
            DualClock::new(1429, 833),
            &mut Telemetry::off(),
            cfg,
        );
    }
}
