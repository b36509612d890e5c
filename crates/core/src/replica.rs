//! Replica-batched execution: N independent scenario points advanced
//! in lockstep by one driver loop.
//!
//! A [`ReplicaBatch`] owns one [`MultichipSystem`] + workload pair per
//! *lane* and round-robins the [`MultichipSystem::run`] iteration over
//! the live lanes: every sweep of the batch gives each lane one
//! bounded *slice* of solo driver-loop iterations — window opening,
//! generation, stepping, the stall watchdog and the idle fast-forward
//! gate — in lane order (slice width 1 is strict per-cycle lockstep;
//! the default is wider purely for cache locality, see
//! [`ReplicaBatch::with_slice`]).  Lanes share nothing (each
//! simulation is seed-deterministic and self-contained), so
//! interleaving their iterations at any granularity cannot change what
//! any lane computes: a batch of N points produces
//! [`RunOutcome`]s **bit-identical** to N sequential
//! [`Experiment::run`] calls, and a batch of one is bit-identical to
//! the solo path (both pinned by `tests/proptests.rs` and the
//! `replica_batch` suite).
//!
//! The batch buys nothing over solo runs any more: every run, solo or
//! batched, steps through the engine's masked pipeline, so solo runs
//! on the work-stealing pool ([`crate::sweeps::run_pool`]) match the
//! batch on one thread and beat it on more, where a chunk-wide batch
//! keeps its points on one worker.  The batch is kept only until its
//! callers move to the solo pool.  Fast-forward stays per-lane: an
//! idle lane jumps its **full** delta immediately (not clamped to the
//! batch's minimum next-event frontier), which both preserves the solo
//! `fast_forwarded_cycles` accounting bit-for-bit and lets drained
//! lanes finish early instead of spinning with the stragglers — see
//! `docs/engine.md` ("Replica batching").
//!
//! [`crate::sweeps::run_pool_batched`] schedules whole batches per
//! steal, so sweep grids ride this path without touching their
//! (threads, chunk)-independence contract.

use crate::error::CoreError;
use crate::experiments::Experiment;
use crate::metrics::RunOutcome;
use crate::system::MultichipSystem;
use wimnet_traffic::Workload;

/// One live replica: a system + workload pair partway through its run.
struct Lane {
    system: MultichipSystem,
    workload: Box<dyn Workload + Send>,
    cycle: u64,
    total: u64,
}

/// A lane slot: still running, or already resolved (finished, failed,
/// or never built).
enum Slot {
    Live(Box<Lane>),
    Done(Box<Result<RunOutcome, CoreError>>),
}

/// Default driver iterations each lane advances per round-robin turn.
///
/// Strict per-cycle lockstep (slice 1) touches every lane's working
/// set every simulated cycle, which evicts the hot lane state between
/// consecutive cycles of the *same* lane — measurably slower than
/// sequential runs on one core.  A bounded slice keeps the batch's
/// round-robin fairness (no lane can run to completion while another
/// starves) while each turn amortises the cache refill over many
/// cycles.  Because lanes share no state, the slice width is invisible
/// in the results — any value produces bit-identical outcomes (pinned
/// by [`ReplicaBatch::with_slice`] tests).
const DEFAULT_SLICE: u64 = 1024;

/// N independent scenario points simulated in lockstep by one engine
/// loop — see the module docs for the layout and equivalence argument.
pub struct ReplicaBatch {
    slots: Vec<Slot>,
    slice: u64,
}

impl ReplicaBatch {
    /// Builds one lane per experiment.  Construction failures are
    /// recorded in that lane's result slot (exactly what the
    /// experiment's own [`Experiment::run`] would have returned), never
    /// propagated across lanes.
    pub fn build(experiments: &[Experiment]) -> Self {
        let slots = experiments
            .iter()
            .map(|exp| match MultichipSystem::build(exp.config()) {
                Ok(system) => Slot::Live(Box::new(Lane {
                    total: system.run_total_cycles(),
                    system,
                    workload: exp.build_workload(),
                    cycle: 0,
                })),
                Err(e) => Slot::Done(Box::new(Err(e))),
            })
            .collect();
        ReplicaBatch { slots, slice: DEFAULT_SLICE }
    }

    /// Overrides the round-robin slice width (driver iterations per
    /// lane per [`ReplicaBatch::sweep`] turn; `1` = strict per-cycle
    /// lockstep).  Shape-only: any width produces bit-identical
    /// results.
    ///
    /// # Panics
    ///
    /// Panics when `slice` is zero.
    #[must_use]
    pub fn with_slice(mut self, slice: u64) -> Self {
        assert!(slice > 0, "slice width must be positive");
        self.slice = slice;
        self
    }

    /// Number of lanes (live + resolved).
    pub fn lanes(&self) -> usize {
        self.slots.len()
    }

    /// Advances every live lane by up to one slice of driver
    /// iterations, in lane order.  Returns `true` while at least one
    /// lane is still running.
    pub fn sweep(&mut self) -> bool {
        let mut any_live = false;
        for slot in &mut self.slots {
            let Slot::Live(lane) = slot else { continue };
            let mut done: Option<Result<RunOutcome, CoreError>> = None;
            for _ in 0..self.slice {
                match lane.system.run_iteration(lane.workload.as_mut(), lane.cycle) {
                    Ok(next) if next < lane.total => lane.cycle = next,
                    Ok(_) => {
                        done =
                            Some(Ok(lane.system.collect_outcome(lane.workload.name())));
                        break;
                    }
                    Err(e) => {
                        done = Some(Err(e));
                        break;
                    }
                }
            }
            match done {
                Some(result) => *slot = Slot::Done(Box::new(result)),
                None => any_live = true,
            }
        }
        any_live
    }

    /// Runs every lane to completion and returns the per-lane results
    /// in input order — each slot exactly what `experiments[i].run()`
    /// returns.
    pub fn run(mut self) -> Vec<Result<RunOutcome, CoreError>> {
        while self.sweep() {}
        self.slots
            .into_iter()
            .map(|slot| match slot {
                Slot::Done(result) => *result,
                Slot::Live(_) => unreachable!("sweep() ran every lane to completion"),
            })
            .collect()
    }

    /// Convenience: batches `experiments` and runs them, returning
    /// outcomes in input order or the lowest-indexed failure (the
    /// [`crate::sweeps::run_pool`] error contract).
    ///
    /// # Errors
    ///
    /// Returns the error of the lowest-indexed failing lane.
    pub fn run_all(experiments: &[Experiment]) -> Result<Vec<RunOutcome>, CoreError> {
        ReplicaBatch::build(experiments).run().into_iter().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::system::SystemConfig;
    use wimnet_topology::Architecture;

    fn quick(arch: Architecture) -> SystemConfig {
        SystemConfig::xcym(4, 4, arch).quick_test_profile()
    }

    #[test]
    fn batch_of_one_matches_the_legacy_run_exactly() {
        for arch in Architecture::ALL {
            let exp = Experiment::uniform_random(&quick(arch), 0.004);
            let solo = exp.run().unwrap();
            let batched = ReplicaBatch::run_all(std::slice::from_ref(&exp)).unwrap();
            assert_eq!(batched.len(), 1);
            assert_eq!(batched[0], solo, "{arch}: N=1 batch diverged from run()");
        }
    }

    #[test]
    fn heterogeneous_batch_matches_sequential_runs() {
        let exps = vec![
            Experiment::uniform_random(&quick(Architecture::Wireless), 0.002),
            Experiment::saturation(&quick(Architecture::Interposer), 0.20),
            Experiment::memory_reads(&quick(Architecture::Substrate), 0.001, 0.9),
        ];
        let sequential: Vec<RunOutcome> =
            exps.iter().map(|e| e.run().unwrap()).collect();
        let batched = ReplicaBatch::run_all(&exps).unwrap();
        assert_eq!(batched, sequential);
    }

    #[test]
    fn lane_failures_stay_per_lane() {
        let mut bad = quick(Architecture::Wireless);
        bad.measure_cycles = 0;
        let good = Experiment::uniform_random(&quick(Architecture::Wireless), 0.002);
        let results = ReplicaBatch::build(&[
            good.clone(),
            Experiment::uniform_random(&bad, 0.002),
            good.clone(),
        ])
        .run();
        assert!(results[0].is_ok());
        assert!(results[1].is_err(), "invalid lane must fail alone");
        assert!(results[2].is_ok(), "later lanes run despite an earlier failure");
        assert_eq!(
            results[0].as_ref().unwrap(),
            results[2].as_ref().unwrap(),
            "identical lanes produce identical outcomes"
        );
        // The merged form reports the lowest-indexed failure.
        assert!(ReplicaBatch::run_all(&[
            good,
            Experiment::uniform_random(&bad, 0.002)
        ])
        .is_err());
    }

    #[test]
    fn empty_batch_is_fine() {
        assert!(ReplicaBatch::run_all(&[]).unwrap().is_empty());
        assert_eq!(ReplicaBatch::build(&[]).lanes(), 0);
    }
}
