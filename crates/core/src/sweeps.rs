//! Declarative scenario grids and the work-stealing experiment pool.
//!
//! The paper's figures are small hand-rolled sweeps (a handful of loads
//! × three architectures).  Scaling the reproduction to the scenario
//! counts of the related mm-wave studies — hundreds of load × topology
//! × MAC × seed combinations — needs two things this module provides:
//!
//! * [`ScenarioGrid`] — a named-axis cartesian product compiled into
//!   concrete [`Experiment`]s with stable, deterministic point order
//!   (row-major over the axes, last axis fastest);
//! * [`run_pool`] — a work-stealing executor over `std::thread`:
//!   workers pull chunks of experiment indices from a shared atomic
//!   queue, so grids much larger than the core count saturate the
//!   machine even when per-point runtimes differ wildly (a saturated
//!   point can cost 50× a fast-forwarded low-load point).
//!
//! Results are written into per-index slots, so the output order equals
//! the input order and — because each simulation is single-threaded and
//! seed-deterministic — the outcomes are **bit-identical for every
//! thread count and chunk size** (guarded by `tests/determinism.rs`).

use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

use serde::{Deserialize, Serialize};

use wimnet_memory::SchedulerPolicy;
use wimnet_topology::Architecture;

use crate::catalog::{Catalog, Fingerprint};
use crate::checkpoint::CheckpointStore;
use crate::error::CoreError;
use crate::experiments::{Experiment, Scale, WorkloadSpec};
use crate::metrics::RunOutcome;
use crate::system::{SystemConfig, WirelessModel};
use wimnet_traffic::{AddressStreamSpec, InjectionProcess};

/// Default work chunk: one experiment per steal.  Simulations are
/// coarse (milliseconds to seconds), so per-steal overhead is already
/// negligible at chunk 1 and finer chunks balance better.
const DEFAULT_CHUNK: usize = 1;

/// Runs `experiments` on a work-stealing pool of `threads` OS threads,
/// handing out `chunk` consecutive experiments per steal.
///
/// Outcomes are returned in input order and are bit-identical for every
/// `(threads, chunk)` choice: each experiment is an independent,
/// seed-deterministic, single-threaded simulation, and the pool only
/// decides *which thread* runs it, never *what* it computes.
///
/// The worker count is clamped to `threads.clamp(1, n.div_ceil(chunk))`
/// — the number of chunks the list actually splits into — so an
/// oversized `chunk` (e.g. `chunk > n`) degrades gracefully to a single
/// worker draining one steal instead of spawning threads that would
/// find the queue already empty.  The clamp is shape-only and therefore
/// invisible in the results (pinned by `tests/determinism.rs`).
///
/// # Errors
///
/// Returns the error of the lowest-indexed failing experiment (also
/// independent of the pool shape).
pub fn run_pool(
    experiments: &[Experiment],
    threads: usize,
    chunk: usize,
) -> Result<Vec<RunOutcome>, CoreError> {
    run_pool_with(experiments, threads, chunk, |slots, start, end| {
        for i in start..end {
            let filled = slots[i].set(experiments[i].run()).is_ok();
            debug_assert!(filled, "each index is stolen exactly once");
        }
    })
}

/// Runs `experiments` like [`run_pool`], but each steal executes its
/// whole chunk as **one [`crate::replica::ReplicaBatch`]**: the worker advances the
/// chunk's simulations in lockstep instead of running them to
/// completion one after another.  Every run steps through the same
/// masked pipeline either way, so solo runs on [`run_pool`] match the
/// batch on one thread and beat it on more, where a chunk-wide batch
/// keeps its points on one worker.
///
/// The contract is unchanged: per-lane results are exactly what each
/// `experiments[i].run()` returns (bit-identical outcomes, per-lane
/// errors), outcomes keep input order, and every `(threads, chunk)`
/// shape — including `chunk > n`, which clamps to one worker with one
/// batch — produces identical results (pinned by
/// `tests/determinism.rs`).  `chunk` doubles as the batch width, so
/// chunk boundaries decide batch membership; with a [`ScenarioGrid`],
/// architecture is the outermost axis, which makes same-sized chunks
/// along the fastest axes naturally same-architecture.
///
/// # Errors
///
/// Returns the error of the lowest-indexed failing experiment (also
/// independent of the pool shape).
pub fn run_pool_batched(
    experiments: &[Experiment],
    threads: usize,
    chunk: usize,
) -> Result<Vec<RunOutcome>, CoreError> {
    run_pool_with(experiments, threads, chunk, |slots, start, end| {
        let results = crate::replica::ReplicaBatch::build(&experiments[start..end]).run();
        for (i, result) in results.into_iter().enumerate() {
            let filled = slots[start + i].set(result).is_ok();
            debug_assert!(filled, "each index is stolen exactly once");
        }
    })
}

/// The shared pool skeleton: an atomic chunk queue drained by scoped
/// workers, per-index result slots, input-order collection.  `run_chunk`
/// fills `slots[start..end]` for one stolen chunk.
fn run_pool_with(
    experiments: &[Experiment],
    threads: usize,
    chunk: usize,
    run_chunk: impl Fn(&[OnceLock<Result<RunOutcome, CoreError>>], usize, usize) + Sync,
) -> Result<Vec<RunOutcome>, CoreError> {
    run_pool_generic(experiments.len(), threads, chunk, run_chunk)
}

/// [`run_pool_with`] generalised over the per-index result type, for
/// drivers whose work items can legitimately *not* produce an outcome
/// (checkpointed runs killed mid-point yield `Option<RunOutcome>`).
fn run_pool_generic<T: Send + Sync>(
    n: usize,
    threads: usize,
    chunk: usize,
    run_chunk: impl Fn(&[OnceLock<Result<T, CoreError>>], usize, usize) + Sync,
) -> Result<Vec<T>, CoreError> {
    if n == 0 {
        return Ok(Vec::new());
    }
    let chunk = chunk.max(1);
    let threads = threads.clamp(1, n.div_ceil(chunk));
    let next = AtomicUsize::new(0);
    let slots: Vec<OnceLock<Result<T, CoreError>>> =
        (0..n).map(|_| OnceLock::new()).collect();
    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|| loop {
                let start = next.fetch_add(chunk, Ordering::Relaxed);
                if start >= n {
                    break;
                }
                run_chunk(&slots, start, (start + chunk).min(n));
            });
        }
    });
    slots
        .into_iter()
        .map(|slot| slot.into_inner().expect("pool visited every index"))
        .collect()
}

/// The number of worker threads [`ScenarioGrid::run`] and the default
/// `run_all` use: every available core.
pub fn default_threads() -> usize {
    std::thread::available_parallelism().map_or(1, |p| p.get())
}

/// One materialised grid point: the axis values that produced an
/// [`Experiment`], kept alongside its outcome for reporting.
///
/// Serializable for the result catalog and sweep archives; the
/// content fingerprint ([`crate::catalog::fingerprint`]) covers the
/// axis fields only — `index` and `label` are presentation.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ScenarioPoint {
    /// Position in the grid's row-major enumeration.
    pub index: usize,
    /// Human-readable point label, e.g.
    /// `"4C4M (Wireless) mem=20% load=0.002 seed=0x5177"`.
    pub label: String,
    /// Architecture axis value.
    pub architecture: Architecture,
    /// Chip-count axis value.
    pub chips: usize,
    /// Stack-count axis value.
    pub stacks: usize,
    /// Wireless-model (MAC) axis value.
    pub wireless: WirelessModel,
    /// Memory-fraction axis value.
    pub memory_fraction: f64,
    /// Address-stream axis value (which walk read requests drive
    /// through the stack controllers).
    pub address_stream: AddressStreamSpec,
    /// Memory-scheduler axis value (FR-FCFS vs FCFS).
    pub scheduler: SchedulerPolicy,
    /// Injection axis value.
    pub injection: InjectionProcess,
    /// Seed axis value.
    pub seed: u64,
}

/// A declarative cartesian product of simulation scenarios.
///
/// Every axis has a default of one value (the paper's 4C4M wireless
/// saturation point), so a grid only names the axes it sweeps:
///
/// ```
/// use wimnet_core::sweeps::ScenarioGrid;
/// use wimnet_core::Scale;
/// use wimnet_topology::Architecture;
///
/// let grid = ScenarioGrid::new("fig3")
///     .scale(Scale::Quick)
///     .architectures(&Architecture::ALL)
///     .loads(&[0.001, 0.008]);
/// assert_eq!(grid.len(), 6);
/// let outcomes = grid.run()?;
/// assert_eq!(outcomes.len(), 6);
/// # Ok::<(), wimnet_core::CoreError>(())
/// ```
///
/// Axis order is fixed (architecture → chips → stacks → wireless model
/// → memory fraction → address stream → scheduler → injection → seed,
/// last fastest), so point indices are stable across runs and machines.
#[derive(Debug, Clone)]
pub struct ScenarioGrid {
    name: String,
    scale: Scale,
    architectures: Vec<Architecture>,
    chips: Vec<usize>,
    stacks: Vec<usize>,
    wireless: Vec<WirelessModel>,
    memory_fractions: Vec<f64>,
    address_streams: Vec<AddressStreamSpec>,
    schedulers: Vec<SchedulerPolicy>,
    injections: Vec<InjectionProcess>,
    seeds: Vec<u64>,
    /// Read-request share of memory packets (a grid-wide setting, not
    /// an axis: 0 keeps the paper's fire-and-forget stores).
    read_share: f64,
    /// Snapshot cadence for checkpointed runs (a grid-wide setting
    /// that, like `disable_fast_forward`, is *not* part of the point
    /// fingerprints: the cadence changes disk traffic, never physics).
    /// `0` disables checkpointing.
    checkpoint_every: u64,
}

impl ScenarioGrid {
    /// An empty grid named `name`, with every axis at the paper default:
    /// wireless 4C4M, default wireless model, 20 % memory traffic,
    /// saturation load, seed `0x5177`, paper-scale windows.
    pub fn new(name: impl Into<String>) -> Self {
        ScenarioGrid {
            name: name.into(),
            scale: Scale::Paper,
            architectures: vec![Architecture::Wireless],
            chips: vec![4],
            stacks: vec![4],
            wireless: vec![WirelessModel::default()],
            memory_fractions: vec![0.20],
            address_streams: vec![AddressStreamSpec::Sequential],
            schedulers: vec![SchedulerPolicy::FrFcfs],
            injections: vec![InjectionProcess::Saturation],
            seeds: vec![0x5177],
            read_share: 0.0,
            checkpoint_every: 0,
        }
    }

    /// The grid's name (used in reports).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Sets the simulation scale (window lengths).
    #[must_use]
    pub fn scale(mut self, scale: Scale) -> Self {
        self.scale = scale;
        self
    }

    /// Sweeps the architecture axis.
    #[must_use]
    pub fn architectures(mut self, archs: &[Architecture]) -> Self {
        assert!(!archs.is_empty(), "architecture axis must be non-empty");
        self.architectures = archs.to_vec();
        self
    }

    /// Sweeps the chip-count axis (XC in the paper's XCYM naming).
    #[must_use]
    pub fn chips(mut self, chips: &[usize]) -> Self {
        assert!(!chips.is_empty(), "chips axis must be non-empty");
        self.chips = chips.to_vec();
        self
    }

    /// Sweeps the memory-stack-count axis (YM).
    #[must_use]
    pub fn stacks(mut self, stacks: &[usize]) -> Self {
        assert!(!stacks.is_empty(), "stacks axis must be non-empty");
        self.stacks = stacks.to_vec();
        self
    }

    /// Sweeps the wireless-medium/MAC axis.  Only wireless-architecture
    /// points are affected (wired fabrics carry no medium); mixed grids
    /// typically pair this with `architectures(&[Architecture::Wireless])`.
    #[must_use]
    pub fn wireless_models(mut self, models: &[WirelessModel]) -> Self {
        assert!(!models.is_empty(), "wireless axis must be non-empty");
        self.wireless = models.to_vec();
        self
    }

    /// Sweeps the memory-access-fraction axis.
    #[must_use]
    pub fn memory_fractions(mut self, fractions: &[f64]) -> Self {
        assert!(!fractions.is_empty(), "memory-fraction axis must be non-empty");
        self.memory_fractions = fractions.to_vec();
        self
    }

    /// Sweeps the address-stream axis (sequential / strided / uniform /
    /// hot-row walks through the stack controllers; only observable
    /// with a positive [`ScenarioGrid::read_share`] or a read-issuing
    /// workload).
    #[must_use]
    pub fn address_streams(mut self, streams: &[AddressStreamSpec]) -> Self {
        assert!(!streams.is_empty(), "address-stream axis must be non-empty");
        self.address_streams = streams.to_vec();
        self
    }

    /// Sweeps the memory-scheduler axis (FR-FCFS vs FCFS).
    #[must_use]
    pub fn schedulers(mut self, schedulers: &[SchedulerPolicy]) -> Self {
        assert!(!schedulers.is_empty(), "scheduler axis must be non-empty");
        self.schedulers = schedulers.to_vec();
        self
    }

    /// Sets the read-request share of memory packets for every point
    /// (closed-loop traffic through the controllers).
    ///
    /// # Panics
    ///
    /// Panics if `share` is outside `[0, 1]`.
    #[must_use]
    pub fn read_share(mut self, share: f64) -> Self {
        assert!((0.0..=1.0).contains(&share), "read share {share} outside [0, 1]");
        self.read_share = share;
        self
    }

    /// Sets the snapshot cadence for
    /// [`ScenarioGrid::run_cached_resumable`]: every miss persists a
    /// checkpoint at each `every`-cycle mark while it simulates, so a
    /// killed sweep resumes mid-point instead of from cycle 0.  `0`
    /// (the default) disables checkpointing.  Not part of the point
    /// fingerprints — outcomes are bit-identical at every cadence.
    #[must_use]
    pub fn checkpoint_every(mut self, every: u64) -> Self {
        self.checkpoint_every = every;
        self
    }

    /// Sweeps the injection axis over Bernoulli loads
    /// (packets/core/cycle).
    #[must_use]
    pub fn loads(mut self, loads: &[f64]) -> Self {
        assert!(!loads.is_empty(), "load axis must be non-empty");
        self.injections = loads
            .iter()
            .map(|&rate| InjectionProcess::Bernoulli { rate })
            .collect();
        self
    }

    /// Sweeps the injection axis over explicit processes (mix Bernoulli
    /// points with saturation).
    #[must_use]
    pub fn injections(mut self, injections: &[InjectionProcess]) -> Self {
        assert!(!injections.is_empty(), "injection axis must be non-empty");
        self.injections = injections.to_vec();
        self
    }

    /// Sweeps the seed axis (statistical replication).
    #[must_use]
    pub fn seeds(mut self, seeds: &[u64]) -> Self {
        assert!(!seeds.is_empty(), "seed axis must be non-empty");
        self.seeds = seeds.to_vec();
        self
    }

    /// The named axes and their lengths, in nesting order.
    pub fn axes(&self) -> Vec<(&'static str, usize)> {
        vec![
            ("architecture", self.architectures.len()),
            ("chips", self.chips.len()),
            ("stacks", self.stacks.len()),
            ("wireless", self.wireless.len()),
            ("memory_fraction", self.memory_fractions.len()),
            ("address_stream", self.address_streams.len()),
            ("scheduler", self.schedulers.len()),
            ("injection", self.injections.len()),
            ("seed", self.seeds.len()),
        ]
    }

    /// Number of grid points (the product of all axis lengths).
    pub fn len(&self) -> usize {
        self.axes().iter().map(|(_, n)| n).product()
    }

    /// `true` when the grid has no points (never: axes are non-empty).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Materialises every grid point in row-major order.
    pub fn points(&self) -> Vec<ScenarioPoint> {
        // The label names the memory axes only when the grid actually
        // engages them, so classic network-side sweeps keep their
        // short labels.
        let memory_axes_engaged = self.address_streams
            != [AddressStreamSpec::Sequential]
            || self.schedulers != [SchedulerPolicy::FrFcfs]
            || self.read_share > 0.0;
        let mut points = Vec::with_capacity(self.len());
        for &architecture in &self.architectures {
            for &chips in &self.chips {
                for &stacks in &self.stacks {
                    for &wireless in &self.wireless {
                        for &memory_fraction in &self.memory_fractions {
                            for &address_stream in &self.address_streams {
                                for &scheduler in &self.schedulers {
                                    for &injection in &self.injections {
                                        for &seed in &self.seeds {
                                            let index = points.len();
                                            let load = match injection {
                                                InjectionProcess::Bernoulli { rate } => {
                                                    format!("load={rate}")
                                                }
                                                InjectionProcess::Saturation => {
                                                    "saturation".to_string()
                                                }
                                            };
                                            let memory = if memory_axes_engaged {
                                                format!(
                                                    " stream={} sched={}",
                                                    address_stream.label(),
                                                    match scheduler {
                                                        SchedulerPolicy::FrFcfs => "frfcfs",
                                                        SchedulerPolicy::Fcfs => "fcfs",
                                                    }
                                                )
                                            } else {
                                                String::new()
                                            };
                                            points.push(ScenarioPoint {
                                                index,
                                                label: format!(
                                                    "{chips}C{stacks}M ({architecture}) \
                                                     mem={:.0}%{memory} {load} \
                                                     seed={seed:#x}",
                                                    memory_fraction * 100.0
                                                ),
                                                architecture,
                                                chips,
                                                stacks,
                                                wireless,
                                                memory_fraction,
                                                address_stream,
                                                scheduler,
                                                injection,
                                                seed,
                                            });
                                        }
                                    }
                                }
                            }
                        }
                    }
                }
            }
        }
        points
    }

    /// Compiles one point into a runnable [`Experiment`].
    pub fn experiment(&self, point: &ScenarioPoint) -> Experiment {
        let mut config = self
            .scale
            .apply(SystemConfig::xcym(point.chips, point.stacks, point.architecture));
        config.wireless = point.wireless;
        config.seed = point.seed;
        config.address_stream = point.address_stream;
        config.mem_controller.scheduler = point.scheduler;
        config.checkpoint_every = self.checkpoint_every;
        let spec = match point.injection {
            InjectionProcess::Bernoulli { rate } => WorkloadSpec::UniformRandom {
                load: rate,
                memory_fraction: point.memory_fraction,
                read_share: self.read_share,
            },
            InjectionProcess::Saturation => WorkloadSpec::Saturation {
                memory_fraction: point.memory_fraction,
                read_share: self.read_share,
            },
        };
        Experiment::new(config, spec)
    }

    /// Compiles the whole grid, point order preserved.
    pub fn experiments(&self) -> Vec<Experiment> {
        self.points().iter().map(|p| self.experiment(p)).collect()
    }

    /// Runs the grid on the default pool (all cores, chunk 1).
    ///
    /// # Errors
    ///
    /// Returns the lowest-indexed failing point's error.
    pub fn run(&self) -> Result<Vec<RunOutcome>, CoreError> {
        self.run_with(default_threads(), DEFAULT_CHUNK)
    }

    /// Runs the grid on a pool of `threads` threads with `chunk`-sized
    /// steals.  Outcomes are in point order and independent of the pool
    /// shape.
    ///
    /// # Errors
    ///
    /// Returns the lowest-indexed failing point's error.
    pub fn run_with(
        &self,
        threads: usize,
        chunk: usize,
    ) -> Result<Vec<RunOutcome>, CoreError> {
        run_pool(&self.experiments(), threads, chunk)
    }

    /// Runs the grid on the replica-batched pool: each steal advances a
    /// `chunk`-wide [`crate::replica::ReplicaBatch`] in lockstep.
    /// Outcomes are bit-identical to
    /// [`ScenarioGrid::run_with`] at every pool shape.
    ///
    /// # Errors
    ///
    /// Returns the lowest-indexed failing point's error.
    pub fn run_batched(
        &self,
        threads: usize,
        chunk: usize,
    ) -> Result<Vec<RunOutcome>, CoreError> {
        run_pool_batched(&self.experiments(), threads, chunk)
    }

    /// Runs the grid and pairs each outcome with its point.
    ///
    /// # Errors
    ///
    /// Returns the lowest-indexed failing point's error.
    pub fn run_annotated(&self) -> Result<Vec<(ScenarioPoint, RunOutcome)>, CoreError> {
        Ok(self.points().into_iter().zip(self.run()?).collect())
    }

    /// The canonical catalog fingerprint of one of this grid's points:
    /// the point's axis values plus the grid-wide settings (scale,
    /// read share) that co-determine the compiled experiment, keyed
    /// under [`crate::catalog::ENGINE_VERSION`].
    pub fn point_fingerprint(&self, point: &ScenarioPoint) -> Fingerprint {
        crate::catalog::fingerprint(point, self.scale, self.read_share)
    }

    /// The contiguous point-index range shard `shard` of `shards`
    /// owns: `[shard·n/shards, (shard+1)·n/shards)` — a balanced
    /// split (sizes differ by at most one) that covers every index
    /// exactly once across the shards.
    ///
    /// # Panics
    ///
    /// Panics when `shards == 0` or `shard >= shards`.
    pub fn shard_range(&self, shard: usize, shards: usize) -> Range<usize> {
        assert!(shards > 0, "shard count must be positive");
        assert!(shard < shards, "shard {shard} out of range for {shards} shards");
        let n = self.len();
        (shard * n / shards)..((shard + 1) * n / shards)
    }

    /// Runs the grid through the result `catalog`: cache hits are
    /// served from disk at memcpy speed, only misses simulate (on the
    /// work-stealing pool, [`run_pool`]), and every fresh outcome is
    /// memoized before the call returns.  Outcomes are bit-identical
    /// to an uncached [`ScenarioGrid::run_with`] —
    /// simulations are deterministic and the JSON layer round-trips
    /// every finite f64 exactly — so a killed sweep resumed from its
    /// partial catalog converges on the same final vector.
    ///
    /// # Errors
    ///
    /// Returns the lowest-indexed failing point's error, or a
    /// [`CoreError::Catalog`] when the catalog cannot be written.
    pub fn run_cached(
        &self,
        catalog: &Catalog,
        threads: usize,
        chunk: usize,
    ) -> Result<CachedSweep, CoreError> {
        self.run_cached_shard(catalog, 0, 1, threads, chunk)
    }

    /// [`ScenarioGrid::run_cached`] restricted to the points of shard
    /// `shard` of `shards` (see [`ScenarioGrid::shard_range`]).
    /// Disjoint shards may run concurrently — in threads or separate
    /// processes — against one catalog directory; overlapping shards
    /// are safe too and dedupe to byte-identical entries (atomic
    /// rename of deterministic content).
    ///
    /// # Errors
    ///
    /// Returns the lowest-indexed failing point's error, or a
    /// [`CoreError::Catalog`] when the catalog cannot be written.
    pub fn run_cached_shard(
        &self,
        catalog: &Catalog,
        shard: usize,
        shards: usize,
        threads: usize,
        chunk: usize,
    ) -> Result<CachedSweep, CoreError> {
        self.run_cached_shard_with_budget(catalog, shard, shards, threads, chunk, None)
    }

    /// [`ScenarioGrid::run_cached_shard`] with an optional **miss
    /// budget**: simulate at most `budget` cache misses (in point
    /// order), memoize them, and stop.  A truncated run reports the
    /// remaining misses in [`CachedSweep::pending`] and carries no
    /// outcome vector — it is the `sweep` CLI's simulated crash, and
    /// the building block for incremental fill-ins.
    ///
    /// # Errors
    ///
    /// Returns the lowest-indexed failing point's error, or a
    /// [`CoreError::Catalog`] when the catalog cannot be written.
    pub fn run_cached_shard_with_budget(
        &self,
        catalog: &Catalog,
        shard: usize,
        shards: usize,
        threads: usize,
        chunk: usize,
        budget: Option<usize>,
    ) -> Result<CachedSweep, CoreError> {
        let range = self.shard_range(shard, shards);
        let points = self.points();
        let shard_points = &points[range.clone()];
        let fingerprints: Vec<Fingerprint> =
            shard_points.iter().map(|p| self.point_fingerprint(p)).collect();
        let mut slots: Vec<Option<RunOutcome>> =
            fingerprints.iter().map(|fp| catalog.lookup(fp)).collect();
        let miss_indices: Vec<usize> = slots
            .iter()
            .enumerate()
            .filter_map(|(i, slot)| slot.is_none().then_some(i))
            .collect();
        let hits = shard_points.len() - miss_indices.len();
        let budgeted = budget.unwrap_or(miss_indices.len()).min(miss_indices.len());
        let pending = miss_indices.len() - budgeted;
        let to_run = &miss_indices[..budgeted];

        let experiments: Vec<Experiment> =
            to_run.iter().map(|&i| self.experiment(&shard_points[i])).collect();
        let fresh = run_pool(&experiments, threads, chunk)?;
        for (&i, outcome) in to_run.iter().zip(fresh) {
            catalog.store(&fingerprints[i], &shard_points[i], &outcome)?;
            slots[i] = Some(outcome);
        }
        let outcomes = if pending == 0 {
            slots
                .into_iter()
                .map(|slot| slot.expect("every shard slot is a hit or was simulated"))
                .collect()
        } else {
            Vec::new()
        };
        Ok(CachedSweep {
            indices: range,
            outcomes,
            hits,
            misses: budgeted,
            pending,
        })
    }

    /// [`ScenarioGrid::run_cached`] with **mid-point warm starts**:
    /// every miss runs through
    /// [`crate::checkpoint::run_with_checkpoints`] — resuming from the
    /// scenario's latest serveable snapshot in `checkpoints`, and (with
    /// a positive [`ScenarioGrid::checkpoint_every`]) persisting a new
    /// snapshot at each cadence mark while it simulates.  A completed
    /// miss lands in the `catalog` and its spent checkpoint is removed;
    /// the outcome vector is bit-identical to an uncached
    /// [`ScenarioGrid::run_with`] (snapshot → restore → run equals
    /// the uninterrupted run, bit for bit — `tests/checkpoint.rs`).
    ///
    /// `kill_at: Some(k)` is the CLI's simulated mid-point crash: each
    /// miss stops before its first iteration at cursor ≥ `k` and counts
    /// into [`CachedSweep::pending`], leaving its latest checkpoint on
    /// disk for a later call with `kill_at: None` to finish from.
    ///
    /// Misses run on the generic pool one point per work item, each on
    /// its own snapshot schedule.
    ///
    /// # Errors
    ///
    /// Returns the lowest-indexed failing point's error, or a
    /// [`CoreError::Catalog`] / [`CoreError::Checkpoint`] when either
    /// store cannot be written.
    pub fn run_cached_resumable(
        &self,
        catalog: &Catalog,
        checkpoints: &CheckpointStore,
        threads: usize,
        chunk: usize,
        kill_at: Option<u64>,
    ) -> Result<CachedSweep, CoreError> {
        let points = self.points();
        let fingerprints: Vec<Fingerprint> =
            points.iter().map(|p| self.point_fingerprint(p)).collect();
        let mut slots: Vec<Option<RunOutcome>> =
            fingerprints.iter().map(|fp| catalog.lookup(fp)).collect();
        let miss_indices: Vec<usize> = slots
            .iter()
            .enumerate()
            .filter_map(|(i, slot)| slot.is_none().then_some(i))
            .collect();
        let hits = points.len() - miss_indices.len();

        let experiments: Vec<Experiment> =
            miss_indices.iter().map(|&i| self.experiment(&points[i])).collect();
        let miss_fps: Vec<Fingerprint> =
            miss_indices.iter().map(|&i| fingerprints[i]).collect();
        let fresh = run_pool_generic(
            experiments.len(),
            threads,
            chunk,
            |pool_slots, start, end| {
                for i in start..end {
                    let result =
                        experiments[i].run_checkpointed(checkpoints, &miss_fps[i], kill_at);
                    let filled = pool_slots[i].set(result).is_ok();
                    debug_assert!(filled, "each index is stolen exactly once");
                }
            },
        )?;

        let mut pending = 0;
        let mut misses = 0;
        for (k, outcome) in fresh.into_iter().enumerate() {
            let i = miss_indices[k];
            match outcome {
                Some(outcome) => {
                    catalog.store(&fingerprints[i], &points[i], &outcome)?;
                    checkpoints.remove(&fingerprints[i]);
                    slots[i] = Some(outcome);
                    misses += 1;
                }
                None => pending += 1,
            }
        }
        let outcomes = if pending == 0 {
            slots
                .into_iter()
                .map(|slot| slot.expect("every slot is a hit or was simulated"))
                .collect()
        } else {
            Vec::new()
        };
        Ok(CachedSweep { indices: 0..points.len(), outcomes, hits, misses, pending })
    }
}

/// The result of a catalog-backed (sharded) grid run — outcomes plus
/// the hit/miss accounting the resumability tests and the `sweep` CLI
/// assert on: a fully warm rerun must report `misses == 0` (zero
/// simulation steps) while returning the bit-identical vector.
#[derive(Debug, Clone, PartialEq)]
pub struct CachedSweep {
    /// The grid point indices this run covered (the shard's range;
    /// the whole grid for [`ScenarioGrid::run_cached`]).
    pub indices: Range<usize>,
    /// Outcomes for `indices`, in point order — `outcomes[k]` belongs
    /// to point `indices.start + k`.  Empty when the run was
    /// truncated by a miss budget (`pending > 0`).
    pub outcomes: Vec<RunOutcome>,
    /// Points served from the catalog without simulating.
    pub hits: usize,
    /// Points simulated (and memoized) by this run.
    pub misses: usize,
    /// Cache misses left unsimulated by a miss budget; zero means the
    /// shard is complete.
    pub pending: usize,
}

impl CachedSweep {
    /// `true` when every point of the shard has an outcome.
    pub fn is_complete(&self) -> bool {
        self.pending == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grid_len_is_the_axis_product() {
        let grid = ScenarioGrid::new("t")
            .architectures(&Architecture::ALL)
            .loads(&[0.001, 0.002, 0.004])
            .seeds(&[1, 2]);
        assert_eq!(grid.len(), 3 * 3 * 2);
        assert_eq!(grid.points().len(), grid.len());
        assert!(!grid.is_empty());
        assert_eq!(grid.name(), "t");
    }

    #[test]
    fn points_enumerate_row_major_with_stable_indices() {
        let grid = ScenarioGrid::new("t")
            .architectures(&[Architecture::Wireless, Architecture::Interposer])
            .loads(&[0.1, 0.2]);
        let points = grid.points();
        assert_eq!(points.len(), 4);
        for (i, p) in points.iter().enumerate() {
            assert_eq!(p.index, i);
        }
        // Last axis (injection) fastest.
        assert_eq!(points[0].architecture, Architecture::Wireless);
        assert_eq!(points[1].architecture, Architecture::Wireless);
        assert!(matches!(
            points[0].injection,
            InjectionProcess::Bernoulli { rate } if rate == 0.1
        ));
        assert!(matches!(
            points[1].injection,
            InjectionProcess::Bernoulli { rate } if rate == 0.2
        ));
        assert_eq!(points[2].architecture, Architecture::Interposer);
    }

    #[test]
    fn axes_are_named_in_nesting_order() {
        let grid = ScenarioGrid::new("t").loads(&[0.1, 0.2]).seeds(&[1, 2, 3]);
        let axes = grid.axes();
        assert_eq!(axes[0], ("architecture", 1));
        assert_eq!(axes[5], ("address_stream", 1));
        assert_eq!(axes[6], ("scheduler", 1));
        assert_eq!(axes[7], ("injection", 2));
        assert_eq!(axes[8], ("seed", 3));
    }

    #[test]
    fn memory_axes_multiply_points_and_name_labels() {
        let grid = ScenarioGrid::new("mem")
            .address_streams(&[
                AddressStreamSpec::Sequential,
                AddressStreamSpec::Uniform { region_blocks: 1 << 16 },
            ])
            .schedulers(&[SchedulerPolicy::FrFcfs, SchedulerPolicy::Fcfs])
            .read_share(1.0)
            .loads(&[0.001]);
        assert_eq!(grid.len(), 4);
        let points = grid.points();
        assert!(points[0].label.contains("stream=seq"));
        assert!(points[0].label.contains("sched=frfcfs"));
        assert!(points[1].label.contains("sched=fcfs"));
        assert!(points[2].label.contains("stream=uniform"));
        // The compiled experiments carry the axis values into the
        // system configuration.
        let exp = grid.experiment(&points[3]);
        assert_eq!(
            exp.config().address_stream,
            AddressStreamSpec::Uniform { region_blocks: 1 << 16 }
        );
        assert_eq!(exp.config().mem_controller.scheduler, SchedulerPolicy::Fcfs);
    }

    #[test]
    fn default_memory_axes_keep_the_short_labels() {
        let grid = ScenarioGrid::new("t").loads(&[0.002]);
        assert!(!grid.points()[0].label.contains("stream="));
    }

    #[test]
    fn scheduler_policy_changes_memory_bound_outcomes() {
        // Same seed and load, FR-FCFS vs FCFS on a hot-row stream:
        // the scheduler axis must be observable in the per-stack
        // statistics of a read-heavy run.
        let grid = ScenarioGrid::new("sched")
            .scale(Scale::Quick)
            .architectures(&[Architecture::Wireless])
            .address_streams(&[AddressStreamSpec::HotRow {
                region_blocks: 1 << 18,
                hot_blocks: 16,
                hot_fraction: 0.6,
            }])
            .schedulers(&[SchedulerPolicy::FrFcfs, SchedulerPolicy::Fcfs])
            .read_share(1.0)
            .memory_fractions(&[0.9])
            .loads(&[0.02]);
        let outcomes = grid.run().unwrap();
        assert_eq!(outcomes.len(), 2);
        for o in &outcomes {
            let accesses: u64 = o.memory.iter().map(|m| m.accesses).sum();
            assert!(accesses > 0, "read-heavy run must access the stacks");
        }
        // The axis is observable: same seed and traffic, different
        // service order — the per-stack statistics must diverge.
        assert_ne!(
            outcomes[0].memory, outcomes[1].memory,
            "FR-FCFS and FCFS produced identical memory statistics"
        );
    }

    #[test]
    fn grid_compiles_and_runs_quick_points() {
        let grid = ScenarioGrid::new("smoke")
            .scale(Scale::Quick)
            .architectures(&[Architecture::Wireless, Architecture::Substrate])
            .loads(&[0.002]);
        let annotated = grid.run_annotated().unwrap();
        assert_eq!(annotated.len(), 2);
        for (point, outcome) in &annotated {
            assert!(
                outcome.packets_delivered() > 0,
                "{} delivered nothing",
                point.label
            );
        }
        // The point label names the architecture and load.
        assert!(annotated[0].0.label.contains("4C4M"));
        assert!(annotated[0].0.label.contains("load=0.002"));
    }

    #[test]
    fn pool_shape_does_not_change_results() {
        let grid = ScenarioGrid::new("det")
            .scale(Scale::Quick)
            .loads(&[0.001, 0.004, 0.016]);
        let exps = grid.experiments();
        let a = run_pool(&exps, 1, 1).unwrap();
        let b = run_pool(&exps, 8, 2).unwrap();
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.packets_delivered(), y.packets_delivered());
            assert_eq!(
                x.avg_latency_cycles.map(f64::to_bits),
                y.avg_latency_cycles.map(f64::to_bits)
            );
            assert_eq!(x.total_energy_nj().to_bits(), y.total_energy_nj().to_bits());
        }
    }

    #[test]
    fn empty_experiment_list_is_fine() {
        assert!(run_pool(&[], 4, 1).unwrap().is_empty());
    }

    #[test]
    fn shard_ranges_partition_every_index_exactly_once() {
        let grid = ScenarioGrid::new("t")
            .loads(&[0.001, 0.002, 0.004])
            .seeds(&[1, 2, 3, 4, 5]);
        for shards in [1, 2, 3, 7, 15, 16] {
            let mut covered = Vec::new();
            for shard in 0..shards {
                let range = grid.shard_range(shard, shards);
                covered.extend(range);
            }
            assert_eq!(covered, (0..grid.len()).collect::<Vec<_>>(), "shards={shards}");
        }
        // Balanced: sizes differ by at most one.
        let sizes: Vec<usize> =
            (0..4).map(|s| grid.shard_range(s, 4).len()).collect();
        assert!(sizes.iter().max().unwrap() - sizes.iter().min().unwrap() <= 1);
    }

    #[test]
    fn run_cached_serves_the_second_run_without_simulating() {
        let dir = std::env::temp_dir()
            .join(format!("wimnet-sweeps-cached-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let catalog = Catalog::open(&dir).unwrap();
        let grid = ScenarioGrid::new("cached")
            .scale(Scale::Quick)
            .architectures(&[Architecture::Wireless, Architecture::Substrate])
            .loads(&[0.002]);
        let first = grid.run_cached(&catalog, 2, 1).unwrap();
        assert_eq!((first.hits, first.misses, first.pending), (0, 2, 0));
        assert!(first.is_complete());
        let second = grid.run_cached(&catalog, 2, 1).unwrap();
        assert_eq!((second.hits, second.misses), (2, 0), "warm run must not simulate");
        assert_eq!(first.outcomes, second.outcomes);
        // Budgeted runs stop mid-shard and report the remainder.
        let _ = std::fs::remove_dir_all(&dir);
        let catalog = Catalog::open(&dir).unwrap();
        let truncated = grid
            .run_cached_shard_with_budget(&catalog, 0, 1, 2, 1, Some(1))
            .unwrap();
        assert_eq!((truncated.hits, truncated.misses, truncated.pending), (0, 1, 1));
        assert!(!truncated.is_complete());
        assert!(truncated.outcomes.is_empty());
        let resumed = grid.run_cached(&catalog, 2, 1).unwrap();
        assert_eq!((resumed.hits, resumed.misses), (1, 1));
        assert_eq!(resumed.outcomes, first.outcomes, "resume converges on the same vector");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn pool_reports_the_lowest_indexed_failure() {
        // A stalling configuration: zero measure cycles is rejected at
        // build time, deterministically, whatever thread finds it.
        let mut bad = SystemConfig::xcym(4, 4, Architecture::Wireless).quick_test_profile();
        bad.measure_cycles = 0;
        let good = SystemConfig::xcym(4, 4, Architecture::Wireless).quick_test_profile();
        let exps = vec![
            Experiment::uniform_random(&good, 0.001),
            Experiment::uniform_random(&bad, 0.001),
            Experiment::uniform_random(&good, 0.002),
        ];
        let err = run_pool(&exps, 4, 1).unwrap_err();
        assert!(matches!(err, CoreError::InvalidParameter { .. }));
    }
}
