//! The SOCC'17 wireless multichip interconnection framework.
//!
//! This crate is the paper's primary contribution assembled from the
//! `wimnet` substrates: it builds complete multichip systems
//! ([`MultichipSystem`]) for the three compared architectures, drives
//! them with workloads, and regenerates every figure of the paper's
//! evaluation (§IV).
//!
//! * [`system`] — [`SystemConfig`] (every §IV parameter in one place)
//!   and [`MultichipSystem`] (topology + routing + engine + wireless
//!   medium + memory stacks, with request/reply service).
//! * [`metrics`] — [`RunOutcome`]: peak bandwidth per core, average
//!   packet energy, average packet latency, energy breakdowns, and the
//!   percentage-gain arithmetic behind Figs 4–6.
//! * [`experiments`] — one function per figure (`fig2` … `fig6`) plus
//!   the [`Experiment`] runner they share.
//! * [`sweeps`] — declarative [`ScenarioGrid`] cartesian products and
//!   the work-stealing pool (`run_pool` / `run_pool_batched`) that
//!   executes grids larger than the core count (see `docs/sweeps.md`).
//! * [`catalog`] — the fingerprint-keyed on-disk result cache behind
//!   [`ScenarioGrid::run_cached`](sweeps::ScenarioGrid::run_cached):
//!   deterministic outcomes memoized under
//!   (scenario bytes, engine version) keys with atomic writes and
//!   quarantine-on-corruption, making sweeps resumable and shardable
//!   (front-ended by the `sweep` CLI in `wimnet-bench`).
//! * [`replica`] — [`ReplicaBatch`]: N independent scenario points
//!   advanced in lockstep by one driver loop, bit-identical to N
//!   sequential runs (see
//!   `docs/engine.md`, "Replica batching").
//! * [`checkpoint`] — full-engine [`Snapshot`]s and the
//!   [`CheckpointStore`]: snapshot → restore → run is bit-identical to
//!   an uninterrupted run, so long sweeps survive kills mid-point and
//!   resume from the latest cadence mark (see `docs/checkpoint.md`).
//! * [`report`] — plain-text tables and CSV output for the harness.
//!
//! # Quickstart
//!
//! ```
//! use wimnet_core::{Experiment, SystemConfig};
//! use wimnet_topology::Architecture;
//!
//! let config = SystemConfig::xcym(4, 4, Architecture::Wireless)
//!     .quick_test_profile();
//! let outcome = Experiment::uniform_random(&config, 0.005).run()?;
//! assert!(outcome.packets_delivered() > 0);
//! # Ok::<(), wimnet_core::CoreError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod catalog;
pub mod checkpoint;
pub mod driver;
pub mod error;
pub mod experiments;
pub mod metrics;
pub mod replica;
pub mod report;
pub mod sweeps;
pub mod system;

pub use catalog::{Catalog, CatalogEntry, Fingerprint, ENGINE_VERSION};
pub use checkpoint::{run_with_checkpoints, CheckpointEntry, CheckpointStore, Snapshot};
pub use driver::{compare_on_shared_trace, find_saturation_load, latency_curve};
pub use error::CoreError;
pub use experiments::{Experiment, Scale, WorkloadSpec};
pub use metrics::{percentage_gain, RunOutcome};
pub use replica::ReplicaBatch;
pub use sweeps::{run_pool, run_pool_batched, CachedSweep, ScenarioGrid, ScenarioPoint};
pub use system::{MacKind, MultichipSystem, SystemConfig, SystemState, WirelessModel};
pub use wimnet_telemetry::TelemetryConfig;
