//! Checkpoint/restore: full-engine snapshots and the on-disk store.
//!
//! PRs 2–8 made every run a bit-exact pure function of its scenario;
//! PR 7's catalog exploited that purity at *run* granularity (a
//! finished outcome never needs recomputing).  This module pushes the
//! same idea inside a run: a [`Snapshot`] captures the complete mutable
//! state of a [`MultichipSystem`] at an iteration boundary — VC slabs,
//! ring lanes, credits and grant owners, active sets and their masks,
//! radio backlog, all three MAC media, the memory controllers' queues,
//! bank state machines and in-flight completions, the workload cursors
//! (per-stack stream ordinals, staged requests, the outstanding-read
//! map), the reply heap, the energy meter's superaccumulator limbs and
//! the engine clock — such that
//!
//! > **snapshot → restore → run ≡ uninterrupted run, bit for bit.**
//!
//! The resulting [`crate::RunOutcome`] is *equal*, not approximately
//! equal: every meter bit, every latency percentile, every memory
//! counter (`tests/checkpoint.rs` proves this differentially for every
//! architecture and both serialized MACs, fast-forward engaged).
//!
//! What is **not** in a snapshot is everything `MultichipSystem::build`
//! reconstructs as a pure function of the [`crate::SystemConfig`]:
//! topology, routes, address map, address streams and energy constants.
//! Restore therefore requires building the same configuration first —
//! the store's scenario fingerprint enforces exactly that.  Workload
//! objects are likewise excluded: resumption requires counter-based
//! workloads (generation a pure function of the queried cycle), which
//! every workload in this repository satisfies by design.
//!
//! # The on-disk store
//!
//! [`CheckpointStore`] mirrors the result catalog's discipline
//! (`docs/sweeps.md`): one file per scenario fingerprint
//! (`{hex}.ckpt.json`), written to a unique temp name and atomically
//! renamed into place, validated on every read — engine version,
//! claimed fingerprint, **and** a 128-bit content hash of the
//! snapshot's canonical JSON (re-derived from the parsed bytes, so a
//! flipped bit anywhere in the state is caught) — with unserveable
//! files quarantined and reported as a miss, never served and never
//! fatal.  A corrupt checkpoint costs a cold start, not a wrong resume.
//!
//! # Versioning rule
//!
//! Snapshots embed [`ENGINE_VERSION`] and are never served across a
//! bump: engine semantics changes invalidate mid-run state exactly as
//! they invalidate finished outcomes.  This PR proves bit-identity
//! (checkpointing changes wall-clock and disk traffic only), so the
//! version holds at v8.  See `docs/checkpoint.md`.

use std::fs;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};

use serde::{Deserialize, Serialize};

use wimnet_traffic::Workload;

use crate::catalog::{lane, Fingerprint, ENGINE_VERSION};
use crate::error::CoreError;
use crate::metrics::RunOutcome;
use crate::system::{MultichipSystem, SystemState};

/// A complete engine snapshot: the run-loop cursor plus the full
/// [`SystemState`] at that iteration boundary.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Snapshot {
    /// The run-loop cursor, equal to the engine clock
    /// (`Network::now`) at the boundary where the snapshot was taken.
    pub cycle: u64,
    state: SystemState,
}

/// One store file: a self-validating envelope around a snapshot.
///
/// `engine_version` and `fingerprint` are checked against the lookup
/// key on every read; `content` is the 128-bit hash of the snapshot's
/// canonical compact JSON, recomputed from the parsed snapshot at
/// lookup (canonical serialization makes re-encoding byte-identical,
/// which `tests/serde_roundtrip.rs` pins), so state corruption that
/// still parses is quarantined too.  `cycle` duplicates the snapshot
/// cursor for cheap `status`-style display.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CheckpointEntry {
    /// The [`ENGINE_VERSION`] the snapshot was taken under.
    pub engine_version: String,
    /// Hex scenario fingerprint this checkpoint claims to answer.
    pub fingerprint: String,
    /// Hex content hash of the snapshot's compact JSON.
    pub content: String,
    /// The snapshot's run-loop cursor (display convenience).
    pub cycle: u64,
    /// The snapshot itself.
    pub snapshot: Snapshot,
}

/// The 128-bit content hash of a snapshot's canonical JSON bytes:
/// the catalog's two-lane SplitMix64 construction on fresh seeds (3
/// and 4; the scenario fingerprint uses 1 and 2).
fn content_hex(bytes: &[u8]) -> String {
    format!("{:016x}{:016x}", lane(bytes, 3), lane(bytes, 4))
}

/// A directory of mid-run snapshots, one file per scenario
/// fingerprint, with the catalog's crash-safety discipline: atomic
/// rename on write, validate-or-quarantine on read, `*.tmp-*` debris
/// swept explicitly.  A store holds at most one checkpoint per
/// scenario — each cadence crossing atomically replaces the previous
/// snapshot, so the file is always the *latest* resume point.
///
/// All methods take `&self` and tolerate concurrent use from many
/// threads and processes against one directory, for the same reasons
/// as the catalog: unique temp names, atomic renames, and
/// byte-identical content for concurrent writers of the same key at
/// the same cycle.
#[derive(Debug)]
pub struct CheckpointStore {
    dir: PathBuf,
    /// Unique-suffix source for temp and quarantine names.
    nonce: AtomicUsize,
    /// Files this handle moved to quarantine (session counter).
    quarantined: AtomicUsize,
}

impl CheckpointStore {
    /// Opens (creating if needed) the store at `dir`.
    ///
    /// # Errors
    ///
    /// Fails when the directory cannot be created.
    pub fn open(dir: impl Into<PathBuf>) -> Result<Self, CoreError> {
        let dir = dir.into();
        fs::create_dir_all(&dir).map_err(|e| CoreError::Checkpoint {
            what: format!("create {}: {e}", dir.display()),
        })?;
        Ok(CheckpointStore {
            dir,
            nonce: AtomicUsize::new(0),
            quarantined: AtomicUsize::new(0),
        })
    }

    /// The store directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    fn entry_path(&self, fp: &Fingerprint) -> PathBuf {
        self.dir.join(format!("{}.ckpt.json", fp.hex()))
    }

    fn unique_suffix(&self) -> String {
        format!("{}-{}", std::process::id(), self.nonce.fetch_add(1, Ordering::Relaxed))
    }

    /// Fast presence probe: does a checkpoint file exist for `fp`?
    /// Existence only — validation happens in [`CheckpointStore::lookup`].
    pub fn contains(&self, fp: &Fingerprint) -> bool {
        self.entry_path(fp).exists()
    }

    /// Serves the latest snapshot for `fp`, or `None` on a miss.
    ///
    /// A file that exists but cannot be served — unparseable JSON, a
    /// foreign engine version, a fingerprint mismatch, or a content
    /// hash that does not match the re-encoded snapshot — is
    /// **quarantined** (moved aside into `quarantine/`) and reported as
    /// a miss, so corruption costs a cold start, never a wrong resume
    /// and never an abort.
    pub fn lookup(&self, fp: &Fingerprint) -> Option<Snapshot> {
        let path = self.entry_path(fp);
        let text = fs::read_to_string(&path).ok()?;
        if let Ok(entry) = serde_json::from_str::<CheckpointEntry>(&text) {
            if entry.engine_version == ENGINE_VERSION
                && entry.fingerprint == fp.hex()
                && serde_json::to_string(&entry.snapshot)
                    .is_ok_and(|body| content_hex(body.as_bytes()) == entry.content)
            {
                return Some(entry.snapshot);
            }
        }
        self.quarantine(&path);
        None
    }

    /// Moves an unserveable file into `quarantine/` (best-effort, like
    /// the catalog's).
    fn quarantine(&self, path: &Path) {
        let qdir = self.dir.join("quarantine");
        if fs::create_dir_all(&qdir).is_err() {
            return;
        }
        let name = path
            .file_name()
            .map(|n| n.to_string_lossy().into_owned())
            .unwrap_or_else(|| "entry".to_string());
        let dest = qdir.join(format!("{name}.{}", self.unique_suffix()));
        if fs::rename(path, dest).is_ok() {
            self.quarantined.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Files this handle has quarantined.
    pub fn quarantined(&self) -> usize {
        self.quarantined.load(Ordering::Relaxed)
    }

    /// Persists `snapshot` as the latest checkpoint for `fp`, with
    /// write-to-temp + atomic-rename discipline.  Replaces any previous
    /// checkpoint for the scenario; a crash mid-write leaves only a
    /// `*.tmp-*` file, which lookups never read and
    /// [`CheckpointStore::sweep_temps`] clears.
    ///
    /// # Errors
    ///
    /// Fails on I/O errors writing or renaming the entry.
    pub fn store(&self, fp: &Fingerprint, snapshot: &Snapshot) -> Result<(), CoreError> {
        let body = serde_json::to_string(snapshot).map_err(|e| CoreError::Checkpoint {
            what: format!("serialize snapshot: {e}"),
        })?;
        let entry = CheckpointEntry {
            engine_version: ENGINE_VERSION.to_string(),
            fingerprint: fp.hex(),
            content: content_hex(body.as_bytes()),
            cycle: snapshot.cycle,
            snapshot: snapshot.clone(),
        };
        let json = serde_json::to_string_pretty(&entry).map_err(|e| {
            CoreError::Checkpoint { what: format!("serialize entry: {e}") }
        })?;
        let final_path = self.entry_path(fp);
        let tmp = self
            .dir
            .join(format!("{}.ckpt.json.tmp-{}", fp.hex(), self.unique_suffix()));
        fs::write(&tmp, json).map_err(|e| CoreError::Checkpoint {
            what: format!("write {}: {e}", tmp.display()),
        })?;
        fs::rename(&tmp, &final_path).map_err(|e| CoreError::Checkpoint {
            what: format!("rename into {}: {e}", final_path.display()),
        })
    }

    /// Deletes the checkpoint for `fp`, if any; returns whether a file
    /// was removed.  Called once a scenario's final outcome reaches the
    /// result catalog — the resume point is then dead weight.
    pub fn remove(&self, fp: &Fingerprint) -> bool {
        fs::remove_file(self.entry_path(fp)).is_ok()
    }

    /// Number of checkpoint files currently in the store (quarantined
    /// and temp files excluded).
    pub fn len(&self) -> usize {
        let Ok(entries) = fs::read_dir(&self.dir) else {
            return 0;
        };
        entries
            .flatten()
            .filter(|e| {
                e.file_name().to_string_lossy().ends_with(".ckpt.json")
                    && e.file_type().is_ok_and(|t| t.is_file())
            })
            .count()
    }

    /// `true` when the store holds no checkpoints.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Removes abandoned `*.tmp-*` files (crashed writers), exactly
    /// like the catalog's sweep.  Returns how many were removed.
    pub fn sweep_temps(&self) -> usize {
        let Ok(entries) = fs::read_dir(&self.dir) else {
            return 0;
        };
        let mut removed = 0;
        for entry in entries.flatten() {
            let name = entry.file_name().to_string_lossy().into_owned();
            if name.contains(".ckpt.json.tmp-") && fs::remove_file(entry.path()).is_ok() {
                removed += 1;
            }
        }
        removed
    }
}

impl MultichipSystem {
    /// Captures a [`Snapshot`] at the current iteration boundary: the
    /// engine clock as the resume cursor plus the complete
    /// [`SystemState`].
    pub fn snapshot(&self) -> Snapshot {
        Snapshot { cycle: self.network().now(), state: self.state() }
    }

    /// Reinstates `snapshot` on a freshly built system with the same
    /// [`crate::SystemConfig`], after which
    /// [`MultichipSystem::run_from`] at `snapshot.cycle` continues the
    /// interrupted run bit-for-bit.
    ///
    /// # Errors
    ///
    /// [`CoreError::Checkpoint`] when the snapshot's shape does not
    /// match this system, or its recorded cursor disagrees with the
    /// restored engine clock (the run-loop invariant `cursor ==
    /// Network::now` must hold at every boundary).
    pub fn restore(&mut self, snapshot: &Snapshot) -> Result<(), CoreError> {
        self.restore_state(&snapshot.state)?;
        let now = self.network().now();
        if now != snapshot.cycle {
            return Err(CoreError::Checkpoint {
                what: format!(
                    "snapshot cursor {} disagrees with restored engine clock {now}",
                    snapshot.cycle
                ),
            });
        }
        Ok(())
    }
}

/// Drives `system` through its run loop with periodic checkpointing
/// against `store`, resuming from the scenario's latest snapshot if one
/// is serveable.
///
/// * With `system.config().checkpoint_every == n > 0`, a snapshot is
///   persisted at the first iteration boundary at or past each
///   `n`-cycle mark (fast-forward can jump several marks at once — one
///   snapshot covers them all).  `0` checkpoints nothing, making this a
///   plain resumable run.
/// * `kill_at: Some(k)` simulates a crash: the loop stops *before* the
///   first iteration at cursor ≥ `k` and returns `Ok(None)`, leaving
///   whatever checkpoints were already persisted.  A later call with
///   `kill_at: None` picks up from the latest one and returns the
///   outcome — bit-identical to a run that was never killed.
///
/// The final outcome is **not** written here; callers
/// ([`crate::sweeps::ScenarioGrid::run_cached_resumable`]) store it in
/// the result catalog and then [`CheckpointStore::remove`] the spent
/// checkpoint.
///
/// # Errors
///
/// Propagates run errors ([`CoreError::Stalled`]), restore shape
/// mismatches and store I/O failures.
pub fn run_with_checkpoints(
    system: &mut MultichipSystem,
    workload: &mut dyn Workload,
    store: &CheckpointStore,
    fp: &Fingerprint,
    kill_at: Option<u64>,
) -> Result<Option<RunOutcome>, CoreError> {
    let every = system.config().checkpoint_every;
    let total = system.run_total_cycles();
    let mut cycle = 0u64;
    if let Some(snapshot) = store.lookup(fp) {
        system.restore(&snapshot)?;
        cycle = snapshot.cycle;
    }
    let mut next_mark = cycle.checked_div(every).map_or(u64::MAX, |q| (q + 1) * every);
    while cycle < total {
        if kill_at.is_some_and(|k| cycle >= k) {
            return Ok(None);
        }
        cycle = system.run_iteration(workload, cycle)?;
        if cycle >= next_mark && cycle < total {
            store.store(fp, &system.snapshot())?;
            next_mark = (cycle / every + 1) * every;
        }
    }
    Ok(Some(system.collect_outcome(workload.name())))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::system::SystemConfig;
    use wimnet_topology::Architecture;
    use wimnet_traffic::{InjectionProcess, UniformRandom};

    fn test_dir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir()
            .join(format!("wimnet-checkpoint-unit-{}-{name}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn quick() -> SystemConfig {
        SystemConfig::xcym(2, 2, Architecture::Wireless).quick_test_profile()
    }

    fn uniform(cfg: &SystemConfig, rate: f64) -> UniformRandom {
        UniformRandom::new(
            cfg.multichip.total_cores(),
            cfg.multichip.num_stacks,
            0.2,
            InjectionProcess::Bernoulli { rate },
            cfg.packet_flits,
            cfg.seed,
        )
        .with_memory_reads(0.5, 8)
    }

    fn sample_fp(seed: u64) -> Fingerprint {
        use crate::experiments::Scale;
        use crate::sweeps::ScenarioGrid;
        let grid = ScenarioGrid::new("ckpt-unit").seeds(&[seed]);
        crate::catalog::fingerprint(&grid.points()[0], Scale::Quick, 0.0)
    }

    #[test]
    fn store_roundtrips_and_replaces() {
        let store = CheckpointStore::open(test_dir("roundtrip")).unwrap();
        let fp = sample_fp(1);
        assert!(store.is_empty());
        assert!(!store.contains(&fp));
        assert!(store.lookup(&fp).is_none());
        // A pre-lookup miss on a nonexistent file quarantines nothing.
        assert_eq!(store.quarantined(), 0);

        let cfg = quick();
        let mut sys = MultichipSystem::build(&cfg).unwrap();
        let mut w = uniform(&cfg, 0.01);
        let cursor = sys.run_until(&mut w, 0, 200).unwrap();
        let snap = sys.snapshot();
        assert_eq!(snap.cycle, cursor);
        store.store(&fp, &snap).unwrap();
        assert!(store.contains(&fp));
        assert_eq!(store.len(), 1);

        let served = store.lookup(&fp).expect("fresh checkpoint must serve");
        assert_eq!(served.cycle, cursor);
        // Replacement: a later snapshot overwrites in place.
        let cursor = sys.run_until(&mut w, cursor, 400).unwrap();
        store.store(&fp, &sys.snapshot()).unwrap();
        assert_eq!(store.len(), 1);
        assert_eq!(store.lookup(&fp).unwrap().cycle, cursor);
        // Removal after the outcome lands in the catalog.
        assert!(store.remove(&fp));
        assert!(!store.remove(&fp));
        assert!(store.is_empty());
    }

    #[test]
    fn corrupt_entries_are_quarantined_not_served() {
        let store = CheckpointStore::open(test_dir("corrupt")).unwrap();
        let cfg = quick();
        let mut sys = MultichipSystem::build(&cfg).unwrap();
        let mut w = uniform(&cfg, 0.01);
        sys.run_until(&mut w, 0, 150).unwrap();
        let snap = sys.snapshot();

        // Unparseable JSON.
        let fp = sample_fp(2);
        store.store(&fp, &snap).unwrap();
        fs::write(store.dir().join(format!("{}.ckpt.json", fp.hex())), "{ nope").unwrap();
        assert!(store.lookup(&fp).is_none());
        assert_eq!(store.quarantined(), 1);

        // Foreign engine version.
        let fp = sample_fp(3);
        store.store(&fp, &snap).unwrap();
        let path = store.dir().join(format!("{}.ckpt.json", fp.hex()));
        let doctored = fs::read_to_string(&path)
            .unwrap()
            .replace(ENGINE_VERSION, "wimnet-engine-v0");
        fs::write(&path, doctored).unwrap();
        assert!(store.lookup(&fp).is_none());
        assert_eq!(store.quarantined(), 2);

        // Content hash mismatch: flip a digit of the recorded hash.
        let fp = sample_fp(4);
        store.store(&fp, &snap).unwrap();
        let path = store.dir().join(format!("{}.ckpt.json", fp.hex()));
        let text = fs::read_to_string(&path).unwrap();
        let entry: CheckpointEntry = serde_json::from_str(&text).unwrap();
        let flipped = if entry.content.starts_with('0') {
            format!("1{}", &entry.content[1..])
        } else {
            format!("0{}", &entry.content[1..])
        };
        fs::write(&path, text.replacen(&entry.content, &flipped, 1)).unwrap();
        assert!(store.lookup(&fp).is_none());
        assert_eq!(store.quarantined(), 3);

        // Every quarantined file is preserved for forensics.
        let qdir = store.dir().join("quarantine");
        assert_eq!(fs::read_dir(&qdir).unwrap().count(), 3);
        assert!(store.is_empty());
    }

    #[test]
    fn sweep_temps_clears_crashed_writers() {
        let store = CheckpointStore::open(test_dir("temps")).unwrap();
        let fp = sample_fp(5);
        let debris = store
            .dir()
            .join(format!("{}.ckpt.json.tmp-999-0", fp.hex()));
        fs::write(&debris, "torn").unwrap();
        assert_eq!(store.len(), 0, "temps are not entries");
        assert_eq!(store.sweep_temps(), 1);
        assert!(!debris.exists());
    }

    #[test]
    fn kill_and_resume_equals_uninterrupted() {
        let cfg = quick();
        let fp = sample_fp(6);
        let store = CheckpointStore::open(test_dir("kill-resume")).unwrap();

        let mut reference_sys = MultichipSystem::build(&cfg).unwrap();
        let mut w = uniform(&cfg, 0.01);
        let reference = reference_sys.run(&mut w).unwrap();

        let mut cfg_ck = cfg.clone();
        cfg_ck.checkpoint_every = 128;
        let mut sys = MultichipSystem::build(&cfg_ck).unwrap();
        let mut w = uniform(&cfg, 0.01);
        let killed =
            run_with_checkpoints(&mut sys, &mut w, &store, &fp, Some(700)).unwrap();
        assert!(killed.is_none(), "the kill must interrupt the run");
        assert!(store.contains(&fp), "a checkpoint must have been left behind");

        let mut sys = MultichipSystem::build(&cfg_ck).unwrap();
        let mut w = uniform(&cfg, 0.01);
        let resumed = run_with_checkpoints(&mut sys, &mut w, &store, &fp, None)
            .unwrap()
            .expect("no kill: the resumed run must finish");
        assert_eq!(
            serde_json::to_string(&resumed).unwrap(),
            serde_json::to_string(&reference).unwrap(),
            "resume must be bit-identical to the uninterrupted run"
        );
    }

    #[test]
    fn restore_rejects_mismatched_shapes() {
        let cfg = quick();
        let mut sys = MultichipSystem::build(&cfg).unwrap();
        let mut w = uniform(&cfg, 0.01);
        sys.run_until(&mut w, 0, 100).unwrap();
        let snap = sys.snapshot();

        // Different scale: controller/switch counts differ.
        let other = SystemConfig::xcym(4, 4, Architecture::Wireless).quick_test_profile();
        let mut other_sys = MultichipSystem::build(&other).unwrap();
        assert!(matches!(
            other_sys.restore(&snap),
            Err(CoreError::Checkpoint { .. })
        ));

        // Different MAC model on the same scale: the medium refuses its
        // foreign state and the restore fails cleanly.
        let mut cfg_mac = quick();
        cfg_mac.wireless = crate::system::WirelessModel::SharedChannel {
            mac: crate::system::MacKind::Token,
        };
        let mut mac_sys = MultichipSystem::build(&cfg_mac).unwrap();
        assert!(matches!(
            mac_sys.restore(&snap),
            Err(CoreError::Checkpoint { .. })
        ));
    }
}
