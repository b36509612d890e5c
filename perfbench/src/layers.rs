//! The traced run: per-layer metrics, timed from outside around the
//! public calls into each layer.
//!
//! The simulation layers are timed by driving
//! `MultichipSystem::run_until` one iteration at a time with the real
//! generator behind a timing [`Workload`] wrapper; storage layers by
//! timing each catalog, checkpoint and `serde_json` call.  Every
//! outcome is checked against the untraced path's, bit for bit.

use std::cell::Cell;
use std::time::Instant;

use wimnet_core::sweeps::ScenarioGrid;
use wimnet_core::{
    Catalog, CheckpointStore, CoreError, Fingerprint, MultichipSystem, RunOutcome, Snapshot,
    SystemConfig, TelemetryConfig,
};
use wimnet_memory::{AccessKind, AddressMap, MemRequest, MemoryController};
use wimnet_noc::{Network, NocConfig, WirelessMode};
use wimnet_routing::Routes;
use wimnet_topology::MultichipLayout;
use wimnet_traffic::{AddressStream, TrafficEvent, UniformRandom, Workload};

use crate::check::{self, Fingerprint as OutcomeFingerprint};
use crate::measure::{self, run_points};
use crate::report::{dir_bytes, mean, median, ns_since, ratio, secs, Report, WorkDir};
use crate::spec::{generator, Kind, Point, Spec, SWEEP_KILL_AT};

/// Requests behind each `memory.ns_per_request` sample.
const MEMORY_PROBE_REQUESTS: u64 = 20_000;

/// The real generator behind a stopwatch.
struct Timed {
    inner: UniformRandom,
    generate_ns: u64,
    events: u64,
    next_ns: Cell<u64>,
    next_calls: Cell<u64>,
}

impl Timed {
    fn new(inner: UniformRandom) -> Timed {
        Timed {
            inner,
            generate_ns: 0,
            events: 0,
            next_ns: Cell::new(0),
            next_calls: Cell::new(0),
        }
    }

    /// Host time spent inside the generator so far.
    fn inside_ns(&self) -> u64 {
        self.generate_ns + self.next_ns.get()
    }
}

impl Workload for Timed {
    fn generate(&mut self, now: u64) -> Vec<TrafficEvent> {
        let t = Instant::now();
        let events = self.inner.generate(now);
        self.generate_ns += ns_since(t);
        self.events += events.len() as u64;
        events
    }

    fn name(&self) -> &str {
        self.inner.name()
    }

    fn shape(&self) -> (usize, usize) {
        self.inner.shape()
    }

    fn next_event_at(&self, now: u64) -> Option<u64> {
        let t = Instant::now();
        let next = self.inner.next_event_at(now);
        self.next_ns.set(self.next_ns.get() + ns_since(t));
        self.next_calls.set(self.next_calls.get() + 1);
        next
    }
}

/// Per-call samples of the storage layers (nanoseconds).
#[derive(Default)]
struct Storage {
    snapshot: Vec<u64>,
    checkpoint_store: Vec<u64>,
    checkpoint_lookup: Vec<u64>,
    restore: Vec<u64>,
    checkpoint_remove: Vec<u64>,
    catalog_store: Vec<u64>,
    catalog_lookup: Vec<u64>,
    encode: Vec<u64>,
    decode: Vec<u64>,
    /// (bytes, files) of the stores once they are full.
    checkpoint_files: (u64, u64),
    catalog_files: (u64, u64),
}

impl Storage {
    fn total_ns(&self) -> u64 {
        [
            &self.snapshot,
            &self.checkpoint_store,
            &self.checkpoint_lookup,
            &self.restore,
            &self.checkpoint_remove,
            &self.catalog_store,
            &self.catalog_lookup,
        ]
        .iter()
        .map(|v| v.iter().sum::<u64>())
        .sum()
    }
}

/// Self times (nanoseconds) and counts of one traced pass over a
/// workload's points.
#[derive(Default)]
struct Round {
    wall_ns: u64,
    /// `MultichipSystem::build` plus generator construction.
    build_ns: u64,
    /// Outcome collection (`run_from` at the end cursor).
    collect_ns: u64,
    generate_ns: u64,
    events: u64,
    next_ns: u64,
    next_calls: u64,
    stepped_iters: u64,
    stepped_ns: u64,
    ff_jumps: u64,
    ff_cycles: u64,
    ff_ns: u64,
    /// Generated events the systems accepted as packets.
    injected: u64,
    flits_delivered: u64,
    /// Storage calls inside the round (the campaign's own stores).
    storage: Storage,
}

impl Round {
    fn absorb_workload(&mut self, w: &Timed) {
        self.generate_ns += w.generate_ns;
        self.events += w.events;
        self.next_ns += w.next_ns.get();
        self.next_calls += w.next_calls.get();
    }

    fn absorb_system(&mut self, sys: &MultichipSystem) {
        let stats = sys.network().stats();
        self.injected += stats.packets_injected() - sys.replies_injected();
        self.flits_delivered += stats.flits_delivered();
    }

    /// Sum of every layer's self time in the round.
    fn layer_sum_ns(&self) -> u64 {
        self.build_ns
            + self.collect_ns
            + self.generate_ns
            + self.next_ns
            + self.stepped_ns
            + self.ff_ns
            + self.storage.total_ns()
    }
}

fn total_cycles(config: &SystemConfig) -> u64 {
    config.warmup_cycles + config.measure_cycles
}

/// Advances the run loop from `cycle` to the first cursor at or past
/// `stop` (`stop` ≤ the end of the window), one iteration per call.
/// An iteration that advanced one cycle counts as stepped; one that
/// jumped counts as fast-forward.  The generator's own time is taken
/// out of both.
fn drive(
    sys: &mut MultichipSystem,
    w: &mut Timed,
    mut cycle: u64,
    stop: u64,
    r: &mut Round,
) -> Result<u64, CoreError> {
    while cycle < stop {
        let inside = w.inside_ns();
        let t = Instant::now();
        let next = sys.run_until(w, cycle, cycle + 1)?;
        let ns = ns_since(t).saturating_sub(w.inside_ns() - inside);
        if next == cycle + 1 {
            r.stepped_iters += 1;
            r.stepped_ns += ns;
        } else if next > cycle {
            r.ff_jumps += 1;
            r.ff_cycles += next - cycle - 1;
            r.ff_ns += ns;
        } else {
            break;
        }
        cycle = next;
    }
    Ok(cycle)
}

/// [`drive`] with the checkpoint cadence of
/// `wimnet_core::run_with_checkpoints`: a snapshot at the first
/// boundary at or past each mark, and a simulated crash before the
/// first iteration at or past `kill_at`.  Returns the final cursor.
fn drive_checkpointed(
    sys: &mut MultichipSystem,
    w: &mut Timed,
    mut cycle: u64,
    kill_at: Option<u64>,
    store: &CheckpointStore,
    fp: &Fingerprint,
    r: &mut Round,
) -> Result<u64, CoreError> {
    let every = sys.config().checkpoint_every;
    let total = total_cycles(sys.config());
    let mut next_mark = cycle
        .checked_div(every)
        .map_or(u64::MAX, |q| (q + 1) * every);
    loop {
        let stop = next_mark.min(kill_at.unwrap_or(u64::MAX)).min(total);
        cycle = drive(sys, w, cycle, stop, r)?;
        if cycle >= next_mark && cycle < total {
            let t = Instant::now();
            let snapshot = sys.snapshot();
            r.storage.snapshot.push(ns_since(t));
            let t = Instant::now();
            store.store(fp, &snapshot)?;
            r.storage.checkpoint_store.push(ns_since(t));
            next_mark = (cycle / every + 1) * every;
        }
        if cycle >= total || kill_at.is_some_and(|k| cycle >= k) || cycle < stop {
            return Ok(cycle);
        }
    }
}

/// Builds a point's system and its timed generator.
fn build(
    spec: &Spec,
    p: &Point,
    config: &SystemConfig,
    r: &mut Round,
) -> Result<(MultichipSystem, Timed), CoreError> {
    let t = Instant::now();
    let sys = MultichipSystem::build(config)?;
    let w = Timed::new(generator(p, spec.read_share, sys.layout().home_stacks()));
    r.build_ns += ns_since(t);
    Ok((sys, w))
}

/// Fingerprint mismatches between two outcome vectors.
fn fp_differing(want: &[RunOutcome], got: &[RunOutcome]) -> u64 {
    let same = want
        .iter()
        .zip(got)
        .filter(|(a, b)| OutcomeFingerprint::of(a) == OutcomeFingerprint::of(b))
        .count();
    (want.len() - same) as u64
}

/// One instrumented pass of a solo workload.  With `probe`, each
/// finished system also goes through the storage layers (outside the
/// round's wall time).
fn solo_round(
    spec: &Spec,
    points: &[Point],
    probe: Option<(&Catalog, &CheckpointStore)>,
    storage: &mut Storage,
    report: &mut Report,
) -> Result<(Round, Vec<RunOutcome>), CoreError> {
    let mut r = Round::default();
    let mut outcomes = Vec::with_capacity(points.len());
    for p in points {
        let t = Instant::now();
        let (mut sys, mut w) = build(spec, p, p.experiment.config(), &mut r)?;
        let total = total_cycles(sys.config());
        drive(&mut sys, &mut w, 0, total, &mut r)?;
        let tc = Instant::now();
        let outcome = sys.run_from(&mut w, total)?;
        r.collect_ns += ns_since(tc);
        r.wall_ns += ns_since(t);
        r.absorb_workload(&w);
        r.absorb_system(&sys);
        if let Some((catalog, checkpoints)) = probe {
            let ok = probe_storage(&spec.grid, p, &sys, &outcome, catalog, checkpoints, storage)?;
            report.tally(1, u64::from(!ok));
        }
        outcomes.push(outcome);
    }
    if let Some((catalog, checkpoints)) = probe {
        storage.catalog_files = dir_bytes(catalog.dir());
        storage.checkpoint_files = dir_bytes(checkpoints.dir());
    }
    Ok((r, outcomes))
}

/// Takes a finished system through snapshot → JSON → checkpoint store
/// → lookup → restore on a fresh build, and its outcome through the
/// catalog.  `true` when the restored system re-encodes to the same
/// JSON and the catalog serves the outcome back unchanged.
fn probe_storage(
    grid: &ScenarioGrid,
    p: &Point,
    sys: &MultichipSystem,
    outcome: &RunOutcome,
    catalog: &Catalog,
    checkpoints: &CheckpointStore,
    s: &mut Storage,
) -> Result<bool, CoreError> {
    let fp = grid.point_fingerprint(&p.point);
    let t = Instant::now();
    let snapshot = sys.snapshot();
    s.snapshot.push(ns_since(t));
    let json = encode_decode(&snapshot, s);
    let t = Instant::now();
    checkpoints.store(&fp, &snapshot)?;
    s.checkpoint_store.push(ns_since(t));
    let t = Instant::now();
    let served = checkpoints.lookup(&fp);
    s.checkpoint_lookup.push(ns_since(t));
    let mut restored = MultichipSystem::build(p.experiment.config())?;
    let mut ok = false;
    if let Some(served) = served {
        let t = Instant::now();
        restored.restore(&served)?;
        s.restore.push(ns_since(t));
        ok = serde_json::to_string(&restored.snapshot()).ok() == json;
    }
    let t = Instant::now();
    catalog.store(&fp, &p.point, outcome)?;
    s.catalog_store.push(ns_since(t));
    let t = Instant::now();
    let fetched = catalog.lookup(&fp);
    s.catalog_lookup.push(ns_since(t));
    Ok(ok && fetched.as_ref() == Some(outcome))
}

/// Times one `serde_json` encode and decode of `snapshot`; returns the
/// encoding when the decoded snapshot re-encodes to the same text.
fn encode_decode(snapshot: &Snapshot, s: &mut Storage) -> Option<String> {
    let t = Instant::now();
    let json = serde_json::to_string(snapshot).ok()?;
    s.encode.push(ns_since(t));
    let t = Instant::now();
    let back: Snapshot = serde_json::from_str(&json).ok()?;
    s.decode.push(ns_since(t));
    (serde_json::to_string(&back).ok()? == json).then_some(json)
}

/// One traced pass of the `sweep_resume` campaign, on this thread:
/// cold runs killed mid-window with cadence snapshots, resumes from
/// the stored snapshots into the catalog, then a warm catalog fetch.
/// As in `run_cached_resumable`, a point whose fast-forward jump
/// carries it past the kill cycle to the end of its window finishes in
/// the cold phase and goes straight to the catalog.
fn campaign_round(
    spec: &Spec,
    points: &[Point],
    work: &WorkDir,
    report: &mut Report,
) -> Result<(Round, Vec<RunOutcome>), CoreError> {
    let grid = &spec.grid;
    let dir = work.fresh("traced-campaign");
    let catalog = Catalog::open(dir.join("catalog"))?;
    let checkpoints = CheckpointStore::open(dir.join("checkpoints"))?;
    let fps: Vec<Fingerprint> = points
        .iter()
        .map(|p| grid.point_fingerprint(&p.point))
        .collect();
    let mut r = Round::default();
    let start = Instant::now();

    // Stores a finished point's outcome and retires its checkpoint.
    let finish = |sys: &mut MultichipSystem,
                  w: &mut Timed,
                  end: u64,
                  p: &Point,
                  fp: &Fingerprint,
                  r: &mut Round|
     -> Result<RunOutcome, CoreError> {
        let t = Instant::now();
        let outcome = sys.run_from(w, end)?;
        r.collect_ns += ns_since(t);
        let t = Instant::now();
        catalog.store(fp, &p.point, &outcome)?;
        r.storage.catalog_store.push(ns_since(t));
        let t = Instant::now();
        checkpoints.remove(fp);
        r.storage.checkpoint_remove.push(ns_since(t));
        r.absorb_workload(w);
        r.absorb_system(sys);
        Ok(outcome)
    };

    let mut cold = Vec::with_capacity(points.len());
    for (p, fp) in points.iter().zip(&fps) {
        let (mut sys, mut w) = build(spec, p, p.experiment.config(), &mut r)?;
        let end = drive_checkpointed(
            &mut sys,
            &mut w,
            0,
            Some(SWEEP_KILL_AT),
            &checkpoints,
            fp,
            &mut r,
        )?;
        if end >= total_cycles(sys.config()) {
            cold.push(Some(finish(&mut sys, &mut w, end, p, fp, &mut r)?));
        } else {
            r.absorb_workload(&w);
            cold.push(None);
        }
    }
    r.storage.checkpoint_files = dir_bytes(checkpoints.dir());

    let mut outcomes = Vec::with_capacity(points.len());
    let mut resumed = Vec::with_capacity(points.len());
    let mut failed = u64::from(cold.iter().all(Option::is_some));
    for ((p, fp), done) in points.iter().zip(&fps).zip(cold) {
        if let Some(outcome) = done {
            outcomes.push(outcome);
            continue;
        }
        let (mut sys, mut w) = build(spec, p, p.experiment.config(), &mut r)?;
        let t = Instant::now();
        let served = checkpoints.lookup(fp);
        r.storage.checkpoint_lookup.push(ns_since(t));
        let mut from = 0;
        match served {
            Some(snapshot) => {
                let t = Instant::now();
                sys.restore(&snapshot)?;
                r.storage.restore.push(ns_since(t));
                from = snapshot.cycle;
                resumed.push(snapshot);
            }
            None => failed += 1,
        }
        let end = drive_checkpointed(&mut sys, &mut w, from, None, &checkpoints, fp, &mut r)?;
        outcomes.push(finish(&mut sys, &mut w, end, p, fp, &mut r)?);
    }

    for (fp, want) in fps.iter().zip(&outcomes) {
        let t = Instant::now();
        let fetched = catalog.lookup(fp);
        r.storage.catalog_lookup.push(ns_since(t));
        failed += u64::from(fetched.as_ref() != Some(want));
    }
    r.wall_ns = ns_since(start);
    r.storage.catalog_files = dir_bytes(catalog.dir());
    if !checkpoints.is_empty() || catalog.quarantined() + checkpoints.quarantined() > 0 {
        failed += points.len() as u64;
    }

    // serde_json on the snapshots the resumes started from, outside
    // the campaign's wall time.
    for snapshot in &resumed {
        failed += u64::from(encode_decode(snapshot, &mut r.storage).is_none());
    }
    report.tally(points.len() as u64, failed.min(points.len() as u64));
    Ok((r, outcomes))
}

/// The same campaign through the public sweep API on one thread: the
/// untraced baseline of the traced campaign.
fn campaign_untraced(spec: &Spec, work: &WorkDir) -> Result<(f64, Vec<RunOutcome>), CoreError> {
    let grid = &spec.grid;
    let dir = work.fresh("campaign");
    let catalog = Catalog::open(dir.join("catalog"))?;
    let checkpoints = CheckpointStore::open(dir.join("checkpoints"))?;
    let t = Instant::now();
    grid.run_cached_resumable(&catalog, &checkpoints, 1, 1, Some(SWEEP_KILL_AT))?;
    let resumed = grid.run_cached_resumable(&catalog, &checkpoints, 1, 1, None)?;
    let fetched = grid.run_cached(&catalog, 1, 1)?;
    let wall = secs(t.elapsed());
    // A fetch that disagrees with the resume fails every point.
    let outcomes = if fetched.outcomes == resumed.outcomes {
        resumed.outcomes
    } else {
        Vec::new()
    };
    Ok((wall, outcomes))
}

/// Every point once with telemetry counters on; (wall, outcomes).
fn counters_round(points: &[Point]) -> Result<(f64, Vec<RunOutcome>), CoreError> {
    let experiments: Vec<_> = points
        .iter()
        .map(|p| {
            let mut e = p.experiment.clone();
            e.config_mut().telemetry = TelemetryConfig::counters();
            e
        })
        .collect();
    let t = Instant::now();
    let outcomes = experiments
        .iter()
        .map(|e| e.run())
        .collect::<Result<Vec<_>, _>>()?;
    Ok((secs(t.elapsed()), outcomes))
}

/// Every point once with trace recording on; (simulation wall, export
/// seconds, outcomes, traces exported).
fn tracing_round(
    spec: &Spec,
    points: &[Point],
) -> Result<(f64, f64, Vec<RunOutcome>, u64), CoreError> {
    let (mut wall, mut export, mut exported) = (0.0, 0.0, 0);
    let mut outcomes = Vec::with_capacity(points.len());
    for p in points {
        let mut config = p.experiment.config().clone();
        config.telemetry = TelemetryConfig::tracing();
        let t = Instant::now();
        let mut sys = MultichipSystem::build(&config)?;
        let mut w = generator(p, spec.read_share, sys.layout().home_stacks());
        outcomes.push(sys.run(&mut w)?);
        wall += secs(t.elapsed());
        let t = Instant::now();
        let trace = sys.export_chrome_trace();
        export += secs(t.elapsed());
        exported += u64::from(trace.is_some_and(|s| !s.is_empty()));
    }
    Ok((wall, export, outcomes, exported))
}

/// The engine configuration `MultichipSystem::build` derives.
fn noc_config(config: &SystemConfig) -> NocConfig {
    let mut noc = NocConfig {
        vcs: config.vcs,
        buf_depth: config.buf_depth,
        flit_bits: config.flit_bits,
        radio_tx_depth: config.buf_depth,
        wireless_mode: match config.wireless {
            wimnet_core::WirelessModel::PointToPoint {
                flits_per_cycle,
                max_concurrent,
            } => WirelessMode::PointToPoint {
                rate: flits_per_cycle,
                latency: 1,
                max_concurrent,
            },
            _ => WirelessMode::Medium,
        },
        energy: config.energy.clone(),
    };
    if let wimnet_core::WirelessModel::SharedChannel {
        mac: wimnet_core::MacKind::Token,
    } = config.wireless
    {
        noc.radio_tx_depth = noc.radio_tx_depth.max(config.packet_flits as usize);
    }
    noc
}

/// Median seconds per pass to build every point's topology, routes
/// and engine: (topology, routing, noc).
fn build_layers(points: &[Point]) -> Result<(f64, f64, f64), CoreError> {
    let (mut topo, mut routing, mut noc) = (Vec::new(), Vec::new(), Vec::new());
    for _ in 0..5 {
        let (mut a, mut b, mut c) = (0, 0, 0);
        for p in points {
            let config = p.experiment.config();
            let t = Instant::now();
            let layout = MultichipLayout::build(&config.multichip)?;
            a += ns_since(t);
            let t = Instant::now();
            let routes = Routes::build(layout.graph(), config.routing)?;
            b += ns_since(t);
            let t = Instant::now();
            let net = Network::new(&layout, routes, noc_config(config))?;
            c += ns_since(t);
            drop(std::hint::black_box(net));
        }
        topo.push(a as f64 / 1e9);
        routing.push(b as f64 / 1e9);
        noc.push(c as f64 / 1e9);
    }
    Ok((median(&topo), median(&routing), median(&noc)))
}

/// Host nanoseconds per read driven through one memory controller on
/// its own: a closed loop that keeps the queues full, steps the
/// controller and jumps to its `next_event_at`.
fn memory_ns_per_request(config: &SystemConfig) -> f64 {
    let stacks = config.multichip.num_stacks;
    let map = AddressMap::new(
        stacks,
        config.stack.channels,
        config.stack.banks,
        config.stack.layers,
        64,
        2_048,
        16_384,
    );
    let stream = AddressStream::new(config.address_stream, config.seed, 0);
    let bytes = config.packet_flits * config.flit_bits / 8;
    let mut samples = Vec::new();
    for _ in 0..3 {
        let mut controller = MemoryController::new(0, config.stack.clone(), config.mem_controller);
        let (mut issued, mut done, mut now) = (0u64, 0u64, 0u64);
        let mut staged: Option<MemRequest> = None;
        let mut completions = Vec::new();
        let t = Instant::now();
        while done < MEMORY_PROBE_REQUESTS {
            loop {
                let req = match staged.take() {
                    Some(req) => req,
                    None if issued < MEMORY_PROBE_REQUESTS => {
                        let addr = stream.block(issued) * stacks as u64 * 64;
                        issued += 1;
                        MemRequest {
                            addr,
                            bytes,
                            kind: AccessKind::Read,
                            tag: issued,
                        }
                    }
                    None => break,
                };
                if let Err(req) = controller.enqueue(req, &map) {
                    staged = Some(req);
                    break;
                }
            }
            completions.clear();
            controller.step(now, &mut completions);
            done += completions.len() as u64;
            now = controller.next_event_at(now);
            if now == u64::MAX {
                break;
            }
        }
        samples.push(ns_since(t) as f64 / done.max(1) as f64);
    }
    median(&samples)
}

fn mean_s(samples: &[u64]) -> f64 {
    mean(samples.iter().map(|&ns| ns as f64 / 1e9))
}

fn median_of(rounds: &[Round], f: impl Fn(&Round) -> f64) -> f64 {
    median(&rounds.iter().map(f).collect::<Vec<_>>())
}

/// Host seconds of the comparison passes, one entry per iteration.
#[derive(Default)]
struct Walls {
    /// The untraced path the traced pass mirrors: solo runs, or the
    /// campaign through the sweep API on one thread.
    untraced: Vec<f64>,
    /// Plain solo runs of every point, the base of the telemetry ratios.
    plain: Vec<f64>,
    counters: Vec<f64>,
    tracing: Vec<f64>,
    export: Vec<f64>,
}

/// Everything the traced run measured.
struct Traced {
    rounds: Vec<Round>,
    walls: Walls,
    /// Storage-layer samples of the solo workloads' probe (the
    /// campaign keeps its own in its first round).
    probed: Storage,
    /// The untraced outcomes, in point order.
    outcomes: Vec<RunOutcome>,
    /// The counters-on outcomes, in point order.
    counted: Vec<RunOutcome>,
}

pub fn run(spec: &Spec, seconds: f64, work: &WorkDir) -> Result<Report, CoreError> {
    let points = spec.points();
    let n = points.len() as u64;
    let expected = check::expected(spec);
    let mut report = Report::default();
    let mut rounds = Vec::new();
    let mut walls = Walls::default();
    let mut probed = Storage::default();
    let probe_dir = work.fresh("probe");
    let probe_catalog = Catalog::open(probe_dir.join("catalog"))?;
    let probe_checkpoints = CheckpointStore::open(probe_dir.join("checkpoints"))?;
    let (mut baseline, mut counted) = (None, None);
    let (start, mut last) = (Instant::now(), 0.0);

    // Interleave the untraced, traced and telemetry passes over the
    // same points, so drift in the host affects all of them alike.
    // Iterate while another iteration fits in `seconds`.
    while rounds.is_empty() || secs(start.elapsed()) + last <= seconds {
        let iteration = Instant::now();
        let (untraced_wall, untraced) = match spec.kind {
            Kind::SweepResume => campaign_untraced(spec, work)?,
            _ => {
                let t = Instant::now();
                let outcomes = run_points(&points)?;
                (secs(t.elapsed()), outcomes)
            }
        };
        report.tally(
            n,
            check::mismatches(expected.as_deref(), &untraced, spec.kind.name()),
        );
        walls.untraced.push(untraced_wall);

        let (round, traced) = match spec.kind {
            Kind::SweepResume => campaign_round(spec, &points, work, &mut report)?,
            _ => {
                let probe = rounds
                    .is_empty()
                    .then_some((&probe_catalog, &probe_checkpoints));
                solo_round(spec, &points, probe, &mut probed, &mut report)?
            }
        };
        report.tally(n, fp_differing(&untraced, &traced));
        rounds.push(round);

        let plain_wall = match spec.kind {
            Kind::SweepResume => {
                let t = Instant::now();
                let outcomes = run_points(&points)?;
                report.tally(n, fp_differing(&untraced, &outcomes));
                secs(t.elapsed())
            }
            _ => untraced_wall,
        };
        walls.plain.push(plain_wall);
        let (counters_wall, counters) = counters_round(&points)?;
        report.tally(n, fp_differing(&untraced, &counters));
        walls.counters.push(counters_wall);
        let (tracing_wall, export_s, tracing, exported) = tracing_round(spec, &points)?;
        report.tally(n, fp_differing(&untraced, &tracing) + (n - exported));
        walls.tracing.push(tracing_wall);
        walls.export.push(export_s);

        counted.get_or_insert(counters);
        baseline.get_or_insert(untraced);
        last = secs(iteration.elapsed());
    }
    let traced = Traced {
        rounds,
        walls,
        probed,
        outcomes: baseline.expect("at least one pass ran"),
        counted: counted.expect("at least one pass ran"),
    };
    push_metrics(&mut report, spec, &points, &traced)?;
    Ok(report)
}

fn push_metrics(
    report: &mut Report,
    spec: &Spec,
    points: &[Point],
    t: &Traced,
) -> Result<(), CoreError> {
    let (rounds, outcomes, counted) = (&t.rounds, &t.outcomes, &t.counted);
    let storage = match spec.kind {
        Kind::SweepResume => &rounds[0].storage,
        _ => &t.probed,
    };
    let r = &rounds[0];
    let s = |ns: u64| ns as f64 / 1e9;
    let traced_wall = median_of(rounds, |r| s(r.wall_ns));

    report.push(
        "traffic.generate_s",
        median_of(rounds, |r| s(r.generate_ns)),
        "s",
    );
    report.push("traffic.events", r.events as f64, "count");
    report.push(
        "traffic.next_event_at_s",
        median_of(rounds, |r| s(r.next_ns)),
        "s",
    );
    report.push("traffic.next_event_at_calls", r.next_calls as f64, "count");

    let stepped_s = median_of(rounds, |r| s(r.stepped_ns));
    let ff_s = median_of(rounds, |r| s(r.ff_ns));
    report.push("system.stepped_iters", r.stepped_iters as f64, "count");
    report.push("system.stepped_s", stepped_s, "s");
    report.push(
        "system.ns_per_stepped_cycle",
        median_of(rounds, |r| {
            ratio(r.stepped_ns as f64, r.stepped_iters as f64)
        }),
        "ns",
    );
    report.push("system.ff_jumps", r.ff_jumps as f64, "count");
    report.push("system.ff_cycles", r.ff_cycles as f64, "count");
    report.push("system.ff_s", ff_s, "s");
    report.push(
        "system.ff_share",
        ratio(r.ff_cycles as f64, measure::sim_cycles(points) as f64),
        "ratio",
    );
    report.push(
        "system.inject_refused_ratio",
        ratio(r.events.saturating_sub(r.injected) as f64, r.events as f64),
        "ratio",
    );

    let telemetry = || counted.iter().filter_map(|o| o.telemetry.as_ref());
    let links = || telemetry().flat_map(|t| t.links.iter());
    let grants: u64 = telemetry()
        .flat_map(|t| &t.switches)
        .map(|c| c.grants)
        .sum();
    report.push("noc.flits_delivered", r.flits_delivered as f64, "count");
    report.push(
        "noc.link_flits",
        links().map(|l| l.flits).sum::<u64>() as f64,
        "count",
    );
    report.push(
        "noc.link_busy_cycles",
        links().map(|l| l.busy_cycles).sum::<u64>() as f64,
        "count",
    );
    report.push(
        "noc.credit_stalls",
        links().map(|l| l.credit_stalls).sum::<u64>() as f64,
        "count",
    );
    report.push("noc.switch_grants", grants as f64, "count");
    report.push(
        "system.ns_per_flit_hop",
        ratio(stepped_s * 1e9, grants as f64),
        "ns",
    );

    let macs = || telemetry().flat_map(|t| &t.macs);
    let turns: u64 = macs().map(|m| m.turns).sum();
    let passes: u64 = macs().map(|m| m.passes).sum();
    report.push("wireless.mac_turns", turns as f64, "count");
    report.push(
        "wireless.idle_turn_ratio",
        ratio(passes as f64, (turns + passes) as f64),
        "ratio",
    );
    report.push(
        "wireless.collisions",
        macs().map(|m| m.collisions).sum::<u64>() as f64,
        "count",
    );

    let stacks = || outcomes.iter().flat_map(|o| &o.memory);
    let requests: u64 = stacks().map(|m| m.accesses).sum();
    report.push("memory.requests", requests as f64, "count");
    report.push(
        "memory.busy_fraction",
        mean(stacks().map(|m| m.busy_fraction)),
        "ratio",
    );
    report.push(
        "memory.admit_stall_cycles",
        stacks().map(|m| m.admit_stall_cycles).sum::<u64>() as f64,
        "count",
    );
    report.push(
        "memory.page_hit_ratio",
        ratio(
            stacks().map(|m| m.page_hits).sum::<u64>() as f64,
            requests as f64,
        ),
        "ratio",
    );
    let memory_ns = if spec.read_share > 0.0 {
        memory_ns_per_request(points[0].experiment.config())
    } else {
        0.0
    };
    report.push("memory.ns_per_request", memory_ns, "ns");

    let ops: u64 = outcomes.iter().map(|o| o.meter_ops).sum();
    let charges: u64 = outcomes.iter().map(|o| o.meter_charges).sum();
    let saved: u64 = outcomes.iter().map(RunOutcome::meter_adds_saved).sum();
    report.push("energy.meter_ops", ops as f64, "count");
    report.push("energy.meter_charges", charges as f64, "count");
    report.push(
        "energy.adds_saved_ratio",
        ratio(saved as f64, charges as f64),
        "ratio",
    );

    let (topology_s, routing_s, noc_s) = build_layers(points)?;
    report.push("topology.build_s", topology_s, "s");
    report.push("routing.build_s", routing_s, "s");
    report.push("noc.new_s", noc_s, "s");

    let per_file = |(bytes, files): (u64, u64)| ratio(bytes as f64, files as f64);
    report.push("catalog.store_s", mean_s(&storage.catalog_store), "s");
    report.push("catalog.lookup_s", mean_s(&storage.catalog_lookup), "s");
    report.push(
        "catalog.entry_bytes",
        per_file(storage.catalog_files),
        "bytes",
    );
    report.push("checkpoint.snapshot_s", mean_s(&storage.snapshot), "s");
    report.push("checkpoint.store_s", mean_s(&storage.checkpoint_store), "s");
    report.push(
        "checkpoint.lookup_s",
        mean_s(&storage.checkpoint_lookup),
        "s",
    );
    report.push("checkpoint.restore_s", mean_s(&storage.restore), "s");
    report.push(
        "checkpoint.entry_bytes",
        per_file(storage.checkpoint_files),
        "bytes",
    );
    report.push("serde_json.encode_s", mean_s(&storage.encode), "s");
    report.push("serde_json.decode_s", mean_s(&storage.decode), "s");

    // Overheads pair passes of the same iteration, which ran next to
    // each other and so on the same host speed.
    let w = &t.walls;
    let per_iteration =
        |f: &dyn Fn(usize) -> f64| median(&(0..w.plain.len()).map(f).collect::<Vec<_>>());
    report.push(
        "telemetry.counters_overhead_ratio",
        per_iteration(&|i| w.counters[i] / w.plain[i] - 1.0),
        "ratio",
    );
    report.push(
        "telemetry.trace_overhead_ratio",
        per_iteration(&|i| w.tracing[i] / w.plain[i] - 1.0),
        "ratio",
    );
    report.push("telemetry.trace_export_s", median(&w.export), "s");

    report.push("trace.wall_s", traced_wall, "s");
    report.push("trace.untraced_wall_s", median(&w.untraced), "s");
    report.push(
        "trace.overhead_s",
        per_iteration(&|i| s(rounds[i].wall_ns) - w.untraced[i]),
        "s",
    );
    report.push(
        "trace.layer_sum_ratio",
        median_of(rounds, |r| ratio(r.layer_sum_ns() as f64, r.wall_ns as f64)),
        "ratio",
    );
    Ok(())
}
