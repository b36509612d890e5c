//! The untraced run: end-to-end metrics, timed around whole public
//! calls only (`MultichipSystem::build`, `Experiment::run`, the cached
//! sweep entry points).
//!
//! The host's speed drifts over seconds, so every timing is sampled
//! throughout the run and reported as a median: set-up builds ride
//! along with every round instead of running in one burst.

use std::time::Instant;

use wimnet_core::{Catalog, CheckpointStore, CoreError, MultichipSystem, RunOutcome};

use crate::check;
use crate::report::{mean, median, peak_rss_mb, ratio, secs, Report, WorkDir};
use crate::spec::{Kind, Point, Spec, SWEEP_KILL_AT};

/// Rounds every run makes however short `--seconds` is.
const MIN_ROUNDS: usize = 3;

/// Simulated cycles per pass: every point's warmup plus measurement
/// window, stepped or fast-forwarded.
pub fn sim_cycles(points: &[Point]) -> u64 {
    points
        .iter()
        .map(|p| p.experiment.config().warmup_cycles + p.experiment.config().measure_cycles)
        .sum()
}

/// How many of `got` differ from `want` (or are missing).
fn differing(want: &[RunOutcome], got: &[RunOutcome]) -> u64 {
    let same = want.iter().zip(got).filter(|(a, b)| a == b).count();
    (want.len() - same) as u64
}

/// Runs every point once with `Experiment::run`, in point order.
pub fn run_points(points: &[Point]) -> Result<Vec<RunOutcome>, CoreError> {
    points.iter().map(|p| p.experiment.run()).collect()
}

/// `true` while another round fits in `seconds` (judged by the last
/// one), or fewer than [`MIN_ROUNDS`] ran.
fn another_round(start: Instant, rounds: usize, last: f64, seconds: f64) -> bool {
    rounds < MIN_ROUNDS || secs(start.elapsed()) + last <= seconds
}

/// Host-time samples of one untraced run.
struct Samples {
    /// Per point: seconds of each `MultichipSystem::build`.
    setup: Vec<Vec<f64>>,
    /// Per point (`fig3_paper`) or per round
    /// (`sweep_resume`): seconds of each run of the point or round.
    compute: Vec<Vec<f64>>,
}

impl Samples {
    fn new(points: usize, compute_rows: usize) -> Samples {
        Samples {
            setup: vec![Vec::new(); points],
            compute: vec![Vec::new(); compute_rows],
        }
    }

    /// Times one build of every point's system.
    fn setup_pass(&mut self, points: &[Point]) -> Result<(), CoreError> {
        for (p, samples) in points.iter().zip(&mut self.setup) {
            let t = Instant::now();
            let system = MultichipSystem::build(p.experiment.config())?;
            samples.push(secs(t.elapsed()));
            drop(std::hint::black_box(system));
        }
        Ok(())
    }

    /// Sum over rows of each row's median.
    fn median_sum(rows: &[Vec<f64>]) -> f64 {
        rows.iter().map(|r| median(r)).sum()
    }
}

pub fn run(spec: &Spec, seconds: f64, work: &WorkDir) -> Result<Report, CoreError> {
    let points = spec.points();
    let expected = check::expected(spec);
    let mut report = Report::default();
    let (outcomes, samples) = match spec.kind {
        Kind::Fig3Paper => solo(spec, &points, expected.as_deref(), seconds, &mut report)?,
        Kind::SweepResume => campaign(
            spec,
            &points,
            expected.as_deref(),
            seconds,
            work,
            &mut report,
        )?,
    };
    let wall_s = Samples::median_sum(&samples.compute);
    report.push("setup_s", Samples::median_sum(&samples.setup), "s");
    report.push("wall_s", wall_s, "s");
    report.push(
        "sim_cycles_per_s",
        sim_cycles(&points) as f64 / wall_s,
        "cycles/s",
    );
    report.push("points_per_s", points.len() as f64 / wall_s, "1/s");
    report.push("peak_rss_mb", peak_rss_mb(), "MiB");
    push_sim(&mut report, &outcomes);
    Ok(report)
}

/// The modelled design's three quantities over the workload's
/// points: latency and energy per delivered window packet (each
/// point's mean weighted by its window packets), bandwidth per core
/// meaned over points.
fn push_sim(report: &mut Report, outcomes: &[RunOutcome]) {
    let per_packet = |f: fn(&RunOutcome) -> Option<f64>| {
        let (sum, packets) = outcomes.iter().fold((0.0, 0u64), |(s, n), o| match f(o) {
            Some(v) => (s + v * o.window_packets as f64, n + o.window_packets),
            None => (s, n),
        });
        ratio(sum, packets as f64)
    };
    report.push(
        "sim_latency_cycles",
        per_packet(|o| o.avg_latency_cycles),
        "cycles",
    );
    report.push(
        "sim_packet_energy_nj",
        per_packet(|o| o.avg_packet_energy_nj),
        "nJ",
    );
    report.push(
        "sim_bw_gbps_per_core",
        mean(outcomes.iter().map(|o| o.bandwidth_gbps_per_core)),
        "Gbps",
    );
}

/// `fig3_paper`: rounds of solo `Experiment::run` on this thread, timed
/// per point.  The first round only warms up: its outcomes are checked,
/// its times dropped.
fn solo(
    spec: &Spec,
    points: &[Point],
    expected: Option<&[String]>,
    seconds: f64,
    report: &mut Report,
) -> Result<(Vec<RunOutcome>, Samples), CoreError> {
    let mut samples = Samples::new(points.len(), points.len());
    let mut first: Option<Vec<RunOutcome>> = None;
    let (start, mut rounds, mut last) = (Instant::now(), 0, 0.0);
    while another_round(start, rounds, last, seconds) {
        let round = Instant::now();
        let warmup = rounds == 0;
        if !warmup {
            samples.setup_pass(points)?;
        }
        let mut outcomes = Vec::with_capacity(points.len());
        for (p, times) in points.iter().zip(&mut samples.compute) {
            let t = Instant::now();
            outcomes.push(p.experiment.run()?);
            if !warmup {
                times.push(secs(t.elapsed()));
            }
        }
        report.tally(
            points.len() as u64,
            check::mismatches(expected, &outcomes, spec.kind.name()),
        );
        first.get_or_insert(outcomes);
        rounds += 1;
        last = secs(round.elapsed());
        eprintln!("{} round {rounds}: {last:.4} s", spec.kind.name());
    }
    Ok((first.expect("at least one round ran"), samples))
}

/// `sweep_resume`: rounds of a killed, resumed and warm-fetched
/// checkpointed campaign on fresh stores, checked against one uncached
/// run.
fn campaign(
    spec: &Spec,
    points: &[Point],
    expected: Option<&[String]>,
    seconds: f64,
    work: &WorkDir,
    report: &mut Report,
) -> Result<(Vec<RunOutcome>, Samples), CoreError> {
    let grid = &spec.grid;
    let n = grid.len() as u64;
    let uncached = grid.run_with(spec.threads, 1)?;
    report.tally(
        n,
        check::mismatches(expected, &uncached, "sweep_resume uncached"),
    );

    let mut samples = Samples::new(points.len(), 1);
    let (start, mut rounds, mut last) = (Instant::now(), 0, 0.0);
    while another_round(start, rounds, last, seconds) {
        let round = Instant::now();
        samples.setup_pass(points)?;
        let dir = work.fresh("campaign");
        let catalog = Catalog::open(dir.join("catalog"))?;
        let checkpoints = CheckpointStore::open(dir.join("checkpoints"))?;

        let t = Instant::now();
        let kill = Some(SWEEP_KILL_AT);
        let cold = grid.run_cached_resumable(&catalog, &checkpoints, spec.threads, 1, kill)?;
        let snapshots = checkpoints.len() as u64;
        let resumed = grid.run_cached_resumable(&catalog, &checkpoints, spec.threads, 1, None)?;
        let fetched = grid.run_cached(&catalog, spec.threads, 1)?;
        samples.compute[0].push(secs(t.elapsed()));

        // The cold phase must stop points mid-window with a snapshot on
        // disk (a point whose fast-forward jump carries it past the kill
        // cycle to the end of its window finishes there and goes to the
        // catalog); the resume must finish every stopped point from its
        // snapshot and leave no checkpoint behind; the warm fetch must
        // hit on every point and serve the resumed vector.
        let killed = cold.pending as u64;
        let shape_ok = cold.hits == 0
            && killed > 0
            && cold.misses as u64 + killed == n
            && snapshots == killed
            && resumed.hits as u64 == n - killed
            && resumed.misses as u64 == killed
            && resumed.is_complete()
            && fetched.hits as u64 == n
            && fetched.outcomes == resumed.outcomes
            && checkpoints.is_empty()
            && catalog.quarantined() == 0
            && checkpoints.quarantined() == 0;
        if !shape_ok {
            eprintln!(
                "sweep_resume: cold hits {} finished {} killed {killed} snapshots {snapshots} \
                 resumed hits {} misses {} fetch hits {} checkpoints left {} quarantined {}+{}",
                cold.hits,
                cold.misses,
                resumed.hits,
                resumed.misses,
                fetched.hits,
                checkpoints.len(),
                catalog.quarantined(),
                checkpoints.quarantined()
            );
        }
        let bad = if shape_ok {
            differing(&uncached, &resumed.outcomes)
        } else {
            n
        };
        report.tally(n, bad);
        rounds += 1;
        last = secs(round.elapsed());
        eprintln!("sweep_resume round {rounds}: {last:.4} s");
    }
    Ok((uncached, samples))
}
