//! The three workloads: which scenario points each one runs, on how
//! many threads, and how `--seed` picks its inputs.

use wimnet_core::sweeps::ScenarioGrid;
use wimnet_core::{Experiment, MacKind, Scale, ScenarioPoint, WirelessModel};
use wimnet_topology::Architecture;
use wimnet_traffic::{InjectionProcess, UniformRandom};

/// `--seed` selects one of this many recorded input sets (seed modulo
/// the count), so every run can be checked against `reference.json`.
pub const INPUT_SETS: u64 = 32;

/// Snapshot cadence and simulated crash cycle of the `sweep_resume`
/// campaign (quick scale: 300 warmup + 1 500 measured cycles).
const SWEEP_CHECKPOINT_EVERY: u64 = 300;
pub const SWEEP_KILL_AT: u64 = 900;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Fig3Paper,
    SweepResume,
}

impl Kind {
    pub const ALL: [Kind; 2] = [Kind::Fig3Paper, Kind::SweepResume];

    pub fn name(self) -> &'static str {
        match self {
            Kind::Fig3Paper => "fig3_paper",
            Kind::SweepResume => "sweep_resume",
        }
    }

    pub fn parse(name: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == name)
    }
}

/// One grid point with the experiment it compiles to.
pub struct Point {
    pub point: ScenarioPoint,
    pub experiment: Experiment,
}

/// A workload instantiated for one input set.
pub struct Spec {
    pub kind: Kind,
    pub set: u64,
    pub grid: ScenarioGrid,
    /// Worker threads for the pool (`sweep_resume` only; the solo
    /// workloads run one point at a time on the calling thread).
    pub threads: usize,
    /// The grid's read-request share.
    pub read_share: f64,
}

/// SplitMix64: decorrelated simulation seeds from (input set, salt).
fn mix(set: u64, salt: u64) -> u64 {
    let mut z = set
        .wrapping_mul(0x9e37_79b9_7f4a_7c15)
        .wrapping_add(salt.wrapping_mul(0xd1b5_4a32_d192_ed03))
        .wrapping_add(0x5177);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

impl Spec {
    pub fn new(kind: Kind, seed: u64) -> Spec {
        let set = seed % INPUT_SETS;
        let bernoulli = |rates: &[f64]| -> Vec<InjectionProcess> {
            rates
                .iter()
                .map(|&rate| InjectionProcess::Bernoulli { rate })
                .collect()
        };
        let (grid, threads, read_share) = match kind {
            Kind::Fig3Paper => (
                ScenarioGrid::new("fig3_paper")
                    .architectures(&Architecture::ALL)
                    .injections(&bernoulli(&[0.004, 0.016]))
                    .seeds(&[mix(set, 0)]),
                1,
                0.0,
            ),
            Kind::SweepResume => (
                ScenarioGrid::new("sweep_resume")
                    .scale(Scale::Quick)
                    .architectures(&Architecture::ALL)
                    .wireless_models(&[WirelessModel::SharedChannel {
                        mac: MacKind::Token,
                    }])
                    .memory_fractions(&[0.2, 0.9])
                    .read_share(1.0)
                    .injections(&bernoulli(&[5e-5, 0.001, 0.004, 0.016]))
                    .checkpoint_every(SWEEP_CHECKPOINT_EVERY)
                    .seeds(&[mix(set, 0)]),
                std::thread::available_parallelism()
                    .map_or(1, |n| n.get())
                    .min(2),
                1.0,
            ),
        };
        Spec {
            kind,
            set,
            grid,
            threads,
            read_share,
        }
    }

    pub fn points(&self) -> Vec<Point> {
        self.grid
            .points()
            .into_iter()
            .map(|point| Point {
                experiment: self.grid.experiment(&point),
                point,
            })
            .collect()
    }
}

/// The traffic generator `Experiment::run` builds for a grid point,
/// rebuilt from public constructors so a timing wrapper can sit around
/// it.  The output check compares the outcomes it produces with
/// `Experiment::run`'s, so any drift from the library's construction
/// shows as a failure.
pub fn generator(p: &Point, read_share: f64, home_stacks: Vec<usize>) -> UniformRandom {
    let config = p.experiment.config();
    let mut w = UniformRandom::new(
        config.multichip.total_cores(),
        config.multichip.num_stacks,
        p.point.memory_fraction,
        p.point.injection,
        config.packet_flits,
        config.seed,
    );
    if config.memory_affinity_bias > 0.0 {
        w = w.with_memory_affinity(config.memory_affinity_bias, home_stacks);
    }
    if read_share > 0.0 {
        w = w.with_memory_reads(read_share, (config.packet_flits / 8).max(1));
    }
    w
}
