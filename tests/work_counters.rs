//! The engine's deterministic work counters (`Network::work_counters`):
//! switch visits, busy-VC bits walked, parks and wakes, ring-slab
//! regrowths.  They are the regression signal a gate can compare
//! exactly where wall-clock is too noisy, so they must repeat bit for
//! bit, and they must show the masked stepper parking blocked switches
//! on the backpressured substrate (see `docs/engine.md`, "One visit per
//! switch, parked when blocked").

use wimnet::core::{MultichipSystem, Scale, SystemConfig};
use wimnet::noc::WorkCounters;
use wimnet::telemetry::TelemetryConfig;
use wimnet::topology::Architecture;
use wimnet::traffic::{InjectionProcess, UniformRandom};

/// Runs one quick-scale fig3 point (uniform random, 20 % memory
/// stores) and returns the work counters plus, when `observed`, the
/// telemetry's total switch `active_cycles`.
fn run_point(arch: Architecture, load: f64, observed: bool) -> (WorkCounters, Option<u64>) {
    let mut cfg = Scale::Quick.apply(SystemConfig::xcym(4, 4, arch));
    if observed {
        cfg.telemetry = TelemetryConfig::counters();
    }
    let mut sys = MultichipSystem::build(&cfg).expect("system builds");
    let mut workload = UniformRandom::new(
        cfg.multichip.total_cores(),
        cfg.multichip.num_stacks,
        0.20,
        InjectionProcess::Bernoulli { rate: load },
        cfg.packet_flits,
        cfg.seed,
    );
    sys.run(&mut workload).expect("run completes");
    let active = sys
        .collect_telemetry()
        .map(|t| t.switches.iter().map(|s| s.active_cycles).sum());
    (sys.network().work_counters(), active)
}

#[test]
fn work_counters_repeat_exactly() {
    for arch in Architecture::ALL {
        let first = run_point(arch, 0.008, false).0;
        let second = run_point(arch, 0.008, false).0;
        assert_eq!(
            first, second,
            "{arch:?}: work counters must be deterministic"
        );
        assert!(first.switch_visits > 0 && first.busy_vc_bits >= first.switch_visits);
        assert!(
            first.wakes <= first.parks,
            "{arch:?}: a wake needs a park first"
        );
    }
}

/// Observing a run changes none of its decisions, so it changes none of
/// the work either: observed runs park too.
#[test]
fn telemetry_does_not_change_the_work() {
    let plain = run_point(Architecture::Substrate, 0.064, false).0;
    let observed = run_point(Architecture::Substrate, 0.064, true).0;
    assert_eq!(plain, observed);
}

/// On the backpressured substrate fig3 points (the paper-figure loads
/// the benchmark runs, here at quick scale), most switch-cycles with
/// buffered flits are spent parked: visits stay at most half of the
/// telemetry's `active_cycles` (which counts every cycle a switch held
/// flits, parked or not; measured ≈ 0.43 and 0.41).
#[test]
fn substrate_fig3_points_park_blocked_switches() {
    for load in [0.004, 0.016] {
        let (work, active) = run_point(Architecture::Substrate, load, true);
        let active = active.expect("telemetry on");
        assert!(work.parks > 0, "load {load}: parking engages");
        assert!(
            2 * work.switch_visits <= active,
            "load {load}: {} visits for {active} active switch-cycles",
            work.switch_visits
        );
    }
}
