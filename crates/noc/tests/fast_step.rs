//! Differential suite for the masked stepping pipeline: two identically
//! built networks receive identical traffic; one advances through
//! [`Network::step_reference`] (the reference pipeline), the other
//! through [`Network::step`] (the masked pipeline every paper
//! configuration takes).  After every cycle the complete observable
//! state must match — statistics, the energy meter (bit-identical
//! floats via `PartialEq` on the meter), arrival lists, in-flight
//! counters — across all three architectures, both wireless
//! realisations, and under a mixed schedule (the conservative-superset
//! bitset invariant).  Switches too large for the masks fall back to
//! the reference pipeline.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use wimnet_noc::network::WirelessMode;
use wimnet_noc::{
    MediumActions, MediumView, Network, NocConfig, PacketDesc, SharedMedium,
};
use wimnet_routing::{Routes, RoutingPolicy};
use wimnet_topology::{Architecture, MultichipConfig, MultichipLayout};

/// Minimal deterministic test MAC (same as `slab_model.rs`): each cycle
/// the first TX front anywhere whose target can admit it is transmitted.
struct OneFlitMac;

impl SharedMedium for OneFlitMac {
    fn step(&mut self, _now: u64, view: &MediumView, actions: &mut MediumActions) {
        for radio in view.radios() {
            for (tx_vc, tx) in radio.tx.iter().enumerate() {
                let Some((flit, target)) = tx.front else { continue };
                let Some(rx_vc) =
                    view.rx_admission(target, flit.packet, flit.kind.is_head())
                else {
                    continue;
                };
                actions.transmit(radio.id, tx_vc, rx_vc);
                return;
            }
        }
    }

    fn name(&self) -> &str {
        "one-flit-test-mac"
    }
}

fn build(arch: Architecture, cfg: NocConfig) -> (MultichipLayout, Network) {
    let layout = MultichipLayout::build(&MultichipConfig::xcym(4, 4, arch)).unwrap();
    let policy = if arch == Architecture::Wireless {
        RoutingPolicy::shortest_path()
    } else {
        RoutingPolicy::default()
    };
    let routes = Routes::build(layout.graph(), policy).unwrap();
    let net = Network::new(&layout, routes, cfg).unwrap();
    (layout, net)
}

fn inject_random(layout: &MultichipLayout, net: &mut Network, seed: u64, packets: usize) {
    let mut rng = SmallRng::seed_from_u64(seed);
    let nodes: Vec<_> = layout
        .core_nodes()
        .iter()
        .chain(layout.memory_nodes())
        .copied()
        .collect();
    for k in 0..packets {
        let src = nodes[rng.gen_range(0..nodes.len())];
        let dst = nodes[rng.gen_range(0..nodes.len())];
        if src == dst {
            continue;
        }
        let len = [1u32, 3, 16, 64][rng.gen_range(0..4)];
        net.inject(PacketDesc::new(src, dst, len, k as u64));
    }
}

/// Asserts complete observable equality between the two engines.
fn assert_same(reference: &mut Network, fast: &mut Network, cycle: u64) {
    assert_eq!(reference.now(), fast.now(), "cycle {cycle}: clocks diverged");
    assert_eq!(
        reference.flits_in_flight(),
        fast.flits_in_flight(),
        "cycle {cycle}: in-flight counters diverged"
    );
    assert_eq!(
        reference.source_backlog(),
        fast.source_backlog(),
        "cycle {cycle}: source backlog diverged"
    );
    assert_eq!(
        reference.radio_backlog(),
        fast.radio_backlog(),
        "cycle {cycle}: radio backlog diverged"
    );
    assert_eq!(
        reference.stats(),
        fast.stats(),
        "cycle {cycle}: statistics diverged"
    );
    assert_eq!(
        reference.meter(),
        fast.meter(),
        "cycle {cycle}: energy meters diverged (bit-identity violated)"
    );
    assert_eq!(
        reference.drain_arrivals(),
        fast.drain_arrivals(),
        "cycle {cycle}: arrival streams diverged"
    );
    assert_eq!(reference.is_idle(), fast.is_idle(), "cycle {cycle}: idle predicates");
}

fn run_differential(arch: Architecture, cfg: NocConfig, medium: bool, seed: u64) {
    let (layout, mut reference) = build(arch, cfg.clone());
    let (_, mut fast) = build(arch, cfg);
    if medium {
        reference.attach_medium(Box::new(OneFlitMac));
        fast.attach_medium(Box::new(OneFlitMac));
    }
    assert!(fast.steps_masked(), "paper configs fit the 128-bit masks");
    inject_random(&layout, &mut reference, seed, 40);
    inject_random(&layout, &mut fast, seed, 40);
    for cycle in 0..600u64 {
        reference.step_reference();
        fast.step();
        fast.assert_switch_invariants();
        assert_same(&mut reference, &mut fast, cycle);
    }
}

#[test]
fn fast_step_matches_reference_substrate() {
    run_differential(Architecture::Substrate, NocConfig::paper(), false, 0xA11CE);
}

#[test]
fn fast_step_matches_reference_interposer() {
    run_differential(Architecture::Interposer, NocConfig::paper(), false, 0xB0B);
}

#[test]
fn fast_step_matches_reference_wireless_point_to_point() {
    let cfg = NocConfig {
        wireless_mode: WirelessMode::PointToPoint {
            rate: 16.0 / 80.0,
            latency: 1,
            max_concurrent: 4,
        },
        ..NocConfig::paper()
    };
    run_differential(Architecture::Wireless, cfg, false, 0xCAFE);
}

#[test]
fn fast_step_matches_reference_wireless_medium() {
    run_differential(Architecture::Wireless, NocConfig::paper(), true, 0xD00D);
}

/// The two pipelines may be mixed freely on one network: the word
/// bitsets are maintained as conservative supersets at every shared
/// insert site and swept only by the masked pipeline, so an arbitrary
/// interleaving remains decision-identical to the pure reference one.
#[test]
fn mixed_stepping_schedule_matches_reference() {
    let cfg = NocConfig::paper();
    let (layout, mut reference) = build(Architecture::Substrate, cfg.clone());
    let (_, mut mixed) = build(Architecture::Substrate, cfg);
    inject_random(&layout, &mut reference, 0x5EED, 40);
    inject_random(&layout, &mut mixed, 0x5EED, 40);
    let mut rng = SmallRng::seed_from_u64(9);
    for cycle in 0..600u64 {
        reference.step_reference();
        if rng.gen_bool(0.5) {
            mixed.step();
        } else {
            mixed.step_reference();
        }
        mixed.assert_switch_invariants();
        assert_same(&mut reference, &mut mixed, cycle);
    }
}

/// Fast-forward interacts identically with both pipelines: run to idle
/// on the masked one, skip, and resume — totals must match a reference
/// that did the same with reference steps.
#[test]
fn fast_forward_composes_with_fast_stepping() {
    let cfg = NocConfig::paper();
    let (layout, mut reference) = build(Architecture::Substrate, cfg.clone());
    let (_, mut fast) = build(Architecture::Substrate, cfg);
    let src = layout.core_nodes()[0];
    let dst = layout.core_nodes()[9];
    reference.inject(PacketDesc::new(src, dst, 8, 0));
    fast.inject(PacketDesc::new(src, dst, 8, 0));
    for _ in 0..200u64 {
        reference.step_reference();
        fast.step();
    }
    assert!(reference.is_idle() && fast.is_idle(), "short packet drained");
    assert_eq!(reference.fast_forward(1000), 1000);
    assert_eq!(fast.fast_forward(1000), 1000);
    reference.inject(PacketDesc::new(dst, src, 8, 0));
    fast.inject(PacketDesc::new(dst, src, 8, 0));
    for cycle in 0..200u64 {
        reference.step_reference();
        fast.step();
        assert_same(&mut reference, &mut fast, cycle);
    }
    assert_eq!(reference.fast_forwarded_cycles(), fast.fast_forwarded_cycles());
}

/// Switches wider than the 128-bit VC masks (here 32 VCs on 5+ ports)
/// make `step` take the reference pipeline, which still carries every
/// packet and reaches idle.
#[test]
fn over_wide_switches_step_through_the_reference_pipeline() {
    let cfg = NocConfig { vcs: 32, ..NocConfig::paper() };
    let (layout, mut net) = build(Architecture::Substrate, cfg);
    assert!(!net.steps_masked(), "32 VCs x 5+ ports exceed the 128-bit masks");
    inject_random(&layout, &mut net, 0xF00D, 40);
    let injected = net.stats().packets_injected();
    assert!(net.drain(20_000), "over-wide network drains");
    assert_eq!(net.stats().packets_delivered(), injected);
    for _ in 0..1_000 {
        if net.is_idle() {
            break;
        }
        net.step();
    }
    assert!(net.is_idle(), "link credit settles once the traffic is gone");
}
