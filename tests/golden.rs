//! Golden-outcome corpus: the bit-identity oracle for engine changes.
//!
//! `tests/golden/corpus.json` records, for a fixed matrix of
//! quick-scale scenarios, every number a behaviour-preserving engine
//! change must leave untouched: packet counts, window flits, latency
//! and energy bits, fast-forwarded cycles, per-stack memory statistics
//! and (for the telemetry-on point) a digest of the telemetry summary.
//! It also pins one mid-window [`SystemState`] snapshot of a
//! closed-loop overload point, so the source-queue growth policy (the
//! lane capacities a checkpoint carries) cannot drift either.
//!
//! The matrix covers the substrate and interposer architectures and
//! the wireless architecture on its point-to-point, parallel-link,
//! token-MAC and control-packet-MAC models, each under uniform and
//! closed-loop memory-read traffic, plus an application workload, a
//! saturation point, two sparse points that mostly fast-forward, and a
//! fast-forward-off and a telemetry-on variant of one busy wireless
//! point.
//!
//! The corpus is tied to [`ENGINE_VERSION`].  An outcome change is
//! legal only together with a version bump; after bumping, re-record
//! with
//!
//! ```text
//! cargo test --release --test golden -- --ignored record_golden_corpus
//! ```
//!
//! The recorder refuses to overwrite a corpus of the *current* version
//! with different numbers, so the file cannot be quietly re-blessed.

use std::path::PathBuf;

use serde::{Deserialize, Serialize, Value};

use wimnet::core::{
    MacKind, MultichipSystem, RunOutcome, SystemConfig, TelemetryConfig, WirelessModel,
    ENGINE_VERSION,
};
use wimnet::memory::MemoryStackStats;
use wimnet::topology::Architecture;
use wimnet::traffic::{profiles, AppWorkload, InjectionProcess, UniformRandom, Workload};

/// Recorded numbers of one scenario.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct GoldenPoint {
    name: String,
    packets_injected: u64,
    packets_delivered: u64,
    window_packets: u64,
    window_flits: u64,
    /// `f64::to_bits` of the mean window latency.
    latency_bits: Option<u64>,
    max_latency: Option<u64>,
    p99_latency: Option<u64>,
    /// `f64::to_bits` of the meter total in picojoules.
    energy_pj_bits: u64,
    /// `f64::to_bits` of every meter category, in breakdown order.
    energy_breakdown_bits: Vec<u64>,
    fast_forwarded_cycles: u64,
    memory: Vec<MemoryStackStats>,
    /// Digest of the telemetry summary's JSON (telemetry-on points).
    telemetry_digest: Option<String>,
}

/// A pinned mid-run snapshot.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct GoldenSnapshot {
    name: String,
    cycle: u64,
    /// Source-queue lane capacities, one per endpoint.
    inj_caps: Vec<u64>,
    /// Digest of the snapshot JSON without its visit-set hints.
    digest: String,
}

#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct GoldenCorpus {
    engine_version: String,
    points: Vec<GoldenPoint>,
    snapshot: GoldenSnapshot,
}

fn corpus_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/corpus.json")
}

/// FNV-1a over `text`, as 16 hex digits.
fn digest(text: &str) -> String {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in text.as_bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    format!("{h:016x}")
}

/// The traffic a scenario drives.
#[derive(Clone, Copy)]
enum Traffic {
    /// Bernoulli uniform random, 20 % fire-and-forget memory stores.
    Uniform(f64),
    /// Bernoulli uniform random, half of it closed-loop memory reads.
    MemoryReads(f64),
    /// Maximum load, 20 % memory stores.
    Saturation,
    /// Closed-loop memory reads at maximum load.
    ReadOverload,
    /// The `canneal` application model.
    App,
}

/// The five interconnects plus the wireless default model.
fn interconnects() -> Vec<(&'static str, Architecture, WirelessModel)> {
    vec![
        ("substrate", Architecture::Substrate, WirelessModel::default()),
        ("interposer", Architecture::Interposer, WirelessModel::default()),
        ("wireless-p2p", Architecture::Wireless, WirelessModel::default()),
        (
            "wireless-parallel",
            Architecture::Wireless,
            WirelessModel::ParallelLinks { flits_per_cycle: 1.0 },
        ),
        (
            "wireless-token",
            Architecture::Wireless,
            WirelessModel::SharedChannel { mac: MacKind::Token },
        ),
        (
            "wireless-control",
            Architecture::Wireless,
            WirelessModel::SharedChannel { mac: MacKind::ControlPacket },
        ),
    ]
}

fn config(arch: Architecture, wireless: WirelessModel) -> SystemConfig {
    let mut cfg = SystemConfig::xcym(4, 4, arch).quick_test_profile();
    cfg.wireless = wireless;
    cfg
}

/// The workload `traffic` describes, shaped like the one
/// `Experiment` builds (memory affinity on, 8-flit read requests).
fn workload(cfg: &SystemConfig, sys: &MultichipSystem, traffic: Traffic) -> Box<dyn Workload> {
    let cores = cfg.multichip.total_cores();
    let stacks = cfg.multichip.num_stacks;
    let uniform = |fraction: f64, injection: InjectionProcess, reads: f64| {
        let w = UniformRandom::new(cores, stacks, fraction, injection, cfg.packet_flits, cfg.seed)
            .with_memory_affinity(cfg.memory_affinity_bias, sys.layout().home_stacks());
        if reads > 0.0 {
            w.with_memory_reads(reads, cfg.packet_flits / 8)
        } else {
            w
        }
    };
    match traffic {
        Traffic::Uniform(rate) => {
            Box::new(uniform(0.20, InjectionProcess::Bernoulli { rate }, 0.0))
        }
        Traffic::MemoryReads(rate) => {
            Box::new(uniform(0.50, InjectionProcess::Bernoulli { rate }, 1.0))
        }
        Traffic::Saturation => Box::new(uniform(0.20, InjectionProcess::Saturation, 0.0)),
        Traffic::ReadOverload => Box::new(uniform(0.50, InjectionProcess::Saturation, 1.0)),
        Traffic::App => Box::new(AppWorkload::new(
            profiles::canneal(),
            cfg.multichip.num_chips,
            cfg.multichip.cores_per_chip,
            stacks,
            cfg.seed,
        )),
    }
}

fn run_point(name: &str, cfg: &SystemConfig, traffic: Traffic) -> GoldenPoint {
    let mut sys = MultichipSystem::build(cfg).expect("system builds");
    let mut w = workload(cfg, &sys, traffic);
    let outcome: RunOutcome = sys.run(w.as_mut()).expect("run completes");
    let net = sys.network();
    let stats = net.stats();
    GoldenPoint {
        name: name.to_string(),
        packets_injected: stats.packets_injected(),
        packets_delivered: stats.packets_delivered(),
        window_packets: outcome.window_packets,
        window_flits: stats.window_flits_delivered(),
        latency_bits: outcome.avg_latency_cycles.map(f64::to_bits),
        max_latency: outcome.max_latency_cycles,
        p99_latency: outcome.p99_latency_cycles,
        energy_pj_bits: net.meter().total().picojoules().to_bits(),
        energy_breakdown_bits: net
            .meter()
            .breakdown()
            .entries
            .iter()
            .map(|(_, e)| e.picojoules().to_bits())
            .collect(),
        fast_forwarded_cycles: outcome.fast_forwarded_cycles,
        memory: outcome.memory.clone(),
        telemetry_digest: outcome
            .telemetry
            .as_ref()
            .map(|t| digest(&serde_json::to_string(t).unwrap())),
    }
}

fn run_matrix() -> Vec<GoldenPoint> {
    let mut points = Vec::new();
    for (name, arch, wireless) in interconnects() {
        let cfg = config(arch, wireless);
        points.push(run_point(&format!("{name}/uniform"), &cfg, Traffic::Uniform(0.004)));
        points.push(run_point(
            &format!("{name}/memory-reads"),
            &cfg,
            Traffic::MemoryReads(0.002),
        ));
    }
    let interposer = config(Architecture::Interposer, WirelessModel::default());
    points.push(run_point("interposer/app-canneal", &interposer, Traffic::App));
    let substrate = config(Architecture::Substrate, WirelessModel::default());
    points.push(run_point("substrate/saturation", &substrate, Traffic::Saturation));
    // Sparse points, where idle fast-forward (and the MAC's idle
    // closed form) carries most of the run.
    points.push(run_point("substrate/sparse reads", &substrate, Traffic::MemoryReads(0.0002)));
    let token = config(
        Architecture::Wireless,
        WirelessModel::SharedChannel { mac: MacKind::Token },
    );
    points.push(run_point("wireless-token/sparse reads", &token, Traffic::MemoryReads(0.0002)));

    // One busy wireless point, stepped every cycle and observed.
    let busy = config(
        Architecture::Wireless,
        WirelessModel::SharedChannel { mac: MacKind::ControlPacket },
    );
    points.push(run_point("wireless-control/busy", &busy, Traffic::Uniform(0.012)));
    let mut ff_off = busy.clone();
    ff_off.disable_fast_forward = true;
    points.push(run_point("wireless-control/busy ff-off", &ff_off, Traffic::Uniform(0.012)));
    let mut observed = busy;
    observed.telemetry = TelemetryConfig::counters();
    points.push(run_point(
        "wireless-control/busy telemetry-on",
        &observed,
        Traffic::Uniform(0.012),
    ));
    points
}

/// The snapshot fields that only steer which components a stepper
/// visits: conservative supersets of the busy links, switches,
/// injectors and input VCs, whose exact contents depend on which
/// stepper produced them.  Every other field is simulated state.
const NET_HINTS: [&str; 6] = [
    "active_links",
    "active_switches",
    "active_injectors",
    "links_mask",
    "switch_mask",
    "inj_mask",
];
const SWITCH_HINTS: [&str; 3] = ["busy", "busy_mask_hi", "busy_mask_lo"];

fn drop_keys(value: &mut Value, keys: &[&str]) {
    if let Value::Map(entries) = value {
        entries.retain(|(k, _)| !keys.contains(&k.as_str()));
    }
}

fn map_entry<'a>(value: &'a mut Value, key: &str) -> &'a mut Value {
    let Value::Map(entries) = value else { panic!("expected a map around `{key}`") };
    &mut entries.iter_mut().find(|(k, _)| k == key).expect("key present").1
}

fn take_snapshot() -> GoldenSnapshot {
    let cfg = config(Architecture::Substrate, WirelessModel::default());
    let cycle = cfg.warmup_cycles + cfg.measure_cycles / 2;
    let mut sys = MultichipSystem::build(&cfg).expect("system builds");
    let mut w = workload(&cfg, &sys, Traffic::ReadOverload);
    let reached = sys.run_until(w.as_mut(), 0, cycle).expect("run reaches mid-window");
    assert_eq!(reached, cycle, "a saturated run never fast-forwards");
    let mut state = sys.state().to_value();
    let net = map_entry(&mut state, "net");
    drop_keys(net, &NET_HINTS);
    let Value::Seq(switches) = map_entry(net, "switches") else { panic!("switch list") };
    for sw in switches {
        drop_keys(sw, &SWITCH_HINTS);
    }
    let inj_caps = match net.get("inj_caps") {
        Some(Value::Seq(caps)) => caps
            .iter()
            .map(|c| match c {
                Value::UInt(c) => *c,
                Value::Int(c) => u64::try_from(*c).expect("non-negative capacity"),
                other => panic!("capacity {other:?}"),
            })
            .collect(),
        other => panic!("inj_caps {other:?}"),
    };
    GoldenSnapshot {
        name: "substrate/read-overload".to_string(),
        cycle,
        inj_caps,
        digest: digest(&serde_json::to_string(&state).unwrap()),
    }
}

fn record() -> GoldenCorpus {
    GoldenCorpus {
        engine_version: ENGINE_VERSION.to_string(),
        points: run_matrix(),
        snapshot: take_snapshot(),
    }
}

fn load() -> GoldenCorpus {
    let text = std::fs::read_to_string(corpus_path()).expect("golden corpus is checked in");
    serde_json::from_str(&text).expect("golden corpus parses")
}

#[test]
fn engine_reproduces_the_golden_corpus() {
    let golden = load();
    assert_eq!(
        golden.engine_version, ENGINE_VERSION,
        "the golden corpus was recorded under {} but the engine is {}: a version bump \
         must re-record it in the same change (`cargo test --release --test golden -- \
         --ignored record_golden_corpus`)",
        golden.engine_version, ENGINE_VERSION,
    );
    let now = record();
    assert_eq!(now.points.len(), golden.points.len(), "scenario matrix changed shape");
    for (got, want) in now.points.iter().zip(&golden.points) {
        assert_eq!(
            got, want,
            "{}: outcome differs from the golden corpus without an ENGINE_VERSION bump",
            want.name
        );
    }
    assert_eq!(
        now.snapshot, golden.snapshot,
        "mid-window snapshot differs from the golden corpus (lane growth or engine state \
         changed without an ENGINE_VERSION bump)"
    );
}

/// The snapshot point must exercise what it pins: memory-node reply
/// lanes grown past the source-queue cap every other endpoint obeys.
#[test]
fn overload_snapshot_grows_reply_lanes_past_the_source_cap() {
    let golden = load();
    let cfg = config(Architecture::Substrate, WirelessModel::default());
    let cap = (cfg.source_queue_packets as u64) * u64::from(cfg.packet_flits);
    assert!(
        golden.snapshot.inj_caps.iter().any(|&c| c > cap),
        "no source lane outgrew the {cap}-flit source cap: {:?}",
        golden.snapshot.inj_caps
    );
}

/// Re-records the corpus (run only together with an `ENGINE_VERSION`
/// bump; see the module docs).
#[test]
#[ignore = "re-records tests/golden/corpus.json; run only with an ENGINE_VERSION bump"]
fn record_golden_corpus() {
    let fresh = record();
    if let Ok(text) = std::fs::read_to_string(corpus_path()) {
        let old: GoldenCorpus = serde_json::from_str(&text).expect("golden corpus parses");
        assert!(
            old.engine_version != ENGINE_VERSION || old == fresh,
            "refusing to re-bless changed outcomes under the unchanged {ENGINE_VERSION}: \
             bump ENGINE_VERSION first"
        );
    }
    let path = corpus_path();
    std::fs::create_dir_all(path.parent().unwrap()).unwrap();
    std::fs::write(&path, serde_json::to_string_pretty(&fresh).unwrap() + "\n").unwrap();
}
