//! Output check: per-point outcome fingerprints against
//! `reference.json`, recorded per `ENGINE_VERSION`.

use serde::{Deserialize, Serialize};

use wimnet_core::{RunOutcome, ENGINE_VERSION};

use crate::spec::{Kind, Spec, INPUT_SETS};

/// The digests recorded under one engine version.
#[derive(Serialize, Deserialize)]
struct Recorded {
    engine_version: String,
    workloads: Vec<Workload>,
}

/// One workload's digests: input set → point → digest.
#[derive(Serialize, Deserialize)]
struct Workload {
    name: String,
    sets: Vec<Vec<String>>,
}

fn reference() -> Vec<Recorded> {
    serde_json::from_str(REFERENCE).expect("reference.json parses")
}

const REFERENCE: &str = include_str!("../reference.json");

/// The exact-comparison key of one outcome: packets delivered (total
/// and in the window), window flits (through the bandwidth float),
/// mean latency bits and total energy bits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fingerprint {
    pub packets: u64,
    pub window_packets: u64,
    pub bandwidth_bits: u64,
    pub latency_bits: u64,
    pub energy_bits: u64,
}

impl Fingerprint {
    pub fn of(o: &RunOutcome) -> Fingerprint {
        Fingerprint {
            packets: o.total_packets,
            window_packets: o.window_packets,
            bandwidth_bits: o.bandwidth_gbps_per_core.to_bits(),
            latency_bits: o.avg_latency_cycles.unwrap_or(f64::NAN).to_bits(),
            energy_bits: o.energy.total.picojoules().to_bits(),
        }
    }

    /// The fingerprint as recorded in `reference.json`: a 64-bit
    /// SplitMix64 chain over its five words.
    pub fn digest(&self) -> String {
        let words = [
            self.packets,
            self.window_packets,
            self.bandwidth_bits,
            self.latency_bits,
            self.energy_bits,
        ];
        let h = words.iter().fold(0x5177_u64, |h, &w| {
            let mut z = (h ^ w).wrapping_add(0x9e37_79b9_7f4a_7c15);
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        });
        format!("{h:016x}")
    }
}

/// The recorded digests of one workload's input set under the running
/// engine version, in point order; `None` when nothing was recorded.
pub fn expected(spec: &Spec) -> Option<Vec<String>> {
    let recorded = reference()
        .into_iter()
        .find(|r| r.engine_version == ENGINE_VERSION)?;
    let workload = recorded
        .workloads
        .into_iter()
        .find(|w| w.name == spec.kind.name())?;
    workload.sets.into_iter().nth(spec.set as usize)
}

/// Counts the outcomes whose fingerprint differs from the expected
/// digest (all of them when there is no reference), reporting each
/// mismatch on stderr.
pub fn mismatches(expected: Option<&[String]>, outcomes: &[RunOutcome], what: &str) -> u64 {
    let Some(expected) = expected else {
        eprintln!("{what}: no reference recorded for {ENGINE_VERSION}");
        return outcomes.len() as u64;
    };
    let mut bad = 0;
    for (i, o) in outcomes.iter().enumerate() {
        let got = Fingerprint::of(o).digest();
        if expected.get(i) != Some(&got) {
            eprintln!(
                "{what}: point {i} fingerprint {:?} (digest {got}) != reference {:?}",
                Fingerprint::of(o),
                expected.get(i)
            );
            bad += 1;
        }
    }
    bad + expected.len().saturating_sub(outcomes.len()) as u64
}

/// Re-records every input set of every workload under the running
/// engine version, keeping entries recorded for other versions.
pub fn record(path: &str) {
    let mut workloads = Vec::new();
    for kind in Kind::ALL {
        let mut sets = Vec::new();
        for set in 0..INPUT_SETS {
            let spec = Spec::new(kind, set);
            let experiments: Vec<_> = spec.points().into_iter().map(|p| p.experiment).collect();
            let outcomes =
                wimnet_core::run_pool(&experiments, wimnet_core::sweeps::default_threads(), 1)
                    .expect("reference points run");
            sets.push(
                outcomes
                    .iter()
                    .map(|o| Fingerprint::of(o).digest())
                    .collect(),
            );
            eprintln!("recorded {} set {set}", kind.name());
        }
        workloads.push(Workload {
            name: kind.name().to_string(),
            sets,
        });
    }
    let mut reference = reference();
    reference.retain(|r| r.engine_version != ENGINE_VERSION);
    reference.push(Recorded {
        engine_version: ENGINE_VERSION.to_string(),
        workloads,
    });
    std::fs::write(path, render(&reference)).expect("reference.json is writable");
}

/// `reference.json` with one input set per line, so a re-recording
/// diffs by set.
fn render(reference: &[Recorded]) -> String {
    fn compact<T: Serialize>(v: &T) -> String {
        serde_json::to_string(v).expect("reference serializes")
    }
    let mut versions = Vec::new();
    for r in reference {
        let workloads: Vec<String> = r
            .workloads
            .iter()
            .map(|w| {
                let sets: Vec<String> = w.sets.iter().map(compact).collect();
                format!(
                    "{{\"name\": {}, \"sets\": [\n{}\n]}}",
                    compact(&w.name),
                    sets.join(",\n")
                )
            })
            .collect();
        versions.push(format!(
            "{{\"engine_version\": {}, \"workloads\": [\n{}\n]}}",
            compact(&r.engine_version),
            workloads.join(",\n")
        ));
    }
    format!("[\n{}\n]\n", versions.join(",\n"))
}
