//! End-to-end and per-layer benchmark of the wimnet simulator.
//!
//! ```text
//! wimnet-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! wimnet-perfbench --record-reference
//! ```
//!
//! The last line of standard output is one JSON object: `correct`,
//! `attempted`, `failed` and `metrics` (the end-to-end metrics with
//! `--trace 0`, the per-layer metrics with `--trace 1`).  See
//! `README.md` beside this crate for the workloads and metrics.

mod check;
mod layers;
mod measure;
mod report;
mod spec;

use std::process::ExitCode;

use report::WorkDir;
use spec::{Kind, Spec};

struct Args {
    kind: Kind,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut kind, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => {
                kind = Some(Kind::parse(&value).ok_or_else(|| bad(&"unknown workload"))?);
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| bad(&e))?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|e| bad(&e))?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err(bad(&"must be positive"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"must be 0 or 1")),
                });
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok(Args {
        kind: kind.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

fn main() -> ExitCode {
    let mut argv = std::env::args().skip(1).peekable();
    if argv.peek().map(String::as_str) == Some("--record-reference") {
        check::record(concat!(env!("CARGO_MANIFEST_DIR"), "/reference.json"));
        return ExitCode::SUCCESS;
    }
    let args = match parse(argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("wimnet-perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let spec = Spec::new(args.kind, args.seed);
    let work = WorkDir::create();
    let result = if args.trace {
        layers::run(&spec, args.seconds, &work)
    } else {
        measure::run(&spec, args.seconds, &work)
    };
    drop(work);
    match result {
        Ok(report) => {
            println!("{}", report.to_json());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("wimnet-perfbench: {} failed: {e}", args.kind.name());
            ExitCode::FAILURE
        }
    }
}
