//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints one line per metric, the workload self-checks, a provenance
//! record, and as its last line the result as one JSON object. Exits
//! nonzero when any reply diverged from the reference interpreter, a
//! self-check failed, or the arguments were wrong.

use std::process::ExitCode;
use std::time::Instant;

use stackcache_perfbench::bench::{self, Args, SETUP_REPS};
use stackcache_perfbench::host::provenance;

const USAGE: &str = "usage: perfbench --workload <paper-full|short-hot|cold-programs|cluster-short> --seed <n> --seconds <1..> --trace <0|1>";

fn parse(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<u64>()
                        .ok()
                        .filter(|s| (1..=3600).contains(s))
                        .ok_or("--seconds must be a whole number from 1 to 3600")?,
                );
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace must be 0 or 1".to_string()),
                });
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10),
        trace: trace.unwrap_or(false),
    })
}

fn main() -> ExitCode {
    let start = Instant::now();
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let report = match bench::run(&args, start) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    print!("{}", report.human());
    let samples: Vec<(String, u64)> = report
        .metrics
        .iter()
        .map(|m| (m.name.clone(), m.samples))
        .collect();
    let warmup = format!(
        "{SETUP_REPS} set-ups per run, median reported; JIT block cache cleared at each; \
         every (program, regime) pair served once before timing (cold-programs: the \
         artifact cache filled with fresh programs first)"
    );
    println!(
        "provenance {}",
        provenance(
            &args.workload,
            args.seed,
            args.seconds,
            args.trace,
            &warmup,
            &samples,
            report.value("obs.trace_overhead"),
        )
    );
    println!("{}", report.json_line());
    if report.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
