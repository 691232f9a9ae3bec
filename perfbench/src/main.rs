//! `perfbench --workload NAME --seed N --seconds S --trace 0|1`
//!
//! Runs one workload, prints notes and any check failures, then one
//! JSON result line: `correct`, `attempted`, `failed` and `metrics`
//! (the end-to-end catalogue untraced, the per-layer one traced).
//! Exits 0 when every check passed, 1 when one failed, 2 on bad usage.

use std::process::ExitCode;

const USAGE: &str =
    "usage: perfbench --workload <greenorbs-fig9|rgg-100k-sparse|campaign-service> \
                     [--seed N] [--seconds S] [--trace 0|1]";

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: ldcf_perfbench::harness::DEFAULT_SEED,
        seconds: ldcf_perfbench::harness::DEFAULT_SECONDS,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {what}, got {value:?}");
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|_| bad("expected an integer"))?,
            "--seconds" => {
                args.seconds = value
                    .parse::<f64>()
                    .ok()
                    .filter(|s| *s > 0.0 && s.is_finite())
                    .ok_or_else(|| bad("expected a positive number"))?
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("expected 0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !ldcf_perfbench::WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!("unknown workload {:?}", args.workload));
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let out = ldcf_perfbench::run(&args.workload, args.seed, args.seconds, args.trace)
        .expect("workload name validated");
    for note in &out.notes {
        println!("# {note}");
    }
    for err in &out.errors {
        println!("# CHECK FAILED: {err}");
    }
    match out.result_line(args.trace) {
        Ok(line) => {
            println!("{line}");
            if out.failed == 0 && out.attempted > 0 {
                ExitCode::SUCCESS
            } else {
                ExitCode::from(1)
            }
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(1)
        }
    }
}
