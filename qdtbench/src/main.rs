//! `qdtbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints per-class figures, then every metric by name with its unit,
//! and as its last line one JSON object:
//! `{"correct": …, "attempted": …, "failed": …, "metrics": {name: {"value": …, "unit": …}}}`.
//! Exits 1 when a run invariant breaks and 2 on a usage error, without
//! printing the JSON line.

use std::process::ExitCode;

use qdtbench::{Options, Report, WORKLOADS};

const USAGE: &str =
    "usage: qdtbench --workload <dense|dd|shots|verify> --seed <n> --seconds <s> --trace <0|1>";

fn parse_args() -> Result<Options, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| bad(&e))?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|e| bad(&e))?;
                if !(s.is_finite() && s >= 0.0) {
                    return Err(bad(&"not a duration"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                });
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload `{workload}`; expected one of {WORKLOADS:?}"
        ));
    }
    Ok(Options {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

fn json(report: &Report) -> String {
    let metrics: Vec<String> = report
        .metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.correct,
        report.attempted,
        report.failed,
        metrics.join(", ")
    )
}

fn main() -> ExitCode {
    let opts = match parse_args() {
        Ok(opts) => opts,
        Err(e) => {
            eprintln!("qdtbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let report = match qdtbench::run(&opts) {
        Ok(report) => report,
        Err(e) => {
            eprintln!("qdtbench: {}: {e}", opts.workload);
            return ExitCode::from(1);
        }
    };
    if let Some(m) = report.metrics.iter().find(|m| !m.value.is_finite()) {
        eprintln!(
            "qdtbench: {}: metric {} is {}",
            opts.workload, m.name, m.value
        );
        return ExitCode::from(1);
    }
    println!(
        "workload {} seed {} trace {}",
        opts.workload,
        opts.seed,
        u8::from(opts.trace)
    );
    for note in &report.notes {
        println!("{note}");
    }
    for m in &report.metrics {
        println!("{:<24} {:>16.6} {}", m.name, m.value, m.unit);
    }
    println!("{}", json(&report));
    ExitCode::SUCCESS
}
