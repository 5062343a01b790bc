//! `hot-stepbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints a metric table, then the result as one JSON line (the last line
//! of standard output). Exits 0 only when every check passed.

use hot_stepbench::Workload;
use std::path::Path;
use std::process::ExitCode;

/// Span and checkpoint files go here, relative to the working directory.
const SCRATCH: &str = ".stepbench";

fn usage(why: &str) -> ExitCode {
    let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    eprintln!("hot-stepbench: {why}");
    eprintln!(
        "usage: hot-stepbench --workload <{}> --seed <u64> --seconds <s> --trace <0|1>",
        names.join("|")
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (mut workload, mut seed, mut seconds, mut trace) = (None, 0u64, 10.0f64, false);
    for pair in args.chunks(2) {
        let [flag, value] = pair else {
            return usage("every flag takes a value");
        };
        let ok = match flag.as_str() {
            "--workload" => {
                workload = Workload::parse(value);
                workload.is_some()
            }
            "--seed" => value.parse().map(|v| seed = v).is_ok(),
            "--seconds" => value
                .parse()
                .map(|v| seconds = v)
                .is_ok_and(|()| seconds > 0.0),
            "--trace" => match value.as_str() {
                "0" | "1" => {
                    trace = value == "1";
                    true
                }
                _ => false,
            },
            _ => false,
        };
        if !ok {
            return usage(&format!("bad argument {flag} {value}"));
        }
    }
    let Some(workload) = workload else {
        return usage("--workload is required");
    };
    let o = hot_stepbench::run(workload, seed, seconds, trace, Path::new(SCRATCH));
    print!("{}", o.table());
    println!("{}", o.json());
    if o.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
