//! Command-line entry point of the reflection-loop benchmark; see the library
//! docs for the workloads and the result line.

use std::process::ExitCode;

fn main() -> ExitCode {
    let options = match rechisel_loopbench::parse_args(std::env::args().skip(1)) {
        Ok(options) => options,
        Err(message) => {
            eprintln!("error: {message}");
            eprintln!(
                "usage: rechisel-loopbench --workload <paper_sweep|served_sessions|large_designs> \
                 --seed <n> --seconds <s> --trace <0|1>"
            );
            return ExitCode::from(2);
        }
    };
    let outcome = match rechisel_loopbench::run(&options) {
        Ok(outcome) => outcome,
        Err(message) => {
            eprintln!("error: {message}");
            return ExitCode::FAILURE;
        }
    };
    let report = &outcome.report;
    println!(
        "{} seed {} ({}): {} operations, {} failed, outcome digest {:016x}",
        options.workload.name(),
        options.seed,
        if options.trace { "traced, per-layer" } else { "timed, end-to-end" },
        report.attempted,
        report.failed,
        outcome.digest
    );
    for note in &outcome.notes {
        println!("  {note}");
    }
    for failure in &outcome.failures {
        println!("  FAILED {failure}");
    }
    print!("{}", report.to_table());
    println!("{}", report.to_json());
    ExitCode::SUCCESS
}
