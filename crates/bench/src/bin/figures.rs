//! Regenerates every table and figure of the Buffalo paper.
//!
//! ```text
//! figures <id>...            run specific experiments (e.g. `figures fig10 tab3`)
//! figures all                run everything
//! figures --quick <id>       quarter-size batches, fewer sweep points
//! figures --write-bench <id> rewrite the experiment's BENCH_*.json
//! figures --list             list experiment ids
//! ```
//!
//! The five experiments with a `BENCH_*.json` (`robustness`, `failover`,
//! `checkpoint`, `serving`, `serving-chaos`) always run at full size, and
//! without `--write-bench` the run fails if the committed file differs
//! from what it regenerated.

use buffalo_bench::experiments;
use std::process::ExitCode;

fn main() -> ExitCode {
    let mut quick = false;
    let mut write_bench = false;
    let mut ids: Vec<String> = Vec::new();
    for arg in std::env::args().skip(1) {
        match arg.as_str() {
            "--quick" | "-q" => quick = true,
            "--write-bench" | "-w" => write_bench = true,
            "--list" | "-l" => {
                for id in experiments::ids() {
                    println!("{id}");
                }
                return ExitCode::SUCCESS;
            }
            "all" => ids.extend(experiments::ids().map(str::to_string)),
            other => ids.push(other.to_string()),
        }
    }
    if ids.is_empty() {
        eprintln!("usage: figures [--quick] [--write-bench] <id>... | all | --list");
        let all: Vec<&str> = experiments::ids().collect();
        eprintln!("ids: {}", all.join(", "));
        return ExitCode::FAILURE;
    }
    for id in &ids {
        if let Err(e) = experiments::run(id, quick, write_bench) {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    }
    ExitCode::SUCCESS
}
