//! `perfbench --workload sweep|replay|serve --seed N --seconds S --trace 0|1
//! [--serve-bin PATH]`
//!
//! Prints one JSON result as the last line of standard output: with
//! `--trace 0` the end-to-end metrics of the workload, with `--trace 1`
//! the per-layer metrics of all three workloads. Exits non-zero, without
//! a result, when the run cannot be set up.

use perfbench::inputs::{Seeds, Sizes};
use perfbench::{layers, Config, Workload};
use std::path::PathBuf;
use std::process::ExitCode;

fn parse() -> Result<(Config, bool), String> {
    let mut workload = None;
    let mut seed = perfbench::inputs::DEFAULT_SEED;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut serve_bin = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(Workload::parse(&value()?)?),
            "--seed" => seed = value()?.parse().map_err(|e| format!("bad --seed: {e}"))?,
            "--seconds" => {
                seconds = value()?
                    .parse()
                    .map_err(|e| format!("bad --seconds: {e}"))?;
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("bad --trace {other} (0|1)")),
                };
            }
            "--serve-bin" => serve_bin = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let cfg = Config {
        workload: workload.ok_or("--workload is required")?,
        seeds: Seeds(seed),
        sizes: Sizes::FULL,
        seconds,
        serve_bin,
        work_dir: PathBuf::from(format!(".perfbench_work/{}", std::process::id())),
    };
    Ok((cfg, trace))
}

fn main() -> ExitCode {
    let result = parse().and_then(|(cfg, trace)| {
        if trace {
            layers::run(&cfg)
        } else {
            perfbench::run(&cfg)
        }
    });
    match result {
        Ok(o) => {
            for p in &o.problems {
                eprintln!("check failed: {p}");
            }
            println!("{}", o.to_json());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
