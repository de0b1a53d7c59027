//! The repo's benchmark.  README.md says what it measures and why;
//! `BENCHMARK.json` at the root of the repo is its contract.
//!
//! ```text
//! benchmark --workload NAME --seed N --seconds S --trace 0|1   one run
//! benchmark set --runs N [--seed-base N] --out FILE            N runs of every workload
//! benchmark compare A B                                        two sets against the bounds
//! benchmark noise A B C.. --out FILE                           spreads and derived bounds
//! ```
//!
//! A run prints every metric by name and unit, then, as the last line of
//! its standard output, the result object the driver reads.

mod contract;
mod harness;
mod host;
mod report;
mod stats;
#[cfg(test)]
mod tests;
mod timed_disk;
mod trace;
mod units;
mod workloads;

use std::process::ExitCode;

use contract::{Contract, Metric};
use fg_core::Json;
use harness::{Run, Sample};
use workloads::Scratch;

/// The tracking allocator `fgsort` installs: `alloc_mib` and
/// `peak_heap_mib` are read from it.
#[global_allocator]
static FG_ALLOC: fg_core::FgAlloc = fg_core::FgAlloc;

#[derive(Debug, PartialEq)]
struct RunArgs {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

/// Flags and their values, in any order; every flag takes one value.
fn flags(args: &[String]) -> Result<Vec<(&str, &str)>, String> {
    args.chunks(2)
        .map(|pair| match pair {
            [flag, value] if flag.starts_with("--") => Ok((flag.as_str(), value.as_str())),
            [flag, ..] => Err(format!("{flag} needs a value")),
            [] => unreachable!("chunks are never empty"),
        })
        .collect()
}

fn number(flag: &str, value: &str) -> Result<u64, String> {
    value.parse().map_err(|e| format!("{flag} {value}: {e}"))
}

fn parse_run(contract: &Contract, args: &[String]) -> Result<RunArgs, String> {
    let mut out = RunArgs {
        workload: String::new(),
        seed: 1,
        seconds: contract.run_seconds,
        trace: false,
    };
    for (flag, value) in flags(args)? {
        match flag {
            "--workload" => out.workload = value.to_string(),
            "--seed" => out.seed = number(flag, value)?,
            "--seconds" => out.seconds = number(flag, value)?,
            "--trace" => out.trace = number(flag, value)? != 0,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !contract.workloads.contains(&out.workload) {
        return Err(format!(
            "--workload must be one of {:?}",
            contract.workloads
        ));
    }
    Ok(out)
}

/// One line per repetition, so that a reader can see the host drift the
/// medians hide, and why an operation failed.
fn print_samples(samples: &[Sample]) {
    println!("# rep  calib_ms    host  setup_s   wall_s   cpu_s  alloc_mib   (times as the clock read them)");
    for (i, s) in samples.iter().enumerate() {
        println!(
            "# {i:>3} {:>9.2} {:>7.3} {:>8.4} {:>8.4} {:>7.2} {:>10.2}  {}",
            (s.calib_ms[1] + s.calib_ms[2]) / 2.0,
            s.timed_factor(),
            s.setup_s,
            s.wall_s,
            s.cpu_s,
            s.alloc_mib,
            s.error.as_deref().unwrap_or("ok"),
        );
    }
}

/// Print the metrics as a table, then the result object as the last line.
fn print_result(rows: &[(&Metric, f64)], samples: &[Sample]) {
    for (m, v) in rows {
        // `+ 0.0` turns the -0.0 an empty sum yields into 0.0.
        println!("{:<28} {:>16.6} {}", m.name, v + 0.0, m.unit);
    }
    let failed = samples.iter().filter(|s| s.error.is_some()).count();
    let metrics = rows
        .iter()
        .map(|(m, v)| {
            let value = Json::Obj(vec![
                ("value".into(), Json::Num(*v)),
                ("unit".into(), Json::Str(m.unit.clone())),
            ]);
            (m.name.clone(), value)
        })
        .collect();
    let result = Json::Obj(vec![
        ("correct".into(), Json::Bool(failed == 0)),
        ("attempted".into(), Json::Num(samples.len() as f64)),
        ("failed".into(), Json::Num(failed as f64)),
        ("metrics".into(), Json::Obj(metrics)),
    ]);
    println!("{result}");
}

fn run(contract: &Contract, args: &RunArgs) -> Result<(), String> {
    let scratch = Scratch::new().map_err(|e| format!("scratch directory: {e}"))?;
    println!("# host: {}", host::describe(scratch.path()));
    if args.trace {
        let traced = trace::run(&args.workload, args.seed, scratch.path())?;
        print_samples(&traced.samples);
        let out = workloads::out_root().join("out");
        let file = out.join(format!("{}.spans.json", args.workload));
        std::fs::create_dir_all(&out)
            .and_then(|()| std::fs::write(&file, trace::spans_json(&args.workload, &traced.spans)))
            .map_err(|e| format!("{}: {e}", file.display()))?;
        println!("# {} spans in {}", traced.spans.len(), file.display());
        let rows = Contract::label(&contract.per_layer, &traced.metrics)?;
        print_result(&rows, &traced.samples);
    } else {
        let mut w = workloads::build(&args.workload, args.seed, scratch.path(), None)
            .ok_or("unknown workload")?;
        let reps = workloads::repetitions(&args.workload, args.seconds, contract.run_seconds);
        let run = Run::perform(w.as_mut(), reps);
        drop(w);
        print_samples(&run.samples);
        let (calib, min, max) = harness::calibration(&run.samples);
        println!(
            "# {reps} timed repetitions after one warm-up; host.calib_ms {calib:.2} (min {min:.2}, max {max:.2}, reference host {:.2})",
            host::Calibration::REFERENCE_CPU_MS
        );
        for (name, raw) in run.raw_times() {
            println!("# as the clock read it: {name} {raw:.6}");
        }
        let measured = run.end_to_end();
        let rows = Contract::label(&contract.end_to_end, &measured)?;
        print_result(&rows, &run.samples);
    }
    Ok(())
}

fn subcommand(contract: &Contract, name: &str, args: &[String]) -> Result<bool, String> {
    // Positional arguments first, then flags.
    let split = args
        .iter()
        .position(|a| a.starts_with("--"))
        .unwrap_or(args.len());
    let (files, rest) = args.split_at(split);
    let flags = flags(rest)?;
    let flag = |name: &str| flags.iter().find(|(f, _)| *f == name).map(|(_, v)| *v);
    match name {
        "set" => {
            let runs = number("--runs", flag("--runs").ok_or("set needs --runs N")?)?;
            let seed_base = flag("--seed-base").map_or(Ok(1), |v| number("--seed-base", v))?;
            let out = flag("--out").ok_or("set needs --out FILE")?;
            report::collect_set(contract, runs as usize, seed_base, out).map(|()| true)
        }
        "compare" => match files {
            [a, b] => report::compare(contract, a, b),
            _ => Err("compare needs two set files".into()),
        },
        "noise" => {
            let out = flag("--out").ok_or("noise needs --out FILE")?;
            if files.len() < 3 {
                return Err("noise needs at least three set files".into());
            }
            report::noise(contract, files, out).map(|()| true)
        }
        _ => Err(format!("unknown subcommand {name}")),
    }
}

fn main() -> ExitCode {
    let contract = Contract::load();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let res = match args.first().map(String::as_str) {
        Some(name) if !name.starts_with("--") => subcommand(&contract, name, &args[1..]),
        _ => parse_run(&contract, &args)
            .and_then(|a| run(&contract, &a))
            .map(|()| true),
    };
    match res {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("benchmark: {e}");
            ExitCode::from(2)
        }
    }
}
