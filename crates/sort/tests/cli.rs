//! The `fgsort` command line, end to end: each test runs the real binary.

use std::process::{Command, Output};

fn fgsort(args: &str) -> Output {
    Command::new(env!("CARGO_BIN_EXE_fgsort"))
        .args(args.split_whitespace())
        .output()
        .expect("fgsort runs")
}

fn stdout(out: &Output) -> String {
    String::from_utf8_lossy(&out.stdout).into_owned()
}

/// A small free run of `program`; returns what it printed.
fn sorted(program: &str, flags: &str) -> String {
    let out = fgsort(&format!(
        "--program {program} --nodes 2 --kib-per-node 64 --free {flags}"
    ));
    let text = stdout(&out);
    assert!(out.status.success(), "{program} {flags}: {out:?}");
    assert!(text.contains("output verified"), "{program}: {text}");
    text
}

/// The lines of `text` that report a phase's time, by phase name.
fn phases(text: &str) -> Vec<&str> {
    text.lines()
        .filter_map(|line| line.strip_suffix(" ms")?.strip_prefix("  "))
        .filter_map(|line| line.rsplit_once("  ").map(|(name, _)| name.trim()))
        .collect()
}

#[test]
fn every_program_prints_its_phases_and_a_total_from_one_shape() {
    let two = ["sampling", "pass 1", "pass 2", "sync", "total"];
    assert_eq!(phases(&sorted("dsort-linear", "")), two);
    let dsort = sorted("dsort", "");
    assert_eq!(phases(&dsort), two);
    assert!(
        dsort.contains("partitions: [") && dsort.contains("runs merged: ["),
        "{dsort}"
    );
    let csort = sorted("csort", "");
    assert_eq!(
        phases(&csort),
        ["pass 1", "pass 2", "pass 3", "sync", "total"]
    );
    assert!(csort.contains("matrix: r = "), "{csort}");
    assert_eq!(
        phases(&sorted("csort4", "")),
        ["pass 1", "pass 2", "pass 3", "pass 4", "sync", "total"]
    );
}

#[test]
fn an_unknown_program_is_refused_at_the_boundary() {
    let out = fgsort("--program quicksort");
    assert_eq!(out.status.code(), Some(1));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("unknown program `quicksort`"), "{err}");
}

#[test]
fn telemetry_diagnoses_every_pass_of_whichever_program_ran() {
    for (program, passes) in [
        ("csort", 3),
        ("csort4", 4),
        ("dsort-linear", 2),
        ("dsort", 2),
    ] {
        let text = sorted(program, "--telemetry 127.0.0.1:0");
        assert_eq!(text.matches("limiting stage: `").count(), passes, "{text}");
        for pass in 1..=passes {
            assert!(text.contains(&format!("node 0, pass {pass}:")), "{text}");
        }
    }
}

/// Each pass's diagnosis reads the span log of that pass's own report: its
/// critical path counts node 0's rounds of that pass — the journeys on the
/// `csort-p<N>-n0/*` threads of the run's Chrome trace — and no other
/// pass's or node's.
#[test]
fn a_traced_pass_diagnosis_counts_only_that_pass_s_node_0_rounds() {
    use std::collections::{HashMap, HashSet};

    use fg_core::Json;

    let path = std::env::temp_dir().join(format!("fgsort-cli-trace-{}.json", std::process::id()));
    let flags = format!("--trace {} --telemetry 127.0.0.1:0", path.display());
    let text = sorted("csort", &flags);
    let trace = Json::parse(&std::fs::read_to_string(&path).unwrap()).unwrap();
    std::fs::remove_file(&path).unwrap();
    let events = trace.get("traceEvents").and_then(Json::as_arr).unwrap();
    let num = |e: &Json, key: &str| e.get(key).and_then(Json::as_u64).unwrap_or(0);
    let mut threads: HashMap<(u64, u64), &str> = HashMap::new();
    let mut journeys: HashMap<&str, HashSet<u64>> = HashMap::new();
    for e in events {
        let at = (num(e, "pid"), num(e, "tid"));
        let args = e.get("args");
        match e.get("ph").and_then(Json::as_str) {
            Some("M") if e.get("name").and_then(Json::as_str) == Some("thread_name") => {
                let name = args.and_then(|a| a.get("name")).and_then(Json::as_str);
                threads.insert(at, name.unwrap());
            }
            Some("X") => {
                let id = args.map_or(0, |a| num(a, "trace_id"));
                let program = threads[&at].split('/').next().unwrap();
                if id != 0 {
                    journeys.entry(program).or_default().insert(id);
                }
            }
            _ => {}
        }
    }
    for pass in 1..=3 {
        let section = text
            .split(&format!("node 0, pass {pass}:\n"))
            .nth(1)
            .unwrap();
        let section = section.split("node 0, pass ").next().unwrap();
        let counted: usize = (section.lines())
            .find_map(|l| l.split_once(" traced rounds, ")?.0.parse().ok())
            .unwrap_or_else(|| panic!("pass {pass} has no critical path:\n{section}"));
        let rounds = journeys[format!("csort-p{pass}-n0").as_str()].len();
        assert_eq!(counted, rounds, "pass {pass}:\n{section}");
    }
}

/// CI's `resource-smoke` shape, diagnosed: the profile hangs the whole
/// process's resource sample on node 0's last pass, whose diagnosis once
/// divided every allocator tag's lifetime count — `untagged` and stages of
/// other passes and nodes included — by that one pass's wall and flagged
/// five "stages" as churning the heap.  No verdict reads the allocator
/// now; only the memory budget is judged.
#[test]
fn a_profiled_os_run_is_not_diagnosed_as_churning_the_heap() {
    let dir = std::env::temp_dir().join(format!("fgsort-cli-res-{}", std::process::id()));
    let profile = dir.join("profile.json");
    let text = sorted(
        "csort",
        &format!(
            "--nodes 4 --kib-per-node 2048 --backend os --dir {} --profile {} \
             --mem-budget 256 --telemetry 127.0.0.1:0",
            dir.display(),
            profile.display()
        ),
    );
    std::fs::remove_dir_all(&dir).unwrap();
    assert_eq!(text.matches("limiting stage: `").count(), 3, "{text}");
    for churn in [
        "alloc churn",
        "alloc-churn",
        "churning the heap",
        "memory-bound",
    ] {
        assert!(!text.contains(churn), "{churn}:\n{text}");
    }
}

/// Every pass report carries its own resources, so a run over its memory
/// budget is judged pass by pass, with or without `--profile`: each of
/// csort's three passes outgrows a 1 MiB budget and is memory-bound.
#[test]
fn every_pass_of_a_run_over_its_memory_budget_is_diagnosed_memory_bound() {
    let text = sorted(
        "csort",
        "--nodes 4 --kib-per-node 2048 --telemetry 127.0.0.1:0 --mem-budget 1",
    );
    assert_eq!(text.matches("limiting stage: `").count(), 3, "{text}");
    assert_eq!(text.matches("[memory-bound]").count(), 3, "{text}");
}

/// A farm's width and a pool's size are fixed when a program is built:
/// the flag that once attached a live tuner is refused like any flag
/// `fgsort` does not know, with the usage and a non-zero exit.
#[test]
fn the_closed_loop_flag_is_an_unknown_flag() {
    let out = fgsort("--program csort --autotune");
    assert_eq!(out.status.code(), Some(1));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("error: unknown flag `--autotune`"), "{err}");
    assert!(err.contains("usage: fgsort"), "{err}");
}

/// Threads are placed by the OS: the flags that once pinned every stage
/// thread to a core are refused like any flag `fgsort` does not know.
#[test]
fn the_pinning_flags_are_unknown_flags() {
    for args in ["--pin --free", "--pin-cores 0 --free"] {
        let out = fgsort(args);
        assert_eq!(out.status.code(), Some(1), "{args}");
        let err = String::from_utf8_lossy(&out.stderr);
        let flag = args.split(' ').next().unwrap();
        let refused = format!("error: unknown flag `{flag}`");
        assert!(err.contains(&refused), "{err}");
        assert!(err.contains("usage: fgsort"), "{err}");
    }
}
