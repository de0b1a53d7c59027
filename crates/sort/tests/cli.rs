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

#[test]
fn autotune_is_refused_where_no_controller_would_be_attached() {
    for program in ["dsort", "dsort-linear"] {
        let out = fgsort(&format!("--program {program} --autotune"));
        assert_eq!(out.status.code(), Some(1), "{program}");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains("--autotune is only wired"), "{err}");
    }
    sorted("csort4", "--autotune");
}
