//! The `experiments` command line, driven as CI drives it: a misspelt cell
//! or flag must fail the step, and a cell's exit code is its shape check.

use std::process::{Command, Output};

fn experiments(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_experiments"))
        .args(args)
        .output()
        .expect("run experiments")
}

fn refused(args: &[&str], why: &str) {
    let out = experiments(args);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
    assert!(stderr.contains(why), "{args:?}: {stderr}");
    assert!(stderr.contains("cells: all fig8a"), "{args:?}: {stderr}");
    assert!(out.stdout.is_empty(), "{args:?} ran something");
}

#[test]
fn an_unknown_cell_is_refused() {
    refused(&["fig8z", "--quick"], "unknown cell fig8z");
    refused(&["queue-bench"], "unknown cell queue-bench");
    // Retired cells that checked nothing (EXPERIMENTS A4, A6, A7).
    for cell in ["buffer-sweep", "ablation-readahead", "workers-scaling"] {
        refused(&[cell, "--quick"], &format!("unknown cell {cell}"));
    }
    refused(&["fig8a", "fig8b"], "a second cell, fig8b");
}

#[test]
fn an_unknown_flag_is_refused() {
    refused(&["--quik"], "unknown flag --quik");
    refused(&["io-volume", "--json-out"], "--json-out needs an argument");
}

#[test]
fn the_removed_flags_are_refused_with_a_reason() {
    for flag in ["--baseline", "--bench-out"] {
        refused(&["io-volume", flag, "x"], "benchmark/README.md");
    }
    for flag in ["--gate-tolerance", "--json-out-suffix", "--workers"] {
        refused(&["io-volume", flag, "1"], "in one invocation");
    }
}

#[test]
fn a_cell_prints_its_check_and_exits_zero() {
    let out = experiments(&["io-volume", "--quick"]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(out.status.code(), Some(0), "{stdout}");
    assert!(
        stdout.contains("check: io-volume: csort/dsort disk bytes = 1.50 +- 0.03 ... ok"),
        "{stdout}"
    );
}
