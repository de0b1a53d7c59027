//! End-to-end bottleneck analysis on seeded real programs (rows 1 and 3–5
//! of the diagnoser's table, `crates/sort/tests/diagnose_table.rs`): a slow
//! middle stage is named limiting with no other verdict, an ordered farm's
//! held round is blamed on the emission turn, a traced run cites its
//! slowest round, and a run over its memory budget is memory-bound.  A lone
//! stage's convey time is never an emission turn, and METRICS.md's
//! threshold table is the code's.

mod seeded_rows;

use std::collections::BTreeMap;
use std::time::Duration;

use fg_core::{diagnose, Report, StageStats, Verdict};
use seeded_rows::assert_row;

#[test]
fn injected_slow_middle_stage_is_diagnosed() {
    assert_row(&seeded_rows::SLOW_MIDDLE_STAGE);
}

#[test]
fn a_farm_waiting_its_emission_turn_is_diagnosed_as_that() {
    assert_row(&seeded_rows::HELD_EMISSION_TURN);
}

#[test]
fn a_traced_run_cites_its_slowest_round_and_the_stage_that_owns_the_path() {
    assert_row(&seeded_rows::TRACED_SLOW_HEAD);
}

#[test]
fn a_run_over_its_memory_budget_is_diagnosed_memory_bound() {
    assert_row(&seeded_rows::BUDGET_BELOW_THE_POOL);
}

/// Time in `convey` is an emission turn only where there are turns: the
/// same 80% share raises the verdict on a farm of two and not on a lone
/// stage, whose convey is a push it may have been descheduled in.
#[test]
fn only_a_farm_waits_its_emission_turn() {
    let stage = |name: &str, convey_ms| StageStats {
        name: name.into(),
        wall: Duration::from_millis(100),
        blocked_convey: Duration::from_millis(convey_ms),
        ..StageStats::default()
    };
    let turns = |stages| {
        let d = diagnose(&Report {
            stages,
            ..Report::default()
        });
        let turn = d.recommendations.iter();
        let turn = turn.filter(|r| r.verdict == Verdict::EmissionTurn);
        turn.map(|r| r.text.split('`').nth(1).unwrap().to_owned())
            .collect::<Vec<_>>()
    };
    let slow = || stage("slow", 0);
    assert_eq!(turns(vec![stage("lone", 80), slow()]), Vec::<String>::new());
    let farm = vec![stage("farm#0", 80), stage("farm#1", 80), slow()];
    assert_eq!(turns(farm), ["farm"]);
}

/// METRICS.md's threshold table lists exactly the numeric constants of
/// `analyze.rs`, by name and value, so the documented bars cannot drift
/// from the ones the verdicts use.
#[test]
fn metrics_md_lists_exactly_the_verdict_thresholds() {
    let value = |v: &str| -> f64 { v.replace('_', "").parse().expect("a number") };
    let documented: BTreeMap<&str, f64> = include_str!("../../../METRICS.md")
        .split("\n## Verdict thresholds\n")
        .nth(1)
        .and_then(|s| s.split("\n## ").next())
        .expect("a `Verdict thresholds` section")
        .lines()
        .filter_map(|l| {
            let mut cells = l.strip_prefix("| `")?.split(" | ");
            Some((cells.next()?.strip_suffix('`')?, value(cells.next()?)))
        })
        .collect();
    let declared: BTreeMap<&str, f64> = include_str!("../src/analyze.rs")
        .lines()
        .filter_map(|l| {
            let (name, rest) = l.split_once("const ")?.1.split_once(": ")?;
            let (ty, v) = rest.split_once(" = ")?;
            (ty != "&str").then(|| (name, value(v.trim_end_matches(';'))))
        })
        .collect();
    assert_eq!(documented, declared);
}
