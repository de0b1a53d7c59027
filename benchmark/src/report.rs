//! Sets of runs: collecting one (`set`), judging two against the bounds
//! (`compare`), and deriving the bounds from several (`noise`).
//!
//! A set file holds the end-to-end metrics of some runs of every workload,
//! each run a process of its own on a seed of its own:
//! `{"host": "...", "runs": [{"workload", "seed", "attempted", "failed", "metrics": {name: value}, "as_the_clock_read": {name: value}}]}`.

use std::process::Command;

use fg_core::Json;

use crate::contract::Contract;
use crate::stats::{median, spread};

/// The runs of `workload` in a set.
fn runs_of<'a>(set: &'a Json, workload: &'a str) -> impl Iterator<Item = &'a Json> {
    set.get("runs")
        .and_then(Json::as_arr)
        .unwrap_or_default()
        .iter()
        .filter(move |r| r.get("workload").and_then(Json::as_str) == Some(workload))
}

/// `(attempted, failed)` operations of one run; zeros where the set does
/// not record them.
fn operations_of(run: &Json) -> (u64, u64) {
    let count = |key: &str| run.get(key).and_then(Json::as_u64).unwrap_or(0);
    (count("attempted"), count("failed"))
}

/// `(attempted, failed)` operations over the runs of `workload` in a set.
fn operations(set: &Json, workload: &str) -> (u64, u64) {
    runs_of(set, workload)
        .map(operations_of)
        .fold((0, 0), |(a, f), (ra, rf)| (a + ra, f + rf))
}

/// One workload × metric cell of a set: the values of its runs.  A run in
/// which every operation failed measured nothing and has no value.
fn cell(set: &Json, workload: &str, metric: &str) -> Vec<f64> {
    runs_of(set, workload)
        .filter(|r| {
            let (attempted, failed) = operations_of(r);
            attempted == 0 || failed < attempted
        })
        .filter_map(|r| r.get("metrics")?.get(metric)?.as_f64())
        .collect()
}

/// `doc` as indented text: one line per innermost object or list, so that
/// a committed set reads, and diffs, run by run.
fn pretty(doc: &Json) -> String {
    fn write(j: &Json, indent: usize, out: &mut String) {
        let nested = |v: &Json| matches!(v, Json::Arr(_) | Json::Obj(_));
        let pad = "  ".repeat(indent + 1);
        match j {
            Json::Obj(members) if members.iter().any(|(_, v)| nested(v)) => {
                out.push_str("{\n");
                for (i, (key, value)) in members.iter().enumerate() {
                    out.push_str(&format!("{pad}{}: ", Json::Str(key.clone())));
                    write(value, indent + 1, out);
                    out.push_str(if i + 1 < members.len() { ",\n" } else { "\n" });
                }
                out.push_str(&format!("{}}}", "  ".repeat(indent)));
            }
            Json::Arr(items) if items.iter().any(nested) => {
                out.push_str("[\n");
                for (i, item) in items.iter().enumerate() {
                    out.push_str(&pad);
                    write(item, indent + 1, out);
                    out.push_str(if i + 1 < items.len() { ",\n" } else { "\n" });
                }
                out.push_str(&format!("{}]", "  ".repeat(indent)));
            }
            flat => out.push_str(&flat.to_string()),
        }
    }
    let mut out = String::new();
    write(doc, 0, &mut out);
    out.push('\n');
    out
}

fn read_set(path: &str) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    Json::parse(&text).map_err(|e| format!("{path}: {e}"))
}

/// Run every workload `runs` times, untraced, each run a fresh process of
/// this executable on its own seed, workloads interleaved so that host
/// drift falls on all of them alike.
pub fn collect_set(
    contract: &Contract,
    runs: usize,
    seed_base: u64,
    out: &str,
) -> Result<(), String> {
    let exe = std::env::current_exe().map_err(|e| format!("own path: {e}"))?;
    let mut host = String::new();
    let mut records = Vec::new();
    for i in 0..runs as u64 {
        for workload in &contract.workloads {
            let seed = seed_base + i;
            eprintln!("run {} of {runs}: {workload}, seed {seed}", i + 1);
            let output = Command::new(&exe)
                .args(["--workload", workload, "--seed", &seed.to_string()])
                .args([
                    "--seconds",
                    &contract.run_seconds.to_string(),
                    "--trace",
                    "0",
                ])
                .output()
                .map_err(|e| format!("starting a run: {e}"))?;
            let stdout = String::from_utf8_lossy(&output.stdout);
            if !output.status.success() {
                return Err(format!(
                    "{workload} seed {seed} exited with {}",
                    output.status
                ));
            }
            if let Some(line) = stdout.lines().find_map(|l| l.strip_prefix("# host: ")) {
                host = line.to_string();
            }
            let last = stdout.lines().last().unwrap_or_default();
            let result =
                Json::parse(last).map_err(|e| format!("result line of {workload}: {e}"))?;
            let values = result
                .get("metrics")
                .and_then(Json::as_obj)
                .ok_or("result line has no metrics")?
                .iter()
                .map(|(name, m)| (name.clone(), m.get("value").cloned().unwrap_or(Json::Null)))
                .collect();
            // The three times before division by the host factor, so that a
            // committed set keeps what the clock read.
            let raw = stdout
                .lines()
                .filter_map(|l| l.strip_prefix("# as the clock read it: "))
                .filter_map(|l| {
                    let (name, value) = l.split_once(' ')?;
                    Some((name.to_string(), Json::Num(value.parse().ok()?)))
                })
                .collect();
            records.push(Json::Obj(vec![
                ("workload".into(), Json::Str(workload.clone())),
                ("seed".into(), Json::Num(seed as f64)),
                (
                    "attempted".into(),
                    result.get("attempted").cloned().unwrap_or(Json::Null),
                ),
                (
                    "failed".into(),
                    result.get("failed").cloned().unwrap_or(Json::Null),
                ),
                ("metrics".into(), Json::Obj(values)),
                ("as_the_clock_read".into(), Json::Obj(raw)),
            ]));
        }
    }
    let doc = Json::Obj(vec![
        ("host".into(), Json::Str(host)),
        ("run_seconds".into(), Json::Num(contract.run_seconds as f64)),
        ("runs".into(), Json::Arr(records)),
    ]);
    std::fs::write(out, pretty(&doc)).map_err(|e| format!("{out}: {e}"))
}

/// How one workload × metric cell of set B stands against set A.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// The gap is within the bound and so is either side's spread.
    Same,
    /// B is better than A by more than the bound.
    Better,
    /// The gap is within the bound, but a side's own runs differ by more
    /// than the bound: the data cannot show that nothing changed.
    Unresolved,
    /// B is worse than A by more than the bound.
    Worse,
}

/// `gap` is B's median against A's as a share of A's, positive when B is
/// worse; `spread` is the larger of the two sides' quartile distances.
pub fn verdict(gap: f64, spread: f64, bound: f64) -> Verdict {
    if gap > bound {
        Verdict::Worse
    } else if gap < -bound {
        Verdict::Better
    } else if spread > bound {
        Verdict::Unresolved
    } else {
        Verdict::Same
    }
}

/// Print every workload × end-to-end metric of two sets side by side, each
/// against the bound of its own pairing.  `Ok(false)` when any cell of B is
/// worse than A by more than its bound, when B failed more operations of a
/// workload than A, or when a cell of B has no successful run behind it: a
/// set that measured nothing has shown no gain.
pub fn compare(contract: &Contract, a_path: &str, b_path: &str) -> Result<bool, String> {
    compare_sets(contract, &read_set(a_path)?, &read_set(b_path)?)
}

fn compare_sets(contract: &Contract, a: &Json, b: &Json) -> Result<bool, String> {
    println!(
        "{:<14} {:<14} {:>12} {:>12} {:>8} {:>8} {:>7}  verdict",
        "workload", "metric", "A median", "B median", "gap", "spread", "bound"
    );
    let mut all_within = true;
    for workload in &contract.workloads {
        for metric in &contract.end_to_end {
            let (va, vb) = (
                cell(a, workload, &metric.name),
                cell(b, workload, &metric.name),
            );
            if va.is_empty() {
                return Err(format!("set A has no {workload}/{}", metric.name));
            }
            if vb.is_empty() {
                println!("{workload:<14} {:<14} no successful run in B", metric.name);
                all_within = false;
                continue;
            }
            let (ma, mb) = (median(&va), median(&vb));
            let worse = if metric.lower_is_better {
                mb - ma
            } else {
                ma - mb
            };
            let gap = if ma != 0.0 { worse / ma.abs() } else { 0.0 };
            let spread = spread(&va).max(spread(&vb));
            let bound = contract.cell_bound(workload, &metric.name);
            let verdict = verdict(gap, spread, bound);
            all_within &= verdict != Verdict::Worse;
            println!(
                "{workload:<14} {:<14} {ma:>12.4} {mb:>12.4} {:>+7.1}% {:>7.1}% {:>6.1}%  {verdict:?}",
                metric.name,
                gap * 100.0,
                spread * 100.0,
                bound * 100.0,
            );
        }
        let ((attempted_a, failed_a), (attempted_b, failed_b)) =
            (operations(a, workload), operations(b, workload));
        let more = failed_b > failed_a;
        all_within &= !more;
        println!(
            "{workload:<14} operations failed: A {failed_a} of {attempted_a}, B {failed_b} of {attempted_b}{}",
            if more { "  MoreFailures" } else { "" }
        );
    }
    Ok(all_within)
}

/// Round a share up to a whole percent.
fn whole_percent(share: f64) -> f64 {
    (share * 100.0 - 1e-9).ceil() / 100.0
}

/// The issue's ceiling on any bound.
const CEILING: f64 = 0.10;

/// The bound a pairing's noise supports: twice the largest gap between the
/// medians of sets of unchanged code, and no less than the largest spread
/// inside a set (the driver refuses a bound its own ten runs overshoot) nor
/// than 3%; in whole percent.  A pairing whose sets differ by more than
/// half the ceiling keeps the ceiling: the remedy for noise is a steadier
/// measurement, never a wider bound.
pub fn bound_from_noise(gap: f64, spread: f64) -> f64 {
    whole_percent((2.0 * gap).min(CEILING).max(spread).max(0.03))
}

/// The bound `BENCHMARK.json` holds for a metric, where there is room for
/// one and the driver tests it against the spread of its own ten runs: three
/// times the largest spread of any workload, as the driver's contract asks,
/// but no more than the issue's 10% and no less than the loosest bound of
/// the metric's pairings.
pub fn metric_bound(loosest_pairing: f64, largest_spread: f64) -> f64 {
    whole_percent(3.0 * largest_spread)
        .min(CEILING)
        .max(loosest_pairing)
}

/// From three or more sets of unchanged code: per workload × metric, the
/// largest gap between set medians, the largest quartile distance within a
/// set, and the bound these support; per metric, the bound for
/// `BENCHMARK.json`.
pub fn noise(contract: &Contract, paths: &[String], out: &str) -> Result<(), String> {
    let sets: Vec<Json> = paths
        .iter()
        .map(|p| read_set(p))
        .collect::<Result<_, _>>()?;
    let mut cells = Vec::new();
    let mut bounds = Vec::new();
    for metric in &contract.end_to_end {
        let (mut loosest, mut largest_spread): (f64, f64) = (0.0, 0.0);
        for workload in &contract.workloads {
            let medians: Vec<f64> = sets
                .iter()
                .map(|s| median(&cell(s, workload, &metric.name)))
                .collect();
            let lo = medians.iter().copied().fold(f64::INFINITY, f64::min);
            let hi = medians.iter().copied().fold(0.0, f64::max);
            let gap = if lo > 0.0 { (hi - lo) / lo } else { 0.0 };
            let within = sets
                .iter()
                .map(|s| spread(&cell(s, workload, &metric.name)))
                .fold(0.0, f64::max);
            let bound = bound_from_noise(gap, within);
            loosest = loosest.max(bound);
            largest_spread = largest_spread.max(within);
            cells.push(Json::Obj(vec![
                ("workload".into(), Json::Str(workload.clone())),
                ("metric".into(), Json::Str(metric.name.clone())),
                (
                    "set_medians".into(),
                    Json::Arr(medians.into_iter().map(Json::Num).collect()),
                ),
                ("largest_gap_between_set_medians".into(), Json::Num(gap)),
                (
                    "largest_quartile_distance_within_a_set".into(),
                    Json::Num(within),
                ),
                ("bound".into(), Json::Num(bound)),
            ]));
        }
        bounds.push(Json::Obj(vec![
            ("metric".into(), Json::Str(metric.name.clone())),
            ("loosest_workload_bound".into(), Json::Num(loosest)),
            ("largest_spread".into(), Json::Num(largest_spread)),
            (
                "bound_for_BENCHMARK.json".into(),
                Json::Num(metric_bound(loosest, largest_spread)),
            ),
            (
                "bound_in_BENCHMARK.json".into(),
                Json::Num(metric.bound.unwrap_or(0.0)),
            ),
        ]));
    }
    let doc = Json::Obj(vec![
        (
            "sets".into(),
            Json::Arr(paths.iter().cloned().map(Json::Str).collect()),
        ),
        (
            "rule".into(),
            Json::Str(
                "bound of a workload x metric = max(min(2 x largest gap between set medians, 10%), largest quartile distance within a set, 3%), in whole percent; bound of a metric in BENCHMARK.json = max(loosest of its workloads' bounds, min(3 x largest quartile distance, 10%))"
                    .into(),
            ),
        ),
        ("bounds".into(), Json::Arr(bounds)),
        ("cells".into(), Json::Arr(cells)),
    ]);
    std::fs::write(out, pretty(&doc)).map_err(|e| format!("{out}: {e}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_gap_beyond_the_bound_is_worse_or_better() {
        assert_eq!(verdict(0.11, 0.0, 0.10), Verdict::Worse);
        assert_eq!(verdict(-0.11, 0.0, 0.10), Verdict::Better);
        // A wide spread does not excuse a gap beyond the bound.
        assert_eq!(verdict(0.11, 0.5, 0.10), Verdict::Worse);
    }

    #[test]
    fn a_small_gap_with_a_wide_spread_is_unresolved_not_unchanged() {
        assert_eq!(verdict(0.02, 0.15, 0.10), Verdict::Unresolved);
        assert_eq!(verdict(0.02, 0.05, 0.10), Verdict::Same);
    }

    #[test]
    fn pretty_text_parses_back_to_the_same_document() {
        let doc =
            Json::parse(r#"{"a": [{"b": 1, "c": [1, 2]}, {"d": {}}], "e": "x", "f": []}"#).unwrap();
        let text = pretty(&doc);
        assert_eq!(Json::parse(&text).unwrap(), doc);
        // Innermost lists and objects stay on one line.
        assert!(
            text.contains("\"c\": [1,2]") && text.contains("\"f\": []"),
            "{text}"
        );
        assert_eq!(text.lines().count(), 13, "{text}");
    }

    /// A set of `runs` identical runs of every workload: each metric at
    /// `value`, `failed` of 10 operations failed in each run.
    fn uniform_set(contract: &Contract, runs: usize, value: f64, failed: u64) -> Json {
        let metrics: Vec<_> = contract
            .end_to_end
            .iter()
            .map(|m| (m.name.clone(), Json::Num(value)))
            .collect();
        let records = contract
            .workloads
            .iter()
            .flat_map(|w| {
                let run = Json::Obj(vec![
                    ("workload".into(), Json::Str(w.clone())),
                    ("attempted".into(), Json::Num(10.0)),
                    ("failed".into(), Json::Num(failed as f64)),
                    ("metrics".into(), Json::Obj(metrics.clone())),
                ]);
                vec![run; runs]
            })
            .collect();
        Json::Obj(vec![("runs".into(), Json::Arr(records))])
    }

    #[test]
    fn a_set_that_failed_its_operations_does_not_pass_as_a_gain() {
        let contract = Contract::load();
        let good = uniform_set(&contract, 4, 1.0, 0);
        assert_eq!(compare_sets(&contract, &good, &good), Ok(true));
        // Faster, and it failed an operation the parent did not fail.
        let flaky = uniform_set(&contract, 4, 0.5, 1);
        assert_eq!(compare_sets(&contract, &good, &flaky), Ok(false));
        assert_eq!(compare_sets(&contract, &flaky, &flaky), Ok(true));
        // Every operation failed: zeros everywhere, which is no gain either.
        let broken = uniform_set(&contract, 4, 0.0, 10);
        assert_eq!(compare_sets(&contract, &good, &broken), Ok(false));
        assert!(compare_sets(&contract, &broken, &good).is_err());
    }

    #[test]
    fn a_bound_covers_twice_the_gap_and_the_spread_and_three_percent() {
        assert_eq!(bound_from_noise(0.001, 0.002), 0.03);
        assert_eq!(bound_from_noise(0.031, 0.02), 0.07);
        assert_eq!(bound_from_noise(0.01, 0.052), 0.06);
        assert_eq!(bound_from_noise(0.02, 0.01), 0.04);
        // Twice the gap stops at the ceiling.
        assert_eq!(bound_from_noise(0.066, 0.024), 0.10);
        // One bound per metric: a third of it clears the widest spread,
        // up to the issue's 10%.
        assert_eq!(metric_bound(0.03, 0.005), 0.03);
        assert_eq!(metric_bound(0.05, 0.021), 0.07);
        assert_eq!(metric_bound(0.05, 0.05), 0.10);
    }

    #[test]
    fn cells_are_read_by_workload_and_metric() {
        let set = Json::parse(
            r#"{"runs": [
                {"workload": "a", "metrics": {"wall_s": 1.5, "cpu_s": 3}},
                {"workload": "b", "metrics": {"wall_s": 9}},
                {"workload": "a", "metrics": {"wall_s": 2.5}}]}"#,
        )
        .unwrap();
        assert_eq!(cell(&set, "a", "wall_s"), vec![1.5, 2.5]);
        assert_eq!(cell(&set, "a", "cpu_s"), vec![3.0]);
        assert!(cell(&set, "c", "wall_s").is_empty());
    }
}
