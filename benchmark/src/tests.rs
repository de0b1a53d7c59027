//! Tests of the harness itself, on inputs a few hundred KiB long.

use std::sync::Arc;

use fg_sort::input::input_fingerprint;
use fg_sort::verify::OUTPUT_FILE;

use crate::contract::Contract;
use crate::harness::Run;
use crate::timed_disk::{Recorder, TimedDisk};
use crate::workloads::{sort_config, sort_workload, Facts, Scratch, SortWorkload, Workload};
use crate::{parse_run, RunArgs};

/// 512 KiB in all: 128 KiB a node.
const TINY: f64 = 1.0 / 256.0;

fn tiny(name: &str, scratch: &Scratch, recorder: Option<Arc<Recorder>>) -> SortWorkload {
    sort_workload(name, 7, &scratch.path().join(name), TINY, recorder)
}

/// Every node's output file after set-up and the timed region.
fn sorted_output(w: &mut SortWorkload) -> Vec<Vec<u8>> {
    w.setup().unwrap();
    w.timed().unwrap();
    w.disks
        .iter()
        .map(|d| d.snapshot(OUTPUT_FILE).expect("every node has output"))
        .collect()
}

/// Bytes the `io` spans of `recorder` carry for `op`.
fn recorded(recorder: &Recorder, op: &str) -> u64 {
    recorder
        .spans()
        .iter()
        .filter(|s| s.layer == "io" && s.op == op)
        .map(|s| s.bytes)
        .sum()
}

#[test]
fn timed_disk_is_byte_transparent_and_counts_what_the_backend_counts() {
    let scratch = Scratch::new().unwrap();
    for name in ["dsort-sim", "csort-os"] {
        let plain = sorted_output(&mut tiny(name, &scratch, None));
        let recorder = Recorder::new();
        let mut traced = tiny(name, &scratch, Some(Arc::clone(&recorder)));
        assert_eq!(sorted_output(&mut traced), plain, "{name}");

        // `stats()` passes through every wrapper to the backend's counters.
        let backend = traced.disks.iter().map(|d| d.stats());
        let (read, written) =
            backend.fold((0, 0), |(r, w), s| (r + s.bytes_read, w + s.bytes_written));
        assert!(read > 0 && written > 0, "{name}");
        if name == "dsort-sim" {
            // Nothing between the program and a bare `SimDisk`.
            assert_eq!(recorded(&recorder, "read"), read);
            assert_eq!(recorded(&recorder, "write"), written);
        } else {
            // A scheduler reads ahead of what the program asks for.
            assert!(recorded(&recorder, "read") <= read);
            assert_eq!(recorded(&recorder, "write"), written);
        }
        traced.check().unwrap();
    }
}

#[test]
fn a_failed_call_is_recorded_as_moving_no_bytes() {
    let recorder = Recorder::new();
    let backend = fg_pdm::SimDisk::new(fg_pdm::DiskCfg::zero());
    let disk = TimedDisk::wrap(backend.clone(), "io", &recorder);
    disk.write_at("f", 0, &[1; 100]).unwrap();
    disk.fail_after_ops(0);
    assert!(disk.write_at("f", 100, &[2; 50]).is_err());
    assert!(disk.append("f", &[3; 25]).is_err());
    assert!(disk.read_at("f", 0, &mut [0; 10]).is_err());
    assert_eq!(recorded(&recorder, "write"), backend.stats().bytes_written);
    assert_eq!(recorded(&recorder, "write"), 100);
    assert_eq!(recorded(&recorder, "read"), 0);
    assert_eq!(recorder.spans().len(), 4);
}

#[test]
fn the_seed_and_nothing_else_decides_the_input() {
    let scratch = Scratch::new().unwrap();
    let cfg = |seed| sort_config("dsort-os-skew", seed, scratch.path(), TINY);
    assert_eq!(input_fingerprint(&cfg(1)), input_fingerprint(&cfg(1)));
    assert_ne!(input_fingerprint(&cfg(1)), input_fingerprint(&cfg(2)));
}

/// A workload whose second repetition meets a fault.
struct Tampered {
    inner: SortWorkload,
    repetition: usize,
    after_setup: fn(&SortWorkload),
    before_check: fn(&SortWorkload),
}

impl Tampered {
    fn hit(&self) -> bool {
        self.repetition == 2
    }
}

impl Workload for Tampered {
    fn setup(&mut self) -> Result<(), String> {
        self.repetition += 1;
        self.inner.setup()?;
        if self.hit() {
            (self.after_setup)(&self.inner);
        }
        Ok(())
    }

    fn timed(&mut self) -> Result<(), String> {
        self.inner.timed()
    }

    fn check(&mut self) -> Result<(), String> {
        if self.hit() {
            (self.before_check)(&self.inner);
        }
        self.inner.check()
    }

    fn facts(&self) -> &Facts {
        self.inner.facts()
    }
}

/// Run a warm-up and three repetitions of tiny `dsort-sim` with the fault
/// in place; return the run and its labelled end-to-end metrics.
fn run_tampered(after_setup: fn(&SortWorkload), before_check: fn(&SortWorkload)) -> Run {
    let scratch = Scratch::new().unwrap();
    let mut w = Tampered {
        inner: tiny("dsort-sim", &scratch, None),
        repetition: 0,
        after_setup,
        before_check,
    };
    Run::perform(&mut w, 3)
}

fn assert_one_failure_and_every_metric(run: &Run, reason: &str) {
    let errors: Vec<_> = run
        .samples
        .iter()
        .filter_map(|s| s.error.as_deref())
        .collect();
    assert_eq!(errors.len(), 1, "{errors:?}");
    assert!(errors[0].contains(reason), "{errors:?}");
    assert_eq!(run.samples.len(), 4);
    let contract = Contract::load();
    let rows = Contract::label(&contract.end_to_end, &run.end_to_end()).unwrap();
    assert_eq!(rows.len(), contract.end_to_end.len());
    for (metric, value) in rows {
        // A tiny sort may use less CPU than one clock tick.
        let floor = if metric.name == "cpu_s" {
            0.0
        } else {
            f64::MIN_POSITIVE
        };
        assert!(
            value.is_finite() && value >= floor,
            "{} = {value}",
            metric.name
        );
    }
}

#[test]
fn a_failing_disk_is_one_failed_operation_and_every_metric_still_prints() {
    let run = run_tampered(|w| w.disks[0].fail_after_ops(10), |_| ());
    assert_one_failure_and_every_metric(&run, "disk failed");
}

#[test]
fn a_corrupted_output_block_fails_the_check_and_is_counted() {
    let run = run_tampered(
        |_| (),
        |w| {
            let mut output = w.disks[1].snapshot(OUTPUT_FILE).unwrap();
            let last = output.len() - 1;
            output[last] ^= 0xFF; // payload byte: keys stay sorted
            w.disks[1].load(OUTPUT_FILE, output);
        },
    );
    assert_one_failure_and_every_metric(&run, "verification failed");
}

#[test]
fn the_contract_names_workloads_the_harness_can_build() {
    let contract = Contract::load();
    let scratch = Scratch::new().unwrap();
    for name in &contract.workloads {
        assert!(
            crate::workloads::build(name, 1, scratch.path(), None).is_some(),
            "{name}"
        );
        assert!(
            crate::workloads::repetitions(name, contract.run_seconds, contract.run_seconds) >= 10,
            "{name}"
        );
    }
    assert!(crate::workloads::build("dsort-model", 1, scratch.path(), None).is_none());
}

#[test]
fn the_bounds_are_the_ones_the_noise_data_support_and_none_exceeds_a_tenth() {
    let contract = Contract::load();
    let noise = fg_core::Json::parse(include_str!("../noise.json")).unwrap();
    let derived = noise.get("bounds").and_then(fg_core::Json::as_arr).unwrap();
    assert_eq!(derived.len(), contract.end_to_end.len());
    for (metric, row) in contract.end_to_end.iter().zip(derived) {
        assert_eq!(row.get("metric").unwrap().as_str(), Some(&*metric.name));
        let bound = row.get("bound_for_BENCHMARK.json").unwrap().as_f64();
        assert_eq!(metric.bound, bound, "{}", metric.name);
        assert!(bound.unwrap() <= 0.10, "{}", metric.name);
        for workload in &contract.workloads {
            let pairing = contract.cell_bound(workload, &metric.name);
            assert!(
                (0.03..=bound.unwrap()).contains(&pairing),
                "{workload}/{}",
                metric.name
            );
        }
    }
}

#[test]
fn the_driver_flags_parse_in_any_order() {
    let contract = Contract::load();
    let args = |s: &str| s.split(' ').map(String::from).collect::<Vec<_>>();
    assert_eq!(
        parse_run(
            &contract,
            &args("--trace 1 --seconds 5 --seed 9 --workload pipe-hop")
        ),
        Ok(RunArgs {
            workload: "pipe-hop".into(),
            seed: 9,
            seconds: 5,
            trace: true,
        })
    );
    assert!(parse_run(&contract, &args("--workload dsort-model")).is_err());
    assert!(parse_run(&contract, &args("--workload pipe-hop --seed")).is_err());
    assert!(parse_run(&contract, &args("--workload pipe-hop --bogus 1")).is_err());
}
