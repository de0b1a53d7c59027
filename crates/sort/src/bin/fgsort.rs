//! fgsort: run the out-of-core sorts on a simulated cluster from the
//! command line.
//!
//! ```text
//! cargo run -p fg-sort --release --bin fgsort -- \
//!     --program dsort --nodes 8 --kib-per-node 256 --dist poisson
//! ```
//!
//! `fgsort --help` prints the flags ([`USAGE`]).

use std::process::ExitCode;
use std::sync::Arc;
use std::time::Duration;

use fg_core::{diagnose, MetricsRegistry, TelemetryServer};
use fg_sort::config::{DiskBackend, SortConfig};
use fg_sort::csort::run_csort;
use fg_sort::csort4::run_csort4;
use fg_sort::dsort::{plan, run_dsort_with, DsortOptions, DsortReport};
use fg_sort::dsort_linear::run_dsort_linear;
use fg_sort::input::{try_provision, try_provision_with_metrics};
use fg_sort::keygen::KeyDist;
use fg_sort::record::RecordFormat;
use fg_sort::verify::{verify_output, Strictness};

/// The tracking allocator: this binary opts in, so `--profile` can
/// attribute heap allocations to stages (and assert the sort hot loop is
/// allocation-free in steady state).  Without `--profile` the per-alloc
/// overhead is a few relaxed atomic RMWs.
#[global_allocator]
static FG_ALLOC: fg_core::FgAlloc = fg_core::FgAlloc;

/// What `--help` and a bad command line print.
const USAGE: &str = "\
usage: fgsort [flags]   (all optional)
  --program  dsort | csort | csort4 | dsort-linear   (default dsort)
  --nodes N                  cluster size              (default 8)
  --kib-per-node N           input size per node       (default 256)
  --record-bytes 16|64       record format             (default 16)
  --dist NAME                uniform | all-equal | std-normal | poisson
                             | shifted:K | hotkey:P | zipf:N  (default uniform)
  --seed N                   input RNG seed            (default 51966)
  --block-kib N              block/stripe size         (default 16)
  --run-kib N                floor on dsort's run size; the runs are as
                             long as the node's pool budget allows
                                                       (default 64)
  --workers N                replicas for the CPU-bound sort stages
                             (csort/csort4)             (default 1)
  --backend sim|os           storage backend: simulated in-memory disks
                             or real files               (default sim)
  --dir PATH                 root directory for --backend os (one
                             d{rank} subdirectory per node; default
                             fg-disks under the system temp dir)
  --free                     zero-cost disks & network (default: paper-
                             shaped cost model)
  --no-verify                skip output verification
  --trace OUT                flight-record per-buffer causal spans in
                             every pipeline and write a Chrome trace
                             (Perfetto / chrome://tracing) to OUT; also
                             prints node-0 per-pass Gantt charts (dsort)
  --watchdog-secs N          abort with a post-mortem report if any
                             pipeline makes no progress for N seconds
  --telemetry ADDR           serve live GET /metrics (Prometheus),
                             GET /report, GET /resources and GET /healthz
                             on ADDR (e.g. 127.0.0.1:9100) while the
                             sort runs; afterwards print the bottleneck
                             diagnosis of each of node 0's passes
  --cluster OUT              run with full per-node observability
                             (dsort only): every rank gets its own
                             metrics registry, the merged ClusterReport
                             JSON is written to OUT, and the per-rank
                             rollup, every rank's diagnosis and the
                             skew verdict are printed after the run
  --profile OUT              account node 0's stage threads' CPU,
                             process RSS and per-stage allocation
                             counters, print the resource report, and
                             write it (JSON, `resources` member) to OUT;
                             with --telemetry the same data is live on
                             GET /resources
  --mem-budget MIB           memory budget for the buffer-pool ledger;
                             the diagnosis reports a memory-bound
                             finding when peak usage approaches it";

/// The program to run, parsed at the CLI boundary.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Sort {
    Dsort,
    Csort,
    Csort4,
    DsortLinear,
}

impl Sort {
    const ALL: [(&'static str, Sort); 4] = [
        ("dsort", Sort::Dsort),
        ("csort", Sort::Csort),
        ("csort4", Sort::Csort4),
        ("dsort-linear", Sort::DsortLinear),
    ];

    fn parse(name: &str) -> Result<Sort, String> {
        let known = Sort::ALL.iter().find(|(n, _)| *n == name);
        known
            .map(|(_, sort)| *sort)
            .ok_or_else(|| format!("unknown program `{name}`"))
    }

    fn name(self) -> &'static str {
        Sort::ALL
            .iter()
            .find(|(_, s)| *s == self)
            .map_or("", |p| p.0)
    }
}

#[derive(Debug, PartialEq)]
struct Options {
    program: Sort,
    nodes: usize,
    kib_per_node: usize,
    record_bytes: usize,
    dist: KeyDist,
    seed: u64,
    block_kib: usize,
    run_kib: usize,
    workers: usize,
    backend: String,
    dir: Option<String>,
    free: bool,
    verify: bool,
    trace: Option<String>,
    watchdog_secs: Option<u64>,
    telemetry: Option<String>,
    cluster: Option<String>,
    profile: Option<String>,
    mem_budget_mib: Option<u64>,
}

impl Default for Options {
    fn default() -> Self {
        Options {
            program: Sort::Dsort,
            nodes: 8,
            kib_per_node: 256,
            record_bytes: 16,
            dist: KeyDist::Uniform,
            seed: 0xCAFE,
            block_kib: 16,
            run_kib: 64,
            workers: 1,
            backend: "sim".into(),
            dir: None,
            free: false,
            verify: true,
            trace: None,
            watchdog_secs: None,
            telemetry: None,
            cluster: None,
            profile: None,
            mem_budget_mib: None,
        }
    }
}

fn parse_dist(s: &str) -> Result<KeyDist, String> {
    if let Some(k) = s.strip_prefix("shifted:") {
        return Ok(KeyDist::Shifted {
            shift: k.parse().map_err(|e| format!("bad shift: {e}"))?,
        });
    }
    if let Some(p) = s.strip_prefix("hotkey:") {
        return Ok(KeyDist::HotKey {
            hot_percent: p.parse().map_err(|e| format!("bad percent: {e}"))?,
        });
    }
    if let Some(n) = s.strip_prefix("zipf:") {
        return Ok(KeyDist::Zipf {
            n: n.parse().map_err(|e| format!("bad key count: {e}"))?,
        });
    }
    match s {
        "uniform" => Ok(KeyDist::Uniform),
        "all-equal" => Ok(KeyDist::AllEqual),
        "std-normal" => Ok(KeyDist::StdNormal),
        "poisson" => Ok(KeyDist::Poisson),
        other => Err(format!("unknown distribution `{other}`")),
    }
}

/// The value of flag `name` as a number.
fn number<T: std::str::FromStr>(name: &str, value: Result<&String, String>) -> Result<T, String>
where
    T::Err: std::fmt::Display,
{
    value?.parse().map_err(|e| format!("{name}: {e}"))
}

fn parse_args(args: &[String]) -> Result<Options, String> {
    let mut opts = Options::default();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = |name: &str| -> Result<&String, String> {
            it.next().ok_or_else(|| format!("{name} needs a value"))
        };
        match arg.as_str() {
            "--program" => opts.program = Sort::parse(value("--program")?)?,
            "--nodes" => opts.nodes = number(arg, value(arg))?,
            "--kib-per-node" => opts.kib_per_node = number(arg, value(arg))?,
            "--record-bytes" => opts.record_bytes = number(arg, value(arg))?,
            "--dist" => opts.dist = parse_dist(value("--dist")?)?,
            "--seed" => opts.seed = number(arg, value(arg))?,
            "--block-kib" => opts.block_kib = number(arg, value(arg))?,
            "--run-kib" => opts.run_kib = number(arg, value(arg))?,
            "--workers" => opts.workers = number(arg, value(arg))?,
            "--backend" => opts.backend = value("--backend")?.clone(),
            "--dir" => opts.dir = Some(value("--dir")?.clone()),
            "--free" => opts.free = true,
            "--no-verify" => opts.verify = false,
            "--trace" => opts.trace = Some(value("--trace")?.clone()),
            "--watchdog-secs" => opts.watchdog_secs = Some(number(arg, value(arg))?),
            "--telemetry" => opts.telemetry = Some(value("--telemetry")?.clone()),
            "--cluster" => opts.cluster = Some(value("--cluster")?.clone()),
            "--profile" => opts.profile = Some(value("--profile")?.clone()),
            "--mem-budget" => {
                let mib: u64 = number(arg, value(arg))?;
                if mib == 0 {
                    return Err("--mem-budget must be positive".into());
                }
                opts.mem_budget_mib = Some(mib);
            }
            "--help" | "-h" => return Err("help".into()),
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    if !matches!(opts.backend.as_str(), "sim" | "os") {
        return Err(format!(
            "unknown backend `{}` (expected sim or os)",
            opts.backend
        ));
    }
    if opts.dir.is_some() && opts.backend != "os" {
        return Err("--dir only applies to --backend os".into());
    }
    if opts.cluster.is_some() && opts.program != Sort::Dsort {
        return Err("--cluster is only wired for --program dsort".into());
    }
    Ok(opts)
}

fn build_config(opts: &Options) -> Result<SortConfig, String> {
    let record = RecordFormat::new(opts.record_bytes).map_err(|e| e.to_string())?;
    let records_per_node = (opts.kib_per_node << 10) / record.record_bytes;
    let mut cfg = if opts.free {
        SortConfig::test_default(opts.nodes, records_per_node)
    } else {
        SortConfig::experiment_default(opts.nodes, records_per_node)
    };
    cfg.record = record;
    cfg.dist = opts.dist;
    cfg.seed = opts.seed;
    cfg.block_bytes = opts.block_kib << 10;
    cfg.run_bytes = (opts.run_kib << 10).max(cfg.block_bytes);
    cfg.vertical_buf_bytes = (cfg.block_bytes / 2).max(record.record_bytes);
    cfg.workers = opts.workers;
    if opts.trace.is_some() {
        cfg.trace_sink = Some(fg_core::TraceSink::new());
    }
    cfg.watchdog = opts.watchdog_secs.map(Duration::from_secs);
    if opts.watchdog_secs == Some(0) {
        return Err("--watchdog-secs must be positive".into());
    }
    if opts.backend == "os" {
        let dir = match &opts.dir {
            Some(d) => std::path::PathBuf::from(d),
            None => std::env::temp_dir().join("fg-disks"),
        };
        cfg.backend = DiskBackend::Os { dir };
    }
    // --profile wants the pools' ledger totals; --mem-budget wants the
    // budget check.  Either one attaches a ledger to every program.
    if opts.profile.is_some() || opts.mem_budget_mib.is_some() {
        cfg.ledger = Some(Arc::new(fg_core::MemoryLedger::with_budget(
            opts.mem_budget_mib.unwrap_or(0) << 20,
        )));
    }
    cfg.validate().map_err(|e| e.to_string())?;
    Ok(cfg)
}

/// A run's `(phase, max-across-nodes wall time)` list, in run order.
type Phases = Vec<(&'static str, Duration)>;

/// One line a phase, and the total: the shape every program prints from.
fn print_phases(phases: &Phases) {
    let total = ("total", phases.iter().map(|p| p.1).sum());
    for (name, time) in phases.iter().chain([&total]) {
        println!("  {name:<10} {:>9.1} ms", time.as_secs_f64() * 1e3);
    }
}

/// Node 0's FG reports with the phase each belongs to: the passes, one FG
/// program each, by name (`sampling` and `sync` run none).
fn passes<'a>(
    phases: &'a Phases,
    reports: &'a [fg_core::Report],
) -> impl Iterator<Item = (&'static str, &'a fg_core::Report)> {
    let passes = phases.iter().map(|p| p.0).filter(|n| n.starts_with("pass"));
    passes.zip(reports)
}

/// What only dsort has to say; returns node 0's reports, its communicator's
/// metrics beside its stages' when the run had a registry for them.
fn print_dsort(opts: &Options, r: &mut DsortReport) -> Result<Vec<fg_core::Report>, String> {
    println!("  partitions: {:?}", r.partition_records);
    println!("  runs merged: {:?}", r.runs_per_node);
    let mut reports = r
        .node0_reports
        .take()
        .map_or(vec![], |(p1, p2)| vec![p1, p2]);
    if opts.trace.is_some() {
        for (pass, report) in passes(&r.phases, &reports) {
            println!("\nnode 0, {pass}:\n{}", report.render_gantt(64));
        }
    }
    if let (Some(path), Some(cluster)) = (&opts.cluster, &r.cluster) {
        let diagnosis = fg_core::diagnose_cluster(cluster);
        println!("\n{}", cluster.render());
        println!("{}", diagnosis.render());
        let doc = fg_core::Json::Obj(vec![
            ("cluster".into(), cluster.to_json_value()),
            ("diagnosis".into(), diagnosis.to_json_value()),
        ]);
        std::fs::write(path, doc.to_string()).map_err(|e| format!("writing {path}: {e}"))?;
        println!("cluster report: wrote {path}");
    }
    for report in &mut reports {
        report.metrics.merge(&r.metrics);
    }
    Ok(reports)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse_args(&args) {
        Ok(o) => o,
        Err(e) => {
            if e != "help" {
                eprintln!("error: {e}\n");
            }
            eprintln!("{USAGE}");
            return if e == "help" {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            };
        }
    };

    let mut cfg = match build_config(&opts) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };

    println!(
        "{}: {} records x {} B on {} nodes ({} KiB total), {} keys{}",
        opts.program.name(),
        cfg.total_records(),
        cfg.record.record_bytes,
        cfg.nodes,
        cfg.total_bytes() >> 10,
        cfg.dist.label(),
        if opts.free { ", zero-cost" } else { "" },
    );

    // With --telemetry, all programs get metrics-instrumented disks and a
    // live HTTP endpoint, publish their queue and stage metrics and print a
    // bottleneck diagnosis of each pass after the run; dsort additionally
    // publishes its comm metrics.
    let registry = Arc::new(MetricsRegistry::new());
    if opts.telemetry.is_some() || opts.profile.is_some() {
        cfg.metrics = Some(Arc::clone(&registry));
    }
    let telemetry = match &opts.telemetry {
        Some(addr) => {
            match TelemetryServer::bind(addr.as_str(), Arc::clone(&registry), cfg.ledger.clone()) {
                Ok(server) => {
                    println!(
                        "telemetry: serving /metrics, /report, /resources, /healthz on http://{}",
                        server.local_addr()
                    );
                    Some(server)
                }
                Err(e) => {
                    eprintln!("error: failed to bind telemetry server on {addr}: {e}");
                    return ExitCode::FAILURE;
                }
            }
        }
        None => None,
    };
    let run_start = std::time::Instant::now();

    // Metrics-instrumented disks whenever a shared registry exists (live
    // telemetry or --profile).
    let provisioned = if cfg.metrics.is_some() {
        try_provision_with_metrics(&cfg, &registry)
    } else {
        try_provision(&cfg)
    };
    let disks = match provisioned {
        Ok(d) => d,
        Err(e) => {
            eprintln!("error: provisioning disks: {e}");
            return ExitCode::FAILURE;
        }
    };
    if opts.program == Sort::Dsort {
        let run_len = plan::run_len(&cfg);
        println!(
            "plan: {} KiB runs, ~{} a node, pool budget {:.1} MiB a node",
            run_len >> 10,
            cfg.bytes_per_node().div_ceil(run_len as u64),
            plan::pool_budget(&cfg) as f64 / (1 << 20) as f64,
        );
    }
    // Every program's run as its phase list, printed from one shape, and
    // node 0's FG reports, one a pass.
    let outcome = match opts.program {
        Sort::Dsort => {
            let dsort = DsortOptions {
                metrics: telemetry.is_some().then(|| Arc::clone(&registry)),
                observe: opts.cluster.is_some(),
                ..DsortOptions::default()
            };
            run_dsort_with(&cfg, &disks, dsort)
                .map_err(|e| e.to_string())
                .and_then(|mut r| {
                    print_phases(&r.phases);
                    let reports = print_dsort(&opts, &mut r)?;
                    Ok((r.phases, reports))
                })
        }
        Sort::Csort => run_csort(&cfg, &disks)
            .map(|r| {
                print_phases(&r.phases);
                println!("  matrix: r = {}, s = {}", r.matrix.r, r.matrix.s);
                (r.phases, r.node0_reports)
            })
            .map_err(|e| e.to_string()),
        Sort::Csort4 => run_csort4(&cfg, &disks)
            .map(|r| {
                print_phases(&r.phases);
                (r.phases, r.node0_reports)
            })
            .map_err(|e| e.to_string()),
        Sort::DsortLinear => run_dsort_linear(&cfg, &disks)
            .map(|r| {
                print_phases(&r.phases);
                (r.phases, r.node0_reports)
            })
            .map_err(|e| e.to_string()),
    };
    let run_wall = run_start.elapsed();
    // Write the causal trace even when the run failed: a watchdog abort is
    // exactly when the span log is most interesting.
    if let (Some(path), Some(sink)) = (&opts.trace, &cfg.trace_sink) {
        match std::fs::write(path, sink.to_chrome_trace()) {
            Ok(()) => println!("trace: wrote {path} (load in Perfetto or chrome://tracing)"),
            Err(e) => eprintln!("error: writing trace {path}: {e}"),
        }
    }
    let (phases, reports) = match outcome {
        Ok(ran) => ran,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };

    if opts.verify {
        match verify_output(&cfg, &disks, Strictness::Fingerprint) {
            Ok(()) => println!("output verified: sorted, striped, permutation of input"),
            Err(e) => {
                eprintln!("VERIFICATION FAILED: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    let io: u64 = disks.iter().map(|d| d.stats().bytes_total()).sum();
    println!("disk I/O: {:.2} MiB total", io as f64 / (1 << 20) as f64);

    if let Some(path) = &opts.profile {
        // Every pass report carries its stage threads' exit rows; the
        // process, allocator and ledger are read once, now.
        let mut resources = fg_core::ResourceReport::sample_now(cfg.ledger.as_deref());
        let exited = reports.iter().filter_map(|r| r.resources.as_ref());
        resources.threads = exited.flat_map(|r| r.threads.clone()).collect();
        println!("\n== resources ==\n{}", resources.render());
        let doc = fg_core::Json::Obj(vec![
            ("program".into(), fg_core::Json::from(opts.program.name())),
            ("wall_s".into(), fg_core::Json::Num(run_wall.as_secs_f64())),
            ("resources".into(), resources.to_json_value()),
        ]);
        match std::fs::write(path, doc.to_string()) {
            Ok(()) => println!("resource profile: wrote {path}"),
            Err(e) => {
                eprintln!("error: writing resource profile {path}: {e}");
                return ExitCode::FAILURE;
            }
        }
    }

    if let Some(server) = telemetry {
        println!("telemetry: endpoint on {} closing", server.local_addr());
        // The bottleneck diagnosis of each of node 0's passes.  With a flight
        // recorder attached each pass's report carries its own span log, so
        // the diagnosis cites that pass's rounds off its critical path.
        for (pass, report) in passes(&phases, &reports) {
            println!("\nnode 0, {pass}:\n{}", diagnose(report).render());
        }
    }
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(|s| s.to_string()).collect()
    }

    #[test]
    fn defaults() {
        let o = parse_args(&[]).unwrap();
        assert_eq!(o, Options::default());
    }

    #[test]
    fn full_flag_set() {
        let o = parse_args(&args(
            "--program csort --nodes 4 --kib-per-node 128 --record-bytes 64 \
             --dist poisson --seed 7 --block-kib 8 --run-kib 32 --workers 4 --free --no-verify \
             --trace out.json --watchdog-secs 60",
        ))
        .unwrap();
        assert_eq!(o.program, Sort::Csort);
        assert_eq!(o.nodes, 4);
        assert_eq!(o.kib_per_node, 128);
        assert_eq!(o.record_bytes, 64);
        assert_eq!(o.dist, KeyDist::Poisson);
        assert_eq!(o.seed, 7);
        assert_eq!(o.block_kib, 8);
        assert_eq!(o.run_kib, 32);
        assert_eq!(o.workers, 4);
        assert!(o.free);
        assert!(!o.verify);
        assert_eq!(o.trace.as_deref(), Some("out.json"));
        assert_eq!(o.watchdog_secs, Some(60));
    }

    #[test]
    fn trace_and_watchdog_flags_build_instrumentation() {
        let o = parse_args(&args("--free --trace t.json --watchdog-secs 30")).unwrap();
        let cfg = build_config(&o).unwrap();
        assert!(cfg.trace_sink.is_some());
        assert_eq!(cfg.watchdog, Some(Duration::from_secs(30)));
        // Neither flag: no sink allocated, no watchdog armed.
        let cfg = build_config(&Options {
            free: true,
            ..Options::default()
        })
        .unwrap();
        assert!(cfg.trace_sink.is_none());
        assert_eq!(cfg.watchdog, None);
    }

    #[test]
    fn trace_needs_a_path_and_watchdog_needs_seconds() {
        assert!(parse_args(&args("--trace")).is_err());
        assert!(parse_args(&args("--watchdog-secs")).is_err());
        assert!(parse_args(&args("--watchdog-secs banana")).is_err());
        let o = parse_args(&args("--free --watchdog-secs 0")).unwrap();
        assert!(build_config(&o).is_err());
    }

    #[test]
    fn parameterized_dists() {
        assert_eq!(
            parse_dist("shifted:3").unwrap(),
            KeyDist::Shifted { shift: 3 }
        );
        assert_eq!(
            parse_dist("hotkey:85").unwrap(),
            KeyDist::HotKey { hot_percent: 85 }
        );
        assert_eq!(parse_dist("zipf:50").unwrap(), KeyDist::Zipf { n: 50 });
        assert!(parse_dist("zipf").is_err());
        assert!(parse_dist("zipf:x").is_err());
        assert!(parse_dist("shifted:x").is_err());
    }

    #[test]
    fn cluster_flag_parses_and_requires_dsort() {
        let o = parse_args(&args("--cluster out.json")).unwrap();
        assert_eq!(o.cluster.as_deref(), Some("out.json"));
        assert!(parse_args(&args("--cluster")).is_err());
        let err = parse_args(&args("--program csort --cluster out.json")).unwrap_err();
        assert!(err.contains("--cluster"), "{err}");
    }

    #[test]
    fn profile_and_mem_budget_flags_build_a_ledger() {
        let o = parse_args(&args("--profile res.json --mem-budget 64 --free")).unwrap();
        assert_eq!(o.profile.as_deref(), Some("res.json"));
        assert_eq!(o.mem_budget_mib, Some(64));
        let cfg = build_config(&o).unwrap();
        let ledger = cfg.ledger.as_ref().expect("ledger attached");
        assert_eq!(ledger.budget(), 64 << 20);
        // --profile alone still attaches an (unbudgeted) accounting ledger.
        let o = parse_args(&args("--profile res.json --free")).unwrap();
        let cfg = build_config(&o).unwrap();
        assert_eq!(cfg.ledger.as_ref().expect("ledger").budget(), 0);
        // Neither flag: no ledger, no accounting overhead.
        let cfg = build_config(&parse_args(&args("--free")).unwrap()).unwrap();
        assert!(cfg.ledger.is_none());
        // Bad values are parse errors naming the flag.
        assert!(parse_args(&args("--profile")).is_err());
        assert!(parse_args(&args("--mem-budget 0")).is_err());
        assert!(parse_args(&args("--mem-budget banana")).is_err());
    }

    #[test]
    fn rejects_garbage() {
        assert!(parse_args(&args("--nodes banana")).is_err());
        assert!(parse_args(&args("--program quicksort")).is_err());
        assert!(parse_args(&args("--frobnicate")).is_err());
        assert!(parse_args(&args("--nodes")).is_err());
    }

    #[test]
    fn backend_flags() {
        let o = parse_args(&args("--backend os --dir /tmp/fg")).unwrap();
        assert_eq!(o.backend, "os");
        assert_eq!(o.dir.as_deref(), Some("/tmp/fg"));
        let cfg = build_config(&o).unwrap();
        assert_eq!(
            cfg.backend,
            DiskBackend::Os {
                dir: std::path::PathBuf::from("/tmp/fg")
            }
        );
    }

    #[test]
    fn backend_os_defaults_dir_to_tempdir() {
        let o = parse_args(&args("--backend os")).unwrap();
        let cfg = build_config(&o).unwrap();
        assert_eq!(
            cfg.backend,
            DiskBackend::Os {
                dir: std::env::temp_dir().join("fg-disks")
            }
        );
    }

    #[test]
    fn rejects_bad_backend_combinations() {
        assert!(parse_args(&args("--backend floppy")).is_err());
        assert!(parse_args(&args("--dir /tmp/fg")).is_err()); // sim + --dir
        assert!(parse_args(&args("--backend sim --dir /tmp/fg")).is_err());
        // Programs run on the bare backend: there is no read-ahead depth
        // to set.
        assert!(parse_args(&args("--io-depth 4")).is_err());
    }

    #[test]
    fn config_derives_sizes() {
        let o = Options {
            free: true,
            ..Options::default()
        };
        let cfg = build_config(&o).unwrap();
        assert_eq!(cfg.total_records(), 8 * 256 * 1024 / 16);
        assert_eq!(cfg.block_bytes, 16 << 10);
        cfg.validate().unwrap();
    }

    #[test]
    fn config_rejects_zero_workers() {
        let o = Options {
            workers: 0,
            free: true,
            ..Options::default()
        };
        assert!(build_config(&o).is_err());
    }

    #[test]
    fn config_rejects_bad_record_size() {
        let o = Options {
            record_bytes: 3,
            ..Options::default()
        };
        assert!(build_config(&o).is_err());
    }
}
