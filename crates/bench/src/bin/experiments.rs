//! Regenerate every table and figure of the paper's evaluation.
//!
//! ```text
//! cargo run -p fg-bench --release --bin experiments -- all
//! cargo run -p fg-bench --release --bin experiments -- fig8a [--quick]
//! cargo run -p fg-bench --release --bin experiments -- all --json-out out/
//! ```
//!
//! Subcommands (see DESIGN.md's experiment index):
//! `fig8a`, `fig8b`, `ratio-table` (T1), `splitter-balance` (T2),
//! `io-volume` (T3), `unbalanced` (T4), `unbalanced-comm` (the observed
//! skewed scatter of Figure 4: per-rank telemetry folded into a cluster
//! report whose diagnosis must name rank 0 as the hot receiver),
//! `ablation-linear` (A1),
//! `ablation-virtual` (A2), `ablation-overlap` (A3), `buffer-sweep` (A4),
//! `ablation-passes` (A5), `ablation-readahead` (A6), `workers-scaling`
//! (csort's farmed sort stages across replica counts; `--workers N` runs a
//! single count, e.g. for gating a farmed run against a serial baseline),
//! `io-overlap` (the out-of-core acceptance run: the I/O scheduler vs
//! synchronous `OsDisk` syscalls on real files), `autotune-convergence`
//! (the closed-loop controller started mis-configured must converge to the
//! hand-tuned operating point; `--hand-tuned` runs the open-loop reference
//! arm instead, e.g. to record a gate baseline), `kernel-bench` (the sort
//! and merge kernels: radix vs comparison, batched vs scalar merge —
//! best-of-N timings sized for the CI smoke gate), `queue-bench` (the
//! lock-free MPMC ring vs the mutex deque under the contended farm and
//! recycle traffic shapes; CI gates lock-free ≥1.2× at 4×4 on runners
//! with 4+ cores), `resource-profile` (R1: the resource profiler's own
//! overhead — a base csort arm vs one carrying registry + ledger +
//! profiler, best-of-N, with the profiled arm's full resource report in
//! the artifact; CI gates overhead < 2%), `all`.
//!
//! `--bench-out <file>` additionally flattens every produced artifact's
//! `_s` timing leaves into one normalized benchmark JSON (flat
//! `<artifact>.<path>` keys, seconds as values) — the repo's committed
//! `BENCH_fgsort.json` is generated this way.
//!
//! `--json-out <dir>` writes one machine-readable JSON artifact per
//! experiment into `<dir>`.  Re-running into the same directory overwrites
//! by default; `--json-out-suffix <tag>` names artifacts
//! `<name>-<tag>.json` instead (pass `time` for a timestamp) so successive
//! runs coexist.  The fig8 runs are then observed: dsort runs
//! with span tracing and a metrics registry attached, and each cell's
//! artifact embeds node 0's full per-pass FG reports (stage stats, queue
//! depths, and the run's comm and disk metrics).

use std::cell::RefCell;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

use fg_bench::gate::{compare, GateCfg, Regression};
use fg_bench::{
    run_buffer_sweep, run_fig8_panel, run_fig8_panel_observed_with, run_io_volume,
    run_linear_ablation, run_splitter_balance, run_unbalanced, run_virtual_ablation, Fig8Cell,
    Scale,
};
use fg_core::{Json, MetricsRegistry, Sampler, TelemetryServer};
use fg_pdm::DiskCfg;
use fg_sort::record::RecordFormat;

fn secs(d: Duration) -> String {
    format!("{:7.3}", d.as_secs_f64())
}

fn jobj(members: Vec<(&str, Json)>) -> Json {
    Json::Obj(
        members
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

fn jsecs(d: Duration) -> Json {
    Json::Num(d.as_secs_f64())
}

/// Where `--json-out` artifacts go and where `--baseline` artifacts come
/// from; every produced artifact funnels through [`ArtifactSink::write`],
/// which (when gating) also diffs it against the saved baseline.
struct ArtifactSink {
    dir: Option<PathBuf>,
    /// Appended to artifact file stems as `<name>-<suffix>.json`, so
    /// repeat runs into one directory don't silently clobber each other.
    suffix: Option<String>,
    baseline: Option<PathBuf>,
    gate: GateCfg,
    regressions: RefCell<Vec<Regression>>,
    compared: RefCell<usize>,
    /// With `--bench-out <file>`, every produced artifact's `_s` timing
    /// leaves are also flattened into one normalized benchmark file
    /// (written by [`ArtifactSink::finish_bench`]).
    bench_out: Option<PathBuf>,
    bench_rows: RefCell<Vec<(String, f64)>>,
}

impl ArtifactSink {
    fn active(&self) -> bool {
        self.dir.is_some() || self.baseline.is_some()
    }

    fn write(&self, name: &str, value: Json) {
        if let Some(dir) = &self.dir {
            let stem = match &self.suffix {
                Some(s) => format!("{name}-{s}"),
                None => name.to_string(),
            };
            let path = dir.join(format!("{stem}.json"));
            let clobbered = path.exists();
            if let Err(e) = std::fs::write(&path, value.to_string()) {
                eprintln!("error: failed to write {}: {e}", path.display());
                std::process::exit(1);
            }
            println!("wrote {}", path.display());
            // Warnings go to stderr: stdout may be piped into a JSON
            // consumer and must carry only the advertised output.
            if clobbered {
                eprintln!(
                    "warning: {} overwrote a previous run; use --json-out-suffix to keep both",
                    path.display()
                );
            }
        }
        if let Some(base) = self.baseline_path(name) {
            self.gate_against(name, &base, &value);
        }
        if self.bench_out.is_some() {
            self.bench_rows
                .borrow_mut()
                .extend(fg_bench::gate::flatten_timings(name, &value));
        }
    }

    /// Write the flat `--bench-out` benchmark file: one JSON object whose
    /// keys are `<artifact>.<path>` and whose values are seconds.
    fn finish_bench(&self) {
        let Some(path) = &self.bench_out else { return };
        let rows = self.bench_rows.borrow();
        let doc = Json::Obj(
            rows.iter()
                .map(|(k, v)| (k.clone(), Json::Num(*v)))
                .collect(),
        );
        if let Err(e) = std::fs::write(path, doc.to_string()) {
            eprintln!("error: failed to write {}: {e}", path.display());
            std::process::exit(1);
        }
        println!("bench: wrote {} ({} timings)", path.display(), rows.len());
    }

    /// Resolve the baseline artifact for `name`: `<dir>/<name>.json` when
    /// `--baseline` names a directory, or the file itself when it names a
    /// single artifact whose stem matches.
    fn baseline_path(&self, name: &str) -> Option<PathBuf> {
        let base = self.baseline.as_ref()?;
        if base.is_dir() {
            Some(base.join(format!("{name}.json")))
        } else if base.file_stem().is_some_and(|s| s == name) {
            Some(base.clone())
        } else {
            None
        }
    }

    fn gate_against(&self, name: &str, path: &PathBuf, current: &Json) {
        let text = match std::fs::read_to_string(path) {
            Ok(t) => t,
            Err(_) => {
                eprintln!("gate: no baseline for {name} ({}), skipped", path.display());
                return;
            }
        };
        let baseline = match Json::parse(&text) {
            Ok(j) => j,
            Err(e) => {
                eprintln!("error: baseline {} is not valid JSON: {e}", path.display());
                std::process::exit(1);
            }
        };
        let regs = compare(name, &baseline, current, &self.gate);
        *self.compared.borrow_mut() += 1;
        for r in &regs {
            println!("gate: REGRESSION {r}");
        }
        if regs.is_empty() {
            println!("gate: {name} ok");
        }
        self.regressions.borrow_mut().extend(regs);
    }

    /// Print the gate verdict; `Err` means at least one regression (or no
    /// artifact was ever compared, which would make a green gate vacuous).
    fn finish_gate(&self) -> Result<(), ()> {
        if self.baseline.is_none() {
            return Ok(());
        }
        let regs = self.regressions.borrow();
        let compared = *self.compared.borrow();
        if compared == 0 {
            eprintln!("gate: FAIL — no artifact matched the baseline");
            return Err(());
        }
        if regs.is_empty() {
            println!(
                "gate: PASS — {compared} artifact(s) within {:.0}% + {:.0}ms of baseline",
                100.0 * self.gate.rel_tolerance,
                1000.0 * self.gate.abs_floor_s
            );
            Ok(())
        } else {
            eprintln!("gate: FAIL — {} regression(s)", regs.len());
            Err(())
        }
    }
}

fn fig8_to_json(panel: &[Fig8Cell]) -> Json {
    Json::Arr(
        panel
            .iter()
            .map(|cell| {
                let mut m = vec![
                    ("dist", Json::from(cell.dist.label())),
                    (
                        "dsort",
                        jobj(vec![
                            ("sampling_s", jsecs(cell.dsort.sampling)),
                            ("pass1_s", jsecs(cell.dsort.pass1)),
                            ("pass2_s", jsecs(cell.dsort.pass2)),
                            ("total_s", jsecs(cell.dsort.total())),
                        ]),
                    ),
                    (
                        "csort",
                        jobj(vec![
                            ("pass1_s", jsecs(cell.csort.pass[0])),
                            ("pass2_s", jsecs(cell.csort.pass[1])),
                            ("pass3_s", jsecs(cell.csort.pass[2])),
                            ("total_s", jsecs(cell.csort.total)),
                        ]),
                    ),
                    ("ratio", Json::Num(cell.ratio())),
                ];
                if let Some(obs) = &cell.observed {
                    m.push(("pass1_report", obs.pass1.to_json_value()));
                    m.push(("pass2_report", obs.pass2.to_json_value()));
                }
                jobj(m)
            })
            .collect(),
    )
}

fn print_fig8(panel: &[Fig8Cell], title: &str) {
    println!("\n=== {title} ===");
    println!(
        "{:<12} | {:>7} {:>7} {:>7} {:>7} | {:>7} {:>7} {:>7} {:>7} | {:>7}",
        "distribution", "d.samp", "d.p1", "d.p2", "dsort", "c.p1", "c.p2", "c.p3", "csort", "d/c %"
    );
    println!("{}", "-".repeat(100));
    for cell in panel {
        let d = &cell.dsort;
        let c = &cell.csort;
        println!(
            "{:<12} | {} {} {} {} | {} {} {} {} | {:6.2}%",
            cell.dist.label(),
            secs(d.sampling),
            secs(d.pass1),
            secs(d.pass2),
            secs(d.total()),
            secs(c.pass[0]),
            secs(c.pass[1]),
            secs(c.pass[2]),
            secs(c.total),
            100.0 * cell.ratio(),
        );
    }
}

/// Remove `--flag <value>` from `args`, returning the value.
fn take_value_flag(args: &mut Vec<String>, flag: &str) -> Option<String> {
    let i = args.iter().position(|a| a == flag)?;
    if i + 1 >= args.len() {
        eprintln!("{flag} needs an argument");
        std::process::exit(2);
    }
    let v = args.remove(i + 1);
    args.remove(i);
    Some(v)
}

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let json_out = take_value_flag(&mut args, "--json-out").map(PathBuf::from);
    // `--json-out-suffix time` expands to the unix timestamp, giving each
    // run a distinct artifact set without inventing a name.
    let json_out_suffix = take_value_flag(&mut args, "--json-out-suffix").map(|s| {
        if s == "time" {
            let now = std::time::SystemTime::now()
                .duration_since(std::time::UNIX_EPOCH)
                .map(|d| d.as_secs())
                .unwrap_or(0);
            format!("{now}")
        } else {
            s
        }
    });
    let baseline = take_value_flag(&mut args, "--baseline").map(PathBuf::from);
    let bench_out = take_value_flag(&mut args, "--bench-out").map(PathBuf::from);
    let gate_tolerance = take_value_flag(&mut args, "--gate-tolerance").map(|v| {
        v.parse::<f64>().unwrap_or_else(|_| {
            eprintln!("--gate-tolerance needs a fraction, e.g. 0.30");
            std::process::exit(2);
        })
    });
    let telemetry_addr = take_value_flag(&mut args, "--telemetry");
    let workers_flag = take_value_flag(&mut args, "--workers").map(|v| {
        v.parse::<usize>()
            .ok()
            .filter(|&n| n > 0)
            .unwrap_or_else(|| {
                eprintln!("--workers needs a positive integer");
                std::process::exit(2);
            })
    });
    if let Some(dir) = &json_out {
        if let Err(e) = std::fs::create_dir_all(dir) {
            eprintln!("error: failed to create {}: {e}", dir.display());
            std::process::exit(1);
        }
    }
    if let Some(base) = &baseline {
        if !base.exists() {
            eprintln!("error: baseline {} does not exist", base.display());
            std::process::exit(2);
        }
    }
    let mut gate = GateCfg::default();
    if let Some(tol) = gate_tolerance {
        gate.rel_tolerance = tol;
    }
    let sink = ArtifactSink {
        dir: json_out,
        suffix: json_out_suffix,
        baseline,
        gate,
        regressions: RefCell::new(Vec::new()),
        compared: RefCell::new(0),
        bench_out,
        bench_rows: RefCell::new(Vec::new()),
    };

    // With --telemetry, the fig8 dsort runs publish into this registry and
    // a background sampler + HTTP endpoint expose it live (GET /metrics,
    // GET /report).
    let registry = Arc::new(MetricsRegistry::new());
    let telemetry = telemetry_addr.map(|addr| {
        let server = TelemetryServer::bind(&addr, Arc::clone(&registry)).unwrap_or_else(|e| {
            eprintln!("error: failed to bind telemetry server on {addr}: {e}");
            std::process::exit(1);
        });
        println!(
            "telemetry: serving /metrics and /report on http://{}",
            server.local_addr()
        );
        let sampler = Sampler::start(Arc::clone(&registry), Default::default());
        (server, sampler)
    });
    let quick = args.iter().any(|a| a == "--quick");
    let cmd = args
        .iter()
        .find(|a| !a.starts_with("--"))
        .cloned()
        .unwrap_or_else(|| "all".to_string());
    let scale = if quick {
        Scale::quick()
    } else {
        Scale::paper_scaled()
    };
    println!(
        "scale: {} nodes x {} KiB/node{}",
        scale.nodes,
        scale.bytes_per_node >> 10,
        if quick { " (quick)" } else { "" }
    );

    let run_all = cmd == "all";
    let mut fig8a: Option<Vec<Fig8Cell>> = None;
    let mut fig8b: Option<Vec<Fig8Cell>> = None;

    // With --json-out or --baseline, fig8 runs are observed (tracing +
    // metrics) so artifacts carry full FG reports and gate runs match the
    // baseline's instrumentation overhead; --telemetry additionally makes
    // the shared registry live on the HTTP endpoint.
    let observe = sink.active() || telemetry.is_some();
    let panel_for = |record| {
        if observe {
            run_fig8_panel_observed_with(scale, record, &registry)
        } else {
            run_fig8_panel(scale, record)
        }
    };
    if run_all || cmd == "fig8a" || cmd == "ratio-table" {
        let panel = panel_for(RecordFormat::REC16).expect("fig8a");
        print_fig8(
            &panel,
            "Figure 8(a): 16-byte records, total & per-pass times (s)",
        );
        sink.write("fig8a", fig8_to_json(&panel));
        fig8a = Some(panel);
    }
    if run_all || cmd == "fig8b" || cmd == "ratio-table" {
        let panel = panel_for(RecordFormat::REC64).expect("fig8b");
        print_fig8(
            &panel,
            "Figure 8(b): 64-byte records, total & per-pass times (s)",
        );
        sink.write("fig8b", fig8_to_json(&panel));
        fig8b = Some(panel);
    }
    if run_all || cmd == "ratio-table" {
        println!("\n=== T1: dsort/csort total-time ratios (paper: 74.26%-85.06%) ===");
        let mut lo = f64::MAX;
        let mut hi = f64::MIN;
        let mut ratio_rows = Vec::new();
        for (name, panel) in [("16-byte", &fig8a), ("64-byte", &fig8b)] {
            if let Some(panel) = panel {
                for cell in panel {
                    let r = 100.0 * cell.ratio();
                    lo = lo.min(r);
                    hi = hi.max(r);
                    println!("{name:<8} {:<12} {r:6.2}%", cell.dist.label());
                    ratio_rows.push(jobj(vec![
                        ("record", Json::from(name)),
                        ("dist", Json::from(cell.dist.label())),
                        ("ratio_percent", Json::Num(r)),
                    ]));
                }
            }
        }
        if lo <= hi {
            println!("range: {lo:.2}% - {hi:.2}%");
        }
        sink.write("ratio-table", Json::Arr(ratio_rows));
    }
    if run_all || cmd == "splitter-balance" {
        println!("\n=== T2: splitter balance, max partition / average (paper: <= 1.10) ===");
        let oversamples = if quick { vec![4, 32] } else { vec![4, 16, 64] };
        let rows = run_splitter_balance(scale, &oversamples).expect("splitter-balance");
        println!(
            "{:<12} {:>10} {:>12}",
            "distribution", "oversample", "max/avg"
        );
        for row in &rows {
            println!(
                "{:<12} {:>10} {:>11.3}x",
                row.dist.label(),
                row.oversample,
                row.max_over_avg
            );
        }
        sink.write(
            "splitter-balance",
            Json::Arr(
                rows.iter()
                    .map(|r| {
                        jobj(vec![
                            ("dist", Json::from(r.dist.label())),
                            ("oversample", Json::from(r.oversample)),
                            ("max_over_avg", Json::Num(r.max_over_avg)),
                        ])
                    })
                    .collect(),
            ),
        );
    }
    if run_all || cmd == "io-volume" {
        println!("\n=== T3: data volume (paper: csort does ~50% more disk I/O) ===");
        let rows = run_io_volume(scale).expect("io-volume");
        println!(
            "{:<8} {:>12} {:>12} {:>12}",
            "program", "read MiB", "write MiB", "net MiB"
        );
        let mib = |b: u64| b as f64 / (1 << 20) as f64;
        for r in &rows {
            println!(
                "{:<8} {:>12.2} {:>12.2} {:>12.2}",
                r.program,
                mib(r.bytes_read),
                mib(r.bytes_written),
                mib(r.net_bytes)
            );
        }
        if rows.len() == 2 {
            let dio = (rows[0].bytes_read + rows[0].bytes_written) as f64;
            let cio = (rows[1].bytes_read + rows[1].bytes_written) as f64;
            println!(
                "csort/dsort disk-I/O ratio: {:.2}x (paper: ~1.5x)",
                cio / dio
            );
        }
        sink.write(
            "io-volume",
            Json::Arr(
                rows.iter()
                    .map(|r| {
                        jobj(vec![
                            ("program", Json::from(r.program)),
                            ("bytes_read", Json::from(r.bytes_read)),
                            ("bytes_written", Json::from(r.bytes_written)),
                            ("net_bytes", Json::from(r.net_bytes)),
                        ])
                    })
                    .collect(),
            ),
        );
    }
    if run_all || cmd == "unbalanced" {
        println!("\n=== T4: adversarial unbalanced-communication inputs ===");
        let rows = run_unbalanced(scale).expect("unbalanced");
        println!(
            "{:<12} {:>9} {:>9} {:>8}",
            "input", "dsort s", "csort s", "d/c %"
        );
        for r in &rows {
            println!(
                "{:<12} {:>9.3} {:>9.3} {:>7.2}%",
                r.label,
                r.dsort.total().as_secs_f64(),
                r.csort.total.as_secs_f64(),
                100.0 * r.dsort.total().as_secs_f64() / r.csort.total.as_secs_f64()
            );
        }
        sink.write(
            "unbalanced",
            Json::Arr(
                rows.iter()
                    .map(|r| {
                        jobj(vec![
                            ("input", Json::from(r.label.as_str())),
                            ("dsort_s", jsecs(r.dsort.total())),
                            ("csort_s", jsecs(r.csort.total)),
                        ])
                    })
                    .collect(),
            ),
        );
    }
    if run_all || cmd == "unbalanced-comm" {
        println!("\n=== Cluster observability: skewed scatter (70% of traffic to rank 0) ===");
        let (nodes, blocks) = if quick { (4, 16) } else { (4, 32) };
        let res = fg_bench::unbalanced_comm::run_unbalanced_comm(nodes, blocks, None)
            .expect("unbalanced-comm");
        println!("blocks received per node (sent {blocks} each):");
        for (rank, b) in res.received.iter().enumerate() {
            println!(
                "  node {rank}: {b:>3} blocks  {}",
                "#".repeat(*b as usize / 2)
            );
        }
        println!("\n{}", res.report.render());
        println!("{}", res.diagnosis.render());
        // `hot_rank` is the machine-checked acceptance criterion: the
        // comm-aware diagnosis must name rank 0 from telemetry alone.
        sink.write(
            "unbalanced-comm",
            jobj(vec![
                ("nodes", Json::from(nodes)),
                ("blocks_per_node", Json::from(blocks)),
                (
                    "received",
                    Json::Arr(res.received.iter().map(|&b| Json::from(b)).collect()),
                ),
                (
                    "hot_rank",
                    res.diagnosis.hot_rank.map(Json::from).unwrap_or(Json::Null),
                ),
                ("cluster", res.report.to_json_value()),
                ("diagnosis", res.diagnosis.to_json_value()),
            ]),
        );
    }
    if run_all || cmd == "ablation-linear" {
        println!("\n=== A1: dsort (multiple pipelines) vs dsort-linear (single pipelines) ===");
        let rows = run_linear_ablation(scale).expect("ablation-linear");
        println!(
            "{:<12} {:>9} {:>9} {:>9}",
            "input", "dsort s", "linear s", "speedup"
        );
        for r in &rows {
            println!(
                "{:<12} {:>9.3} {:>9.3} {:>8.2}x",
                r.label,
                r.dsort.total().as_secs_f64(),
                r.linear.total().as_secs_f64(),
                r.linear.total().as_secs_f64() / r.dsort.total().as_secs_f64()
            );
        }
        sink.write(
            "ablation-linear",
            Json::Arr(
                rows.iter()
                    .map(|r| {
                        jobj(vec![
                            ("input", Json::from(r.label.as_str())),
                            ("dsort_s", jsecs(r.dsort.total())),
                            ("linear_s", jsecs(r.linear.total())),
                        ])
                    })
                    .collect(),
            ),
        );
    }
    if run_all || cmd == "ablation-virtual" {
        println!("\n=== A2: virtual stages keep thread counts flat ===");
        // Vertical buffer bytes: the merge memory that buys run length.
        let vertical = if quick {
            vec![8 << 10, 1 << 10]
        } else {
            vec![16 << 10, 4 << 10, 1 << 10]
        };
        let rows = run_virtual_ablation(scale, &vertical).expect("ablation-virtual");
        println!(
            "{:>12} {:>14} {:>12} {:>11} {:>10}",
            "runs/node", "thr(virtual)", "thr(plain)", "t(virt) s", "t(plain) s"
        );
        for r in &rows {
            println!(
                "{:>12} {:>14} {:>12} {:>11.3} {:>10.3}",
                r.runs_per_node,
                r.threads_virtual,
                r.threads_plain,
                r.time_virtual.as_secs_f64(),
                r.time_plain.as_secs_f64()
            );
        }
        sink.write(
            "ablation-virtual",
            Json::Arr(
                rows.iter()
                    .map(|r| {
                        jobj(vec![
                            ("runs_per_node", Json::from(r.runs_per_node)),
                            ("threads_virtual", Json::from(r.threads_virtual)),
                            ("threads_plain", Json::from(r.threads_plain)),
                            ("time_virtual_s", jsecs(r.time_virtual)),
                            ("time_plain_s", jsecs(r.time_plain)),
                        ])
                    })
                    .collect(),
            ),
        );
    }
    if run_all || cmd == "ablation-overlap" {
        println!("\n=== A3: pipeline overlap vs serial execution (single node) ===");
        let disk = DiskCfg::new(Duration::from_micros(500), 200.0 * 1024.0 * 1024.0);
        let (blocks, passes) = if quick { (64, 12) } else { (256, 12) };
        let res = fg_bench::overlap::run_overlap(blocks, 64 << 10, disk, passes)
            .expect("ablation-overlap");
        println!(
            "blocks: {}   pipelined: {:.3}s   serial: {:.3}s   speedup: {:.2}x",
            res.blocks,
            res.pipelined.as_secs_f64(),
            res.serial.as_secs_f64(),
            res.speedup()
        );
        sink.write(
            "ablation-overlap",
            jobj(vec![
                ("blocks", Json::from(res.blocks)),
                ("pipelined_s", jsecs(res.pipelined)),
                ("serial_s", jsecs(res.serial)),
                ("speedup", Json::Num(res.speedup())),
            ]),
        );
    }
    if run_all || cmd == "ablation-passes" {
        println!("\n=== A5: three-pass vs four-pass columnsort (the coalescing win) ===");
        let row = fg_bench::run_csort_pass_ablation(scale).expect("ablation-passes");
        println!(
            "csort3: {:.3}s   csort4: {:.3}s   time ratio {:.2}x   I/O ratio {:.2}x (expected ~1.33x)",
            row.csort3_total.as_secs_f64(),
            row.csort4_total.as_secs_f64(),
            row.ratio,
            row.io_ratio
        );
        sink.write(
            "ablation-passes",
            jobj(vec![
                ("csort3_s", jsecs(row.csort3_total)),
                ("csort4_s", jsecs(row.csort4_total)),
                ("time_ratio", Json::Num(row.ratio)),
                ("io_ratio", Json::Num(row.io_ratio)),
            ]),
        );
    }
    if run_all || cmd == "ablation-readahead" {
        println!("\n=== A6: read-ahead depth on dsort's pass-2 run pipelines ===");
        let depths = if quick { vec![1, 2] } else { vec![1, 2, 4, 8] };
        let rows = fg_bench::run_readahead_ablation(scale, &depths).expect("ablation-readahead");
        println!("{:>6} {:>10} {:>9}", "depth", "pass2 s", "total s");
        for r in &rows {
            println!(
                "{:>6} {:>10.3} {:>9.3}",
                r.depth,
                r.pass2.as_secs_f64(),
                r.total.as_secs_f64()
            );
        }
        sink.write(
            "ablation-readahead",
            Json::Arr(
                rows.iter()
                    .map(|r| {
                        jobj(vec![
                            ("depth", Json::from(r.depth)),
                            ("pass2_s", jsecs(r.pass2)),
                            ("total_s", jsecs(r.total)),
                        ])
                    })
                    .collect(),
            ),
        );
    }
    if run_all || cmd == "buffer-sweep" {
        println!("\n=== A4: buffer-size sweep ===");
        let sizes = if quick {
            vec![16, 64]
        } else {
            vec![16, 32, 64, 128, 256]
        };
        let rows = run_buffer_sweep(scale, &sizes).expect("buffer-sweep");
        println!("{:>10} {:>9} {:>9}", "block KiB", "dsort s", "csort s");
        for r in &rows {
            println!(
                "{:>10} {:>9.3} {:>9.3}",
                r.block_bytes >> 10,
                r.dsort_total.as_secs_f64(),
                r.csort_total.as_secs_f64()
            );
        }
        sink.write(
            "buffer-sweep",
            Json::Arr(
                rows.iter()
                    .map(|r| {
                        jobj(vec![
                            ("block_bytes", Json::from(r.block_bytes)),
                            ("dsort_s", jsecs(r.dsort_total)),
                            ("csort_s", jsecs(r.csort_total)),
                        ])
                    })
                    .collect(),
            ),
        );
    }
    if run_all || cmd == "workers-scaling" {
        println!("\n=== Workers scaling: csort's farmed sort stages (zero-cost I/O) ===");
        let counts: Vec<usize> = match workers_flag {
            Some(n) => vec![n],
            None if quick => vec![1, 2],
            None => vec![1, 2, 4],
        };
        let (nodes, bytes) = if quick { (2, 256 << 10) } else { (2, 4 << 20) };
        println!(
            "{nodes} nodes x {} KiB/node, workers {counts:?}",
            bytes >> 10
        );
        let rows = fg_bench::run_workers_scaling(nodes, bytes, &counts).expect("workers-scaling");
        println!(
            "{:>8} {:>9} {:>9} {:>9} {:>9} {:>9}",
            "workers", "pass1 s", "pass2 s", "pass3 s", "total s", "speedup"
        );
        let serial = rows.first().map(|r| r.total);
        for r in &rows {
            let speedup = serial
                .map(|s| s.as_secs_f64() / r.total.as_secs_f64())
                .unwrap_or(1.0);
            println!(
                "{:>8} {:>9.3} {:>9.3} {:>9.3} {:>9.3} {:>8.2}x",
                r.workers,
                r.pass[0].as_secs_f64(),
                r.pass[1].as_secs_f64(),
                r.pass[2].as_secs_f64(),
                r.total.as_secs_f64(),
                speedup
            );
        }
        sink.write(
            "workers-scaling",
            Json::Arr(
                rows.iter()
                    .map(|r| {
                        jobj(vec![
                            ("workers", Json::from(r.workers)),
                            ("pass1_s", jsecs(r.pass[0])),
                            ("pass2_s", jsecs(r.pass[1])),
                            ("pass3_s", jsecs(r.pass[2])),
                            ("total_s", jsecs(r.total)),
                        ])
                    })
                    .collect(),
            ),
        );
    }
    if run_all || cmd == "io-overlap" {
        println!("\n=== Out-of-core: I/O scheduler vs synchronous OsDisk (real files) ===");
        let (blocks, block_bytes, depth) = if quick {
            (64, 64 << 10, 4)
        } else {
            (512, 256 << 10, 4)
        };
        let res =
            fg_bench::io_overlap::run_io_overlap(blocks, block_bytes, depth).expect("io-overlap");
        println!(
            "{} blocks x {} KiB, depth {}: sync {:.3}s   overlapped {:.3}s   speedup {:.2}x   \
             prefetch {:.0}% hit ({} hits, {} misses)",
            res.blocks,
            res.block_bytes >> 10,
            res.io_depth,
            res.sync.as_secs_f64(),
            res.overlapped.as_secs_f64(),
            res.speedup(),
            100.0 * res.hit_rate(),
            res.prefetch_hits,
            res.prefetch_misses,
        );
        sink.write(
            "io-overlap",
            jobj(vec![
                ("blocks", Json::from(res.blocks)),
                ("block_bytes", Json::from(res.block_bytes)),
                ("io_depth", Json::from(res.io_depth)),
                ("compute_passes", Json::from(res.compute_passes)),
                ("sync_s", jsecs(res.sync)),
                ("overlapped_s", jsecs(res.overlapped)),
                ("speedup", Json::Num(res.speedup())),
                ("prefetch_hits", Json::from(res.prefetch_hits)),
                ("prefetch_misses", Json::from(res.prefetch_misses)),
            ]),
        );
    }
    if run_all || cmd == "autotune-convergence" {
        let hand_tuned = args.iter().any(|a| a == "--hand-tuned");
        println!("\n=== Autotune: closed-loop controller vs hand-tuned operating point ===");
        let shape = fg_bench::autotune::AutotuneShape::new(quick);
        let res = if hand_tuned {
            fg_bench::autotune::run_arm(shape, shape.width, shape.tuned_depth, false)
        } else {
            fg_bench::autotune::run_arm(shape, 1, 1, true)
        }
        .expect("autotune-convergence");
        let mode = if hand_tuned {
            "hand-tuned"
        } else {
            "autotuned"
        };
        println!(
            "{} rounds ({mode}): total {:.3}s   steady-state {:.3}s   \
             final {} workers, read-ahead depth {}",
            res.rounds,
            res.total.as_secs_f64(),
            res.steady_state.as_secs_f64(),
            res.final_workers,
            res.final_depth,
        );
        // `steady_state_s` is the shared gated key: the autotuned arm's
        // landing point vs the hand-tuned arm's whole run.  The wall times
        // keep arm-specific names so the convergence tax is visible in the
        // artifact without tripping the gate.
        let mut members = vec![
            ("mode", Json::from(mode)),
            ("rounds", Json::from(res.rounds)),
            ("steady_state_s", jsecs(res.steady_state)),
            ("final_workers", Json::from(res.final_workers)),
            ("final_io_depth", Json::from(res.final_depth)),
            (
                if hand_tuned {
                    "hand_total_s"
                } else {
                    "autotuned_total_s"
                },
                jsecs(res.total),
            ),
        ];
        if let Some(log) = &res.log {
            println!(
                "controller: {} ticks, {} actuations, {} decisions audited",
                log.ticks,
                log.actuations,
                log.decisions.len()
            );
            for d in &log.decisions {
                println!("  [{}] {} => {}", d.seq, d.verdict, d.action);
            }
            members.push(("controller", log.to_json_value()));
        }
        sink.write("autotune-convergence", jobj(members));
    }
    if run_all || cmd == "kernel-bench" {
        println!("\n=== Sort/merge kernels: radix vs comparison, batched vs scalar merge ===");
        let res = fg_bench::kernel_bench::run_kernel_bench(quick);
        println!(
            "sort {} records (uniform REC16): radix {:.3}s   comparison {:.3}s   speedup {:.2}x",
            res.records,
            res.radix.as_secs_f64(),
            res.comparison.as_secs_f64(),
            res.sort_speedup(),
        );
        let shapes = [
            ("presorted", &res.merge),
            ("interleaved", &res.merge_interleaved),
        ];
        for (shape, cells) in shapes {
            for cell in cells {
                println!(
                    "merge {shape:<11} k={:3} x {:6} records/lane: scalar {:.3}s   batched {:.3}s   speedup {:.2}x",
                    cell.k,
                    cell.per_lane,
                    cell.scalar.as_secs_f64(),
                    cell.batched.as_secs_f64(),
                    cell.speedup(),
                );
            }
        }
        let cells_json = |cells: &[fg_bench::kernel_bench::MergeCell]| {
            Json::Arr(
                cells
                    .iter()
                    .map(|cell| {
                        jobj(vec![
                            ("k", Json::from(cell.k)),
                            ("per_lane", Json::from(cell.per_lane)),
                            ("scalar_s", jsecs(cell.scalar)),
                            ("batched_s", jsecs(cell.batched)),
                            ("speedup", Json::Num(cell.speedup())),
                            ("identical", Json::Bool(cell.identical)),
                        ])
                    })
                    .collect(),
            )
        };
        sink.write(
            "kernel-bench",
            jobj(vec![
                ("records", Json::from(res.records)),
                ("radix_s", jsecs(res.radix)),
                ("comparison_s", jsecs(res.comparison)),
                ("sort_speedup", Json::Num(res.sort_speedup())),
                ("merge", cells_json(&res.merge)),
                ("merge_interleaved", cells_json(&res.merge_interleaved)),
            ]),
        );
    }
    if run_all || cmd == "queue-bench" {
        println!("\n=== Queue flavors: lock-free MPMC ring vs mutex deque ===");
        let res = fg_bench::queue_bench::run_queue_bench(quick);
        for c in &res.contended {
            println!(
                "contended {}p x {}c, {:6} items: mutex {:8.3} ms   lockfree {:8.3} ms   speedup {:.2}x",
                c.producers,
                c.consumers,
                c.items,
                c.mutex.as_secs_f64() * 1e3,
                c.lock_free.as_secs_f64() * 1e3,
                c.speedup(),
            );
        }
        let c = &res.recycle;
        println!(
            "recycle   {}p x {}c, {:6} items: mutex {:8.3} ms   lockfree {:8.3} ms   speedup {:.2}x",
            c.producers,
            c.consumers,
            c.items,
            c.mutex.as_secs_f64() * 1e3,
            c.lock_free.as_secs_f64() * 1e3,
            c.speedup(),
        );
        if !res.gate_eligible() {
            println!(
                "note: {}-core host: the 4x4 cell's 8 threads mostly take turns \
                 on the scheduler, so the lock-free speedup is not gateable here",
                res.cores
            );
        }
        let cell_json = |c: &fg_bench::queue_bench::QueueCell| {
            jobj(vec![
                ("producers", Json::from(c.producers)),
                ("consumers", Json::from(c.consumers)),
                ("items", Json::from(c.items)),
                ("mutex_s", jsecs(c.mutex)),
                ("lockfree_s", jsecs(c.lock_free)),
                ("speedup", Json::Num(c.speedup())),
            ])
        };
        sink.write(
            "queue-bench",
            jobj(vec![
                ("cores", Json::from(res.cores)),
                ("gate_eligible", Json::Bool(res.gate_eligible())),
                (
                    "gated_speedup",
                    Json::Num(res.gated_speedup().unwrap_or(0.0)),
                ),
                (
                    "contended",
                    Json::Arr(res.contended.iter().map(cell_json).collect()),
                ),
                ("recycle", cell_json(&res.recycle)),
            ]),
        );
    }
    if run_all || cmd == "resource-profile" {
        println!("\n=== R1: resource profiler overhead (base vs profiled, best-of-N) ===");
        let res =
            fg_bench::resource_profile::run_resource_profile(quick).expect("resource-profile");
        println!(
            "{} nodes x {} KiB/node, best of {}: base {:.3}s   profiled {:.3}s   overhead {:+.2}%",
            res.nodes,
            res.bytes_per_node >> 10,
            res.reps,
            res.base.as_secs_f64(),
            res.profiled.as_secs_f64(),
            100.0 * res.overhead_frac(),
        );
        println!("{}", res.resources.render());
        sink.write(
            "resource-profile",
            jobj(vec![
                ("nodes", Json::from(res.nodes)),
                ("bytes_per_node", Json::from(res.bytes_per_node)),
                ("reps", Json::from(res.reps)),
                ("base_s", jsecs(res.base)),
                ("profiled_s", jsecs(res.profiled)),
                ("overhead_frac", Json::Num(res.overhead_frac())),
                ("resources", res.resources.to_json_value()),
            ]),
        );
    }
    if let Some((server, sampler)) = telemetry {
        let series = sampler.stop();
        println!(
            "telemetry: collected {} samples; endpoint on {} closing",
            series.len(),
            server.local_addr()
        );
    }
    sink.finish_bench();
    let gate_ok = sink.finish_gate().is_ok();
    println!("\ndone.");
    if !gate_ok {
        std::process::exit(1);
    }
}
