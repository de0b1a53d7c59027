//! Regenerate every table and figure of the paper's evaluation, and check
//! the shape of each.
//!
//! ```text
//! cargo run -p fg-bench --release --bin experiments -- all
//! cargo run -p fg-bench --release --bin experiments -- fig8a --quick
//! cargo run -p fg-bench --release --bin experiments -- all --json-out out/
//! ```
//!
//! One optional cell name ([`CELLS`]; default `all`; DESIGN.md's experiment
//! index says what each regenerates) and three flags: `--quick` (4 nodes,
//! smoke sizes), `--json-out DIR` (one JSON artifact per cell, overwriting
//! what is there) and `--telemetry ADDR` (serve the fig8 runs' registry
//! live).  Anything else is refused with exit code 2.  With `--json-out` or
//! `--telemetry` the fig8 runs are observed: dsort runs with span tracing
//! and a metrics registry attached, and each cell's artifact embeds node 0's
//! full per-pass FG reports.
//!
//! **The one rule: no seconds are compared across invocations.**  A cell
//! that makes a claim runs all of its arms in this process and a `check`
//! function beside its runner in `fg_bench` tests a ratio or an ordering
//! between them.  Each prints one `check: <cell>: <claim> ... ok` or
//! `... FAILED (<observed>)` line, and any failure makes the exit code 1.
//! Seconds, CPU and bytes commit over commit are `benchmark/`'s job.

use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

use fg_bench::{
    check_csort_flat, check_csort_passes, check_io_volume, check_linear_ablation, check_ratio_band,
    check_unbalanced, check_virtual_ablation, Scale, CSORT_FLAT_CLAIM, IO_VOLUME_CLAIM,
    LINEAR_CLAIM, PASSES_CLAIM, RATIO_BAND_CLAIM, UNBALANCED_CLAIM, VIRTUAL_CLAIM,
};
use fg_bench::{io_overlap, kernel_bench, overlap, resource_profile, unbalanced_comm};
use fg_core::{Json, MetricsRegistry, TelemetryServer};
use fg_pdm::DiskCfg;
use fg_sort::record::RecordFormat;
use Val::{Count, Doc, Flag, KiB, MiB, Num, Ratio, Secs, Text};

/// Every cell name the command line accepts.
const CELLS: &str = "all fig8a fig8b ratio-table splitter-balance io-volume unbalanced \
     unbalanced-comm ablation-linear ablation-virtual ablation-overlap ablation-passes \
     io-overlap kernel-bench resource-profile";

const NO_GATE: &str = "experiments compares no seconds across invocations; seconds, CPU and \
     bytes commit over commit are benchmark/'s (benchmark/README.md)";
const ONE_RUN: &str = "every cell runs all of its arms in one invocation";

#[derive(Default)]
struct Args {
    cell: Option<String>,
    quick: bool,
    json_out: Option<PathBuf>,
    telemetry: Option<String>,
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut parsed = Args::default();
    while let Some(arg) = args.next() {
        let mut value = || args.next().ok_or(format!("{arg} needs an argument"));
        match arg.as_str() {
            "--quick" => parsed.quick = true,
            "--json-out" => parsed.json_out = Some(PathBuf::from(value()?)),
            "--telemetry" => parsed.telemetry = Some(value()?),
            // The deleted seconds gate, and the two-invocation comparisons
            // it was used for: an old script fails with a reason.
            "--baseline" | "--bench-out" => return Err(format!("{arg} was removed: {NO_GATE}")),
            "--gate-tolerance" | "--json-out-suffix" | "--workers" => {
                return Err(format!("{arg} was removed: {ONE_RUN}"))
            }
            flag if flag.starts_with("--") => return Err(format!("unknown flag {arg}")),
            name if !CELLS.split(' ').any(|c| c == name) => {
                return Err(format!("unknown cell {arg}"))
            }
            _ if parsed.cell.is_some() => return Err(format!("a second cell, {arg}")),
            _ => parsed.cell = Some(arg),
        }
    }
    Ok(parsed)
}

/// How one value prints in a cell's table and what it is in its artifact.
enum Val {
    Text(String),
    Count(u64),
    Secs(Duration),
    Num(f64),
    /// A ratio of two arms, printed `1.50x`.
    Ratio(f64),
    /// Bytes, printed in KiB.
    KiB(u64),
    /// Bytes, printed in MiB.
    MiB(u64),
    Flag(bool),
    /// A report the artifact embeds whole; never printed.
    Doc(Json),
}

impl Val {
    fn print(&self) -> String {
        match self {
            Text(s) => s.clone(),
            Count(n) => n.to_string(),
            Secs(d) => format!("{:.4}", d.as_secs_f64()),
            Num(x) => format!("{x:.3}"),
            Ratio(x) => format!("{x:.2}x"),
            KiB(b) => (b >> 10).to_string(),
            MiB(b) => format!("{:.2}", *b as f64 / (1u64 << 20) as f64),
            Flag(b) => b.to_string(),
            Doc(_) => String::new(),
        }
    }

    fn json(self) -> Json {
        match self {
            Text(s) => Json::from(s),
            Count(n) | KiB(n) | MiB(n) => Json::from(n),
            Secs(d) => Json::Num(d.as_secs_f64()),
            Num(x) | Ratio(x) => Json::Num(x),
            Flag(b) => Json::Bool(b),
            Doc(doc) => doc,
        }
    }
}

/// One column of one row, declared once for both outputs: the table's
/// header (`""`: not printed), the artifact's key (`""`: not written;
/// `outer.inner`: a member of the nested object `outer`, which consecutive
/// columns fill), and the value.
type Col = (&'static str, &'static str, Val);

fn print_table(rows: &[Vec<Col>]) {
    let Some(first) = rows.first() else { return };
    fn shown(row: &[Col]) -> impl Iterator<Item = &Col> {
        row.iter().filter(|c| !c.0.is_empty())
    }
    let mut lines: Vec<Vec<String>> = vec![shown(first).map(|c| c.0.to_string()).collect()];
    lines.extend(
        rows.iter()
            .map(|row| shown(row).map(|c| c.2.print()).collect()),
    );
    let width = |at: usize| lines.iter().map(|l| l[at].len()).max().unwrap_or(0);
    let widths: Vec<usize> = (0..lines[0].len()).map(width).collect();
    for line in &lines {
        let cells = line.iter().zip(&widths);
        let padded: Vec<String> = cells.map(|(c, &w)| format!("{c:>w$}")).collect();
        println!("{}", padded.join("  "));
    }
}

fn object(row: Vec<Col>) -> Json {
    let mut members: Vec<(String, Json)> = Vec::new();
    for (_, key, val) in row.into_iter().filter(|c| !c.1.is_empty()) {
        let Some((outer, inner)) = key.split_once('.') else {
            members.push((key.to_string(), val.json()));
            continue;
        };
        if members.last().is_none_or(|(k, _)| k != outer) {
            members.push((outer.to_string(), Json::Obj(Vec::new())));
        }
        if let Some((_, Json::Obj(nested))) = members.last_mut() {
            nested.push((inner.to_string(), val.json()));
        }
    }
    Json::Obj(members)
}

/// Where a run's artifacts go, and how many of its checks failed.
struct Run {
    json_out: Option<PathBuf>,
    failed: usize,
}

impl Run {
    fn write(&self, name: &str, value: Json) {
        let Some(dir) = &self.json_out else { return };
        let path = dir.join(format!("{name}.json"));
        if let Err(e) = std::fs::write(&path, value.to_string()) {
            eprintln!("error: failed to write {}: {e}", path.display());
            std::process::exit(1);
        }
        println!("wrote {}", path.display());
    }

    /// A cell of many rows: a table, and an array of objects.
    fn table(&self, name: &str, rows: Vec<Vec<Col>>) {
        print_table(&rows);
        self.write(name, Json::Arr(rows.into_iter().map(object).collect()));
    }

    /// A cell of one row: a table of one line, and an object.
    fn one(&self, name: &str, row: Vec<Col>) {
        print_table(std::slice::from_ref(&row));
        self.write(name, object(row));
    }

    fn check(&mut self, cell: &str, claim: &str, result: Result<(), String>) {
        match result {
            Ok(()) => println!("check: {cell}: {claim} ... ok"),
            Err(observed) => {
                println!("check: {cell}: {claim} ... FAILED ({observed})");
                self.failed += 1;
            }
        }
    }
}

fn fig8_cols(cell: &fg_bench::Fig8Cell) -> Vec<Col> {
    let (d, c) = (cell.dsort, cell.csort);
    let mut row = vec![
        ("distribution", "dist", Text(cell.dist.label())),
        ("d.samp", "dsort.sampling_s", Secs(d[0])),
        ("d.p1", "dsort.pass1_s", Secs(d[1])),
        ("d.p2", "dsort.pass2_s", Secs(d[2])),
        ("dsort", "dsort.total_s", Secs(cell.dsort_total())),
        ("c.p1", "csort.pass1_s", Secs(c[0])),
        ("c.p2", "csort.pass2_s", Secs(c[1])),
        ("c.p3", "csort.pass3_s", Secs(c[2])),
        ("csort", "csort.total_s", Secs(cell.csort_total())),
        ("d/c", "ratio", Num(cell.ratio())),
    ];
    if let Some((pass1, pass2)) = &cell.observed {
        row.push(("", "pass1_report", Doc(pass1.to_json_value())));
        row.push(("", "pass2_report", Doc(pass2.to_json_value())));
    }
    row
}

fn main() {
    let args = parse_args(std::env::args().skip(1)).unwrap_or_else(|problem| {
        eprintln!("error: {problem}");
        eprintln!("usage: experiments [CELL] [--quick] [--json-out DIR] [--telemetry ADDR]");
        eprintln!("cells: {CELLS}");
        std::process::exit(2);
    });
    if let Some(dir) = &args.json_out {
        if let Err(e) = std::fs::create_dir_all(dir) {
            eprintln!("error: failed to create {}: {e}", dir.display());
            std::process::exit(1);
        }
    }

    // With --telemetry, the fig8 dsort runs publish into this registry and
    // an HTTP endpoint exposes it live (GET /metrics, GET /report).
    let registry = Arc::new(MetricsRegistry::new());
    let telemetry = args.telemetry.map(|addr| {
        let server = TelemetryServer::bind(&addr, registry.clone(), None).unwrap_or_else(|e| {
            eprintln!("error: failed to bind telemetry server on {addr}: {e}");
            std::process::exit(1);
        });
        println!(
            "telemetry: serving /metrics and /report on http://{}",
            server.local_addr()
        );
        server
    });
    // Observed fig8 runs (tracing + metrics) are what put full FG reports
    // in the artifacts and live numbers on the endpoint.
    let observe = (args.json_out.is_some() || telemetry.is_some()).then_some(&registry);
    let mut run = Run {
        json_out: args.json_out,
        failed: 0,
    };
    let quick = args.quick;
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
    let only = args.cell.as_deref().unwrap_or("all");
    let wants = |cell: &str| only == "all" || only == cell;
    let text = |s: &str| Text(s.to_string());

    let mut fig8 = Vec::new();
    for (name, record, width, panel) in [
        ("fig8a", RecordFormat::REC16, "16-byte", "a"),
        ("fig8b", RecordFormat::REC64, "64-byte", "b"),
    ] {
        if wants(name) || only == "ratio-table" {
            let cells = fg_bench::run_fig8_panel(scale, record, observe).expect(name);
            println!("\n=== Figure 8({panel}): {width} records, total & per-pass times (s) ===");
            run.table(name, cells.iter().map(fig8_cols).collect());
            run.check(name, RATIO_BAND_CLAIM, check_ratio_band(&cells));
            run.check(name, CSORT_FLAT_CLAIM, check_csort_flat(&cells));
            fig8.push((width, cells));
        }
    }
    if wants("ratio-table") {
        println!("\n=== T1: dsort/csort total-time ratios (paper: 74.26%-85.06%) ===");
        let rows = fig8.iter().flat_map(|(width, cells)| {
            cells.iter().map(|cell| -> Vec<Col> {
                vec![
                    ("record", "record", text(width)),
                    ("distribution", "dist", Text(cell.dist.label())),
                    ("d/c %", "ratio_percent", Num(100.0 * cell.ratio())),
                ]
            })
        });
        run.table("ratio-table", rows.collect());
        let cells = fig8.iter().flat_map(|(_, cells)| cells);
        run.check("ratio-table", RATIO_BAND_CLAIM, check_ratio_band(cells));
    }
    if wants("splitter-balance") {
        println!("\n=== T2: splitter balance, max partition / average (paper: <= 1.10) ===");
        let oversamples = if quick { vec![4, 32] } else { vec![4, 16, 64] };
        let rows = fg_bench::run_splitter_balance(scale, &oversamples).expect("splitter-balance");
        let cols = |r: &fg_bench::BalanceRow| -> Vec<Col> {
            vec![
                ("distribution", "dist", Text(r.dist.label())),
                ("oversample", "oversample", Count(r.oversample as u64)),
                ("max/avg", "max_over_avg", Num(r.max_over_avg)),
            ]
        };
        run.table("splitter-balance", rows.iter().map(cols).collect());
        println!("no check: splitter-balance: the paper's 10% is ROADMAP item 6(a)");
    }
    if wants("io-volume") {
        println!("\n=== T3: data volume (paper: csort does ~50% more disk I/O) ===");
        let rows = fg_bench::run_io_volume(scale).expect("io-volume");
        let cols = |r: &fg_bench::IoVolumeRow| -> Vec<Col> {
            vec![
                ("program", "program", text(r.program)),
                ("read MiB", "bytes_read", MiB(r.bytes_read)),
                ("write MiB", "bytes_written", MiB(r.bytes_written)),
                ("net MiB", "net_bytes", MiB(r.net_bytes)),
            ]
        };
        run.table("io-volume", rows.iter().map(cols).collect());
        run.check("io-volume", IO_VOLUME_CLAIM, check_io_volume(&rows));
    }
    // T4 and A1 are the same table: one input, dsort against another program.
    let pair_rows = |rows: &[fg_bench::PairRow], other: [&'static str; 2], ratio| {
        let cols = |r: &fg_bench::PairRow| -> Vec<Col> {
            vec![
                ("input", "input", text(&r.label)),
                ("dsort s", "dsort_s", Secs(r.dsort)),
                (other[0], other[1], Secs(r.other)),
                (ratio, "", Ratio(r.speedup())),
            ]
        };
        rows.iter().map(cols).collect::<Vec<_>>()
    };
    if wants("unbalanced") {
        println!("\n=== T4: adversarial unbalanced-communication inputs ===");
        let rows = fg_bench::run_unbalanced(scale).expect("unbalanced");
        let table = pair_rows(&rows, ["csort s", "csort_s"], "csort/dsort");
        run.table("unbalanced", table);
        run.check("unbalanced", UNBALANCED_CLAIM, check_unbalanced(&rows));
    }
    if wants("unbalanced-comm") {
        println!("\n=== Cluster observability: skewed scatter (70% of traffic to rank 0) ===");
        let (nodes, blocks) = if quick { (4, 16) } else { (4, 32) };
        let res =
            unbalanced_comm::run_unbalanced_comm(nodes, blocks, None).expect("unbalanced-comm");
        let received = &res.received;
        println!("blocks received per node (sent {blocks} each): {received:?}\n");
        println!("{}", res.report.render());
        println!("{}", res.diagnosis.render());
        let received = received.iter().map(|&b| Json::from(b)).collect();
        let hot_rank = res.diagnosis.hot_rank.map(Json::from).unwrap_or(Json::Null);
        run.one(
            "unbalanced-comm",
            vec![
                ("", "nodes", Count(nodes as u64)),
                ("", "blocks_per_node", Count(blocks)),
                ("", "received", Doc(Json::Arr(received))),
                ("", "hot_rank", Doc(hot_rank)),
                ("", "cluster", Doc(res.report.to_json_value())),
                ("", "diagnosis", Doc(res.diagnosis.to_json_value())),
            ],
        );
        let result = unbalanced_comm::check(&res);
        run.check("unbalanced-comm", unbalanced_comm::CLAIM, result);
    }
    if wants("ablation-linear") {
        println!("\n=== A1: dsort (multiple pipelines) vs dsort-linear (single pipelines) ===");
        let rows = fg_bench::run_linear_ablation(scale).expect("ablation-linear");
        let table = pair_rows(&rows, ["linear s", "linear_s"], "linear/dsort");
        run.table("ablation-linear", table);
        let result = check_linear_ablation(&rows, scale.nodes);
        run.check("ablation-linear", LINEAR_CLAIM, result);
    }
    if wants("ablation-virtual") {
        println!("\n=== A2: virtual stages keep thread counts flat ===");
        // Vertical buffer bytes: the merge memory that buys run length.
        let vertical = if quick {
            vec![8 << 10, 1 << 10]
        } else {
            vec![16 << 10, 4 << 10, 1 << 10]
        };
        let rows = fg_bench::run_virtual_ablation(scale, &vertical).expect("ablation-virtual");
        let cols = |r: &fg_bench::VirtualAblationRow| -> Vec<Col> {
            vec![
                ("runs/node", "runs_per_node", Count(r.runs_per_node)),
                ("thr(virtual)", "threads_virtual", Count(r.threads_virtual)),
                ("thr(plain)", "threads_plain", Count(r.threads_plain)),
                ("t(virtual) s", "time_virtual_s", Secs(r.time_virtual)),
                ("t(plain) s", "time_plain_s", Secs(r.time_plain)),
            ]
        };
        run.table("ablation-virtual", rows.iter().map(cols).collect());
        let result = check_virtual_ablation(&rows);
        run.check("ablation-virtual", VIRTUAL_CLAIM, result);
    }
    if wants("ablation-overlap") {
        println!("\n=== A3: pipeline overlap vs serial execution (single node) ===");
        let disk = DiskCfg::new(Duration::from_micros(500), 200.0 * 1024.0 * 1024.0);
        let (blocks, passes) = if quick { (64, 12) } else { (256, 12) };
        let res = overlap::run_overlap(blocks, 64 << 10, disk, passes).expect("ablation-overlap");
        run.one(
            "ablation-overlap",
            vec![
                ("blocks", "blocks", Count(res.blocks as u64)),
                ("pipelined s", "pipelined_s", Secs(res.pipelined)),
                ("serial s", "serial_s", Secs(res.serial)),
                ("speedup", "speedup", Ratio(res.speedup())),
            ],
        );
        run.check("ablation-overlap", overlap::CLAIM, overlap::check(&res));
    }
    if wants("ablation-passes") {
        println!("\n=== A5: three-pass vs four-pass columnsort (the coalescing win) ===");
        let row = fg_bench::run_csort_pass_ablation(scale).expect("ablation-passes");
        run.one(
            "ablation-passes",
            vec![
                ("csort3 s", "csort3_s", Secs(row.csort3_total)),
                ("csort4 s", "csort4_s", Secs(row.csort4_total)),
                ("time ratio", "time_ratio", Ratio(row.ratio)),
                ("I/O ratio", "io_ratio", Ratio(row.io_ratio)),
            ],
        );
        run.check("ablation-passes", PASSES_CLAIM, check_csort_passes(&row));
    }
    if wants("io-overlap") {
        println!(
            "\n=== Out-of-core: a {}-buffer FG pipeline vs synchronous OsDisk (real files) ===",
            fg_bench::overlap::POOL_BUFFERS
        );
        let (blocks, block_bytes) = if quick {
            (256, 64 << 10)
        } else {
            (512, 256 << 10)
        };
        let res = io_overlap::run_io_overlap(blocks, block_bytes).expect("io-overlap");
        run.one(
            "io-overlap",
            vec![
                ("blocks", "blocks", Count(res.arms.blocks as u64)),
                ("block KiB", "block_bytes", KiB(res.block_bytes as u64)),
                ("passes", "compute_passes", Count(res.compute_passes as u64)),
                ("sync s", "sync_s", Secs(res.arms.serial)),
                ("overlapped s", "overlapped_s", Secs(res.arms.pipelined)),
                ("speedup", "speedup", Ratio(res.arms.speedup())),
            ],
        );
        run.check("io-overlap", io_overlap::CLAIM, io_overlap::check(&res));
    }
    if wants("kernel-bench") {
        println!("\n=== Sort/merge kernels: radix vs comparison, batched vs scalar merge ===");
        let res = kernel_bench::run_kernel_bench(quick);
        let times = kernel_bench::speedup;
        let merge_cols = |lanes: &str, c: &kernel_bench::MergeCell| -> Vec<Col> {
            vec![
                ("lanes", "", text(lanes)),
                ("k", "k", Count(c.k as u64)),
                ("records/lane", "per_lane", Count(c.per_lane as u64)),
                ("scalar s", "scalar_s", Secs(c.scalar)),
                ("batched s", "batched_s", Secs(c.batched)),
                ("staged s", "staged_s", Secs(c.staged)),
                ("speedup", "speedup", Ratio(times(c.scalar, c.batched))),
                ("identical", "identical", Flag(c.identical)),
            ]
        };
        let sort_cols = |c: &kernel_bench::SortCell| -> Vec<Col> {
            vec![
                ("records", "records", Count(c.records as u64)),
                ("radix s", "radix_s", Secs(c.radix)),
                ("comparison s", "comparison_s", Secs(c.comparison)),
                ("speedup", "speedup", Ratio(times(c.comparison, c.radix))),
            ]
        };
        let table = |rows: Vec<Vec<Col>>| {
            print_table(&rows);
            Doc(Json::Arr(rows.into_iter().map(object).collect()))
        };
        let sorts = table(res.sorts.iter().map(sort_cols).collect());
        let mut row: Vec<Col> = vec![("", "sorts", sorts)];
        for (key, lanes, cells) in [
            ("merge", "presorted", &res.merge),
            ("merge_interleaved", "interleaved", &res.merge_interleaved),
        ] {
            let rows = cells.iter().map(|c| merge_cols(lanes, c)).collect();
            row.push(("", key, table(rows)));
        }
        run.write("kernel-bench", object(row));
        let held = kernel_bench::check(&res);
        run.check("kernel-bench", kernel_bench::CLAIM, held);
    }
    if wants("resource-profile") {
        println!("\n=== R1: resource accounting overhead (base vs profiled, best-of-N) ===");
        let res = resource_profile::run_resource_profile(quick).expect("resource-profile");
        println!("{}", res.resources.render());
        run.one(
            "resource-profile",
            vec![
                ("nodes", "nodes", Count(res.nodes as u64)),
                ("KiB/node", "bytes_per_node", KiB(res.bytes_per_node as u64)),
                ("best of", "reps", Count(res.reps as u64)),
                ("base s", "base_s", Secs(res.base)),
                ("profiled s", "profiled_s", Secs(res.profiled)),
                ("overhead", "overhead_frac", Num(res.overhead_frac())),
                ("", "resources", Doc(res.resources.to_json_value())),
            ],
        );
        let result = resource_profile::check(&res);
        run.check("resource-profile", resource_profile::CLAIM, result);
    }
    if let Some(server) = telemetry {
        println!("telemetry: endpoint on {} closing", server.local_addr());
    }
    if run.failed > 0 {
        eprintln!("\n{} check(s) FAILED", run.failed);
        std::process::exit(1);
    }
    println!("\ndone.");
}
