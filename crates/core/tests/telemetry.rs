//! End-to-end tests of the telemetry HTTP endpoint: bind an ephemeral
//! port, scrape it with a raw TCP client, and validate that `/metrics`
//! really is Prometheus text exposition format 0.0.4.

use std::collections::HashMap;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::Duration;

use fg_core::{MetricsRegistry, TelemetryServer};

/// Issue one `GET <path>` and return `(status line, headers, body)`.
fn http_get(addr: std::net::SocketAddr, path: &str) -> (String, HashMap<String, String>, String) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    write!(stream, "GET {path} HTTP/1.1\r\nHost: fg\r\n\r\n").unwrap();
    let mut response = String::new();
    stream.read_to_string(&mut response).expect("read response");
    let (head, body) = response
        .split_once("\r\n\r\n")
        .expect("response has a header/body split");
    let mut lines = head.lines();
    let status = lines.next().expect("status line").to_string();
    let headers = lines
        .filter_map(|l| l.split_once(": "))
        .map(|(k, v)| (k.to_ascii_lowercase(), v.to_string()))
        .collect();
    (status, headers, body.to_string())
}

/// Validate Prometheus text format 0.0.4: every line is a `# TYPE` comment
/// or a `name[{labels}] value` sample; `_bucket` series are cumulative and
/// end with `+Inf` equal to `_count`.
fn assert_valid_prometheus(body: &str) {
    let mut bucket_last: HashMap<String, u64> = HashMap::new();
    let mut inf: HashMap<String, u64> = HashMap::new();
    let mut counts: HashMap<String, u64> = HashMap::new();
    for line in body.lines() {
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix("# TYPE ") {
            let mut parts = rest.split(' ');
            let name = parts.next().expect("type line has a name");
            assert!(
                name.chars()
                    .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':'),
                "bad metric name {name:?}"
            );
            let kind = parts.next().expect("type line has a kind");
            assert!(
                ["counter", "gauge", "histogram"].contains(&kind),
                "bad kind {kind:?}"
            );
            continue;
        }
        assert!(!line.starts_with('#'), "unexpected comment {line:?}");
        let (name_and_labels, value) = line.rsplit_once(' ').expect("sample has a value");
        let value: f64 = value.parse().unwrap_or_else(|_| {
            panic!("unparsable sample value in {line:?}");
        });
        let name = name_and_labels
            .split_once('{')
            .map_or(name_and_labels, |(n, _)| n);
        assert!(
            name.chars()
                .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':'),
            "bad sample name {name:?} in {line:?}"
        );
        if let Some(base) = name.strip_suffix("_bucket") {
            let le = name_and_labels
                .split_once("le=\"")
                .and_then(|(_, rest)| rest.split_once('"'))
                .map(|(le, _)| le.to_string())
                .expect("bucket has le label");
            let prev = bucket_last.get(base).copied().unwrap_or(0);
            assert!(
                value as u64 >= prev,
                "bucket series for {base} not cumulative at {line:?}"
            );
            bucket_last.insert(base.to_string(), value as u64);
            if le == "+Inf" {
                inf.insert(base.to_string(), value as u64);
            }
        } else if let Some(base) = name.strip_suffix("_count") {
            counts.insert(base.to_string(), value as u64);
        }
    }
    for (base, n) in &inf {
        assert_eq!(
            counts.get(base),
            Some(n),
            "histogram {base}: +Inf bucket must equal _count"
        );
    }
    assert!(
        !inf.is_empty(),
        "expected at least one histogram in the scrape"
    );
}

fn populated_registry() -> Arc<MetricsRegistry> {
    let reg = Arc::new(MetricsRegistry::new());
    reg.counter("core/accepts").add(42);
    reg.gauge("core/queue_depth/p[1]").set(3);
    let h = reg.histogram("disk/d0/read_ns");
    for v in [100, 1_000, 10_000, 100_000] {
        h.record(v);
    }
    reg
}

#[test]
fn metrics_endpoint_serves_valid_prometheus_text() {
    let reg = populated_registry();
    let server = TelemetryServer::bind("127.0.0.1:0", Arc::clone(&reg)).expect("bind");
    let (status, headers, body) = http_get(server.local_addr(), "/metrics");
    assert!(status.contains("200"), "status was {status}");
    assert_eq!(
        headers.get("content-type").map(String::as_str),
        Some("text/plain; version=0.0.4; charset=utf-8")
    );
    assert_eq!(
        headers.get("content-length").and_then(|v| v.parse().ok()),
        Some(body.len())
    );
    assert!(body.contains("fg_core_accepts 42"), "body:\n{body}");
    assert!(body.contains("fg_core_queue_depth_p_1"), "body:\n{body}");
    assert_valid_prometheus(&body);
}

#[test]
fn zero_valued_gauges_keep_their_type_lines() {
    // Regression guard: a gauge that is registered but still zero at the
    // first scrape (a write-behind queue that never filled, say) must
    // still be announced with a `# TYPE` line and a zero sample —
    // dashboards discover series from the first scrape.
    let reg = Arc::new(MetricsRegistry::new());
    reg.gauge("core/idle_gauge").set(0);
    reg.counter("core/idle_counter");
    // The resource profiler's gauges follow the same discovery contract: a
    // thread that never accumulated CPU (or an allocator tag that never
    // fired) still announces its series on the first scrape.
    reg.gauge("resource/thread/sort/utime_ns").set(0);
    reg.gauge("resource/alloc/sort/count").set(0);
    let server = TelemetryServer::bind("127.0.0.1:0", Arc::clone(&reg)).expect("bind");
    let (_, _, body) = http_get(server.local_addr(), "/metrics");
    assert!(
        body.contains("# TYPE fg_core_idle_gauge gauge"),
        "zero gauge lost its TYPE line, body:\n{body}"
    );
    assert!(body.contains("fg_core_idle_gauge 0"), "body:\n{body}");
    assert!(
        body.contains("# TYPE fg_core_idle_counter counter"),
        "zero counter lost its TYPE line, body:\n{body}"
    );
    assert!(body.contains("fg_core_idle_counter 0"), "body:\n{body}");
    assert!(
        body.contains("# TYPE fg_resource_thread_sort_utime_ns gauge"),
        "zero resource gauge lost its TYPE line, body:\n{body}"
    );
    assert!(
        body.contains("fg_resource_alloc_sort_count 0"),
        "body:\n{body}"
    );
}

#[test]
fn scrape_counter_increments_per_request() {
    let reg = populated_registry();
    let server = TelemetryServer::bind("127.0.0.1:0", Arc::clone(&reg)).expect("bind");
    let (_, _, first) = http_get(server.local_addr(), "/metrics");
    let (_, _, second) = http_get(server.local_addr(), "/metrics");
    // Each request bumps the counter before snapshotting, so a scrape
    // observes itself.
    assert!(first.contains("fg_telemetry_scrapes 1"), "body:\n{first}");
    assert!(second.contains("fg_telemetry_scrapes 2"), "body:\n{second}");
}

#[test]
fn report_endpoint_renders_dashboard() {
    let reg = populated_registry();
    let server = TelemetryServer::bind("127.0.0.1:0", Arc::clone(&reg)).expect("bind");
    let (status, _, body) = http_get(server.local_addr(), "/report");
    assert!(status.contains("200"), "status was {status}");
    assert!(body.contains("core/accepts"), "body:\n{body}");
}

#[test]
fn unknown_path_is_404_and_server_survives() {
    let reg = populated_registry();
    let server = TelemetryServer::bind("127.0.0.1:0", Arc::clone(&reg)).expect("bind");
    let (status, _, body) = http_get(server.local_addr(), "/nope");
    assert!(status.contains("404"), "status was {status}");
    // The 404 body tells the operator where to look instead.
    for route in ["/metrics", "/report", "/cluster", "/resources", "/healthz"] {
        assert!(body.contains(route), "404 body missing {route}: {body}");
    }
    // The listener keeps serving after a 404.
    let (status, _, _) = http_get(server.local_addr(), "/metrics");
    assert!(status.contains("200"), "status was {status}");
}

#[test]
fn healthz_answers_ok() {
    let reg = populated_registry();
    let server = TelemetryServer::bind("127.0.0.1:0", Arc::clone(&reg)).expect("bind");
    let (status, headers, body) = http_get(server.local_addr(), "/healthz");
    assert!(status.contains("200"), "status was {status}");
    assert_eq!(body, "ok\n");
    assert_eq!(
        headers.get("content-length").and_then(|v| v.parse().ok()),
        Some(body.len())
    );
}

#[test]
fn cluster_endpoint_serves_the_installed_report() {
    use std::time::Duration;

    let reg = populated_registry();
    // Without a cluster source, the route 404s.
    let server = TelemetryServer::bind("127.0.0.1:0", Arc::clone(&reg)).expect("bind");
    let (status, _, _) = http_get(server.local_addr(), "/cluster");
    assert!(status.contains("404"), "status was {status}");
    drop(server);

    // With one, it serves the merged report as JSON.
    let mut cr = fg_core::ClusterReport::new(2);
    for rank in 0..2 {
        cr.push(fg_core::RankReport {
            rank,
            wall: Duration::from_millis(10),
            reports: Vec::new(),
            metrics: fg_core::MetricsSnapshot::default(),
        });
    }
    let body_src = cr.to_json();
    let server = TelemetryServer::bind_all(
        "127.0.0.1:0",
        Arc::clone(&reg),
        None,
        Some(Arc::new(move || body_src.clone())),
        None,
    )
    .expect("bind");
    let (status, headers, body) = http_get(server.local_addr(), "/cluster");
    assert!(status.contains("200"), "status was {status}");
    assert_eq!(
        headers.get("content-type").map(String::as_str),
        Some("application/json; charset=utf-8")
    );
    assert_eq!(body, cr.to_json(), "the report's own bytes");
}

#[test]
fn resources_endpoint_serves_a_live_sample() {
    let reg = populated_registry();
    let server = TelemetryServer::bind("127.0.0.1:0", Arc::clone(&reg)).expect("bind");
    let (status, headers, body) = http_get(server.local_addr(), "/resources");
    assert!(status.contains("200"), "status was {status}");
    assert_eq!(
        headers.get("content-type").map(String::as_str),
        Some("application/json; charset=utf-8")
    );
    let j = fg_core::Json::parse(&body).expect("resources body is JSON");
    // The sample is taken live per request; without a ledger installed the
    // member is absent, and the allocator flag reflects this binary (the
    // test harness does not install FgAlloc).
    assert!(j.get("ledger").is_none(), "no ledger was installed: {body}");
    assert_eq!(
        j.get("alloc_tracking").and_then(fg_core::Json::as_bool),
        Some(false)
    );
    // Each request bumps the same scrape counter as /metrics.
    let (_, _, metrics) = http_get(server.local_addr(), "/metrics");
    assert!(
        metrics.contains("fg_telemetry_scrapes 2"),
        "body:\n{metrics}"
    );
}

#[test]
fn resources_endpoint_reports_the_installed_ledger() {
    let reg = populated_registry();
    let ledger = Arc::new(fg_core::MemoryLedger::with_budget(64 << 20));
    ledger.stage("sort").acquire(8 << 20);
    ledger.charge_pool(8 << 20);
    let server = TelemetryServer::bind_all(
        "127.0.0.1:0",
        Arc::clone(&reg),
        None,
        None,
        Some(Arc::clone(&ledger)),
    )
    .expect("bind");
    let (status, _, body) = http_get(server.local_addr(), "/resources");
    assert!(status.contains("200"), "status was {status}");
    let j = fg_core::Json::parse(&body).expect("resources body is JSON");
    let l = j.get("ledger").expect("ledger member present");
    assert_eq!(
        l.get("budget_bytes").and_then(fg_core::Json::as_u64),
        Some(64 << 20)
    );
    assert_eq!(
        l.get("total_bytes").and_then(fg_core::Json::as_u64),
        Some(8 << 20)
    );
    let stages = l.get("stages").and_then(fg_core::Json::as_arr).unwrap();
    assert_eq!(
        stages[0].get("stage").and_then(fg_core::Json::as_str),
        Some("sort")
    );
    assert_eq!(
        stages[0].get("bytes").and_then(fg_core::Json::as_u64),
        Some(8 << 20)
    );
}
