//! Observability integration tests.
//!
//! Two guarantees from DESIGN.md's Observability section are checked end
//! to end here:
//!
//! 1. `wave serve` exposes its metrics both on the job socket
//!    (`{"cmd":"metrics"}`) and, with `metrics_addr` set, as Prometheus
//!    text exposition — and the counters actually move when a check runs.
//! 2. Tracing is observation-only: verdicts, counterexample lassos, and
//!    the deterministic search counters are byte-identical with and
//!    without a tracer attached, across all four benchmark suites.
//! 3. Span profiling is observation-only too: a check observed by a
//!    live [`SpanProfiler`] reaches the same deterministic outcome as a
//!    plain `check`, including under the tiered out-of-core store and
//!    (behind `WAVE_TEST_PROFILE=1`) on a memo-heavy search.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::time::Duration;
use wave::apps::{e1, e2, e3, e4, AppSuite};
use wave::core::{JsonlTracer, SpanProfiler, StateStoreKind, TierParams, VerifyOptions};
use wave::{parse_property, Verdict, Verifier};
use wave_svc::{parse_json, Json, Server, ServerConfig};

const MINI: &str = r#"spec m { inputs { b(x); } home A; page A { inputs { b } options b(x) <- x = \"g\"; target B <- b(\"g\"); } page B { target A <- true; } }"#;

fn send(stream: &mut TcpStream, line: &str) -> Json {
    stream.write_all(format!("{line}\n").as_bytes()).unwrap();
    stream.flush().unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let mut response = String::new();
    reader.read_line(&mut response).unwrap();
    parse_json(response.trim()).unwrap()
}

fn metric(metrics: &Json, name: &str) -> u64 {
    let v = metrics.get(name).unwrap_or_else(|| panic!("missing {name}: {metrics}"));
    v.as_u64().or_else(|| v.as_f64().map(|f| f as u64)).unwrap()
}

#[test]
fn serve_exposes_metrics_on_socket_and_prometheus_listener() {
    let server = Server::bind(ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        jobs: 2,
        read_timeout: Duration::from_secs(10),
        metrics_addr: Some("127.0.0.1:0".to_string()),
        ..ServerConfig::default()
    })
    .unwrap();
    let addr = server.local_addr().unwrap();
    let prom_addr = server.metrics_addr().expect("metrics listener bound");
    let handle = std::thread::spawn(move || server.run());

    let mut client = TcpStream::connect(addr).unwrap();
    let before = send(&mut client, r#"{"cmd":"metrics"}"#);
    assert_eq!(before.get("ok").and_then(Json::as_bool), Some(true));
    let before = before.get("metrics").unwrap();
    assert_eq!(metric(before, "wave_checks_total"), 0);
    assert_eq!(metric(before, "wave_connections_active"), 1);
    let latency = before.get("wave_unit_latency_ns").unwrap();
    assert_eq!(latency.get("count").and_then(Json::as_u64), Some(0));
    assert_eq!(latency.get("sum").and_then(Json::as_u64), Some(0));

    let job = format!(r#"{{"spec":"{MINI}","property":"G (@B -> X @A)"}}"#);
    let reply = send(&mut client, &job);
    assert_eq!(reply.get("ok").and_then(Json::as_bool), Some(true), "{reply}");

    let after = send(&mut client, r#"{"cmd":"metrics"}"#);
    let after = after.get("metrics").unwrap();
    assert_eq!(metric(after, "wave_checks_total"), 1, "the check was counted");
    assert_eq!(metric(after, "wave_checks_inflight"), 0);
    assert_eq!(metric(after, "wave_cache_misses_total"), 1);
    assert_eq!(metric(after, "wave_cache_hits_total"), 0);
    assert!(metric(after, "wave_requests_total") >= 3, "{after}");
    let latency = after.get("wave_unit_latency_ns").unwrap();
    assert!(latency.get("count").and_then(Json::as_u64).unwrap() > 0, "units were timed");

    // the same job again is a cache hit, not a new check
    send(&mut client, &job);
    let hit = send(&mut client, r#"{"cmd":"metrics"}"#);
    let hit = hit.get("metrics").unwrap();
    assert_eq!(metric(hit, "wave_checks_total"), 1);
    assert_eq!(metric(hit, "wave_cache_hits_total"), 1);

    // the Prometheus listener serves the same registry as text exposition
    let mut prom = TcpStream::connect(prom_addr).unwrap();
    write!(prom, "GET /metrics HTTP/1.1\r\nHost: localhost\r\n\r\n").unwrap();
    let mut response = String::new();
    prom.read_to_string(&mut response).unwrap();
    assert!(response.starts_with("HTTP/1.1 200 OK"), "{response}");
    assert!(response.contains("text/plain; version=0.0.4"), "{response}");
    let body = response.split("\r\n\r\n").nth(1).unwrap();
    assert!(body.contains("# TYPE wave_checks_total counter"), "{body}");
    assert!(body.contains("wave_checks_total 1"), "{body}");
    assert!(body.contains("# TYPE wave_unit_latency_ns histogram"), "{body}");
    assert!(body.contains("wave_unit_latency_ns_count"), "{body}");

    let bye = send(&mut client, r#"{"cmd":"shutdown"}"#);
    assert_eq!(bye.get("bye").and_then(Json::as_bool), Some(true));
    drop(client);
    handle.join().unwrap().unwrap();
}

/// The deterministic portion of a verification outcome: verdict (with
/// the full counterexample lasso) plus every non-timing search counter.
fn outcome(v: &wave::Verification) -> (String, u64, u64, u64, usize, usize, u64, u64) {
    (
        format!("{:?}", v.verdict),
        v.stats.configs,
        v.stats.cores,
        v.stats.assignments,
        v.stats.max_run_len,
        v.stats.max_trie,
        v.stats.profile.intern_hits,
        v.stats.profile.intern_misses,
    )
}

fn assert_tracing_is_observation_only(suite: &AppSuite, names: &[&str]) {
    let verifier = Verifier::new(suite.spec.clone()).expect("spec compiles");
    for case in suite.properties.iter().filter(|c| names.contains(&c.name)) {
        let property = parse_property(&case.text).unwrap();
        let plain = verifier.check(&property).expect("untraced check runs");
        let mut tracer = JsonlTracer::new(Vec::new());
        let traced =
            verifier.prepare(&property).unwrap().check(&mut tracer).expect("traced check runs");
        assert_eq!(
            outcome(&plain),
            outcome(&traced),
            "{}/{}: tracing changed the search",
            suite.name,
            case.name
        );
        if matches!(traced.verdict, Verdict::Holds | Verdict::Violated(_)) {
            assert!(tracer.take_error().is_none());
        }
    }
}

/// Like [`assert_tracing_is_observation_only`], but for the monomorphized
/// span profiler: a check observed by a live [`SpanProfiler`] must
/// reproduce the plain check's verdict and deterministic counters.
fn assert_profiling_is_observation_only(suite: &AppSuite, names: &[&str], options: VerifyOptions) {
    let verifier = Verifier::with_options(suite.spec.clone(), options).expect("spec compiles");
    for case in suite.properties.iter().filter(|c| names.contains(&c.name)) {
        let property = parse_property(&case.text).unwrap();
        let plain = verifier.check(&property).expect("unprofiled check runs");
        let mut profiler = SpanProfiler::new();
        let profiled =
            verifier.prepare(&property).unwrap().check(&mut profiler).expect("profiled check runs");
        assert_eq!(
            outcome(&plain),
            outcome(&profiled),
            "{}/{}: profiling changed the search",
            suite.name,
            case.name
        );
        assert!(
            profiler.rows().iter().any(|r| r.label == "expand"),
            "{}/{}: the profiler saw no expand spans",
            suite.name,
            case.name
        );
        assert_eq!(profiler.open_depth(), 0, "span frames must balance");
    }
}

#[test]
fn tracing_is_observation_only_e1() {
    assert_tracing_is_observation_only(&e1::suite(), &["P1", "P2", "P13", "P17"]);
}

#[test]
fn profiling_is_observation_only_e1() {
    assert_profiling_is_observation_only(&e1::suite(), &["P1", "P17"], VerifyOptions::default());
}

#[test]
fn profiling_is_observation_only_under_the_tiered_store() {
    // a pathologically small memory budget forces every core to spill,
    // exercising the spill/compact leaf spans alongside the search spans
    let options = VerifyOptions {
        state_store: StateStoreKind::Tiered(TierParams { mem_bytes: 1, spill_dir: None }),
        ..VerifyOptions::default()
    };
    assert_profiling_is_observation_only(&e1::suite(), &["P1", "P2"], options);
}

/// Memo-heavy equivalence: E1/P5 drives far more rule evaluations (and
/// therefore memo traffic) than the quick properties above. It costs
/// tens of seconds in a debug build, so the CI profiling leg opts in
/// with `WAVE_TEST_PROFILE=1`.
#[test]
fn profiling_is_observation_only_memo_heavy() {
    if std::env::var("WAVE_TEST_PROFILE").map(|v| v != "1").unwrap_or(true) {
        eprintln!("skipping memo-heavy profiled run (set WAVE_TEST_PROFILE=1)");
        return;
    }
    assert_profiling_is_observation_only(&e1::suite(), &["P5"], VerifyOptions::default());
}

#[test]
fn tracing_is_observation_only_e2() {
    let suite = e2::suite();
    let all: Vec<&str> = suite.properties.iter().map(|c| c.name).collect();
    assert_tracing_is_observation_only(&suite, &all);
}

#[test]
fn tracing_is_observation_only_e3() {
    assert_tracing_is_observation_only(&e3::suite(), &["R1", "R4", "R12"]);
}

#[test]
fn tracing_is_observation_only_e4() {
    assert_tracing_is_observation_only(&e4::suite(), &["S1", "S5", "S12"]);
}
