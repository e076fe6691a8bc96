//! The TCP front-end (`wave serve`): a line-JSON verification server
//! hand-rolled over `std::net::TcpListener`.
//!
//! Protocol: the client sends one JSON object per line and receives one
//! JSON response line per request, in order.
//!
//! * `{"cmd":"ping"}` → `{"ok":true,"pong":true}`
//! * `{"cmd":"metrics"}` → `{"ok":true,"metrics":{…instrument name →
//!   value…}}` (see [`crate::metrics::SvcMetrics::to_json`]),
//! * `{"cmd":"shutdown"}` → `{"ok":true,"bye":true}`, then the server
//!   stops accepting and `run` returns once in-flight handlers finish,
//! * any job object (see [`crate::service`]) →
//!   `{"ok":true,"results":[…one record per property…]}`,
//! * anything else → `{"ok":false,"error":"…"}`.
//!
//! The accept loop is bounded: at most `max_connections` handler threads
//! run at once, further clients queue in the OS backlog. Each connection
//! gets a read *and* a write timeout, so neither an idle client nor one
//! that stops reading its responses can pin a handler slot; timed-out
//! connections are dropped and counted
//! ([`crate::metrics::SvcMetrics::conn_timeouts_total`]). A handler that
//! panics releases its slot through a drop guard and is counted too
//! ([`crate::metrics::SvcMetrics::handler_panics_total`]) — the server
//! keeps accepting and the shutdown drain still completes.
//!
//! With [`ServerConfig::metrics_addr`] set, a second listener serves the
//! same metrics as Prometheus text exposition (`GET /metrics`) for
//! scraping; see [`wave_obs::MetricsServer`].

use crate::json::{self, Json};
use crate::service::VerifyService;
use std::io::{self, BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

/// Server configuration.
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// Bind address, e.g. `127.0.0.1:7878` (port 0 picks an ephemeral
    /// port; read it back with [`Server::local_addr`]).
    pub addr: String,
    /// Worker threads per verification job.
    pub jobs: usize,
    /// Concurrent connection handlers (the accept-queue bound).
    pub max_connections: usize,
    /// Per-connection read timeout.
    pub read_timeout: Duration,
    /// Per-connection write timeout: bounds how long a handler blocks on
    /// a client that stops reading its responses.
    pub write_timeout: Duration,
    /// Fault-injection hook: honor `{"cmd":"panic"}` by panicking inside
    /// the connection handler. Tests use it to pin the slot-release
    /// guard; production configs leave it off.
    pub chaos: bool,
    pub use_cache: bool,
    pub cache_dir: Option<PathBuf>,
    /// In-memory result-cache entry bound (`0` = unbounded).
    pub cache_mem_entries: usize,
    /// Startup GC: drop disk cache entries older than this.
    pub cache_gc_age: Option<Duration>,
    /// Startup GC: shrink the disk cache below this many bytes.
    pub cache_gc_bytes: Option<u64>,
    /// Bind a Prometheus text-exposition listener here (e.g.
    /// `127.0.0.1:9090`); `None` disables it.
    pub metrics_addr: Option<String>,
}

impl Default for ServerConfig {
    fn default() -> ServerConfig {
        ServerConfig {
            addr: "127.0.0.1:7878".to_string(),
            jobs: crate::scheduler::ParallelOptions::default().jobs,
            max_connections: 16,
            read_timeout: Duration::from_secs(30),
            write_timeout: Duration::from_secs(30),
            chaos: false,
            use_cache: true,
            cache_dir: None,
            cache_mem_entries: crate::cache::DEFAULT_MEM_ENTRIES,
            cache_gc_age: None,
            cache_gc_bytes: None,
            metrics_addr: None,
        }
    }
}

/// A bound, not-yet-running server.
pub struct Server {
    listener: TcpListener,
    svc: Arc<VerifyService>,
    config: ServerConfig,
    shutdown: Arc<AtomicBool>,
    metrics_listener: Option<wave_obs::MetricsServer>,
}

impl Server {
    /// Bind the listener and build the service (cache directory included).
    /// When `metrics_addr` is set the Prometheus listener is bound here
    /// too, so bind errors surface before the server starts.
    pub fn bind(config: ServerConfig) -> io::Result<Server> {
        let listener = TcpListener::bind(&config.addr)?;
        let svc = Arc::new(VerifyService::new(crate::service::ServiceConfig {
            jobs: config.jobs,
            use_cache: config.use_cache,
            cache_dir: config.cache_dir.clone(),
            cache_mem_entries: config.cache_mem_entries,
            cache_gc_age: config.cache_gc_age,
            cache_gc_bytes: config.cache_gc_bytes,
        })?);
        let metrics_listener = match &config.metrics_addr {
            Some(addr) => {
                Some(wave_obs::MetricsServer::bind(addr, Arc::clone(svc.metrics().registry()))?)
            }
            None => None,
        };
        Ok(Server {
            listener,
            svc,
            config,
            shutdown: Arc::new(AtomicBool::new(false)),
            metrics_listener,
        })
    }

    /// The actually bound address (resolves port 0).
    pub fn local_addr(&self) -> io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// The bound Prometheus listener address, when `metrics_addr` was set.
    pub fn metrics_addr(&self) -> Option<SocketAddr> {
        self.metrics_listener.as_ref().and_then(|m| m.local_addr().ok())
    }

    /// Accept and serve until a `shutdown` request arrives.
    pub fn run(mut self) -> io::Result<()> {
        let local = self.local_addr()?;
        if let Some(metrics) = self.metrics_listener.take() {
            // scrape listener: detached; exits with the process
            metrics.spawn();
        }
        // (active handler count, all-idle signal): the bounded queue
        let slots = Arc::new((Mutex::new(0usize), Condvar::new()));
        loop {
            // wait for a free handler slot before accepting
            {
                let (count, cv) = &*slots;
                let mut active = count.lock().unwrap();
                while *active >= self.config.max_connections {
                    active = cv.wait(active).unwrap();
                }
                *active += 1;
            }
            let (stream, _) = match self.listener.accept() {
                Ok(conn) => conn,
                Err(_) => {
                    // transient accept errors (e.g. ECONNABORTED) are not fatal
                    release(&slots);
                    if self.shutdown.load(Ordering::Acquire) {
                        break;
                    }
                    continue;
                }
            };
            if self.shutdown.load(Ordering::Acquire) {
                release(&slots);
                break;
            }
            let svc = Arc::clone(&self.svc);
            let shutdown = Arc::clone(&self.shutdown);
            let config = self.config.clone();
            let slots_for_handler = Arc::clone(&slots);
            std::thread::Builder::new()
                .name("wave-serve-conn".to_string())
                .spawn(move || {
                    // Drop guard: the slot is released even when the
                    // handler panics — a leaked slot would eventually
                    // wedge the accept loop and deadlock the drain
                    let _slot = SlotGuard(slots_for_handler);
                    let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                        handle_connection(stream, &svc, &shutdown, &config, local)
                    }));
                    if outcome.is_err() {
                        svc.metrics().handler_panics_total.inc();
                    }
                })
                .expect("spawn connection handler");
        }
        // drain: wait until every in-flight handler released its slot
        let (count, cv) = &*slots;
        let mut active = count.lock().unwrap();
        while *active > 0 {
            active = cv.wait(active).unwrap();
        }
        Ok(())
    }
}

fn release(slots: &Arc<(Mutex<usize>, Condvar)>) {
    let (count, cv) = &**slots;
    // tolerate poison: a panicked sibling handler must not stop this
    // slot from being returned to the accept loop
    let mut count = count.lock().unwrap_or_else(|p| p.into_inner());
    *count -= 1;
    cv.notify_all();
}

/// Releases a handler slot on drop — panic-proof, unlike a trailing call.
struct SlotGuard(Arc<(Mutex<usize>, Condvar)>);

impl Drop for SlotGuard {
    fn drop(&mut self) {
        release(&self.0);
    }
}

fn handle_connection(
    stream: TcpStream,
    svc: &VerifyService,
    shutdown: &AtomicBool,
    config: &ServerConfig,
    local: SocketAddr,
) -> io::Result<()> {
    stream.set_read_timeout(Some(config.read_timeout))?;
    stream.set_write_timeout(Some(config.write_timeout))?;
    svc.metrics().connections_active.inc();
    // dec on every exit path, including `?` returns
    let _guard = ConnectionGuard(svc);
    let mut writer = stream.try_clone()?;
    let mut reader = BufReader::new(stream);
    let served = serve_lines(&mut reader, &mut writer, svc, shutdown, config, local);
    if let Err(e) = &served {
        // read timeouts surface as WouldBlock on unix, TimedOut on
        // windows; write timeouts likewise. Counted while the socket is
        // still open, so a client that sees the close reads the count.
        if matches!(e.kind(), io::ErrorKind::TimedOut | io::ErrorKind::WouldBlock) {
            svc.metrics().conn_timeouts_total.inc();
        }
    }
    served
}

/// The request loop of one connection; a timeout or disconnect ends it.
fn serve_lines(
    reader: &mut BufReader<TcpStream>,
    writer: &mut TcpStream,
    svc: &VerifyService,
    shutdown: &AtomicBool,
    config: &ServerConfig,
    local: SocketAddr,
) -> io::Result<()> {
    for line in reader.lines() {
        let line = line?;
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        svc.metrics().requests_total.inc();
        let (response, stop) = process(svc, line, config.chaos);
        writer.write_all(format!("{response}\n").as_bytes())?;
        writer.flush()?;
        if stop {
            shutdown.store(true, Ordering::Release);
            // poke the accept loop so it observes the flag
            let _ = TcpStream::connect(local);
            break;
        }
    }
    Ok(())
}

struct ConnectionGuard<'a>(&'a VerifyService);

impl Drop for ConnectionGuard<'_> {
    fn drop(&mut self) {
        self.0.metrics().connections_active.dec();
    }
}

/// Handle one request line; the flag is true for `shutdown`.
fn process(svc: &VerifyService, line: &str, chaos: bool) -> (Json, bool) {
    let request = match json::parse(line) {
        Ok(v) => v,
        Err(e) => {
            return (
                Json::obj([("ok", Json::from(false)), ("error", Json::from(e.to_string()))]),
                false,
            )
        }
    };
    match request.get("cmd").and_then(Json::as_str) {
        Some("ping") => (Json::obj([("ok", Json::from(true)), ("pong", Json::from(true))]), false),
        Some("metrics") => {
            (Json::obj([("ok", Json::from(true)), ("metrics", svc.metrics().to_json())]), false)
        }
        Some("shutdown") => {
            (Json::obj([("ok", Json::from(true)), ("bye", Json::from(true))]), true)
        }
        // fault injection, enabled only by ServerConfig::chaos
        Some("panic") if chaos => panic!("chaos: injected connection-handler panic"),
        Some(other) => (
            Json::obj([
                ("ok", Json::from(false)),
                ("error", Json::from(format!("unknown command {other:?}"))),
            ]),
            false,
        ),
        None => {
            let records = svc.run_request(&request, "job");
            let results: Vec<Json> = records.iter().map(|r| r.to_json()).collect();
            (Json::obj([("ok", Json::from(true)), ("results", Json::Arr(results))]), false)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn send(stream: &mut TcpStream, line: &str) -> Json {
        stream.write_all(format!("{line}\n").as_bytes()).unwrap();
        stream.flush().unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        let mut response = String::new();
        reader.read_line(&mut response).unwrap();
        json::parse(response.trim()).unwrap()
    }

    #[test]
    fn serves_ping_job_and_shutdown() {
        let server = Server::bind(ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            jobs: 2,
            read_timeout: Duration::from_secs(10),
            ..ServerConfig::default()
        })
        .unwrap();
        let addr = server.local_addr().unwrap();
        let handle = std::thread::spawn(move || server.run());

        let mut client = TcpStream::connect(addr).unwrap();
        let pong = send(&mut client, r#"{"cmd":"ping"}"#);
        assert_eq!(pong.get("pong").and_then(Json::as_bool), Some(true));

        let job = r#"{"spec":"spec m { inputs { b(x); } home A; page A { inputs { b } options b(x) <- x = \"g\"; target B <- b(\"g\"); } page B { target A <- true; } }","property":"G (@B -> X @A)"}"#;
        let reply = send(&mut client, job);
        assert_eq!(reply.get("ok").and_then(Json::as_bool), Some(true));
        let results = reply.get("results").unwrap().as_array().unwrap();
        assert_eq!(results.len(), 1);
        assert_eq!(results[0].get("verdict").and_then(Json::as_str), Some("holds"));

        let garbage = send(&mut client, "not json");
        assert_eq!(garbage.get("ok").and_then(Json::as_bool), Some(false));

        let metrics = send(&mut client, r#"{"cmd":"metrics"}"#);
        assert_eq!(metrics.get("ok").and_then(Json::as_bool), Some(true));
        let metrics = metrics.get("metrics").unwrap();
        assert_eq!(metrics.get("wave_checks_total").and_then(Json::as_u64), Some(1));
        assert!(metrics.get("wave_requests_total").and_then(Json::as_u64).unwrap() >= 3);
        assert_eq!(metrics.get("wave_connections_active").and_then(Json::as_f64), Some(1.0));

        let bye = send(&mut client, r#"{"cmd":"shutdown"}"#);
        assert_eq!(bye.get("bye").and_then(Json::as_bool), Some(true));
        drop(client);
        handle.join().unwrap().unwrap();
    }
}
