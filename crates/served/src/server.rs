//! TCP front-end and retrying client for the ingest service.
//!
//! The server is deliberately plain `std::net`: one acceptor thread, one
//! thread per connection, read/write timeouts on every socket so a stalled
//! peer can never pin a thread. A connection idle past the read timeout is
//! dropped — recovery is the *client's* job, and [`IngestClient`] does it
//! with the same deterministic-jitter [`RetryPolicy`] the workflow runner
//! uses for task retries. Resubmitting after an ambiguous failure is safe:
//! the service deduplicates sections by digest, so ingest is idempotent.

use crate::service::{IngestStatus, Served, TenantStats};
use crate::wire::{read_request, read_response, write_request, write_response, Request, Response};
use dayu_vfd::RetryPolicy;
use std::io::{self, BufReader, BufWriter};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Socket and lifecycle knobs for [`Server`].
#[derive(Clone, Debug)]
pub struct ServerOptions {
    /// A connection that sends nothing for this long is dropped.
    pub read_timeout: Duration,
    /// A peer that accepts nothing for this long is dropped.
    pub write_timeout: Duration,
    /// Stop serving after this long with no new connections
    /// (`None` = run until [`Server::shutdown`]).
    pub idle_shutdown: Option<Duration>,
    /// How often the acceptor runs the service watchdog (idle-tenant
    /// eviction, degradation marking).
    pub watchdog_interval: Duration,
}

impl Default for ServerOptions {
    fn default() -> Self {
        Self {
            read_timeout: Duration::from_secs(10),
            write_timeout: Duration::from_secs(10),
            idle_shutdown: None,
            watchdog_interval: Duration::from_secs(1),
        }
    }
}

/// A running ingest server. Dropping it (or calling
/// [`shutdown`](Server::shutdown)) stops the acceptor and joins it.
pub struct Server {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    acceptor: Option<JoinHandle<()>>,
}

impl Server {
    /// Binds `addr` (e.g. `"127.0.0.1:0"`) and starts accepting.
    pub fn bind(addr: &str, service: Arc<Served>, opts: ServerOptions) -> io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let local = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let stop_accept = Arc::clone(&stop);
        let acceptor = std::thread::spawn(move || {
            accept_loop(&listener, &service, &opts, &stop_accept);
        });
        Ok(Server {
            addr: local,
            stop,
            acceptor: Some(acceptor),
        })
    }

    /// The bound address (useful with port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stops the acceptor and waits for it. Connection threads exit on
    /// their own once their sockets drain or time out.
    pub fn shutdown(mut self) {
        self.stop_and_join();
    }

    /// Blocks until the acceptor exits on its own — which it only does
    /// when [`ServerOptions::idle_shutdown`] is set.
    pub fn wait(mut self) {
        if let Some(h) = self.acceptor.take() {
            let _ = h.join();
        }
    }

    fn stop_and_join(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        if let Some(h) = self.acceptor.take() {
            let _ = h.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.stop_and_join();
    }
}

fn accept_loop(
    listener: &TcpListener,
    service: &Arc<Served>,
    opts: &ServerOptions,
    stop: &AtomicBool,
) {
    let poll = Duration::from_millis(5);
    let mut last_conn = Instant::now();
    let mut last_watchdog = Instant::now();
    let mut workers: Vec<JoinHandle<()>> = Vec::new();
    while !stop.load(Ordering::SeqCst) {
        if let Some(idle) = opts.idle_shutdown {
            if last_conn.elapsed() >= idle {
                break;
            }
        }
        if last_watchdog.elapsed() >= opts.watchdog_interval {
            let _ = service.watchdog();
            last_watchdog = Instant::now();
        }
        match listener.accept() {
            Ok((stream, _peer)) => {
                last_conn = Instant::now();
                let service = Arc::clone(service);
                let opts = opts.clone();
                workers.retain(|h| !h.is_finished());
                workers.push(std::thread::spawn(move || {
                    let _ = serve_connection(stream, &service, &opts);
                }));
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => std::thread::sleep(poll),
            // Transient accept errors (per-connection resets, fd
            // pressure): back off briefly and keep serving.
            Err(_) => std::thread::sleep(poll),
        }
    }
    for h in workers {
        let _ = h.join();
    }
}

/// Serves one connection until clean EOF, a timeout, or a protocol error.
fn serve_connection(stream: TcpStream, service: &Served, opts: &ServerOptions) -> io::Result<()> {
    stream.set_read_timeout(Some(opts.read_timeout))?;
    stream.set_write_timeout(Some(opts.write_timeout))?;
    stream.set_nodelay(true)?;
    let mut reader = BufReader::new(stream.try_clone()?);
    let mut writer = BufWriter::new(stream);
    while let Some(req) = read_request(&mut reader)? {
        let resp = match req {
            Request::Ingest {
                tenant,
                digest,
                section,
            } => Response::Ingest(service.ingest(&tenant, &section, Some(digest))),
            Request::Stats { tenant } => Response::Stats(service.stats(&tenant)),
            Request::Ping => Response::Pong,
        };
        write_response(&mut writer, &resp)?;
    }
    Ok(())
}

/// Read/write timeout on every client socket.
const CLIENT_TIMEOUT: Duration = Duration::from_secs(10);

/// A client that reconnects with bounded, deterministic-jitter backoff —
/// the shared [`RetryPolicy`] — and resubmits idempotently (the service
/// dedups by digest).
pub struct IngestClient {
    addr: String,
    policy: RetryPolicy,
    jitter_seed: u64,
    conn: Option<(BufReader<TcpStream>, BufWriter<TcpStream>)>,
}

impl IngestClient {
    /// A client for `addr`. No connection is made until the first
    /// request.
    pub fn new(addr: impl Into<String>, policy: RetryPolicy) -> Self {
        Self {
            addr: addr.into(),
            policy,
            jitter_seed: 0x5eed,
            conn: None,
        }
    }

    /// Seed for deterministic backoff jitter (distinct per client keeps a
    /// reconnecting fleet from thundering in lockstep).
    pub fn with_jitter_seed(mut self, seed: u64) -> Self {
        self.jitter_seed = seed;
        self
    }

    /// How long to wait before resubmitting after the `attempt`-th
    /// (1-based) [`IngestStatus::Throttled`] answer: the service's
    /// `retry_after_ns` hint plus the policy's jitter from this client's
    /// seed, so throttled clients do not retry in lockstep.
    pub fn throttle_pause(&self, retry_after_ns: u64, attempt: u32) -> Duration {
        Duration::from_nanos(
            self.policy
                .jittered_ns(retry_after_ns, attempt, self.jitter_seed),
        )
    }

    /// Submits one encoded section, computing its digest client-side.
    pub fn ingest(&mut self, tenant: &str, section: &[u8]) -> io::Result<IngestStatus> {
        let req = Request::Ingest {
            tenant: tenant.to_owned(),
            digest: dayu_trace::sha256(section),
            section: section.to_vec(),
        };
        match self.roundtrip(&req)? {
            Response::Ingest(status) => Ok(status),
            other => Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("expected ingest response, got {other:?}"),
            )),
        }
    }

    /// Fetches a tenant's counters (`None` for an unknown tenant).
    pub fn stats(&mut self, tenant: &str) -> io::Result<Option<TenantStats>> {
        let req = Request::Stats {
            tenant: tenant.to_owned(),
        };
        match self.roundtrip(&req)? {
            Response::Stats(stats) => Ok(stats),
            other => Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("expected stats response, got {other:?}"),
            )),
        }
    }

    /// Liveness probe.
    pub fn ping(&mut self) -> io::Result<()> {
        match self.roundtrip(&Request::Ping)? {
            Response::Pong => Ok(()),
            other => Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("expected pong, got {other:?}"),
            )),
        }
    }

    /// One request/response exchange with reconnect-and-retry on I/O
    /// failure, up to the policy's attempt budget.
    fn roundtrip(&mut self, req: &Request) -> io::Result<Response> {
        let mut attempt = 0u32;
        loop {
            attempt += 1;
            match self.try_roundtrip(req) {
                Ok(resp) => return Ok(resp),
                Err(e) => {
                    self.conn = None;
                    if attempt >= self.policy.max_attempts {
                        return Err(e);
                    }
                    let pause = self.policy.backoff_ns(attempt, self.jitter_seed);
                    if pause > 0 {
                        std::thread::sleep(Duration::from_nanos(pause));
                    }
                }
            }
        }
    }

    fn try_roundtrip(&mut self, req: &Request) -> io::Result<Response> {
        if self.conn.is_none() {
            let stream = TcpStream::connect(&self.addr)?;
            stream.set_read_timeout(Some(CLIENT_TIMEOUT))?;
            stream.set_write_timeout(Some(CLIENT_TIMEOUT))?;
            stream.set_nodelay(true)?;
            let reader = BufReader::new(stream.try_clone()?);
            self.conn = Some((reader, BufWriter::new(stream)));
        }
        let (reader, writer) = self.conn.as_mut().expect("connected above");
        write_request(writer, req)?;
        read_response(reader)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::budget::Budgets;
    use dayu_trace::{TaskKey, TraceBundle};

    fn sample_section(workflow: &str, task: &str) -> Vec<u8> {
        let mut b = TraceBundle::new(workflow);
        b.push_task(TaskKey::new(task));
        b.to_binary_bytes()
    }

    fn start_server() -> (Server, Arc<Served>) {
        let service = Arc::new(Served::new(Budgets::default()));
        let server = Server::bind(
            "127.0.0.1:0",
            Arc::clone(&service),
            ServerOptions {
                read_timeout: Duration::from_secs(2),
                write_timeout: Duration::from_secs(2),
                ..ServerOptions::default()
            },
        )
        .expect("bind loopback");
        (server, service)
    }

    #[test]
    fn client_ingests_over_tcp_and_server_builds_graph() {
        let (server, service) = start_server();
        let mut client = IngestClient::new(server.local_addr().to_string(), RetryPolicy::default());
        client.ping().unwrap();
        let status = client.ingest("wf", &sample_section("wf", "t1")).unwrap();
        assert_eq!(
            status,
            IngestStatus::Accepted {
                records: 0,
                duplicate: false
            }
        );
        // A resend of the same bytes is an accepted duplicate.
        let status = client.ingest("wf", &sample_section("wf", "t1")).unwrap();
        assert_eq!(
            status,
            IngestStatus::Accepted {
                records: 0,
                duplicate: true
            }
        );
        let stats = client.stats("wf").unwrap().expect("tenant exists");
        assert_eq!(stats.accepted, 1);
        assert_eq!(stats.duplicates, 1);
        assert!(client.stats("nobody").unwrap().is_none());
        let g = service.snapshot_ftg("wf").expect("tenant resident");
        assert_eq!(g.nodes.len(), 1);
        server.shutdown();
    }

    #[test]
    fn corrupt_payload_is_quarantined_not_fatal() {
        let (server, service) = start_server();
        let mut client = IngestClient::new(server.local_addr().to_string(), RetryPolicy::default());
        let good = sample_section("wf", "t1");
        client.ingest("wf", &good).unwrap();
        let mut torn = sample_section("wf", "t2");
        torn.truncate(torn.len() / 2);
        match client.ingest("wf", &torn).unwrap() {
            IngestStatus::Quarantined(report) => assert!(report.offset <= torn.len() as u64),
            other => panic!("expected quarantine, got {other:?}"),
        }
        // The tenant still serves its last good graph.
        assert_eq!(service.snapshot_ftg("wf").unwrap().nodes.len(), 1);
        assert_eq!(service.quarantine_log().len(), 1);
        server.shutdown();
    }

    #[test]
    fn client_reconnects_after_connection_drop() {
        let (server, _service) = start_server();
        let addr = server.local_addr().to_string();
        let mut client = IngestClient::new(addr, RetryPolicy::default().attempts(4));
        client.ping().unwrap();
        // Sever the client's connection under it; the next request must
        // transparently reconnect and succeed.
        client.conn = None;
        client.ping().unwrap();
        server.shutdown();
    }

    #[test]
    fn client_fails_cleanly_when_server_is_gone() {
        let (server, _service) = start_server();
        let addr = server.local_addr().to_string();
        server.shutdown();
        let mut client = IngestClient::new(
            addr,
            RetryPolicy {
                max_attempts: 2,
                base_backoff_ns: 1_000,
                ..RetryPolicy::default()
            },
        );
        assert!(client.ping().is_err());
    }

    #[test]
    fn throttled_clients_pause_apart_within_the_jitter() {
        let policy = RetryPolicy::default();
        let hint = 2_000_000;
        let most = Duration::from_nanos(hint + (hint as f64 * policy.jitter) as u64);
        let client = |seed| IngestClient::new("127.0.0.1:9", policy.clone()).with_jitter_seed(seed);
        let (a, b) = (client(7), client(8));
        for attempt in 1..=3 {
            let pauses = [
                a.throttle_pause(hint, attempt),
                b.throttle_pause(hint, attempt),
            ];
            assert_ne!(pauses[0], pauses[1], "attempt {attempt}");
            for p in pauses {
                assert!((Duration::from_nanos(hint)..=most).contains(&p), "{p:?}");
            }
            assert_eq!(a.throttle_pause(hint, attempt), pauses[0], "deterministic");
        }
    }
}
