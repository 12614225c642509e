//! The long-running batch analyse/select server (`caymand`).
//!
//! One process owns one shared state: a bounded LRU map of analysed
//! [`Framework`]s keyed by the content hash of the submitted module text,
//! plus (optionally) one shared [`DiskStore`] backing every framework's
//! design cache. Concurrent connections each get a thread, but identical
//! module texts batch onto the *same* warm `Arc<Framework>` — selection is
//! `&self` and the design cache is thread-safe, so N clients asking for the
//! same kernel cost one analysis and one model warm-up, and *different*
//! kernels still share model results through the store.
//!
//! Determinism: the served front is produced by exactly the same
//! `Framework::select` the in-process tools run, so a served front is
//! bit-identical to a locally computed one (asserted end-to-end by
//! `serversmoke` in ci.sh).
//!
//! ## Request-scoped telemetry
//!
//! Every frame the server reads is assigned a **request id** (a process
//! lifetime sequence starting at 1) that travels back to the client as the
//! response-frame trailer, tags the request's span tree
//! (`server.req` → `server.req.{decode,warm,select,encode}`), and names
//! the request in the **slow-request log** (threshold
//! `CAYMAN_SLOW_REQ_MS`; lines go to stderr and a bounded in-process ring
//! read by [`ServerHandle::slow_log`]). Each phase is timed once, by a
//! [`PhaseTimer`] whose two clock readings feed both that span and the
//! phase's always-on histogram (`req.{total,decode,warm,select,encode}.nanos`
//! in `cayman_obs::registry`). `Request::Metrics` serves the whole registry
//! (histograms and every process-scope counter: design cache, profiling,
//! incremental queries, …) plus this server's and its store's
//! instance-scope counters as a Prometheus-style text exposition (and
//! periodically dumps it to [`ServerOptions::metrics_file`] for
//! scrape-less setups).

use crate::disk::DiskStore;
use crate::wire::{self, MetricsReply, Request, Response, SelectReply, WireError};
use cayman::{CaymanError, Framework, SelectOptions};
use cayman_obs::hist::Histogram;
use cayman_obs::{Counter, PhaseTimer};
use cayman_select::DesignStoreBackend;
use std::collections::{HashMap, VecDeque};
use std::io::{self, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Environment variable naming the slow-request threshold in milliseconds
/// (`0` logs every request; unset disables the log).
pub const SLOW_REQ_MS_ENV: &str = "CAYMAN_SLOW_REQ_MS";

/// Environment variable naming the per-connection read/idle timeout in
/// milliseconds (unset means connections may idle forever).
pub const REQ_TIMEOUT_MS_ENV: &str = "CAYMAN_REQ_TIMEOUT_MS";

/// Environment variable naming the metrics-file dump interval in
/// milliseconds (default 2000).
pub const METRICS_INTERVAL_MS_ENV: &str = "CAYMAN_METRICS_INTERVAL_MS";

/// Most recent slow-request lines kept for [`ServerHandle::slow_log`].
const SLOW_LOG_CAP: usize = 64;

/// Where a server listens (and a client connects).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Endpoint {
    /// A Unix-domain socket path.
    Unix(PathBuf),
    /// A TCP address (`host:port`; port 0 binds an ephemeral port, resolved
    /// in [`ServerHandle::endpoint`]).
    Tcp(String),
}

impl std::fmt::Display for Endpoint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Endpoint::Unix(p) => write!(f, "unix:{}", p.display()),
            Endpoint::Tcp(a) => write!(f, "tcp:{a}"),
        }
    }
}

impl Endpoint {
    /// Connects a client stream to this endpoint.
    ///
    /// # Errors
    ///
    /// Propagates connection failures.
    pub fn connect(&self) -> io::Result<Stream> {
        Ok(match self {
            Endpoint::Unix(path) => Stream::Unix(UnixStream::connect(path)?),
            Endpoint::Tcp(addr) => Stream::Tcp(TcpStream::connect(addr.as_str())?),
        })
    }
}

/// A connected socket of either family.
#[derive(Debug)]
pub enum Stream {
    /// Unix-domain connection.
    Unix(UnixStream),
    /// TCP connection.
    Tcp(TcpStream),
}

impl Read for Stream {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        match self {
            Stream::Unix(s) => s.read(buf),
            Stream::Tcp(s) => s.read(buf),
        }
    }
}

impl Write for Stream {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        match self {
            Stream::Unix(s) => s.write(buf),
            Stream::Tcp(s) => s.write(buf),
        }
    }

    fn flush(&mut self) -> io::Result<()> {
        match self {
            Stream::Unix(s) => s.flush(),
            Stream::Tcp(s) => s.flush(),
        }
    }
}

impl Stream {
    /// Applies a read timeout (both socket families support one). `None`
    /// blocks forever.
    pub fn set_read_timeout(&self, timeout: Option<Duration>) -> io::Result<()> {
        match self {
            Stream::Unix(s) => s.set_read_timeout(timeout),
            Stream::Tcp(s) => s.set_read_timeout(timeout),
        }
    }
}

enum Listener {
    Unix(UnixListener),
    Tcp(TcpListener),
}

impl Listener {
    fn accept(&self) -> io::Result<Stream> {
        Ok(match self {
            Listener::Unix(l) => Stream::Unix(l.accept()?.0),
            Listener::Tcp(l) => Stream::Tcp(l.accept()?.0),
        })
    }
}

/// Server tunables.
#[derive(Debug, Clone)]
pub struct ServerOptions {
    /// Back every framework's design cache with this store directory.
    pub store_dir: Option<PathBuf>,
    /// Selection options used for every SELECT.
    pub select: SelectOptions,
    /// At most this many analysed frameworks are kept warm (LRU).
    pub max_frameworks: usize,
    /// Requests whose total handling time is at least this many
    /// milliseconds are written to the slow-request log (`0` logs every
    /// request, `None` disables). Default: [`SLOW_REQ_MS_ENV`].
    pub slow_req_ms: Option<u64>,
    /// Per-connection read/idle timeout in milliseconds: a connection that
    /// sends no frame for this long is closed (and counted under
    /// `server.timeout`) instead of pinning its thread forever. Default:
    /// [`REQ_TIMEOUT_MS_ENV`].
    pub req_timeout_ms: Option<u64>,
    /// Periodically dump the metrics exposition to this file (atomic
    /// tmp+rename), for scrape-less setups (`caymand --metrics-file`).
    pub metrics_file: Option<PathBuf>,
    /// Dump interval for [`ServerOptions::metrics_file`] in milliseconds.
    /// Default: [`METRICS_INTERVAL_MS_ENV`] or 2000.
    pub metrics_interval_ms: u64,
}

fn env_ms(var: &str) -> Option<u64> {
    std::env::var(var).ok().and_then(|v| v.parse().ok())
}

impl Default for ServerOptions {
    fn default() -> Self {
        ServerOptions {
            store_dir: None,
            select: SelectOptions::default(),
            max_frameworks: 64,
            slow_req_ms: env_ms(SLOW_REQ_MS_ENV),
            req_timeout_ms: env_ms(REQ_TIMEOUT_MS_ENV),
            metrics_file: None,
            metrics_interval_ms: env_ms(METRICS_INTERVAL_MS_ENV).unwrap_or(2000),
        }
    }
}

/// The warm-framework LRU: module-text hash → analysed framework.
struct FwCache {
    map: HashMap<u64, (Arc<Framework>, u64)>,
    tick: u64,
}

/// Always-on per-phase request histogram handles. The handles point into
/// the process-global `cayman_obs::registry`, so two servers in one
/// process share distributions — counts only ever grow.
struct PhaseHists {
    decode: &'static Histogram,
    warm: &'static Histogram,
    select: &'static Histogram,
    encode: &'static Histogram,
    total: &'static Histogram,
}

/// Phase timings of one handled request, for the slow-request log.
#[derive(Default, Clone, Copy)]
struct Phases {
    op: &'static str,
    decode_nanos: u64,
    warm_nanos: u64,
    select_nanos: u64,
    encode_nanos: u64,
    framework_reused: bool,
}

struct Shared {
    endpoint: Endpoint,
    store: Option<Arc<DiskStore>>,
    select: SelectOptions,
    max_frameworks: usize,
    slow_req_ms: Option<u64>,
    req_timeout: Option<Duration>,
    started: Instant,
    frameworks: Mutex<FwCache>,
    fw_hits: Counter,
    fw_misses: Counter,
    fw_evictions: Counter,
    timeouts: Counter,
    slow: Counter,
    /// Process-scope: SELECTs answered without (`warm`) and with (`cold`)
    /// model evaluations.
    select_warm: &'static Counter,
    select_cold: &'static Counter,
    next_request_id: AtomicU64,
    slow_lines: Mutex<VecDeque<String>>,
    hists: PhaseHists,
    shutdown: AtomicBool,
}

impl Shared {
    /// The warm framework for `text`, analysing (outside any lock) on a
    /// miss. The bool is true when an already-analysed framework was
    /// reused.
    fn framework_for(&self, text: &str) -> Result<(Arc<Framework>, bool), CaymanError> {
        let fp = cayman_ir::fingerprint::fnv1a(text.as_bytes());
        {
            let mut cache = self.frameworks.lock().expect("framework cache poisoned");
            cache.tick += 1;
            let tick = cache.tick;
            if let Some((fw, used)) = cache.map.get_mut(&fp) {
                *used = tick;
                self.fw_hits.add(1);
                return Ok((Arc::clone(fw), true));
            }
        }
        self.fw_misses.add(1);
        let fw = {
            let _span = cayman_obs::span!("server.analyse");
            let mut fw = Framework::from_text(text)?;
            if let Some(store) = &self.store {
                fw.set_design_store(Arc::clone(store) as Arc<dyn DesignStoreBackend>);
            }
            Arc::new(fw)
        };
        let mut cache = self.frameworks.lock().expect("framework cache poisoned");
        cache.tick += 1;
        let tick = cache.tick;
        // a racing connection may have analysed the same text meanwhile;
        // keep whichever landed first so everyone shares one warm cache
        let entry = cache
            .map
            .entry(fp)
            .or_insert_with(|| (Arc::clone(&fw), tick));
        entry.1 = tick;
        let fw = Arc::clone(&entry.0);
        if cache.map.len() > self.max_frameworks {
            if let Some((&evict, _)) = cache.map.iter().min_by_key(|(_, (_, used))| *used) {
                cache.map.remove(&evict);
                self.fw_evictions.add(1);
            }
        }
        Ok((fw, false))
    }

    /// Handles one decoded request, noting its op and timings in
    /// `phases`. Returns the response and whether the server should shut
    /// down.
    fn handle(&self, req: Request, phases: &mut Phases) -> (Response, bool) {
        let (op, resp, shutdown) = match req {
            Request::Select { module_text } => {
                ("select", self.warm_and_select(&module_text, phases), false)
            }
            Request::Ping => ("ping", Response::Pong, false),
            Request::Shutdown => ("shutdown", Response::ShuttingDown, true),
            Request::Metrics => {
                let text = self.metrics_text();
                ("metrics", Response::Metrics(MetricsReply { text }), false)
            }
        };
        phases.op = op;
        (resp, shutdown)
    }

    /// The `warm` and `select` phases of a SELECT.
    fn warm_and_select(&self, module_text: &str, phases: &mut Phases) -> Response {
        let warm = PhaseTimer::open("server.req.warm", self.hists.warm, Vec::new);
        let fw = self.framework_for(module_text);
        phases.warm_nanos = warm.close();
        let (fw, framework_reused) = match fw {
            Ok(fw) => fw,
            Err(e) => return Response::Error(e.to_string()),
        };
        phases.framework_reused = framework_reused;
        let select = PhaseTimer::open("server.req.select", self.hists.select, Vec::new);
        let res = fw.select(&self.select);
        phases.select_nanos = select.close();
        if res.stats.configs_evaluated == 0 {
            self.select_warm.add(1);
        } else {
            self.select_cold.add(1);
        }
        Response::Select(SelectReply {
            front: res.pareto,
            framework_reused,
            model_evals: res.stats.configs_evaluated as u64,
            cache_hits: res.stats.cache_hits,
            cache_misses: res.stats.cache_misses,
            disk_hits: res.stats.disk_hits,
        })
    }

    /// Assembles the Prometheus-style exposition: the metric registry
    /// (request histograms and process-scope counters), this server's and
    /// its store's instance counters, and two point gauges.
    fn metrics_text(&self) -> String {
        let mut snap = cayman_obs::registry::snapshot();
        for c in [
            &self.fw_hits,
            &self.fw_misses,
            &self.fw_evictions,
            &self.timeouts,
            &self.slow,
        ] {
            snap.push_counter(c);
        }
        for c in self.store.iter().flat_map(|s| s.counters()) {
            snap.push_counter(c);
        }
        snap.push_gauge(
            "server.uptime.seconds",
            self.started.elapsed().as_secs_f64(),
        );
        let cached = self
            .frameworks
            .lock()
            .expect("framework cache poisoned")
            .map
            .len();
        snap.push_gauge("server.fw.cached", cached as f64);
        snap.to_prometheus()
    }

    /// Atomically dumps the exposition to `path` (tmp + rename, like the
    /// disk store's writes).
    fn dump_metrics(&self, path: &std::path::Path) {
        let text = self.metrics_text();
        let tmp = path.with_extension("tmp");
        if std::fs::write(&tmp, text).is_ok() {
            let _ = std::fs::rename(&tmp, path);
        }
    }

    /// Writes a finished request to the slow-request log when it crossed
    /// the slow threshold.
    fn log_if_slow(&self, request_id: u64, phases: Phases, total_nanos: u64) {
        let Some(threshold_ms) = self.slow_req_ms else {
            return;
        };
        if total_nanos < threshold_ms.saturating_mul(1_000_000) {
            return;
        }
        self.slow.add(1);
        let line = format_slow_line(request_id, phases, total_nanos);
        eprintln!("{line}");
        cayman_obs::instant_with("server.req.slow", || {
            vec![
                ("id", cayman_obs::ArgValue::U64(request_id)),
                ("total_nanos", cayman_obs::ArgValue::U64(total_nanos)),
            ]
        });
        let mut lines = self.slow_lines.lock().expect("slow log poisoned");
        if lines.len() == SLOW_LOG_CAP {
            lines.pop_front();
        }
        lines.push_back(line);
    }
}

/// Renders one slow-request log line. The format is stable and
/// machine-splittable: space-separated `key=value` pairs opening with
/// `slow-req id=<request id>` — the same id the client received in the
/// response-frame trailer, so client- and server-side observations line
/// up.
fn format_slow_line(request_id: u64, phases: Phases, total_nanos: u64) -> String {
    format!(
        "slow-req id={} op={} total_us={} decode_us={} warm_us={} select_us={} encode_us={} \
         reused={}",
        request_id,
        if phases.op.is_empty() {
            "unknown"
        } else {
            phases.op
        },
        total_nanos / 1_000,
        phases.decode_nanos / 1_000,
        phases.warm_nanos / 1_000,
        phases.select_nanos / 1_000,
        phases.encode_nanos / 1_000,
        phases.framework_reused,
    )
}

fn handle_conn(shared: &Shared, mut stream: Stream) {
    if let Some(ms) = shared.req_timeout {
        // a stalled or vanished client must not pin this thread forever
        let _ = stream.set_read_timeout(Some(ms));
    }
    loop {
        if shared.shutdown.load(Ordering::Relaxed) {
            return;
        }
        let payload = match wire::read_frame(&mut stream) {
            Ok(Some(p)) => p,
            Ok(None) => return, // clean close
            Err(WireError::Io(e))
                if matches!(
                    e.kind(),
                    io::ErrorKind::TimedOut | io::ErrorKind::WouldBlock
                ) =>
            {
                shared.timeouts.add(1);
                return;
            }
            Err(_) => return, // broken peer
        };
        // request work starts once a full frame is in hand (blocking on
        // read_frame is client think-time, not server latency)
        let request_id = shared.next_request_id.fetch_add(1, Ordering::Relaxed) + 1;
        let hists = &shared.hists;
        let total = PhaseTimer::open("server.req", hists.total, || {
            vec![("id", cayman_obs::ArgValue::U64(request_id))]
        });
        let decode = PhaseTimer::open("server.req.decode", hists.decode, Vec::new);
        let decoded = wire::decode_request(&payload);
        let mut phases = Phases {
            decode_nanos: decode.close(),
            ..Phases::default()
        };
        // a malformed request poisons the framing: answer, then close
        let malformed = decoded.is_err();
        let (resp, shutdown) = match decoded {
            Ok(req) => shared.handle(req, &mut phases),
            Err(e) => (Response::Error(e.to_string()), false),
        };
        let encode = PhaseTimer::open("server.req.encode", hists.encode, Vec::new);
        let frame = wire::encode_response(&resp, request_id);
        phases.encode_nanos = encode.close();
        // close BEFORE writing: once a client sees the reply, a metrics
        // scrape is guaranteed to count the request (no in-flight gap)
        shared.log_if_slow(request_id, phases, total.close());
        if wire::write_frame(&mut stream, &frame).is_err() || malformed {
            return;
        }
        if shutdown {
            shared.shutdown.store(true, Ordering::Relaxed);
            // unblock the acceptor so it observes the flag
            let _ = shared.endpoint.connect();
            return;
        }
    }
}

/// A running server: its resolved endpoint plus the acceptor thread.
pub struct ServerHandle {
    endpoint: Endpoint,
    shared: Arc<Shared>,
    acceptor: JoinHandle<()>,
    metrics_dumper: Option<JoinHandle<()>>,
}

impl ServerHandle {
    /// Where the server actually listens (TCP port 0 resolved).
    pub fn endpoint(&self) -> &Endpoint {
        &self.endpoint
    }

    /// The shared disk store, when one is attached.
    pub fn store(&self) -> Option<&Arc<DiskStore>> {
        self.shared.store.as_ref()
    }

    /// The current metrics exposition, exactly as `Request::Metrics`
    /// serves it.
    pub fn metrics_text(&self) -> String {
        self.shared.metrics_text()
    }

    /// The most recent slow-request log lines (oldest first, bounded).
    pub fn slow_log(&self) -> Vec<String> {
        self.shared
            .slow_lines
            .lock()
            .expect("slow log poisoned")
            .iter()
            .cloned()
            .collect()
    }

    /// Blocks until the server shuts down (a SHUTDOWN request).
    pub fn wait(self) {
        let _ = self.acceptor.join();
        if let Some(d) = self.metrics_dumper {
            let _ = d.join();
        }
    }

    /// Initiates shutdown and waits for the acceptor to exit.
    pub fn stop(self) {
        self.shared.shutdown.store(true, Ordering::Relaxed);
        let _ = self.endpoint.connect();
        self.wait();
    }
}

/// Binds `endpoint` and serves until shutdown. Returns immediately; the
/// accept loop runs on its own thread, one more thread per connection.
///
/// # Errors
///
/// Fails when the socket cannot be bound or the store directory cannot be
/// opened.
pub fn serve(endpoint: Endpoint, opts: ServerOptions) -> Result<ServerHandle, WireError> {
    let store = match &opts.store_dir {
        Some(dir) => Some(Arc::new(DiskStore::open(dir)?)),
        None => None,
    };
    let (listener, endpoint) = match endpoint {
        Endpoint::Unix(path) => {
            // a stale socket file from a crashed server blocks bind
            let _ = std::fs::remove_file(&path);
            (
                Listener::Unix(UnixListener::bind(&path)?),
                Endpoint::Unix(path),
            )
        }
        Endpoint::Tcp(addr) => {
            let l = TcpListener::bind(addr.as_str())?;
            let resolved = l.local_addr()?.to_string();
            (Listener::Tcp(l), Endpoint::Tcp(resolved))
        }
    };
    let shared = Arc::new(Shared {
        endpoint: endpoint.clone(),
        store,
        select: opts.select,
        max_frameworks: opts.max_frameworks.max(1),
        slow_req_ms: opts.slow_req_ms,
        req_timeout: opts.req_timeout_ms.map(Duration::from_millis),
        started: Instant::now(),
        frameworks: Mutex::new(FwCache {
            map: HashMap::new(),
            tick: 0,
        }),
        fw_hits: Counter::new("server.fw.hits"),
        fw_misses: Counter::new("server.fw.misses"),
        fw_evictions: Counter::new("server.fw.evictions"),
        timeouts: Counter::new("server.timeout"),
        slow: Counter::new("server.slow"),
        select_warm: cayman_obs::registry::counter("server.select.warm"),
        select_cold: cayman_obs::registry::counter("server.select.cold"),
        next_request_id: AtomicU64::new(0),
        slow_lines: Mutex::new(VecDeque::new()),
        hists: PhaseHists {
            decode: cayman_obs::registry::hist("req.decode.nanos"),
            warm: cayman_obs::registry::hist("req.warm.nanos"),
            select: cayman_obs::registry::hist("req.select.nanos"),
            encode: cayman_obs::registry::hist("req.encode.nanos"),
            total: cayman_obs::registry::hist("req.total.nanos"),
        },
        shutdown: AtomicBool::new(false),
    });
    let acceptor = {
        let shared = Arc::clone(&shared);
        std::thread::spawn(move || {
            loop {
                if shared.shutdown.load(Ordering::Relaxed) {
                    break;
                }
                let Ok(stream) = listener.accept() else {
                    break;
                };
                if shared.shutdown.load(Ordering::Relaxed) {
                    break;
                }
                let shared = Arc::clone(&shared);
                std::thread::spawn(move || handle_conn(&shared, stream));
            }
            if let Endpoint::Unix(path) = &shared.endpoint {
                let _ = std::fs::remove_file(path);
            }
        })
    };
    let metrics_dumper = opts.metrics_file.map(|path| {
        let shared = Arc::clone(&shared);
        let interval = Duration::from_millis(opts.metrics_interval_ms.max(1));
        std::thread::spawn(move || {
            let mut last = Instant::now();
            shared.dump_metrics(&path);
            while !shared.shutdown.load(Ordering::Relaxed) {
                // poll the shutdown flag often so stop() never waits a
                // full interval
                std::thread::sleep(Duration::from_millis(50).min(interval));
                if last.elapsed() >= interval {
                    shared.dump_metrics(&path);
                    last = Instant::now();
                }
            }
            shared.dump_metrics(&path); // final state for post-mortems
        })
    });
    Ok(ServerHandle {
        endpoint,
        shared,
        acceptor,
        metrics_dumper,
    })
}
