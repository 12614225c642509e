//! `serve-warm` and `serve-churn`: an in-process `caymand` on a Unix socket
//! under SELECT traffic from two connections.
//!
//! An untraced run is one closed loop over all of `--seconds`: two
//! connections send back to back, both pausing after every second for the
//! host-speed probe ([`crate::speed`]); this gives `ops_per_s`, and each
//! request's round trip gives `op_p50_ms` / `op_p99_ms`. With two
//! connections always busy, the mean round trip is two over `ops_per_s`,
//! so `op_p50_ms` differs from throughput only by the shape of the
//! latency distribution.
//!
//! A traced run spends half of `--seconds` in the same closed loop and the
//! other half in an open loop: seeded Poisson arrivals at a fixed rate,
//! each sent on whichever of the two connections is free first, and timed
//! from the instant it was due, so a stall also charges the requests queued
//! behind it (`open_p50_ms`, `open_p99_ms`, checked against the p99
//! limit). How late requests were sent is `gen_late_p99_ms`. The open-loop
//! latencies are not end-to-end metrics: at a third of capacity nearly
//! every request wakes an idle thread on each side, and on a shared
//! two-core virtual machine those wake-ups moved open-loop p50 and p99 by a
//! fifth to a half from run to run.
//!
//! `serve-warm` has no store and draws from 16 kernels, the middle kernel
//! of each of 16 strata of the suite sorted by selection size, all warm in
//! the 64-slot framework LRU: wire, server and the warm-select DP are the
//! whole cost. `serve-churn` attaches a `DiskStore` in a fresh directory
//! and draws uniformly from all 132 kernels (more kernels than the LRU
//! holds, so frameworks are evicted and re-analysed against the disk-warm
//! store); 5% of requests carry a never-seen edit (a cold analysis, model
//! calls and store writes).
//!
//! One pass over all 132 kernels fills serve-churn's store before the timed
//! set-up; each timed set-up repetition then restarts the server on the
//! filled store and warms it with the same pass, as a restarted `caymand`
//! would (disk hits, no writes). The fill itself is not timed: it creates
//! about 2,300 files, and on the reference host's disk, which discards
//! freed blocks, creating them took 0.3 s or, for minutes after earlier
//! runs had deleted their stores, up to 2 s.
//!
//! Each connection is pinned to its own CPU, both ends of it: the client
//! worker and the server thread that handles the connection. A request
//! then wakes its handler on the CPU it was sent from, never an idle one,
//! no thread migrates, and every run samples both CPUs equally; on a
//! shared host each CPU has slow spells of its own.
//!
//! The traced run's open loop has an untraced and a traced half.
//! Traced requests are split on the client into encode, send, wait+recv
//! and decode by calling `cayman_store::wire` directly; server phases come
//! from the deltas of METRICS scrapes around the traced half; a PING probe
//! after it measures the transport floor.

use crate::edits::{sites, FreshEdit, Site};
use crate::golden::{front_digest, Golden};
use crate::host;
use crate::report::Report;
use crate::rng::{poisson_schedule, Rng};
use crate::speed::{put_ops, Issued, Pacer};
use crate::stats::{ratio, Latency};
use crate::trace::{Recorder, SelfTimes};
use crate::{put_checks, put_layer, put_peak_rss, select_opts, timed_setup, Ctx};
use cayman::workloads::Workload;
use cayman::Framework;
use cayman_obs::promtext;
use cayman_store::server::Stream;
use cayman_store::wire::{self, Request, Response};
use cayman_store::{serve, Client, Endpoint, SelectReply, ServerHandle, ServerOptions};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

pub struct Mode {
    name: &'static str,
    store: bool,
    /// Kernels in the working set (`None`: the whole suite).
    warm_set: Option<usize>,
    /// Open-loop arrivals per second, about 30% of measured capacity for
    /// `serve-warm` and 20% for `serve-churn`.
    rate: f64,
    /// Share of requests carrying a fresh edit.
    edit_share: f64,
    /// The open-loop p99 limit the rate is held to.
    p99_limit_ms: f64,
}

pub const WARM: Mode = Mode {
    name: "serve-warm",
    store: false,
    warm_set: Some(16),
    rate: 3000.0,
    edit_share: 0.0,
    p99_limit_ms: 5.0,
};

pub const CHURN: Mode = Mode {
    name: "serve-churn",
    store: true,
    warm_set: None,
    rate: 500.0,
    edit_share: 0.05,
    p99_limit_ms: 50.0,
};

const CONNECTIONS: usize = 2;
/// Share of `--seconds` a traced run spends in the closed loop.
const TRACED_CLOSED_SHARE: f64 = 0.5;
/// Edited requests re-checked from scratch after timing (a seeded sample).
const CHECK_CAP: usize = 400;
const PINGS: usize = 2000;

/// A running server, stopped on drop so set-up repetitions and the final
/// teardown share one path. Its directory is removed only at the end of the
/// run.
struct Service(Option<ServerHandle>);

impl Drop for Service {
    fn drop(&mut self) {
        if let Some(h) = self.0.take() {
            h.stop();
        }
    }
}

impl Service {
    fn endpoint(&self) -> &Endpoint {
        self.0.as_ref().expect("server running").endpoint()
    }
}

/// A long-lived connection and the CPU both its ends are pinned to (`None`
/// when pinning was not possible).
struct Conn {
    stream: Stream,
    cpu: Option<usize>,
}

impl Conn {
    /// Opens a connection and pins the server thread that handles it to
    /// `cpu`; the client worker pins itself when it starts.
    fn open(ep: &Endpoint, cpu: Option<usize>) -> Conn {
        let before = host::thread_ids();
        let mut stream = ep.connect().expect("connect");
        // The server's handler thread exists once a PING is answered.
        wire::write_frame(&mut stream, &wire::encode_request(&Request::Ping)).expect("PING");
        wire::read_frame(&mut stream).expect("PING reply");
        let new: Vec<i32> = host::thread_ids()
            .into_iter()
            .filter(|t| !before.contains(t))
            .collect();
        let cpu = match (cpu, &new[..]) {
            (Some(cpu), &[handler]) if host::pin(handler, cpu) => Some(cpu),
            _ => None,
        };
        Conn { stream, cpu }
    }

    /// Pins the calling client worker next to the connection's handler.
    fn pin_worker(&self) {
        if let Some(cpu) = self.cpu {
            host::pin(0, cpu);
        }
    }
}

/// One request: a kernel, possibly edited.
#[derive(Clone, Copy)]
struct Spec {
    kernel: usize,
    edit: Option<FreshEdit>,
}

struct Suite {
    ws: Vec<Workload>,
    /// Rendered module text of each kernel.
    texts: Vec<String>,
    /// The golden text-path front digest of each kernel.
    expected: Vec<(usize, u64)>,
    /// Kernels requests draw from, uniformly.
    set: Vec<usize>,
    /// Kernels with edit sites, and their sites.
    editable: Vec<(usize, Vec<Site>)>,
}

impl Suite {
    fn draw(&self, rng: &mut Rng, edit_share: f64) -> Spec {
        if edit_share > 0.0 && rng.unit() < edit_share {
            let (kernel, sites) = &self.editable[rng.below(self.editable.len())];
            return Spec {
                kernel: *kernel,
                edit: Some(FreshEdit::draw(rng, sites)),
            };
        }
        Spec {
            kernel: self.set[rng.below(self.set.len())],
            edit: None,
        }
    }

    fn text(&self, spec: &Spec) -> String {
        match spec.edit {
            Some(e) => e.module(&self.ws[spec.kernel].module).to_text(),
            None => self.texts[spec.kernel].clone(),
        }
    }
}

/// A traced request: client phase marks (encode start, send start, wait
/// start, decode start, decode end) and the reply's counters.
struct Traced {
    conn: usize,
    marks: [u64; 5],
    model_evals: u64,
    cache_hits: u64,
    cache_misses: u64,
    disk_hits: u64,
}

/// What one connection's requests add up to. Only latencies, edited
/// requests and traced requests are kept per request, so the benchmark's
/// own memory stays small beside the server's.
#[derive(Default)]
struct Tally {
    ops: u64,
    failed: u64,
    mismatches: u64,
    /// Round trips (closed loop) or time since due (open loop).
    latency_ms: Vec<f64>,
    late_ms: Vec<f64>,
    edited: Vec<(Spec, (usize, u64))>,
    traced: Vec<Traced>,
}

impl Tally {
    /// Checks a reply outside the timed interval: unedited fronts against
    /// golden, edited ones kept for the from-scratch check.
    fn check(&mut self, suite: &Suite, spec: Spec, reply: Option<&SelectReply>) {
        self.ops += 1;
        let Some(reply) = reply else {
            self.failed += 1;
            return;
        };
        let digest = front_digest(&reply.front);
        match spec.edit {
            None => self.mismatches += u64::from(digest != suite.expected[spec.kernel]),
            Some(_) => self.edited.push((spec, digest)),
        }
    }

    fn merge(mut self, other: Tally) -> Tally {
        self.ops += other.ops;
        self.failed += other.failed;
        self.mismatches += other.mismatches;
        self.latency_ms.extend(other.latency_ms);
        self.late_ms.extend(other.late_ms);
        self.edited.extend(other.edited);
        self.traced.extend(other.traced);
        self
    }
}

/// Sends one SELECT through the wire functions, marking each client phase.
/// The request text is moved into the request inside the encode phase, as
/// `Client::select_text` copies it there.
fn select(stream: &mut Stream, text: String, rec: &Recorder) -> ([u64; 5], Option<SelectReply>) {
    let mut marks = [rec.now(), 0, 0, 0, 0];
    let payload = wire::encode_request(&Request::Select { module_text: text });
    marks[1] = rec.now();
    let sent = wire::write_frame(stream, &payload);
    marks[2] = rec.now();
    let frame = sent
        .ok()
        .and_then(|()| wire::read_frame(stream).ok().flatten());
    marks[3] = rec.now();
    let reply = frame
        .and_then(|f| wire::decode_response(&f).ok())
        .and_then(|d| match d.response {
            Response::Select(r) => Some(r),
            _ => None,
        });
    marks[4] = rec.now();
    (marks, reply)
}

/// Boots a server (on the disk store `store`, if any) and warms its working
/// set with one SELECT per kernel.
fn set_up(mode: &Mode, rep: usize, golden: &Golden, store: Option<&Path>) -> (Service, Suite) {
    let ws = cayman::workloads::full();
    let texts: Vec<String> = ws.iter().map(|w| w.module.to_text()).collect();
    let expected = ws.iter().map(|w| golden.row(w.name).text).collect();
    let set = match mode.warm_set {
        Some(n) => stratified(&ws, golden, n),
        None => (0..ws.len()).collect(),
    };
    let editable = ws
        .iter()
        .enumerate()
        .map(|(i, w)| (i, sites(&w.module)))
        .filter(|(_, s)| !s.is_empty())
        .collect();
    let dir = service_dir(mode, rep);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create service directory");
    let opts = ServerOptions {
        store_dir: store.map(Path::to_path_buf),
        select: select_opts(1),
        max_frameworks: 64,
        slow_req_ms: None,
        req_timeout_ms: None,
        metrics_file: None,
        metrics_interval_ms: 2000,
    };
    let server = serve(Endpoint::Unix(dir.join("s.sock")), opts).expect("server binds");
    let service = Service(Some(server));
    let mut client = Client::connect(service.endpoint()).expect("connect");
    for &k in &set {
        client.select_text(&texts[k]).expect("warm-up SELECT");
    }
    let suite = Suite {
        ws,
        texts,
        expected,
        set,
        editable,
    };
    (service, suite)
}

fn service_dir(mode: &Mode, rep: usize) -> PathBuf {
    PathBuf::from(format!("{}-{}-{rep}", mode.name, std::process::id()))
}

/// The middle kernel of each of `n` strata of the suite sorted by how many
/// wPST vertices its selection visits: a working set spanning the suite's
/// range of selection cost, the same for every seed (a seeded draw moved
/// throughput by a third between seeds).
fn stratified(ws: &[Workload], golden: &Golden, n: usize) -> Vec<usize> {
    let mut by_cost: Vec<usize> = (0..ws.len()).collect();
    by_cost.sort_by_key(|&i| (golden.row(ws[i].name).visited, ws[i].name));
    (0..n)
        .map(|s| by_cost[(2 * s + 1) * ws.len() / (2 * n)])
        .collect()
}

/// Closed loop over `horizon` seconds: each connection sends its next
/// request as soon as the previous reply is decoded, and probes the host's
/// speed between requests. Records the throughput and latency metrics and
/// returns the tally.
fn closed_loop(
    ctx: &Ctx,
    mode: &Mode,
    conns: &mut [Conn],
    (suite, rec): (&Suite, &Recorder),
    horizon: f64,
    r: &mut Report,
) -> Tally {
    let start = Instant::now();
    let pacer = Pacer::new(conns.len(), start, Duration::from_secs_f64(horizon));
    // Each worker's tally and busy seconds (probes excluded).
    let workers: Vec<(Tally, f64)> = std::thread::scope(|scope| {
        let pacer = &pacer;
        let workers: Vec<_> = conns
            .iter_mut()
            .enumerate()
            .map(|(c, conn)| {
                scope.spawn(move || {
                    conn.pin_worker();
                    let mut seat = pacer.seat();
                    let mut rng = Rng::stream(ctx.seed, 10 + c as u64);
                    let mut tally = Tally::default();
                    while seat.go_on() {
                        let spec = suite.draw(&mut rng, mode.edit_share);
                        let (marks, reply) = select(&mut conn.stream, suite.text(&spec), rec);
                        tally.latency_ms.push((marks[4] - marks[0]) as f64 / 1e6);
                        tally.check(suite, spec, reply.as_ref());
                    }
                    let busy_s = (start.elapsed() - seat.paused).as_secs_f64();
                    (tally, busy_s)
                })
            })
            .collect();
        workers
            .into_iter()
            .map(|w| w.join().expect("closed-loop worker"))
            .collect()
    });
    let issued: Vec<Issued> = workers
        .iter()
        .map(|(tally, busy_s)| Issued {
            ops: tally.ops as usize,
            busy_s: *busy_s,
            latency_ms: &tally.latency_ms,
        })
        .collect();
    put_ops(r, ctx, &pacer, &issued);
    workers
        .into_iter()
        .map(|(tally, ..)| tally)
        .fold(Tally::default(), Tally::merge)
}

/// Open loop over `horizon` seconds: a seeded Poisson schedule at the
/// mode's rate, each arrival taken in order by whichever connection is free
/// first.
fn open_loop(
    ctx: &Ctx,
    mode: &Mode,
    conns: &mut [Conn],
    suite: &Suite,
    rec: &Recorder,
    horizon: f64,
    traced: bool,
) -> Tally {
    let lane = if traced { 30 } else { 20 };
    let mut draws = Rng::stream(ctx.seed, lane);
    let schedule: Vec<(f64, Spec)> =
        poisson_schedule(&mut Rng::stream(ctx.seed, lane + 1), mode.rate, horizon)
            .into_iter()
            .map(|at| (at, suite.draw(&mut draws, mode.edit_share)))
            .collect();
    let next = AtomicUsize::new(0);
    // A short lead lets both connections be ready before the first arrival.
    let origin = rec.now() + 5_000_000;
    std::thread::scope(|scope| {
        let workers: Vec<_> = conns
            .iter_mut()
            .enumerate()
            .map(|(c, conn)| {
                let (schedule, next) = (&schedule, &next);
                scope.spawn(move || {
                    conn.pin_worker();
                    let mut tally = Tally::default();
                    while let Some(&(at, spec)) = schedule.get(next.fetch_add(1, Ordering::Relaxed))
                    {
                        let text = suite.text(&spec);
                        let due = origin + (at * 1e9) as u64;
                        let now = rec.now();
                        if due > now {
                            std::thread::sleep(Duration::from_nanos(due - now));
                        }
                        let sent = rec.now();
                        let (marks, reply) = select(&mut conn.stream, text, rec);
                        tally.latency_ms.push((marks[4] - due) as f64 / 1e6);
                        tally.late_ms.push((sent - due) as f64 / 1e6);
                        if let (true, Some(r)) = (traced, &reply) {
                            tally.traced.push(Traced {
                                conn: c,
                                marks,
                                model_evals: r.model_evals,
                                cache_hits: r.cache_hits,
                                cache_misses: r.cache_misses,
                                disk_hits: r.disk_hits,
                            });
                        }
                        tally.check(suite, spec, reply.as_ref());
                    }
                    tally
                })
            })
            .collect();
        workers
            .into_iter()
            .map(|w| w.join().expect("open-loop worker"))
            .fold(Tally::default(), Tally::merge)
    })
}

/// Server-side counters of one METRICS scrape.
struct Scrape(promtext::Exposition);

impl Scrape {
    fn take(client: &mut Client) -> Scrape {
        let text = client.metrics().expect("METRICS").text;
        Scrape(promtext::parse(&text).expect("exposition parses"))
    }

    fn delta(&self, before: &Scrape, name: &str) -> f64 {
        let v = |s: &Scrape| s.0.value(name).unwrap_or(0.0);
        v(self) - v(before)
    }
}

pub fn run(ctx: &Ctx, rec: &Recorder, mode: &Mode) -> Report {
    let mut r = Report::new(mode.name, ctx.seed, ctx.seconds, ctx.trace);
    let golden = Golden::load();
    let store = mode
        .store
        .then(|| PathBuf::from(format!("{}-{}-store", mode.name, std::process::id())));
    // The store is filled once, untimed (see the module documentation).
    if let Some(store) = &store {
        let _ = std::fs::remove_dir_all(store);
        drop(set_up(mode, 0, &golden, Some(store)));
    }
    let mut reps = 0;
    let (service, suite) = timed_setup(&mut r, |rep| {
        reps = rep + 1;
        set_up(mode, rep, &golden, store.as_deref())
    });
    r.param("connections", CONNECTIONS);
    r.param("working_set", suite.set.len());
    r.param("store", mode.store);
    r.param("edit_share", mode.edit_share);
    r.param("open_rate_per_s", mode.rate);
    r.param("p99_limit_ms", mode.p99_limit_ms);
    let closed_share = if ctx.trace { TRACED_CLOSED_SHARE } else { 1.0 };
    r.param("closed_share", closed_share);
    let ep = service.endpoint();
    let mut control = Client::connect(ep).expect("connect");
    // Answered, so the control connection's handler thread is not taken
    // for a pinned connection's.
    control.ping().expect("PING");
    // Both phases share two long-lived connections, as steady clients
    // would: each new connection is a new server thread, and with it more
    // allocator arenas whose retained memory varies from run to run.
    let mut conns: Vec<Conn> = (0..CONNECTIONS)
        .map(|c| Conn::open(ep, host::cpu_for(c)))
        .collect();
    r.param(
        "pinned_connections",
        conns.iter().filter(|c| c.cpu.is_some()).count(),
    );

    let closed_horizon = ctx.seconds as f64 * closed_share;
    let closed = closed_loop(ctx, mode, &mut conns, (&suite, rec), closed_horizon, &mut r);

    let (mut open, traced) = if ctx.trace {
        let half = (ctx.seconds as f64 - closed_horizon) / 2.0;
        let untraced = open_loop(ctx, mode, &mut conns, &suite, rec, half, false);
        let before = Scrape::take(&mut control);
        let mut traced = open_loop(ctx, mode, &mut conns, &suite, rec, half, true);
        let after = Scrape::take(&mut control);
        put_trace(&mut r, rec, &mut control, &traced, (&before, &after));
        let mut untraced_ms = untraced.latency_ms.clone();
        crate::put_overhead(&mut r, &mut traced.latency_ms, &mut untraced_ms);
        (untraced, traced)
    } else {
        (Tally::default(), Tally::default())
    };
    put_peak_rss(&mut r);
    drop((control, conns));

    if let Some(l) = Latency::of(&mut open.latency_ms) {
        r.put("open_p50_ms", l.p50, "ms");
        r.put("open_p99_ms", l.p99, "ms");
        r.put("open_samples", l.n as f64, "count");
        r.put(
            "open_p99_within_limit",
            f64::from(u8::from(l.p99 <= mode.p99_limit_ms)),
            "bool",
        );
        r.put(
            "service.open_p99_limit_share",
            l.p99 / mode.p99_limit_ms,
            "share",
        );
    }
    if let Some(l) = Latency::of(&mut open.late_ms) {
        r.put("gen_late_p99_ms", l.p99, "ms");
        r.put(
            "harness.gen_late_p99_share",
            l.p99 / (1e3 / mode.rate),
            "share",
        );
    }

    let all = closed.merge(open).merge(traced);
    r.attempted = all.ops;
    r.failed = all.failed;
    r.mismatches = all.mismatches;
    check_edited(&mut r, &suite, all.edited, ctx.seed);
    drop(service);
    for rep in 0..reps {
        let _ = std::fs::remove_dir_all(service_dir(mode, rep));
    }
    if let Some(store) = &store {
        let _ = std::fs::remove_dir_all(store);
    }
    put_checks(&mut r);
    r
}

/// Edited states change with the seed, so a seeded sample of them is
/// re-checked against a from-scratch `Framework::from_text` + select.
fn check_edited(r: &mut Report, suite: &Suite, mut edited: Vec<(Spec, (usize, u64))>, seed: u64) {
    Rng::stream(seed, 3).shuffle(&mut edited);
    edited.truncate(CHECK_CAP);
    let sel = select_opts(1);
    for (spec, digest) in &edited {
        match Framework::from_text(&suite.text(spec)) {
            Ok(fw) if front_digest(&fw.select(&sel).pareto) == *digest => {}
            _ => r.mismatches += 1,
        }
    }
    r.put("checked_edited_requests", edited.len() as f64, "count");
}

fn put_trace(
    r: &mut Report,
    rec: &Recorder,
    control: &mut Client,
    traced: &Tally,
    (before, after): (&Scrape, &Scrape),
) {
    let mut layers = SelfTimes::new();
    let mut round_trips = Vec::new();
    let (mut evals, mut hits, mut misses, mut model_calls) = (0u64, 0u64, 0u64, 0u64);
    let names = [
        "client.encode",
        "client.send",
        "client.wait_recv",
        "client.decode",
    ];
    for (i, t) in traced.traced.iter().enumerate() {
        // Spans are rebuilt from the marks, so untraced and traced requests
        // run the same code; each connection gets its own trace lane.
        let op = i as u64 + 1;
        let lane = 1_000_000 + t.conn as u32;
        let root = rec.record("serve.req", 0, op, (t.marks[0], t.marks[4]), lane);
        for (j, name) in names.into_iter().enumerate() {
            rec.record(name, root, op, (t.marks[j], t.marks[j + 1]), lane);
        }
        rec.finish_op(op, &mut layers);
        round_trips.push((t.marks[4] - t.marks[0]) as f64);
        evals += t.model_evals;
        hits += t.cache_hits;
        misses += t.cache_misses;
        // Concurrent requests on one framework can both count a disk hit,
        // so the difference is clamped.
        model_calls += t.cache_misses.saturating_sub(t.disk_hits);
    }
    let n = round_trips.len() as u64;
    let rt_ns: f64 = round_trips.iter().sum();
    let mut covered = 0.0;
    for layer in names {
        let ns = layers.get(layer).copied().unwrap_or(0) as f64;
        covered += ns;
        put_layer(r, layer, ns, n, rt_ns);
    }
    r.put("harness.coverage", ratio(covered, rt_ns), "ratio");
    for phase in ["decode", "warm", "select", "encode", "total"] {
        let ns = after.delta(before, &format!("cayman_req_{phase}_nanos_sum"));
        put_layer(r, &format!("server.{phase}"), ns, n, rt_ns);
    }
    let server_share = r.get("server.total.share").unwrap_or(0.0);
    r.put("service.unattributed_share", 1.0 - server_share, "share");
    let hit_ratio = |h: &str, m: &str| {
        let (h, m) = (after.delta(before, h), after.delta(before, m));
        ratio(h, h + m)
    };
    r.put(
        "server.fw.hit_ratio",
        hit_ratio("cayman_server_fw_hits", "cayman_server_fw_misses"),
        "ratio",
    );
    r.put(
        "store.hit_ratio",
        hit_ratio("cayman_store_hits", "cayman_store_misses"),
        "ratio",
    );
    let per_op = |v: f64| ratio(v, n as f64);
    r.put(
        "store.writes",
        per_op(after.delta(before, "cayman_store_writes")),
        "count/op",
    );
    r.put(
        "store.evictions",
        per_op(after.delta(before, "cayman_store_evictions")),
        "count/op",
    );
    r.put("select.model_evals", per_op(evals as f64), "count/op");
    r.put("hls.model.calls", per_op(model_calls as f64), "count/op");
    r.put(
        "select.cache_hit_ratio",
        ratio(hits as f64, (hits + misses) as f64),
        "ratio",
    );

    let mut pings = Vec::with_capacity(PINGS);
    for _ in 0..PINGS {
        let t = Instant::now();
        control.ping().expect("PING");
        pings.push(t.elapsed().as_secs_f64() * 1e3);
    }
    let ping = Latency::of(&mut pings).map_or(0.0, |l| l.p50);
    let mut rt_ms: Vec<f64> = round_trips.iter().map(|ns| ns / 1e6).collect();
    let rt_p50 = Latency::of(&mut rt_ms).map_or(0.0, |l| l.p50);
    r.put("client.ping.ms", ping, "ms");
    r.put("client.ping.share", ratio(ping, rt_p50), "share");
}
