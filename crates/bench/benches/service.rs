//! `caymand` service latency under concurrent clients (ISSUE 10), written
//! to `BENCH_service.json`.
//!
//! Boots the server in-process on a Unix socket, warms one corpus kernel,
//! then drives N ≥ 4 concurrent clients each running a fixed number of
//! memory-warm SELECTs and PINGs. Every client records request latency into
//! its own `cayman_obs` log-bucketed histogram; the shards are **merged**
//! at the end (exercising exactly the mergeability the histogram prop tests
//! pin) and reported as p50/p90/p99/max. The server's own metrics
//! exposition is scraped over the wire before and after the measured
//! window, validated with the dependency-free parser, and its per-phase
//! request counts are cross-checked against the client-side tallies; the
//! server's `req.total` mean, p50 and p99 over the window come from the
//! difference of the two scrapes' cumulative buckets.
//!
//! ```text
//! cargo bench -p cayman-bench --bench service            # writes JSON
//! cargo bench -p cayman-bench --bench service -- --smoke # CI: fewer reqs, no JSON
//! ```

use cayman_bench::json;
use cayman_obs::hist::{HistSnapshot, Histogram};
use cayman_obs::promtext::{self, Exposition, Sample};
use cayman_store::{serve, Client, Endpoint, ServerOptions};
use std::path::Path;
use std::time::Instant;

/// Concurrent clients (the acceptance floor is 4).
const CLIENTS: usize = 8;

struct ClientRun {
    select: HistSnapshot,
    ping: HistSnapshot,
}

fn run_client(endpoint: &Endpoint, text: &str, reqs: usize) -> ClientRun {
    let mut client = Client::connect(endpoint).expect("bench client connects");
    let select = Histogram::new();
    let ping = Histogram::new();
    for i in 0..reqs {
        let t0 = Instant::now();
        if i % 4 == 3 {
            client.ping().expect("ping");
            ping.record(t0.elapsed().as_nanos() as u64);
        } else {
            let reply = client.select_text(text).expect("warm select");
            select.record(t0.elapsed().as_nanos() as u64);
            assert!(reply.framework_reused, "bench runs against a warm server");
            assert_eq!(reply.model_evals, 0, "warm select must skip the model");
            assert!(client.last_request_id() > 0, "server assigns request ids");
        }
    }
    ClientRun {
        select: select.snapshot(),
        ping: ping.snapshot(),
    }
}

/// Quantile `q` of the `name` samples recorded between two scrapes: the
/// upper bound of the first bucket whose count over the window reaches
/// rank `ceil(q × n)`, the estimate `HistSnapshot::quantile` makes.
fn window_quantile(before: &Exposition, after: &Exposition, name: &str, q: f64) -> f64 {
    let buckets = |e: &Exposition| -> Vec<(f64, f64)> {
        let le = |s: &Sample| s.label("le").and_then(|le| le.parse().ok()).expect("le");
        e.series(&format!("{name}_bucket"))
            .iter()
            .map(|s| (le(s), s.value))
            .collect()
    };
    let (b0, b1) = (buckets(before), buckets(after));
    // the earlier scrape lists only the non-empty buckets of the same grid
    let prior = |le: f64| b0.iter().rfind(|(b, _)| *b <= le).map_or(0.0, |b| b.1);
    let rank = (q * (b1.last().map_or(0.0, |b| b.1) - prior(f64::INFINITY))).ceil();
    let hit = b1.iter().find(|(le, c)| c - prior(*le) >= rank.max(1.0));
    hit.map_or(0.0, |b| b.0)
}

fn quantiles_json(o: &mut json::Obj, name: &str, snap: &HistSnapshot) {
    o.obj(name, |o| {
        o.u64("count", snap.count());
        o.f64("p50_us", snap.p50() as f64 / 1e3, 3);
        o.f64("p90_us", snap.p90() as f64 / 1e3, 3);
        o.f64("p99_us", snap.p99() as f64 / 1e3, 3);
        o.f64("max_us", snap.max() as f64 / 1e3, 3);
    });
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let reqs_per_client = if smoke { 40 } else { 400 };

    let sock =
        std::env::temp_dir().join(format!("cayman-bench-service-{}.sock", std::process::id()));
    let server = serve(Endpoint::Unix(sock), ServerOptions::default()).expect("server starts");

    let corpus = cayman::workloads::corpus::corpus();
    let w = corpus.first().expect("corpus is non-empty");
    let text = w.module.to_text();

    // one cold request outside the measured window warms the framework
    let mut warmup = Client::connect(server.endpoint()).expect("warmup connects");
    let cold = warmup.select_text(&text).expect("cold select");
    assert!(!cold.framework_reused, "first request analyses");

    let scrape = |client: &mut Client| {
        let text = client.metrics().expect("metrics scrape").text;
        promtext::validate(&text).expect("exposition validates")
    };
    let before = scrape(&mut warmup);

    let wall = Instant::now();
    let runs: Vec<ClientRun> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|_| {
                let endpoint = server.endpoint().clone();
                let text = &text;
                s.spawn(move || run_client(&endpoint, text, reqs_per_client))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect()
    });
    let wall_s = wall.elapsed().as_secs_f64();

    // merge the per-client shards — the wire-facing use of HistSnapshot::merge
    let mut select = HistSnapshot::default();
    let mut ping = HistSnapshot::default();
    for run in &runs {
        select.merge(&run.select);
        ping.merge(&run.ping);
    }
    let total_reqs = select.count() + ping.count();
    assert_eq!(total_reqs, (CLIENTS * reqs_per_client) as u64);

    // scrape + validate the server's own view and cross-check the counts;
    // the window holds the clients' requests plus the first scrape's own
    let after = scrape(&mut warmup);
    let total = "cayman_req_total_nanos";
    let delta = |name: &str| {
        let v = |e: &Exposition| e.value(name).expect("req.total exported");
        v(&after) - v(&before)
    };
    let served = delta(&format!("{total}_count"));
    assert!(
        served >= total_reqs as f64,
        "server counted {served} requests, clients sent at least {total_reqs}"
    );
    let server_mean_total_us = delta(&format!("{total}_sum")) / served / 1e3;
    let server_total_p50_us = window_quantile(&before, &after, total, 0.50) / 1e3;
    let server_total_p99_us = window_quantile(&before, &after, total, 0.99) / 1e3;

    println!(
        "# service: {CLIENTS} clients x {reqs_per_client} reqs in {wall_s:.2}s | \
         warm select p50 {:.1}us p99 {:.1}us | ping p50 {:.1}us p99 {:.1}us | \
         server total mean {server_mean_total_us:.1}us p50 {server_total_p50_us:.1}us \
         p99 {server_total_p99_us:.1}us over {served} reqs",
        select.p50() as f64 / 1e3,
        select.p99() as f64 / 1e3,
        ping.p50() as f64 / 1e3,
        ping.p99() as f64 / 1e3,
    );

    warmup.shutdown_server().expect("shutdown");
    server.wait();

    if smoke {
        assert!(select.count() > 0 && ping.count() > 0);
        assert!(
            select.p50() <= select.p99() && select.p99() <= select.max(),
            "quantiles are ordered"
        );
        assert!(
            0.0 < server_total_p50_us && server_total_p50_us <= server_total_p99_us,
            "server quantiles from scraped buckets are ordered"
        );
        println!(
            "smoke mode: exposition valid, quantiles ordered; BENCH_service.json left untouched"
        );
        return;
    }

    let out = json::document(|o| {
        o.str("bench", "service");
        o.str(
            "note",
            "in-process caymand on a unix socket; one cold warm-up select, then CLIENTS \
             concurrent clients each running reqs_per_client requests (3 warm SELECTs : 1 \
             PING). Latencies recorded client-side into per-thread log-bucketed histograms \
             and merged; quantile error bounded by one bucket (2^-3 relative). Server-side \
             per-phase histograms scraped over the wire before and after the window and \
             validated; server_total_* are req.total over the window, p50/p99 from the \
             difference of the scraped cumulative buckets.",
        );
        let host = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
        o.u64("host_parallelism", host as u64);
        o.u64("clients", CLIENTS as u64);
        o.u64("reqs_per_client", reqs_per_client as u64);
        o.u64("requests_total", total_reqs);
        o.f64("wall_s", wall_s, 3);
        o.f64("throughput_rps", total_reqs as f64 / wall_s.max(1e-9), 1);
        quantiles_json(o, "select_warm", &select);
        quantiles_json(o, "ping", &ping);
        o.f64("server_mean_total_us", server_mean_total_us, 3);
        o.f64("server_total_p50_us", server_total_p50_us, 3);
        o.f64("server_total_p99_us", server_total_p99_us, 3);
        o.u64("server_requests_counted", served as u64);
    });
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_service.json");
    std::fs::write(&path, out).expect("write BENCH_service.json");
    println!("wrote {}", path.display());
}
