//! CI gate for the metrics surface (ISSUE 10 satellite): boots `caymand`
//! in-process with a `--metrics-file`-style periodic dump, hammers it with
//! N concurrent clients, scrapes METRICS over the wire, and validates the
//! exposition with the dependency-free parser — rejecting duplicate
//! series, non-monotone histogram buckets, and `_sum`/`_count`
//! inconsistencies. Also asserts the periodic dump file validates, that
//! per-phase histogram counts cover every request the clients sent, that
//! the always-on layer counters (profiling, design cache) reach the wire,
//! and that no counter series decreases between two scrapes.
//!
//! Exits non-zero (panics) on any violation; prints one OK line otherwise.

use cayman_obs::promtext;
use cayman_store::{serve, Client, Endpoint, ServerOptions};

const CLIENTS: usize = 6;
const REQS_PER_CLIENT: usize = 8;

fn main() {
    cayman_obs::init_from_env();
    let tmp = std::env::temp_dir().join(format!("cayman-metricsmoke-{}", std::process::id()));
    std::fs::create_dir_all(&tmp).expect("create smoke dir");
    let dump = tmp.join("metrics.prom");

    let server = serve(
        Endpoint::Unix(tmp.join("caymand.sock")),
        ServerOptions {
            metrics_file: Some(dump.clone()),
            metrics_interval_ms: 50,
            ..Default::default()
        },
    )
    .expect("server starts");

    let corpus = cayman::workloads::corpus::corpus();
    let w = corpus.first().expect("corpus is non-empty");
    let text = w.module.to_text();

    // N concurrent clients, mixed opcodes (scrapes racing selects) — the
    // histograms must absorb parallel recording without losing counts
    std::thread::scope(|s| {
        for _ in 0..CLIENTS {
            let endpoint = server.endpoint().clone();
            let text = &text;
            s.spawn(move || {
                let mut c = Client::connect(&endpoint).expect("client connects");
                for i in 0..REQS_PER_CLIENT {
                    match i % 3 {
                        0 => drop(c.select_text(text).expect("select")),
                        1 => c.ping().expect("ping"),
                        _ => drop(c.metrics().expect("metrics")),
                    }
                    assert!(c.last_request_id() > 0, "every reply carries an id");
                }
            });
        }
    });

    // scrape over the wire and validate strictly
    let mut client = Client::connect(server.endpoint()).expect("scraper connects");
    let metrics = client.metrics().expect("metrics");
    let exp = promtext::validate(&metrics.text)
        .unwrap_or_else(|e| panic!("wire exposition invalid: {e}"));

    let sent = (CLIENTS * REQS_PER_CLIENT) as f64;
    // the scrape's own request closes after its snapshot, so it is not
    // yet counted
    let total = exp
        .value("cayman_req_total_nanos_count")
        .expect("req.total histogram exported");
    assert!(
        total >= sent,
        "per-phase histograms lost requests: counted {total}, clients sent {sent}"
    );
    for phase in ["decode", "warm", "select", "encode"] {
        let name = format!("cayman_req_{phase}_nanos");
        assert!(
            exp.histogram_names().contains(&name.as_str()),
            "missing {phase} histogram"
        );
        let sum = exp.value(&format!("{name}_sum")).expect("_sum exported");
        let count = exp
            .value(&format!("{name}_count"))
            .expect("_count exported");
        assert!(
            count == 0.0 || sum >= 0.0,
            "{name}: _sum/_count inconsistent"
        );
    }
    for layer in ["cayman_profile_blocks", "cayman_cache_mem_misses"] {
        assert!(
            exp.value(layer).unwrap_or(0.0) > 0.0,
            "{layer} missing or zero on the wire"
        );
    }

    // the periodic dump landed and validates too (written at least once
    // at startup and every 50ms since)
    std::thread::sleep(std::time::Duration::from_millis(200));
    let dumped = std::fs::read_to_string(&dump).expect("metrics file dumped");
    promtext::validate(&dumped).unwrap_or_else(|e| panic!("dumped exposition invalid: {e}"));
    let later = promtext::validate(&client.metrics().expect("second metrics").text)
        .unwrap_or_else(|e| panic!("second wire exposition invalid: {e}"));
    for (name, ty) in &exp.types {
        let (was, now) = (exp.value(name), later.value(name));
        assert!(
            ty != "counter" || now >= was,
            "{name} went backwards: {was:?} -> {now:?}"
        );
    }

    client.shutdown_server().expect("shutdown");
    server.wait();
    let _ = std::fs::remove_dir_all(&tmp);
    cayman_obs::flush_to_env();
    println!(
        "metricsmoke: OK ({CLIENTS} clients x {REQS_PER_CLIENT} reqs, exposition valid on the \
         wire and in the dump file, {total} requests in the phase histograms)"
    );
}
