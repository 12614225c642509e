//! CI smoke for the server + store (ISSUE 9 satellite): boots `caymand`
//! in-process on a Unix socket with a fresh store directory, submits a
//! corpus kernel over the socket, and asserts
//!
//! 1. the served front is **bit-identical** to an in-process
//!    `Framework::from_text` + `select` on the same text,
//! 2. a repeat request on the warm server reuses the framework and runs
//!    **zero** model evaluations (memory-warm),
//! 3. a *restarted* server on the same store directory still serves the
//!    bit-identical front with **zero cold `accel(v, R)` evaluations** —
//!    the designs come off disk (disk-warm), proven by the request
//!    counters and the store's hit counter,
//! 4. the telemetry surface works end-to-end: METRICS round-trips, the
//!    exposition **validates** (no duplicate series, monotone histogram
//!    buckets) and carries the per-phase request histograms and the
//!    server and store counters, reply request ids are the server's
//!    sequence, and the slow-request log (forced on with a 0ms threshold)
//!    names the same ids in its stable `slow-req id=…` format.
//!
//! Exits non-zero (panics) on any violation; prints one OK line otherwise.

use cayman::{Framework, SelectOptions};
use cayman_store::{fronts_bits_equal, serve, Client, Endpoint, ServerOptions};
use std::path::Path;

fn main() {
    cayman_obs::init_from_env();
    let tmp = std::env::temp_dir().join(format!("cayman-serversmoke-{}", std::process::id()));
    let store_dir = tmp.join("store");
    std::fs::create_dir_all(&tmp).expect("create smoke dir");

    // one real corpus kernel, submitted as text exactly as a client would
    let corpus = cayman::workloads::corpus::corpus();
    let w = corpus.first().expect("corpus is non-empty");
    let text = w.module.to_text();

    // the in-process reference the server must match bit-for-bit
    let reference = Framework::from_text(&text)
        .expect("corpus kernel analyses")
        .select(&SelectOptions::default());

    // ---- phase 1: cold server, cold store ----
    let server = serve(
        Endpoint::Unix(tmp.join("caymand-a.sock")),
        ServerOptions {
            store_dir: Some(store_dir.clone()),
            // threshold 0: every request is "slow", so the log is testable
            slow_req_ms: Some(0),
            ..Default::default()
        },
    )
    .expect("server starts");
    let mut client = Client::connect(server.endpoint()).expect("connects");
    client.ping().expect("pings");
    assert_eq!(client.last_request_id(), 1, "ids are a sequence from 1");

    let cold = client.select_text(&text).expect("cold select");
    let cold_id = client.last_request_id();
    assert_eq!(cold_id, 2, "second request gets id 2");
    assert!(
        fronts_bits_equal(&cold.front, &reference.pareto),
        "{}: served front diverges from in-process selection",
        w.name
    );
    assert!(cold.model_evals > 0, "cold request must run the model");
    assert!(
        !cold.framework_reused,
        "first request analyses from scratch"
    );

    let warm = client.select_text(&text).expect("memory-warm select");
    assert!(fronts_bits_equal(&warm.front, &reference.pareto));
    assert!(warm.framework_reused, "repeat request reuses the framework");
    assert_eq!(warm.model_evals, 0, "memory-warm request skips the model");

    // ---- telemetry surface ----
    client.ping().expect("liveness");
    assert_eq!(client.last_request_id(), cold_id + 2, "ids stay a sequence");

    let metrics = client.metrics().expect("metrics");
    assert_eq!(client.last_request_id(), cold_id + 3);
    let exp = cayman_obs::promtext::validate(&metrics.text)
        .expect("exposition parses and validates (no duplicate series, monotone buckets)");
    assert!(
        exp.value("cayman_server_uptime_seconds").unwrap_or(0.0) > 0.0,
        "uptime advances"
    );
    for phase in ["decode", "warm", "select", "encode", "total"] {
        let name = format!("cayman_req_{phase}_nanos");
        assert!(
            exp.histogram_names().contains(&name.as_str()),
            "exposition misses the {phase} phase histogram"
        );
        let count = exp
            .value(&format!("{name}_count"))
            .expect("histogram has _count");
        let sum = exp
            .value(&format!("{name}_sum"))
            .expect("histogram has _sum");
        assert!(count >= 1.0, "{name}: at least one request recorded");
        assert!(sum >= 0.0, "{name}: sum is non-negative");
    }
    assert_eq!(
        exp.value("cayman_req_total_nanos_count"),
        Some(4.0),
        "every request before the scrape is counted once"
    );
    assert!(
        exp.value("cayman_cache_mem_inserts").unwrap_or(0.0) > 0.0,
        "design-cache counters are exported"
    );
    assert!(
        exp.value("cayman_store_writes").unwrap_or(0.0) > 0.0,
        "cold run persisted designs"
    );

    // the slow-request log (threshold 0) named every request by its id,
    // in the stable machine-splittable format
    let slow = server.slow_log();
    assert!(!slow.is_empty(), "slow log captured requests");
    for line in &slow {
        assert!(line.starts_with("slow-req id="), "slow line format: {line}");
        for key in [
            "op=",
            "total_us=",
            "decode_us=",
            "warm_us=",
            "select_us=",
            "encode_us=",
        ] {
            assert!(line.contains(key), "slow line misses {key}: {line}");
        }
    }
    let select_line = slow
        .iter()
        .find(|l| l.contains(&format!("id={cold_id} ")))
        .expect("the cold select shows up in the slow log under its reply id");
    assert!(
        select_line.contains("op=select"),
        "slow line names the op: {select_line}"
    );

    client.shutdown_server().expect("shuts down");
    server.wait();

    // ---- phase 2: fresh server, warm store ----
    let server = serve(
        Endpoint::Unix(tmp.join("caymand-b.sock")),
        ServerOptions {
            store_dir: Some(store_dir.clone()),
            ..Default::default()
        },
    )
    .expect("server restarts");
    let mut client = Client::connect(server.endpoint()).expect("reconnects");
    let disk_warm = client.select_text(&text).expect("disk-warm select");
    assert!(
        !disk_warm.framework_reused,
        "restarted server re-analyses the module"
    );
    assert!(
        fronts_bits_equal(&disk_warm.front, &reference.pareto),
        "{}: disk-served front diverges from in-process selection",
        w.name
    );
    assert_eq!(
        disk_warm.model_evals, 0,
        "disk-warm request must run zero cold accel(v, R) evaluations"
    );
    assert!(
        disk_warm.disk_hits > 0,
        "designs must come off the disk store"
    );
    let exp = cayman_obs::promtext::validate(&client.metrics().expect("metrics").text)
        .expect("exposition validates");
    assert!(
        exp.value("cayman_store_hits").unwrap_or(0.0) > 0.0,
        "store served hits"
    );
    assert_eq!(
        exp.value("cayman_store_corrupt"),
        Some(0.0),
        "no corruption in a clean store"
    );
    client.shutdown_server().expect("shuts down");
    server.wait();

    let entries = walk_count(&store_dir);
    let _ = std::fs::remove_dir_all(&tmp);
    cayman_obs::flush_to_env();
    println!(
        "serversmoke: OK ({}: front bit-identical cold/memory-warm/disk-warm, \
         {} model evals cold, {} disk hits warm, {entries} store entries, \
         exposition valid, {} slow-log lines)",
        w.name,
        cold.model_evals,
        disk_warm.disk_hits,
        slow.len()
    );
}

fn walk_count(dir: &Path) -> usize {
    let mut n = 0;
    if let Ok(shards) = std::fs::read_dir(dir.join("objects")) {
        for shard in shards.flatten() {
            if let Ok(files) = std::fs::read_dir(shard.path()) {
                n += files.flatten().count();
            }
        }
    }
    n
}
