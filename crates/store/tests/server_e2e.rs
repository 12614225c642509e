//! End-to-end server tests: Unix and TCP endpoints, request batching onto
//! shared warm frameworks, concurrent clients receiving bit-identical
//! fronts, error replies for malformed modules, METRICS scrapes, and clean
//! shutdown.

use cayman::{Framework, SelectOptions};
use cayman_obs::promtext::{self, Exposition};
use cayman_store::{fronts_bits_equal, serve, Client, Endpoint, ServerOptions};
use std::path::PathBuf;

fn tmp_path(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("cayman-e2e-{}-{tag}", std::process::id()))
}

fn corpus_text(i: usize) -> (String, &'static str) {
    let corpus = cayman::workloads::corpus::corpus();
    let w = &corpus[i % corpus.len()];
    (w.module.to_text(), w.name)
}

#[test]
fn unix_server_serves_bit_identical_fronts_and_batches() {
    let sock = tmp_path("unix.sock");
    let server = serve(Endpoint::Unix(sock), ServerOptions::default()).expect("serve");
    let mut client = Client::connect(server.endpoint()).expect("connect");
    client.ping().expect("ping");

    let (text, name) = corpus_text(0);
    let reference = Framework::from_text(&text)
        .expect("analyses")
        .select(&SelectOptions::default());

    let cold = client.select_text(&text).expect("cold select");
    assert!(
        fronts_bits_equal(&cold.front, &reference.pareto),
        "{name}: served front diverges from in-process selection"
    );
    assert!(!cold.framework_reused);
    assert!(cold.model_evals > 0);

    // a second connection batches onto the same warm framework
    let mut other = Client::connect(server.endpoint()).expect("second connect");
    let warm = other.select_text(&text).expect("warm select");
    assert!(warm.framework_reused, "identical text reuses the framework");
    assert_eq!(warm.model_evals, 0, "warm request skips the model");
    assert!(fronts_bits_equal(&warm.front, &reference.pareto));

    let exp = scrape(&mut client);
    assert!(exp.value("cayman_server_requests").unwrap_or(0.0) >= 3.0);
    assert_eq!(exp.value("cayman_server_fw_cached"), Some(1.0));
    assert_eq!(exp.value("cayman_server_fw_hits"), Some(1.0));
    assert_eq!(exp.value("cayman_server_fw_misses"), Some(1.0));
    assert!(
        !exp.samples
            .iter()
            .any(|s| s.name.starts_with("cayman_store_")),
        "no store attached by default"
    );

    client.shutdown_server().expect("shutdown");
    server.wait();
}

#[test]
fn tcp_server_roundtrips() {
    let server = serve(
        Endpoint::Tcp("127.0.0.1:0".into()),
        ServerOptions::default(),
    )
    .expect("serve tcp");
    let Endpoint::Tcp(addr) = server.endpoint() else {
        panic!("tcp endpoint expected");
    };
    assert!(!addr.ends_with(":0"), "port 0 must resolve, got {addr}");

    let mut client = Client::connect(server.endpoint()).expect("connect");
    client.ping().expect("ping");
    let (text, name) = corpus_text(1);
    let reference = Framework::from_text(&text)
        .expect("analyses")
        .select(&SelectOptions::default());
    let reply = client.select_text(&text).expect("select");
    assert!(
        fronts_bits_equal(&reply.front, &reference.pareto),
        "{name}: tcp-served front diverges"
    );
    client.shutdown_server().expect("shutdown");
    server.wait();
}

#[test]
fn concurrent_clients_get_bit_identical_fronts() {
    let sock = tmp_path("concurrent.sock");
    let server = serve(Endpoint::Unix(sock), ServerOptions::default()).expect("serve");
    let (text, name) = corpus_text(2);
    let reference = Framework::from_text(&text)
        .expect("analyses")
        .select(&SelectOptions::default());

    let fronts: Vec<_> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let endpoint = server.endpoint().clone();
                let text = &text;
                s.spawn(move || {
                    let mut c = Client::connect(&endpoint).expect("connect");
                    c.select_text(text).expect("select").front
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("join"))
            .collect()
    });
    for front in &fronts {
        assert!(
            fronts_bits_equal(front, &reference.pareto),
            "{name}: a concurrent client saw a diverging front"
        );
    }
    // 4 clients, identical text: they end up sharing ONE warm framework.
    // Racing connections may each count a miss before the first insert
    // lands, so the miss counter is >= 1, not exactly 1; the cache-size
    // and hit counters pin the actual batching guarantee.
    let mut client = Client::connect(server.endpoint()).expect("connect");
    let exp = scrape(&mut client);
    let value = |name: &str| exp.value(name).unwrap_or(0.0);
    assert_eq!(
        value("cayman_server_fw_cached"),
        1.0,
        "identical text shares one framework"
    );
    let misses = value("cayman_server_fw_misses");
    assert!(
        (1.0..=4.0).contains(&misses),
        "between one and one-per-client misses, got {misses}"
    );
    assert_eq!(
        value("cayman_server_fw_hits") + misses,
        4.0,
        "every select either hit or missed the framework cache"
    );
    client.shutdown_server().expect("shutdown");
    server.wait();
}

#[test]
fn malformed_module_gets_an_error_reply_not_a_dead_server() {
    let sock = tmp_path("err.sock");
    let server = serve(Endpoint::Unix(sock), ServerOptions::default()).expect("serve");
    let mut client = Client::connect(server.endpoint()).expect("connect");

    let err = client
        .select_text("this is not a cir module")
        .expect_err("garbage must be rejected");
    let msg = err.to_string();
    assert!(!msg.is_empty(), "error reply carries a message");

    // the connection (and server) survive an application-level error
    client.ping().expect("server alive after error reply");
    let (text, _) = corpus_text(3);
    client
        .select_text(&text)
        .expect("still serves good modules");
    client.shutdown_server().expect("shutdown");
    server.wait();
}

#[test]
fn stop_terminates_without_a_client() {
    let sock = tmp_path("stop.sock");
    let server = serve(Endpoint::Unix(sock.clone()), ServerOptions::default()).expect("serve");
    server.stop();
    assert!(!sock.exists(), "unix socket file removed on exit");
}

#[test]
fn health_and_metrics_roundtrip_with_request_ids() {
    let sock = tmp_path("telemetry.sock");
    let server = serve(Endpoint::Unix(sock), ServerOptions::default()).expect("serve");
    let mut client = Client::connect(server.endpoint()).expect("connect");

    client.ping().expect("ping");
    let first_id = client.last_request_id();
    assert!(first_id >= 1, "reply carries a server-assigned id");

    let (text, _) = corpus_text(4);
    client.select_text(&text).expect("select");
    assert_eq!(client.last_request_id(), first_id + 1, "ids are a sequence");

    let exp = scrape(&mut client);
    assert_eq!(client.last_request_id(), first_id + 2);
    assert!(exp.value("cayman_server_uptime_seconds").unwrap_or(0.0) > 0.0);
    // the per-phase histograms are registered and populated (process-global
    // registry: other tests in this process only ever add to the counts)
    for phase in ["decode", "warm", "select", "encode", "total"] {
        let count = exp
            .value(&format!("cayman_req_{phase}_nanos_count"))
            .unwrap_or_else(|| panic!("missing {phase} histogram"));
        assert!(count >= 1.0, "{phase} histogram saw this test's requests");
    }
    assert!(exp.value("cayman_server_requests").unwrap_or(0.0) >= 3.0);

    // the in-process view matches what the wire serves (modulo counters
    // that moved between the two calls)
    let local = server.metrics_text();
    assert!(local.contains("cayman_req_total_nanos_count"));

    client.shutdown_server().expect("shutdown");
    server.wait();
}

#[test]
fn idle_connection_times_out_and_server_survives() {
    let sock = tmp_path("timeout.sock");
    let server = serve(
        Endpoint::Unix(sock),
        ServerOptions {
            req_timeout_ms: Some(60),
            ..Default::default()
        },
    )
    .expect("serve");

    // an idle client is dropped once the read timeout fires
    let mut idle = Client::connect(server.endpoint()).expect("connect idle");
    idle.ping().expect("live before the timeout");
    std::thread::sleep(std::time::Duration::from_millis(250));
    assert!(
        idle.ping().is_err(),
        "idle connection must be closed by the server"
    );

    // the server itself is unharmed and counts the timeout
    let mut fresh = Client::connect(server.endpoint()).expect("connect fresh");
    fresh.ping().expect("server alive after dropping an idler");
    let metrics = fresh.metrics().expect("metrics");
    let exp = cayman_obs::promtext::validate(&metrics.text).expect("validates");
    assert!(
        exp.value("cayman_server_timeout").unwrap_or(0.0) >= 1.0,
        "timeout counter exported"
    );

    fresh.shutdown_server().expect("shutdown");
    server.wait();
}

#[test]
fn slow_request_log_names_reply_ids() {
    let sock = tmp_path("slowlog.sock");
    let server = serve(
        Endpoint::Unix(sock),
        ServerOptions {
            slow_req_ms: Some(0), // every request is "slow"
            ..Default::default()
        },
    )
    .expect("serve");
    let mut client = Client::connect(server.endpoint()).expect("connect");
    let (text, _) = corpus_text(5);
    client.select_text(&text).expect("select");
    let id = client.last_request_id();

    let slow = server.slow_log();
    let line = slow
        .iter()
        .find(|l| l.contains(&format!("id={id} ")))
        .expect("the select's reply id appears in the slow log");
    assert!(line.starts_with("slow-req id="), "stable format: {line}");
    assert!(line.contains("op=select"), "op recorded: {line}");
    assert!(line.contains("total_us="), "total recorded: {line}");

    client.shutdown_server().expect("shutdown");
    server.wait();
}

fn scrape(client: &mut Client) -> Exposition {
    let text = client.metrics().expect("metrics").text;
    promtext::validate(&text).expect("exposition validates")
}

#[test]
fn scraped_counters_never_decrease_across_framework_eviction() {
    let sock = tmp_path("evict.sock");
    let opts = ServerOptions {
        max_frameworks: 1,
        ..Default::default()
    };
    let server = serve(Endpoint::Unix(sock), opts).expect("serve");
    let mut client = Client::connect(server.endpoint()).expect("connect");

    let (k0, _) = corpus_text(0);
    client.select_text(&k0).expect("cold select");
    let warm = client.select_text(&k0).expect("warm select");
    assert!(warm.cache_hits > 0, "the warm select hits the design cache");
    let first = scrape(&mut client);

    // a second kernel evicts the only warm framework (and its design cache)
    let (k1, _) = corpus_text(1);
    client.select_text(&k1).expect("select evicting kernel 0");
    let second = scrape(&mut client);
    assert_eq!(second.value("cayman_server_fw_cached"), Some(1.0));

    for (name, ty) in &first.types {
        let (was, now) = (first.value(name), second.value(name));
        assert!(
            ty != "counter" || now >= was,
            "{name} went backwards: {was:?} -> {now:?}"
        );
    }
    let mem_hits = |e: &Exposition| e.value("cayman_cache_mem_hits").unwrap_or(0.0);
    assert!(
        mem_hits(&first) >= warm.cache_hits as f64,
        "the scrape counts kernel 0's hits"
    );
    assert!(
        mem_hits(&second) >= mem_hits(&first),
        "kernel 0's hits survive its eviction"
    );

    client.shutdown_server().expect("shutdown");
    server.wait();
}

#[test]
fn fresh_server_scrape_carries_always_on_layer_counters() {
    let sock = tmp_path("coverage.sock");
    let server = serve(Endpoint::Unix(sock), ServerOptions::default()).expect("serve");
    let mut client = Client::connect(server.endpoint()).expect("connect");
    let (text, _) = corpus_text(6);
    let cold = client.select_text(&text).expect("cold select");
    assert!(cold.model_evals > 0);

    let exp = scrape(&mut client);
    let value = |name: &str| exp.value(name).unwrap_or(0.0);
    assert!(value("cayman_profile_blocks") > 0.0, "profiling counted");
    assert!(
        value("cayman_cache_mem_misses") > 0.0,
        "design cache counted"
    );
    assert_eq!(value("cayman_server_fw_misses"), 1.0, "one cold framework");
    // every sample belongs to exactly one `# TYPE` declaration
    for s in &exp.samples {
        let owners = exp.types.iter().filter(|(name, ty)| {
            s.name == **name
                || (ty.as_str() == "histogram"
                    && ["_bucket", "_sum", "_count"]
                        .iter()
                        .any(|suffix| s.name == format!("{name}{suffix}")))
        });
        assert_eq!(owners.count(), 1, "{} has one type", s.name);
    }

    client.shutdown_server().expect("shutdown");
    server.wait();
}
