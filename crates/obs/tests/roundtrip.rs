//! End-to-end recorder → export → validator round trip. A single test
//! function owns the process-global recorder so enable/disable cannot race
//! with other tests in this binary.

use cayman_obs::trace::validate_chrome;

#[test]
fn record_export_validate_roundtrip() {
    cayman_obs::enable();
    assert!(cayman_obs::enabled());

    {
        let _stage = cayman_obs::span!("analyse.profile", benchmark = "trisolv");
        let mut interp = cayman_obs::span!("profile.interp", engine = "decoded");
        cayman_obs::registry::counter("profile.blocks").add(128);
        cayman_obs::diag("interp.fallback", || "decode unsupported".to_string());
        interp.tag("ok", true);
    }
    let worker = std::thread::spawn(|| {
        let _req = cayman_obs::span!("server.select", conn = 3usize);
        cayman_obs::instant_with("server.timeout", Vec::new);
        cayman_obs::registry::counter("cache.mem.misses").add(1);
    });
    worker.join().unwrap();
    cayman_obs::disable();

    let trace = cayman_obs::drain();
    assert!(!trace.is_empty());

    // Chrome export passes the structural validator and reports what we
    // recorded.
    let chrome = trace.to_chrome();
    let summary = validate_chrome(&chrome).unwrap_or_else(|e| panic!("invalid trace: {e}"));
    assert_eq!(
        summary.spans, 3,
        "analyse.profile + profile.interp + request"
    );
    assert!(summary.has_span_prefix("analyse."));
    assert!(summary.has_span_prefix("server."));
    // A tag rides on the span's End event.
    assert!(
        chrome.contains(r#""name":"profile.interp","ph":"E""#)
            && chrome.contains(r#""args":{"ok":true}}"#),
        "{chrome}"
    );
    assert!(summary.counters.contains(&"profile.blocks".to_string()));
    assert!(summary.instants.iter().any(|n| n == "server.timeout"));

    // The human summary names the heavy hitters.
    let human = trace.summary();
    assert!(human.contains("analyse.profile"), "{human}");
    assert!(human.contains("cache.mem.misses"), "{human}");
    assert!(human.contains("server.select"), "{human}");

    // Drain cleared the buffers.
    assert!(cayman_obs::drain().is_empty());
}
