//! End-to-end trace test: a traced Table II run over one benchmark must
//! produce a well-formed Chrome trace — balanced B/E pairs, monotone
//! per-thread timestamps (both checked by `validate_chrome`), and spans from
//! every pipeline stage.

use cayman_obs::trace::validate_chrome;

#[test]
fn traced_table2_run_emits_wellformed_chrome_trace() {
    cayman_obs::enable();
    let w = cayman::workloads::by_name("trisolv").expect("exists");
    let row = cayman_bench::table2_row(&w);
    cayman_obs::disable();
    let trace = cayman_obs::drain();
    assert_eq!(row.budgets.len(), 2);
    assert!(!trace.events.is_empty());

    // The Chrome export passes the full validator: parses, every B closed by
    // a same-name E on its thread, per-thread timestamps non-decreasing.
    let chrome = trace.to_chrome();
    let summary = validate_chrome(&chrome).expect("valid Chrome trace");
    assert!(summary.spans > 0);

    // Spans from all five pipeline stages are present.
    for prefix in ["normalize.", "profile.", "select.", "model.", "merge."] {
        assert!(
            summary.has_span_prefix(prefix),
            "no `{prefix}*` span; got {:?}",
            summary.span_names
        );
    }

    // The design-cache counters rode along (the warm re-run hits, the cold
    // run misses).
    assert!(
        summary.counters.iter().any(|c| c.starts_with("cache.mem.")),
        "{:?}",
        summary.counters
    );

    // The human summary names the selection span.
    let text = trace.summary();
    assert!(text.contains("select.run"), "{text}");
}
