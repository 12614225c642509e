//! End-to-end trace test: a traced Table II run over one benchmark must
//! produce a well-formed Chrome trace — balanced B/E pairs, monotone
//! per-thread timestamps (both checked by `validate_chrome`), and spans from
//! every pipeline stage.

use cayman_obs::trace::validate_chrome;
use cayman_obs::{ArgValue, EventKind};

/// Whether `label` reads `<function>#v<N>:{bb|ctrl-flow}`.
fn is_region_label(label: &str) -> bool {
    let Some((func, rest)) = label.split_once("#v") else {
        return false;
    };
    let Some((vertex, kind)) = rest.split_once(':') else {
        return false;
    };
    !func.is_empty()
        && !vertex.is_empty()
        && vertex.bytes().all(|b| b.is_ascii_digit())
        && matches!(kind, "bb" | "ctrl-flow")
}

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

    // Every model call is labelled with its region,
    // `<function>#v<N>:{bb|ctrl-flow}`: the per-region model cost lives only
    // in these spans.
    let mut model_calls = 0;
    for e in trace.events.iter().filter(|e| e.kind == EventKind::Begin) {
        if e.name.to_string() != "model.accel" {
            continue;
        }
        model_calls += 1;
        let region = e.args.iter().find(|(k, _)| *k == "region");
        let Some((_, ArgValue::Str(label))) = region else {
            panic!("model.accel without a region arg: {:?}", e.args);
        };
        assert!(is_region_label(label), "bad region label {label:?}");
    }
    assert!(model_calls > 0, "the cold run invokes the model");

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
