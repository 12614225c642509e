//! Every text-fixture corpus kernel must survive the full pipeline:
//! parse → verify → profile → analyse → select (and a merge of the best
//! solution). This is the acceptance gate that keeps a broken `.cir` file
//! from landing.

use cayman::{Framework, SelectOptions};

#[test]
fn every_corpus_kernel_selects_end_to_end() {
    let ws = cayman::workloads::corpus::corpus();
    assert!(ws.len() >= 100, "corpus shrank: {}", ws.len());
    let opts = SelectOptions::default();
    for w in ws {
        let fw = Framework::from_workload(&w)
            .unwrap_or_else(|e| panic!("{}: pipeline front-end failed: {e}", w.name));
        let sel = fw.select(&opts);
        assert!(
            !sel.pareto.is_empty(),
            "{}: selection produced no solutions",
            w.name
        );
        let best = sel.best_under(f64::INFINITY);
        let merged = fw.merge(best);
        assert!(
            merged.area_after <= merged.area_before,
            "{}: merging increased area",
            w.name
        );
    }
}

#[test]
fn from_text_runs_the_same_pipeline_as_the_registry() {
    let w = cayman::workloads::by_name("fsm-scan").expect("corpus kernel registered");
    let via_workload = Framework::from_workload(&w).expect("analyses");
    let via_text = Framework::from_text(&w.module.to_text()).expect("analyses from text");
    let opts = SelectOptions::default();
    let a = via_workload.select(&opts);
    let b = via_text.select(&opts);
    assert_eq!(a.pareto.len(), b.pareto.len());
    for (x, y) in a.pareto.iter().zip(&b.pareto) {
        assert_eq!(x.area.to_bits(), y.area.to_bits());
        assert_eq!(x.saved_seconds.to_bits(), y.saved_seconds.to_bits());
    }
}

#[test]
fn from_text_reports_parse_errors() {
    let err = Framework::from_text("fn @broken() -> void {\n").unwrap_err();
    let msg = err.to_string();
    assert!(msg.contains("parsing failed"), "{msg}");
}
