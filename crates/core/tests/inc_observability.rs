//! One observability surface per quantity: the process-scope
//! `inc.query.<kind>.{hits,misses}` and `select.front.{hits,misses}`
//! counters move exactly as the instance's `IncStats` and the runs'
//! `SelectStats` do, and every `inc.query.<kind>` span says whether it hit.
//! A single test owns the process-global registry and recorder.

use cayman::ir::instr::{Imm, Instr, Operand};
use cayman::ir::{FuncId, Function};
use cayman::{AnalyseOptions, Edit, IncStats, IncrementalApp, SelectOptions};
use cayman_obs::{registry, ArgValue, EventKind};
use std::sync::Arc;

const KINDS: [&str; 10] = [
    "verify",
    "normalize",
    "shadow",
    "structure",
    "decode",
    "exec",
    "dataflow",
    "trips",
    "app",
    "select",
];

/// `[hits, misses]` of every kind, in [`KINDS`] order, from the instance.
fn instance(s: &IncStats) -> Vec<u64> {
    let kinds = [
        s.verify,
        s.normalize,
        s.shadow,
        s.structure,
        s.decode,
        s.exec,
        s.dataflow,
        s.trips,
        s.app,
        s.select,
    ];
    kinds.iter().flat_map(|q| [q.hits, q.misses]).collect()
}

/// The same numbers from the process-scope registry.
fn scraped() -> Vec<u64> {
    KINDS
        .iter()
        .flat_map(|kind| ["hits", "misses"].map(|c| format!("inc.query.{kind}.{c}")))
        .map(|name| registry::counter(Box::leak(name.into_boxed_str())).get())
        .collect()
}

fn fronts_scraped() -> [u64; 2] {
    ["select.front.hits", "select.front.misses"].map(|n| registry::counter(n).get())
}

fn delta(after: &[u64], before: &[u64]) -> Vec<u64> {
    after.iter().zip(before).map(|(a, b)| a - b).collect()
}

/// The first function with a float immediate, with that immediate nudged.
fn nudged(funcs: &[Function]) -> (FuncId, Function) {
    for (fi, func) in funcs.iter().enumerate() {
        let mut body = func.clone();
        let site = body.instrs.iter_mut().find_map(|instr| match instr {
            Instr::Binary { lhs, rhs, .. } => [lhs, rhs]
                .into_iter()
                .find(|op| matches!(op, Operand::Const(Imm::Float(_)))),
            _ => None,
        });
        if let Some(op) = site {
            if let Operand::Const(Imm::Float(v)) = op {
                *op = Operand::float(*v + 0.5);
            }
            return (FuncId(fi as u32), body);
        }
    }
    panic!("no float immediate to edit");
}

#[test]
fn counters_spans_and_stats_report_each_quantity_once() {
    let w = cayman::workloads::by_name("gen-s079").expect("corpus kernel registered");
    assert!(
        w.module.functions.len() >= 2,
        "an edit must leave a clean function"
    );
    let (func, body) = nudged(&w.module.functions);
    let original = w.module.functions[func.index()].clone();
    let opts = SelectOptions::default();
    let mut inc = IncrementalApp::new(
        w.module.clone(),
        Some(w.memory()),
        AnalyseOptions::default(),
    );

    cayman_obs::enable();
    let (stats0, scraped0, fronts0) = (instance(inc.stats()), scraped(), fronts_scraped());
    let cold = inc.select(&opts).expect("cold select");
    inc.apply(Edit::ReplaceFunction { func, body })
        .expect("edit applies");
    let edited = inc.select(&opts).expect("edited select");
    inc.apply(Edit::ReplaceFunction {
        func,
        body: original,
    })
    .expect("revert applies");
    let reverted = inc.select(&opts).expect("reverted select");
    cayman_obs::disable();

    // The revert hits the selection query, so only two runs selected.
    assert!(Arc::ptr_eq(&cold, &reverted), "revert answered from cache");
    let stats = instance(inc.stats());
    assert_eq!(delta(&scraped(), &scraped0), delta(&stats, &stats0));
    assert_eq!(inc.stats().select.hits, 1);
    let runs = [&cold, &edited];
    let front_hits = runs.iter().map(|r| r.stats.front_hits).sum::<u64>();
    let front_misses = runs.iter().map(|r| r.stats.front_misses).sum::<u64>();
    let [hits1, misses1] = fronts_scraped();
    assert_eq!(
        [hits1 - fronts0[0], misses1 - fronts0[1]],
        [front_hits, front_misses]
    );
    assert!(front_hits > 0, "the clean function's front is reused");

    // Every query span carries its hit tag; normalize shows both.
    let trace = cayman_obs::drain();
    let mut normalize_tags = Vec::new();
    for e in trace.events.iter().filter(|e| e.kind == EventKind::Begin) {
        let name = e.name.to_string();
        if !name.starts_with("inc.query.") {
            continue;
        }
        let tag = e.args.iter().find(|(k, _)| *k == "hit").map(|(_, v)| v);
        let Some(&ArgValue::Bool(hit)) = tag else {
            panic!("{name} span without a hit tag: {:?}", e.args);
        };
        if name == "inc.query.normalize" {
            normalize_tags.push(hit);
        }
    }
    assert!(normalize_tags.contains(&true), "{normalize_tags:?}");
    assert!(normalize_tags.contains(&false), "{normalize_tags:?}");
}
