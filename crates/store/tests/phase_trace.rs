//! One clock per request phase: with tracing on, every `server.req*` span
//! of an in-process server lasts exactly what the matching
//! `req.<phase>.nanos` histogram recorded for it, and each `server.req`
//! span encloses its phase children.
//!
//! This file holds one test on purpose: the histograms and the recorder
//! are process-global, so no other server may run in this process while
//! the test compares them.

use cayman_obs::EventKind;
use cayman_store::wire::{self, Request};
use cayman_store::{serve, Client, Endpoint, ServerOptions};
use std::collections::BTreeMap;

/// `(span name, histogram name)` of every timed request phase.
const PHASES: [(&str, &str); 5] = [
    ("server.req", "req.total.nanos"),
    ("server.req.decode", "req.decode.nanos"),
    ("server.req.warm", "req.warm.nanos"),
    ("server.req.select", "req.select.nanos"),
    ("server.req.encode", "req.encode.nanos"),
];

/// `(count, sum)` of every phase histogram, keyed by span name.
fn phase_hists() -> BTreeMap<&'static str, (u64, u64)> {
    let snap = cayman_obs::registry::snapshot();
    PHASES
        .iter()
        .map(|&(span, hist)| {
            let (_, h) = snap
                .hists
                .iter()
                .find(|(name, _)| *name == hist)
                .unwrap_or_else(|| panic!("{hist} is registered by serve()"));
            (span, (h.count(), h.sum()))
        })
        .collect()
}

/// A completed span: name, begin and end timestamps, and its parent's
/// index in the span list.
struct Span {
    name: String,
    begin: u64,
    end: u64,
    parent: Option<usize>,
}

/// Pairs every thread's `Begin`/`End` events into spans.
fn spans(trace: &cayman_obs::Trace) -> Vec<Span> {
    let mut out: Vec<Span> = Vec::new();
    let mut open: BTreeMap<u32, Vec<usize>> = BTreeMap::new();
    for e in &trace.events {
        let stack = open.entry(e.tid).or_default();
        match e.kind {
            EventKind::Begin => {
                out.push(Span {
                    name: e.name.to_string(),
                    begin: e.ts_nanos,
                    end: u64::MAX,
                    parent: stack.last().copied(),
                });
                stack.push(out.len() - 1);
            }
            EventKind::End => {
                let i = stack.pop().expect("every End closes an open span");
                assert_eq!(out[i].name, e.name.to_string(), "spans nest");
                out[i].end = e.ts_nanos;
            }
            _ => {}
        }
    }
    assert!(open.values().all(Vec::is_empty), "every span closed");
    out
}

#[test]
fn request_spans_and_phase_histograms_are_one_measurement() {
    let sock = std::env::temp_dir().join(format!("cayman-phase-{}.sock", std::process::id()));
    let server = serve(Endpoint::Unix(sock), ServerOptions::default()).expect("serve");
    let mut client = Client::connect(server.endpoint()).expect("connect");
    let corpus = cayman::workloads::corpus::corpus();
    let texts: Vec<String> = corpus[..2].iter().map(|w| w.module.to_text()).collect();

    let before = phase_hists();
    cayman_obs::enable();
    let mut requests = 0u64;
    for round in 0..3 {
        // the first SELECT of each text misses the framework cache
        client.select_text(&texts[round % 2]).expect("select");
        client.ping().expect("ping");
        requests += 2;
    }
    // an application error: warm is timed, select is not
    assert!(client.select_text("not a module").is_err());
    // a truncated frame is answered with an error and the connection closed
    let mut raw = server.endpoint().connect().expect("raw connect");
    let mut select = wire::encode_request(&Request::Select {
        module_text: texts[0].clone(),
    });
    select.truncate(select.len() / 2);
    wire::write_frame(&mut raw, &select).expect("write truncated frame");
    let reply = wire::read_frame(&mut raw)
        .expect("error reply")
        .expect("a frame");
    assert!(matches!(
        wire::decode_response(&reply).expect("decodes").response,
        wire::Response::Error(_)
    ));
    requests += 2;
    let after = phase_hists();
    cayman_obs::disable();
    let spans = spans(&cayman_obs::drain());
    drop((client, raw));
    server.stop();

    for (span, hist) in PHASES {
        let timed: Vec<u64> = spans
            .iter()
            .filter(|s| s.name == span)
            .map(|s| s.end - s.begin)
            .collect();
        let (count, sum) = (
            after[span].0 - before[span].0,
            after[span].1 - before[span].1,
        );
        assert_eq!(
            timed.len() as u64,
            count,
            "{span}: one span per {hist} sample"
        );
        assert_eq!(
            timed.iter().sum::<u64>(),
            sum,
            "{span}: span time == {hist} sum"
        );
    }
    for span in ["server.req", "server.req.decode", "server.req.encode"] {
        assert_eq!(
            after[span].0 - before[span].0,
            requests,
            "{span}: every request is timed, the truncated frame included"
        );
    }

    for s in &spans {
        let parent = s.parent.map(|p| &spans[p]);
        let want = match s.name.as_str() {
            "server.analyse" => "server.req.warm",
            name if name.starts_with("server.req.") => "server.req",
            _ => continue,
        };
        let p = parent.unwrap_or_else(|| panic!("{} has no parent span", s.name));
        assert_eq!(p.name, want, "{} nests under {want}", s.name);
        assert!(
            p.begin <= s.begin && s.end <= p.end,
            "{} [{}, {}] lies inside {} [{}, {}]",
            s.name,
            s.begin,
            s.end,
            p.name,
            p.begin,
            p.end
        );
    }
    assert!(
        spans.iter().any(|s| s.name == "server.analyse"),
        "framework misses are traced under warm"
    );
}
