//! Validates a Chrome trace emitted via `CAYMAN_TRACE` and prints a short
//! summary — the CI smoke gate for the observability pipeline.
//!
//! ```text
//! cargo run -p cayman-bench --bin tracecheck -- trace.json \
//!     [--require-prefix select.]
//! ```
//!
//! Checks performed (see `cayman_obs::trace::validate_chrome`): the file
//! parses as trace-format JSON, every `B` has a matching same-name `E` on
//! the same thread, timestamps are non-decreasing per thread, and the trace
//! is non-empty. `--require-prefix` additionally demands at least one
//! completed span or counter track whose name starts with the prefix
//! (repeatable).

use cayman_obs::trace::validate_chrome;

fn fail(msg: &str) -> ! {
    eprintln!("tracecheck: {msg}");
    std::process::exit(1);
}

fn main() {
    let mut path = None;
    let mut prefixes = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--require-prefix" => match args.next() {
                Some(p) => prefixes.push(p),
                None => fail("--require-prefix needs a value"),
            },
            _ if a.starts_with('-') => {
                eprintln!("usage: tracecheck <trace.json> [--require-prefix <p>]...");
                std::process::exit(2);
            }
            _ => {
                if path.replace(a).is_some() {
                    fail("exactly one trace file expected");
                }
            }
        }
    }
    let Some(path) = path else {
        eprintln!("usage: tracecheck <trace.json> [--require-prefix <p>]...");
        std::process::exit(2);
    };

    let text = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| fail(&format!("cannot read {path}: {e}")));
    let summary = validate_chrome(&text)
        .unwrap_or_else(|e| fail(&format!("{path}: invalid Chrome trace: {e}")));
    if summary.events == 0 {
        fail(&format!("{path}: trace is empty"));
    }
    for p in &prefixes {
        let mut names = summary.span_names.iter().chain(&summary.counters);
        if !names.any(|n| n.starts_with(p.as_str())) {
            fail(&format!(
                "{path}: no completed span or counter named `{p}*`"
            ));
        }
    }

    println!(
        "{path}: OK — {} events, {} completed spans ({} distinct names), {} counters, {} instants",
        summary.events,
        summary.spans,
        summary.span_names.len(),
        summary.counters.len(),
        summary.instants.len()
    );
}
