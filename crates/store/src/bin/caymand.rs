//! `caymand` — the long-running Cayman analyse/select daemon.
//!
//! ```text
//! caymand --unix /run/caymand.sock [--store DIR] [--threads N] [--max-frameworks N]
//! caymand --tcp 127.0.0.1:7164    [--store DIR] [--threads N] [--max-frameworks N]
//!         [--metrics-file PATH]
//! ```
//!
//! `--store` defaults to `CAYMAN_STORE_DIR` when set; without either the
//! server runs memory-only. `--metrics-file` periodically dumps the
//! Prometheus-style metrics exposition to PATH (interval
//! `CAYMAN_METRICS_INTERVAL_MS`, default 2000) for scrape-less setups —
//! the same text `Request::Metrics` serves. Introspection is that METRICS
//! exposition plus PING for liveness; each reply's request id is its frame
//! trailer. The slow-request log is controlled by `CAYMAN_SLOW_REQ_MS`, the
//! per-connection idle timeout by `CAYMAN_REQ_TIMEOUT_MS`. The process
//! exits on a SHUTDOWN request (`Client::shutdown_server`). Tracing flows
//! through the `CAYMAN_TRACE` (Chrome trace) and `CAYMAN_OBS_SUMMARY`
//! environment sinks.

use cayman::SelectOptions;
use cayman_store::{serve, Endpoint, ServerOptions, STORE_DIR_ENV};
use std::path::PathBuf;

fn usage() -> ! {
    eprintln!(
        "usage: caymand (--unix PATH | --tcp ADDR) [--store DIR] [--threads N] \
         [--max-frameworks N] [--metrics-file PATH]"
    );
    std::process::exit(2);
}

fn main() {
    cayman_obs::init_from_env();
    let mut endpoint = None;
    let mut opts = ServerOptions {
        store_dir: std::env::var_os(STORE_DIR_ENV).map(PathBuf::from),
        ..Default::default()
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = |what: &str| {
            args.next().unwrap_or_else(|| {
                eprintln!("{arg} expects {what}");
                usage()
            })
        };
        match arg.as_str() {
            "--unix" => endpoint = Some(Endpoint::Unix(PathBuf::from(value("a socket path")))),
            "--tcp" => endpoint = Some(Endpoint::Tcp(value("an address"))),
            "--store" => opts.store_dir = Some(PathBuf::from(value("a directory"))),
            "--threads" => {
                opts.select = SelectOptions {
                    threads: value("a count").parse().unwrap_or_else(|_| usage()),
                    ..opts.select
                }
            }
            "--max-frameworks" => {
                opts.max_frameworks = value("a count").parse().unwrap_or_else(|_| usage())
            }
            "--metrics-file" => opts.metrics_file = Some(PathBuf::from(value("a file path"))),
            _ => usage(),
        }
    }
    let Some(endpoint) = endpoint else { usage() };

    let handle = match serve(endpoint, opts) {
        Ok(h) => h,
        Err(e) => {
            eprintln!("caymand: failed to start: {e}");
            std::process::exit(1);
        }
    };
    println!("caymand listening on {}", handle.endpoint());
    match handle.store() {
        Some(store) => println!("caymand store: {}", store.dir().display()),
        None => println!("caymand store: none (memory-only)"),
    }
    handle.wait();
    for (kind, path) in cayman_obs::flush_to_env() {
        eprintln!("{kind}: wrote {path}");
    }
    println!("caymand: shut down");
}
