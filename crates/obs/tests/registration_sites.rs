//! Each metric series is registered at exactly one site.
//!
//! `registry::counter` and `registry::hist` hand the *same* handle to every
//! caller of one name, and two instance `Counter::new`s of one name render
//! as one series, so a name registered at two sites silently merges two
//! quantities. This test scans every crate's `src/` tree, with its
//! `#[cfg(test)]` modules left out, for the string literals passed to
//! `registry::counter(`, `registry::hist(` and `Counter::new(`, and fails
//! when a name appears at more than one site.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

const REGISTRARS: [&str; 3] = ["registry::counter(", "registry::hist(", "Counter::new("];

fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) {
    for entry in std::fs::read_dir(dir).expect("readable src dir").flatten() {
        let path = entry.path();
        if path.is_dir() {
            rust_files(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

/// The file's lines outside `#[cfg(test)]` items and comments, with their
/// 1-based line numbers. A `#[cfg(test)]` item ends at the first line that
/// is its own indentation plus `}` (the layout rustfmt gives it).
fn live_lines(text: &str) -> Vec<(usize, &str)> {
    let mut out = Vec::new();
    let mut skip_to: Option<String> = None;
    for (i, line) in text.lines().enumerate() {
        if let Some(close) = &skip_to {
            if line == close {
                skip_to = None;
            }
            continue;
        }
        let trimmed = line.trim_start();
        if trimmed == "#[cfg(test)]" {
            skip_to = Some(format!("{}}}", &line[..line.len() - trimmed.len()]));
        } else if !trimmed.starts_with("//") {
            out.push((i + 1, line));
        }
    }
    out
}

/// Every `(name, site)` registered with a string literal in `text`.
/// Literals may sit on the line after the call's opening parenthesis.
fn registrations(file: &str, text: &str) -> Vec<(String, String)> {
    let lines = live_lines(text);
    let mut found = Vec::new();
    for (k, &(line_no, line)) in lines.iter().enumerate() {
        for registrar in REGISTRARS {
            for (at, _) in line.match_indices(registrar) {
                let rest = &line[at + registrar.len()..];
                let arg = if rest.trim().is_empty() {
                    lines.get(k + 1).map_or("", |(_, next)| next.trim_start())
                } else {
                    rest
                };
                let Some(literal) = arg.strip_prefix('"') else {
                    continue; // a computed name: not a literal site
                };
                let name = literal.split('"').next().unwrap_or_default();
                found.push((name.to_string(), format!("{file}:{line_no}")));
            }
        }
    }
    found
}

#[test]
fn every_series_is_registered_at_one_site() {
    let crates = Path::new(env!("CARGO_MANIFEST_DIR")).join("..");
    let mut files = Vec::new();
    for krate in std::fs::read_dir(&crates).expect("crates dir").flatten() {
        let src = krate.path().join("src");
        if src.is_dir() {
            rust_files(&src, &mut files);
        }
    }
    files.sort();
    let mut sites: BTreeMap<String, Vec<String>> = BTreeMap::new();
    for path in &files {
        let text = std::fs::read_to_string(path).expect("readable source");
        let file = path
            .strip_prefix(&crates)
            .unwrap_or(path)
            .display()
            .to_string();
        for (name, site) in registrations(&file, &text) {
            sites.entry(name).or_default().push(site);
        }
    }
    assert!(
        sites.contains_key("req.total.nanos") && sites.contains_key("store.hits"),
        "the scan sees the server's histograms and the store's counters: {:?}",
        sites.keys().collect::<Vec<_>>()
    );
    let shared: Vec<_> = sites.iter().filter(|(_, at)| at.len() > 1).collect();
    assert!(
        shared.is_empty(),
        "series registered at more than one site: {shared:?}"
    );
}

#[test]
fn the_scan_skips_test_modules_and_follows_wrapped_calls() {
    let text = r#"
fn live() {
    let a = registry::counter(
        "x.wrapped",
    );
    // registry::hist("x.comment")
    let b = Counter::new(name);
}

#[cfg(test)]
mod tests {
    fn t() {
        let c = Counter::new("x.test");
    }
}

static D: Counter = Counter::new("x.after");
"#;
    let names: Vec<String> = registrations("f.rs", text)
        .into_iter()
        .map(|(n, _)| n)
        .collect();
    assert_eq!(names, ["x.wrapped", "x.after"]);
}
