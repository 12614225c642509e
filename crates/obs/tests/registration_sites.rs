//! Each metric series is registered at exactly one site.
//!
//! `registry::counter` and `registry::hist` hand the *same* handle to every
//! caller of one name, and two instance `Counter::new`s of one name render
//! as one series, so a name registered at two sites silently merges two
//! quantities. This test scans every crate's `src/` tree, with its
//! `#[cfg(test)]` modules left out, for the names registered there, and
//! fails when a name appears at more than one site. A name is registered
//! where it is
//!
//! * a string literal passed to `registry::counter(`, `registry::hist(` or
//!   `Counter::new(`, or
//! * an element of a *name table*: an array literal of string literals (or
//!   of such arrays) in a file that passes `registry::counter` or
//!   `registry::hist` by value, as in `NAMES.map(registry::counter)`.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

const REGISTRARS: [&str; 3] = ["registry::counter(", "registry::hist(", "Counter::new("];
/// A registry function passed by value, to map a name table.
const TABLE_REGISTRARS: [&str; 2] = ["registry::counter)", "registry::hist)"];

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

/// Every `(name, site)` registered in `text`. Literals may sit on the line
/// after the call's opening parenthesis.
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
    let maps_tables = lines
        .iter()
        .any(|(_, line)| TABLE_REGISTRARS.iter().any(|r| line.contains(r)));
    if maps_tables {
        for (name, line_no) in name_tables(&lines) {
            found.push((name, format!("{file}:{line_no}")));
        }
    }
    found
}

/// The elements of every name table in `lines`, with their line numbers.
fn name_tables(lines: &[(usize, &str)]) -> Vec<(String, usize)> {
    let chars: Vec<(usize, char)> = lines
        .iter()
        .flat_map(|&(n, line)| line.chars().chain(['\n']).map(move |c| (n, c)))
        .collect();
    let mut found = Vec::new();
    let mut i = 0;
    while i < chars.len() {
        let mut names = Vec::new();
        let end = if chars[i].1 == '[' {
            table(&chars, i, &mut names)
        } else {
            None
        };
        match end {
            Some(end) => {
                found.append(&mut names);
                i = end;
            }
            None => i += 1,
        }
    }
    found
}

/// Parses the name table that opens at `chars[at]` (a `[`) into `names`;
/// returns the index just past its `]`, or `None` when the brackets hold
/// anything but string literals and name tables.
fn table(chars: &[(usize, char)], at: usize, names: &mut Vec<(String, usize)>) -> Option<usize> {
    let skip_space = |mut i: usize| {
        while chars.get(i).is_some_and(|c| c.1.is_whitespace()) {
            i += 1;
        }
        i
    };
    let mut i = skip_space(at + 1);
    loop {
        match chars.get(i)?.1 {
            '"' => {
                let close = (i + 1..chars.len()).find(|&j| chars[j].1 == '"')?;
                let name = chars[i + 1..close].iter().map(|c| c.1).collect();
                names.push((name, chars[i].0));
                i = close + 1;
            }
            '[' => i = table(chars, i, names)?,
            _ => return None,
        }
        i = skip_space(i);
        match chars.get(i)?.1 {
            ',' => i = skip_space(i + 1),
            ']' => return Some(i + 1),
            _ => return None,
        }
        // a trailing comma
        if chars.get(i)?.1 == ']' {
            return Some(i + 1);
        }
    }
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
        [
            "req.total.nanos",
            "store.hits",
            "cache.mem.hits",
            "inc.query.exec.hits"
        ]
        .iter()
        .all(|name| sites.contains_key(*name)),
        "the scan sees the server's histograms, the store's counters and both name tables: {:?}",
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

#[test]
fn the_scan_reads_name_tables_where_a_registrar_maps_them() {
    let text = r#"
const PAIRS: [[&str; 2]; 2] = [
    ["x.a.hits", "x.a.misses"],
    ["x.b.hits", "x.b.misses"],
];

fn live() {
    let pairs = PAIRS.map(|n| n.map(cayman_obs::registry::counter));
    let [c, d] = ["x.c", "x.d"].map(registry::hist);
    let e = registry::counter("x.e");
}
"#;
    let names: Vec<String> = registrations("f.rs", text)
        .into_iter()
        .map(|(n, _)| n)
        .collect();
    assert_eq!(
        names,
        [
            "x.e",
            "x.a.hits",
            "x.a.misses",
            "x.b.hits",
            "x.b.misses",
            "x.c",
            "x.d"
        ]
    );
    let unmapped = text
        .replace("registry::counter)", "label)")
        .replace("registry::hist)", "label)");
    let names: Vec<String> = registrations("f.rs", &unmapped)
        .into_iter()
        .map(|(n, _)| n)
        .collect();
    assert_eq!(names, ["x.e"]);
}
