//! The correctness reference: one committed row per kernel of
//! `workloads::full()`, produced by `cayman-benchmark golden`.
//!
//! A row holds, bit-exactly, what every workload's outputs are checked
//! against outside the timed intervals:
//!
//! * `mem` — the front of the Table II path (workload inputs, `-O1`);
//! * `text` — the front `caymand` serves for the module's text (zeroed
//!   inputs, the server's `Framework::from_text`);
//! * `visited` — wPST vertices the text-path selection visits (a
//!   deterministic cost proxy that serve-warm stratifies its draw by);
//! * `b25` / `b65` — Cayman's Table II speedup at 25% and 65% of the CVA6
//!   tile area.
//!
//! A front digest covers the front length and, per solution, the area and
//! saved-seconds bits plus each kernel's wPST node and block ids.

use crate::{analyse_opts, select_opts};
use cayman::select::Solution;
use cayman::Framework;
use std::collections::HashMap;
use std::fmt::Write;

const GOLDEN: &str = include_str!("../golden/kernels.tsv");

#[derive(Debug)]
pub struct Row {
    pub name: String,
    pub mem: (usize, u64),
    pub text: (usize, u64),
    pub visited: usize,
    pub b25: f64,
    pub b65: f64,
}

pub struct Golden {
    rows: Vec<Row>,
    index: HashMap<String, usize>,
}

fn fnv(h: &mut u64, word: u64) {
    for b in word.to_le_bytes() {
        *h ^= u64::from(b);
        *h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
}

/// `(length, digest)` of a Pareto front.
pub fn front_digest(front: &[Solution]) -> (usize, u64) {
    let mut h = 0xcbf2_9ce4_8422_2325;
    fnv(&mut h, front.len() as u64);
    for s in front {
        fnv(&mut h, s.area.to_bits());
        fnv(&mut h, s.saved_seconds.to_bits());
        fnv(&mut h, s.kernels.len() as u64);
        for k in &s.kernels {
            fnv(&mut h, u64::from(k.node.0));
            fnv(&mut h, k.design.blocks.len() as u64);
            for b in &k.design.blocks {
                fnv(&mut h, b.index() as u64);
            }
        }
    }
    (front.len(), h)
}

/// Geometric mean, summed in the given order (callers pass kernel order so
/// the result is bit-stable).
pub fn geomean(values: impl IntoIterator<Item = f64>) -> f64 {
    let (sum, n) = values
        .into_iter()
        .fold((0.0, 0usize), |(s, n), v| (s + v.ln(), n + 1));
    (sum / n as f64).exp()
}

impl Golden {
    /// The committed reference.
    pub fn load() -> Golden {
        Golden::parse(GOLDEN).expect("benchmark/golden/kernels.tsv parses")
    }

    fn parse(text: &str) -> Result<Golden, String> {
        let mut rows = Vec::new();
        for line in text
            .lines()
            .filter(|l| !l.starts_with('#') && !l.is_empty())
        {
            let f: Vec<&str> = line.split('\t').collect();
            let [name, ml, md, tl, td, visited, b25, b65] = f[..] else {
                return Err(format!("bad golden row: {line}"));
            };
            let num = |s: &str| s.parse::<usize>().map_err(|e| format!("{line}: {e}"));
            let hex = |s: &str| u64::from_str_radix(s, 16).map_err(|e| format!("{line}: {e}"));
            let float = |s: &str| s.parse::<f64>().map_err(|e| format!("{line}: {e}"));
            rows.push(Row {
                name: name.to_string(),
                mem: (num(ml)?, hex(md)?),
                text: (num(tl)?, hex(td)?),
                visited: num(visited)?,
                b25: float(b25)?,
                b65: float(b65)?,
            });
        }
        let index = rows
            .iter()
            .enumerate()
            .map(|(i, r)| (r.name.clone(), i))
            .collect();
        Ok(Golden { rows, index })
    }

    /// The row of kernel `name`; every kernel of `workloads::full()` has one.
    pub fn row(&self, name: &str) -> &Row {
        &self.rows[*self
            .index
            .get(name)
            .unwrap_or_else(|| panic!("golden has no row for {name}"))]
    }

    pub fn geo_b25(&self) -> f64 {
        geomean(self.rows.iter().map(|r| r.b25))
    }

    pub fn geo_b65(&self) -> f64 {
        geomean(self.rows.iter().map(|r| r.b65))
    }
}

/// Recomputes every row from scratch (the `golden` subcommand).
pub fn compute() -> String {
    let sel = select_opts(1);
    let mut out = String::from(
        "# name\tmem_len\tmem_digest\ttext_len\ttext_digest\tvisited\tspeedup_b25\tspeedup_b65\n",
    );
    let mut b25 = Vec::new();
    let mut b65 = Vec::new();
    for w in cayman::workloads::full() {
        let fw = Framework::from_workload_with(&w, &analyse_opts()).expect("kernel analyses");
        let res = fw.select(&sel);
        let r25 = fw.report(&res, 0.25).speedup;
        let r65 = fw.report(&res, 0.65).speedup;
        let text_fw = Framework::from_text(&w.module.to_text()).expect("kernel text analyses");
        let text_res = text_fw.select(&sel);
        let (ml, md) = front_digest(&res.pareto);
        let (tl, td) = front_digest(&text_res.pareto);
        let _ = writeln!(
            out,
            "{}\t{ml}\t{md:016x}\t{tl}\t{td:016x}\t{}\t{r25}\t{r65}",
            w.name, text_res.visited
        );
        b25.push(r25);
        b65.push(r65);
    }
    let _ = writeln!(
        out,
        "# geomean speedup_b25 {} speedup_b65 {}",
        geomean(b25),
        geomean(b65)
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn committed_golden_covers_the_full_suite() {
        let g = Golden::load();
        let names: Vec<&str> = cayman::workloads::full().iter().map(|w| w.name).collect();
        assert_eq!(g.rows.len(), names.len());
        assert_eq!(names.len(), 132);
        for n in names {
            assert_eq!(g.row(n).name, n);
        }
        assert!(g.geo_b65() >= g.geo_b25() && g.geo_b25() > 1.0);
    }

    #[test]
    fn committed_golden_matches_a_fresh_computation() {
        assert_eq!(compute(), GOLDEN, "re-run `cayman-benchmark golden`");
    }
}
