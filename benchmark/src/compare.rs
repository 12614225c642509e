//! `compare`: the rule for claiming a gain or clearing a regression
//! (choosing-metrics §8), applied to two directories of results files.
//!
//! Runs are paired by seed. For every workload and end-to-end metric the
//! table gives each side's median and quartiles, the share of pairs the
//! change won (ties count for neither), and a verdict:
//!
//! * `gain` — the change won at least nine tenths of the pairs and the
//!   medians differ, in its favour, by more than the parent's quartile
//!   spread;
//! * `unresolved` — either side's quartile spread exceeds the metric's
//!   bound, unless every change run beats every parent run;
//! * `regression` — the change's median is worse than the parent's by more
//!   than the bound;
//! * `same` — none of the above.

use crate::report::{MetricDef, END_TO_END};
use crate::stats::quartiles;
use crate::WORKLOADS;
use cayman_obs::trace::{parse_json, Json};
use std::collections::BTreeMap;
use std::process::ExitCode;

/// `(workload, seed) → metric → value` from every untraced results file.
type Runs = BTreeMap<(String, u64), BTreeMap<String, f64>>;

fn load(dir: &str) -> Result<Runs, String> {
    let mut runs = Runs::new();
    let entries = std::fs::read_dir(dir).map_err(|e| format!("{dir}: {e}"))?;
    for entry in entries {
        let path = entry.map_err(|e| e.to_string())?.path();
        let name = path.to_string_lossy();
        if !name.ends_with(".json") || name.ends_with(".trace.json") {
            continue;
        }
        let text = std::fs::read_to_string(&path).map_err(|e| format!("{name}: {e}"))?;
        let doc = parse_json(&text).map_err(|e| format!("{name}: {e}"))?;
        if doc.get("trace").and_then(Json::as_f64) != Some(0.0) {
            continue;
        }
        let workload = doc.get("workload").and_then(Json::as_str);
        let seed = doc.get("seed").and_then(Json::as_f64);
        let (Some(workload), Some(seed), Some(Json::Obj(metrics))) =
            (workload, seed, doc.get("metrics"))
        else {
            return Err(format!("{name}: not a results file"));
        };
        let values = metrics
            .iter()
            .filter_map(|(k, v)| Some((k.clone(), v.get("value")?.as_f64()?)))
            .collect();
        runs.insert((workload.to_string(), seed as u64), values);
    }
    Ok(runs)
}

/// Verdict for one metric over seed-paired runs `(parent, change)`.
pub fn verdict(def: &MetricDef, pairs: &[(f64, f64)]) -> (&'static str, usize) {
    let better = |a: f64, b: f64| if def.better == "lower" { a < b } else { a > b };
    let parent: Vec<f64> = pairs.iter().map(|p| p.0).collect();
    let change: Vec<f64> = pairs.iter().map(|p| p.1).collect();
    let (pq1, pmed, pq3) = quartiles(&parent);
    let (cq1, cmed, cq3) = quartiles(&change);
    let wins = pairs.iter().filter(|(p, c)| better(*c, *p)).count();
    let bound = def.bound.unwrap_or(0.0);
    let spread = |q1: f64, med: f64, q3: f64| (q3 - q1) / med.abs().max(f64::MIN_POSITIVE);
    let all_better = change.iter().all(|&c| parent.iter().all(|&p| better(c, p)));
    let worse_by = if def.better == "lower" {
        (cmed - pmed) / pmed.abs()
    } else {
        (pmed - cmed) / pmed.abs()
    };
    let v = if wins * 10 >= pairs.len() * 9 && better(cmed, pmed) && (cmed - pmed).abs() > pq3 - pq1
    {
        "gain"
    } else if (spread(pq1, pmed, pq3) > bound || spread(cq1, cmed, cq3) > bound) && !all_better {
        "unresolved"
    } else if worse_by > bound {
        "regression"
    } else {
        "same"
    };
    (v, wins)
}

pub fn main(parent_dir: &str, change_dir: &str) -> ExitCode {
    let (parent, change) = match (load(parent_dir), load(change_dir)) {
        (Ok(p), Ok(c)) => (p, c),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("compare: {e}");
            return ExitCode::from(2);
        }
    };
    let mut regressions = 0;
    println!("workload metric parent_median [q1 q3] change_median [q1 q3] pairs_won verdict");
    for workload in WORKLOADS {
        for def in END_TO_END {
            let pairs: Vec<(f64, f64)> = parent
                .iter()
                .filter(|((w, _), _)| w == workload)
                .filter_map(|(key, p)| Some((*p.get(def.name)?, *change.get(key)?.get(def.name)?)))
                .collect();
            if pairs.len() < 2 {
                continue;
            }
            let (verdict, wins) = verdict(def, &pairs);
            regressions += usize::from(verdict == "regression");
            let p: Vec<f64> = pairs.iter().map(|x| x.0).collect();
            let c: Vec<f64> = pairs.iter().map(|x| x.1).collect();
            let ((p1, pm, p3), (c1, cm, c3)) = (quartiles(&p), quartiles(&c));
            println!(
                "{workload} {} {pm:.6} [{p1:.6} {p3:.6}] {cm:.6} [{c1:.6} {c3:.6}] {wins}/{} {verdict}",
                def.name,
                pairs.len()
            );
        }
    }
    if regressions > 0 {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn def(better: &'static str) -> MetricDef {
        MetricDef {
            name: "m",
            unit: "ms",
            better,
            bound: Some(0.1),
        }
    }

    #[test]
    fn verdicts_follow_the_pairing_rule() {
        let steady: Vec<f64> = (0..10).map(|i| 10.0 + 0.01 * f64::from(i)).collect();
        let pairs = |f: &dyn Fn(f64) -> f64| steady.iter().map(|&p| (p, f(p))).collect::<Vec<_>>();
        assert_eq!(verdict(&def("lower"), &pairs(&|p| p * 0.8)), ("gain", 10));
        assert_eq!(verdict(&def("lower"), &pairs(&|p| p * 1.5)).0, "regression");
        assert_eq!(verdict(&def("lower"), &pairs(&|p| p * 1.05)).0, "same");
        assert_eq!(verdict(&def("higher"), &pairs(&|p| p * 1.5)).0, "gain");
        // A change whose own runs scatter beyond the bound is unresolved.
        let noisy: Vec<(f64, f64)> = steady
            .iter()
            .enumerate()
            .map(|(i, &p)| (p, if i % 2 == 0 { p * 0.5 } else { p * 1.6 }))
            .collect();
        assert_eq!(verdict(&def("lower"), &noisy).0, "unresolved");
    }
}
