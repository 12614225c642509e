//! The metric catalogue and the three outputs of a run: one
//! `workload metric value unit` line per measured metric, a results file
//! with everything plus the host block, and the final one-line JSON.
//!
//! `BENCHMARK.json` at the repository root lists the same catalogue; a unit
//! test keeps the two in step.

use crate::host::Host;
use std::fmt::Write;

pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    /// Share of the parent's median a metric may worsen by (end-to-end only).
    pub bound: Option<f64>,
}

const fn e2e(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    bound: f64,
) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: Some(bound),
    }
}

const fn layer(name: &'static str, unit: &'static str, better: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: None,
    }
}

/// What a user of the pipeline or the service sees. Every workload reports
/// every one of these.
pub const END_TO_END: &[MetricDef] = &[
    e2e("setup_s", "s", "lower", 0.25),
    e2e("ops_per_s", "1/s", "higher", 0.25),
    e2e("op_p50_ms", "ms", "lower", 0.25),
    e2e("peak_rss_mb", "MB", "lower", 0.25),
];

/// Per-layer metrics of a traced run. A layer's time is its self time as a
/// share of traced op wall time; a layer a workload never calls reports 0.
/// `op_p99_ms` is here because it moved by up to two fifths between runs
/// on a shared two-vCPU virtual machine, beyond any bound it could gate
/// with.
pub const PER_LAYER: &[MetricDef] = &[
    layer("op_p99_ms", "ms", "lower"),
    layer("core.analyse.share", "share", "lower"),
    layer("ir.verify.share", "share", "lower"),
    layer("ir.normalize.share", "share", "lower"),
    layer("ir.decode.share", "share", "lower"),
    layer("ir.exec.share", "share", "lower"),
    layer("ir.exec.blocks", "count/op", "lower"),
    layer("analysis.structure.share", "share", "lower"),
    layer("analysis.profile.share", "share", "lower"),
    layer("analysis.dataflow.share", "share", "lower"),
    layer("analysis.trips.share", "share", "lower"),
    layer("hls.model.share", "share", "lower"),
    layer("hls.model.calls", "count/op", "lower"),
    layer("select.share", "share", "lower"),
    layer("select.visited", "count/op", "lower"),
    layer("select.model_evals", "count/op", "lower"),
    layer("select.cache_hit_ratio", "ratio", "higher"),
    layer("baselines.novia.share", "share", "lower"),
    layer("baselines.qscores.share", "share", "lower"),
    layer("merge.share", "share", "lower"),
    layer("inc.apply.share", "share", "lower"),
    layer("inc.analyse.share", "share", "lower"),
    layer("inc.select.share", "share", "lower"),
    layer("inc.exec.hit_ratio", "ratio", "higher"),
    layer("inc.app.hit_ratio", "ratio", "higher"),
    layer("inc.select.hit_ratio", "ratio", "higher"),
    layer("client.encode.share", "share", "lower"),
    layer("client.send.share", "share", "lower"),
    layer("client.wait_recv.share", "share", "lower"),
    layer("client.decode.share", "share", "lower"),
    layer("client.ping.share", "share", "lower"),
    layer("server.decode.share", "share", "lower"),
    layer("server.warm.share", "share", "lower"),
    layer("server.select.share", "share", "lower"),
    layer("server.encode.share", "share", "lower"),
    layer("server.total.share", "share", "lower"),
    layer("server.fw.hit_ratio", "ratio", "higher"),
    layer("service.unattributed_share", "share", "lower"),
    layer("service.open_p99_limit_share", "share", "lower"),
    layer("store.hit_ratio", "ratio", "higher"),
    layer("store.writes", "count/op", "lower"),
    layer("store.evictions", "count/op", "lower"),
    layer("harness.gen_late_p99_share", "share", "lower"),
    layer("harness.coverage", "ratio", "higher"),
    layer("harness.trace_overhead", "ratio", "lower"),
];

/// Everything one run measured and checked.
#[derive(Default)]
pub struct Report {
    pub workload: &'static str,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
    metrics: Vec<(String, f64, String)>,
    params: Vec<(&'static str, String)>,
    pub attempted: u64,
    pub failed: u64,
    /// Outputs that differ from the reference.
    pub mismatches: u64,
    /// Anything else that makes the run incorrect (an invalid trace, a
    /// stage replay that diverged, too few samples for a percentile).
    pub problems: Vec<String>,
}

/// `v` as JSON: all its digits, and never a non-finite token.
fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

fn string(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

impl Report {
    pub fn new(workload: &'static str, seed: u64, seconds: u64, trace: bool) -> Report {
        Report {
            workload,
            seed,
            seconds,
            trace,
            ..Report::default()
        }
    }

    pub fn put(&mut self, name: impl Into<String>, value: f64, unit: &str) {
        let name = name.into();
        if !value.is_finite() {
            self.problems.push(format!("{name} is not finite"));
        }
        self.metrics.push((name, value, unit.to_string()));
    }

    pub fn param(&mut self, key: &'static str, value: impl ToString) {
        self.params.push((key, value.to_string()));
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|(n, _, _)| n == name)
            .map(|(_, v, _)| *v)
    }

    pub fn correct(&self) -> bool {
        self.failed == 0 && self.mismatches == 0 && self.problems.is_empty()
    }

    /// One `workload metric value unit` line per measured metric.
    pub fn lines(&self) -> String {
        let mut out = String::new();
        for (name, value, unit) in &self.metrics {
            let _ = writeln!(out, "{} {name} {} {unit}", self.workload, num(*value));
        }
        out
    }

    /// The catalogue's metrics for this run's mode, as `(name, value, unit)`.
    fn catalogue_values(&self) -> Vec<(&'static str, f64, &'static str)> {
        let defs = if self.trace { PER_LAYER } else { END_TO_END };
        defs.iter()
            .map(|d| {
                let v = match self.get(d.name) {
                    Some(v) => v,
                    None if self.trace => 0.0,
                    None => panic!("{} did not measure {}", self.workload, d.name),
                };
                (d.name, v, d.unit)
            })
            .collect()
    }

    fn metrics_obj(values: &[(&str, f64, &str)]) -> String {
        let body: Vec<String> = values
            .iter()
            .map(|(n, v, u)| {
                format!(
                    "{}: {{\"value\": {}, \"unit\": {}}}",
                    string(n),
                    num(*v),
                    string(u)
                )
            })
            .collect();
        format!("{{{}}}", body.join(", "))
    }

    /// The last line of standard output.
    pub fn final_json(&self) -> String {
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
            self.correct(),
            self.attempted,
            self.failed,
            Report::metrics_obj(&self.catalogue_values())
        )
    }

    /// The results file: host block, parameters, checks and every metric.
    pub fn results_json(&self, host: &Host) -> String {
        let all: Vec<(&str, f64, &str)> = self
            .metrics
            .iter()
            .map(|(n, v, u)| (n.as_str(), *v, u.as_str()))
            .collect();
        let params: Vec<String> = self
            .params
            .iter()
            .map(|(k, v)| format!("{}: {}", string(k), string(v)))
            .collect();
        let problems: Vec<String> = self.problems.iter().map(|p| string(p)).collect();
        format!(
            "{{\n  \"workload\": {},\n  \"seed\": {},\n  \"seconds\": {},\n  \"trace\": {},\n  \
             \"host\": {},\n  \"params\": {{{}}},\n  \"correct\": {},\n  \"attempted\": {},\n  \
             \"failed\": {},\n  \"front_mismatches\": {},\n  \"problems\": [{}],\n  \
             \"metrics\": {}\n}}\n",
            string(self.workload),
            self.seed,
            self.seconds,
            u8::from(self.trace),
            host.json(),
            params.join(", "),
            self.correct(),
            self.attempted,
            self.failed,
            self.mismatches,
            problems.join(", "),
            Report::metrics_obj(&all)
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cayman_obs::trace::{parse_json, Json};

    fn sample(trace: bool) -> Report {
        let mut r = Report::new("suite-cold", 7, 20, trace);
        for d in END_TO_END {
            r.put(d.name, 1.0 / 3.0, d.unit);
        }
        r.put("core.analyse.share", 0.25, "share");
        r.put("speedup_geo_b25", 2.5, "x");
        r.param("note", "a \"quoted\"\tvalue");
        r.attempted = 5000;
        r
    }

    #[test]
    fn results_file_and_final_line_parse_as_json() {
        let host = Host::detect(7);
        let r = sample(false);
        let doc = parse_json(&r.results_json(&host)).expect("results file is JSON");
        assert_eq!(
            doc.get("workload").and_then(Json::as_str),
            Some("suite-cold")
        );
        assert!(doc.get("host").and_then(|h| h.get("cores")).is_some());
        let v = doc
            .get("metrics")
            .and_then(|m| m.get("op_p50_ms"))
            .and_then(|m| m.get("value"))
            .and_then(Json::as_f64);
        assert_eq!(v, Some(1.0 / 3.0), "all digits survive");

        let line = parse_json(&r.final_json()).expect("final line is JSON");
        let Json::Obj(keys) = &line else {
            panic!("object")
        };
        assert_eq!(
            keys.keys().map(String::as_str).collect::<Vec<_>>(),
            ["attempted", "correct", "failed", "metrics"]
        );
        let Some(Json::Obj(metrics)) = line.get("metrics") else {
            panic!("metrics")
        };
        assert_eq!(metrics.len(), END_TO_END.len());

        let traced = parse_json(&sample(true).final_json()).expect("traced line is JSON");
        let Some(Json::Obj(layers)) = traced.get("metrics") else {
            panic!("metrics")
        };
        assert_eq!(layers.len(), PER_LAYER.len());
    }

    #[test]
    fn catalogue_matches_benchmark_json() {
        let text =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json at the repository root");
        let doc = parse_json(&text).expect("BENCHMARK.json parses");
        for (key, defs) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let listed = doc.get(key).and_then(Json::as_arr).expect("metric list");
            assert_eq!(listed.len(), defs.len(), "{key}");
            for (j, d) in listed.iter().zip(defs) {
                assert_eq!(j.get("name").and_then(Json::as_str), Some(d.name));
                assert_eq!(j.get("unit").and_then(Json::as_str), Some(d.unit));
                assert_eq!(j.get("better").and_then(Json::as_str), Some(d.better));
                assert_eq!(j.get("bound").and_then(Json::as_f64), d.bound, "{}", d.name);
            }
        }
        let names: Vec<&str> = doc
            .get("workloads")
            .and_then(Json::as_arr)
            .expect("workloads")
            .iter()
            .filter_map(|w| w.get("name").and_then(Json::as_str))
            .collect();
        assert_eq!(names, crate::WORKLOADS);
    }
}
