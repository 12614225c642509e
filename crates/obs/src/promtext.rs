//! A small, dependency-free parser/validator for the Prometheus-style text
//! exposition produced by [`crate::registry::MetricsSnapshot::to_prometheus`]
//! — the counterpart of [`crate::trace::validate_chrome`] for the metrics
//! surface. CI gates and smoke binaries use it to reject malformed
//! expositions (duplicate series, non-monotone histogram buckets,
//! inconsistent `_sum`/`_count`) without pulling in a real Prometheus
//! client.

use std::collections::{BTreeMap, HashSet};

/// One parsed sample line: `name{label="v",…} value`.
#[derive(Debug, Clone, PartialEq)]
pub struct Sample {
    /// Metric name (already sanitized by the producer).
    pub name: String,
    /// Label pairs in source order (the exposition only uses `le`).
    pub labels: Vec<(String, String)>,
    /// Sample value.
    pub value: f64,
}

impl Sample {
    /// The series identity: name plus rendered label set.
    fn series_key(&self) -> String {
        let mut key = self.name.clone();
        for (k, v) in &self.labels {
            key.push('{');
            key.push_str(k);
            key.push('=');
            key.push_str(v);
            key.push('}');
        }
        key
    }

    /// The value of the label `name`, when present.
    pub fn label(&self, name: &str) -> Option<&str> {
        self.labels
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v.as_str())
    }
}

/// Everything a validated exposition holds, for assertions in smokes.
#[derive(Debug, Clone, Default)]
pub struct Exposition {
    /// All sample lines in source order.
    pub samples: Vec<Sample>,
    /// `# TYPE` declarations: metric name → declared type.
    pub types: BTreeMap<String, String>,
}

impl Exposition {
    /// All samples of one metric name.
    pub fn series(&self, name: &str) -> Vec<&Sample> {
        self.samples.iter().filter(|s| s.name == name).collect()
    }

    /// The single sample of an unlabelled metric, when present.
    pub fn value(&self, name: &str) -> Option<f64> {
        self.samples
            .iter()
            .find(|s| s.name == name && s.labels.is_empty())
            .map(|s| s.value)
    }

    /// Names declared `# TYPE … histogram`.
    pub fn histogram_names(&self) -> Vec<&str> {
        self.types
            .iter()
            .filter(|(_, t)| t.as_str() == "histogram")
            .map(|(n, _)| n.as_str())
            .collect()
    }
}

/// Parses an exposition without semantic checks.
///
/// # Errors
///
/// Returns a message naming the first malformed line.
pub fn parse(text: &str) -> Result<Exposition, String> {
    let mut exp = Exposition::default();
    for (lineno, raw) in text.lines().enumerate() {
        let line = raw.trim();
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix("# TYPE ") {
            let mut it = rest.split_whitespace();
            let name = it
                .next()
                .ok_or_else(|| format!("line {}: TYPE without a name", lineno + 1))?;
            let ty = it
                .next()
                .ok_or_else(|| format!("line {}: TYPE {name} without a type", lineno + 1))?;
            if exp.types.insert(name.to_string(), ty.to_string()).is_some() {
                return Err(format!("line {}: duplicate TYPE for {name}", lineno + 1));
            }
            continue;
        }
        if line.starts_with('#') {
            continue; // other comments are legal and ignored
        }
        exp.samples.push(parse_sample(line, lineno + 1)?);
    }
    Ok(exp)
}

fn parse_sample(line: &str, lineno: usize) -> Result<Sample, String> {
    let err = |what: &str| format!("line {lineno}: {what}: {line}");
    let (name_labels, value) = line
        .rsplit_once(' ')
        .ok_or_else(|| err("sample without a value"))?;
    let value = match value {
        "+Inf" => f64::INFINITY,
        "-Inf" => f64::NEG_INFINITY,
        "NaN" => f64::NAN,
        v => v.parse().map_err(|_| err("unparseable value"))?,
    };
    let (name, labels) = match name_labels.split_once('{') {
        None => (name_labels.to_string(), Vec::new()),
        Some((name, rest)) => {
            let body = rest
                .strip_suffix('}')
                .ok_or_else(|| err("unterminated label set"))?;
            let mut labels = Vec::new();
            for pair in body.split(',').filter(|p| !p.is_empty()) {
                let (k, v) = pair.split_once('=').ok_or_else(|| err("label without ="))?;
                let v = v
                    .strip_prefix('"')
                    .and_then(|v| v.strip_suffix('"'))
                    .ok_or_else(|| err("unquoted label value"))?;
                labels.push((k.to_string(), v.to_string()));
            }
            (name.to_string(), labels)
        }
    };
    if name.is_empty()
        || !name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
    {
        return Err(err("invalid metric name"));
    }
    Ok(Sample {
        name,
        labels,
        value,
    })
}

/// Parses **and validates** an exposition:
///
/// * no duplicate series (same name + label set),
/// * every declared histogram has `_bucket`/`_sum`/`_count` samples,
/// * histogram buckets are monotone in both `le` bound and cumulative
///   count, end with `le="+Inf"`, and the `+Inf` count equals `_count`,
/// * sample values are finite and non-negative (counters and nanosecond
///   histograms never go negative).
///
/// # Errors
///
/// Returns a message describing the first violation.
pub fn validate(text: &str) -> Result<Exposition, String> {
    let exp = parse(text)?;
    let mut seen = HashSet::new();
    for s in &exp.samples {
        if !seen.insert(s.series_key()) {
            return Err(format!("duplicate series: {}", s.series_key()));
        }
        if !s.value.is_finite() || s.value < 0.0 {
            return Err(format!(
                "series {} has non-finite or negative value {}",
                s.series_key(),
                s.value
            ));
        }
    }
    for name in exp.histogram_names() {
        let buckets: Vec<&Sample> = exp.series(&format!("{name}_bucket"));
        if buckets.is_empty() {
            return Err(format!("histogram {name} has no _bucket samples"));
        }
        let mut last_le = f64::NEG_INFINITY;
        let mut last_count = 0.0f64;
        for (i, b) in buckets.iter().enumerate() {
            let le = b
                .label("le")
                .ok_or_else(|| format!("histogram {name} bucket without le"))?;
            let bound = if le == "+Inf" {
                if i != buckets.len() - 1 {
                    return Err(format!("histogram {name}: le=\"+Inf\" is not last"));
                }
                f64::INFINITY
            } else {
                le.parse::<f64>()
                    .map_err(|_| format!("histogram {name}: unparseable le bound {le}"))?
            };
            if bound <= last_le {
                return Err(format!("histogram {name}: non-monotone le bounds"));
            }
            if b.value < last_count {
                return Err(format!("histogram {name}: non-monotone bucket counts"));
            }
            last_le = bound;
            last_count = b.value;
        }
        if buckets.last().map(|b| b.label("le")) != Some(Some("+Inf")) {
            return Err(format!("histogram {name}: missing le=\"+Inf\" bucket"));
        }
        let count = exp
            .value(&format!("{name}_count"))
            .ok_or_else(|| format!("histogram {name} has no _count"))?;
        exp.value(&format!("{name}_sum"))
            .ok_or_else(|| format!("histogram {name} has no _sum"))?;
        if (last_count - count).abs() > 0.0 {
            return Err(format!(
                "histogram {name}: +Inf bucket {last_count} != _count {count}"
            ));
        }
    }
    Ok(exp)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hist::Histogram;
    use crate::registry::{Counter, MetricsSnapshot};

    fn sample_exposition() -> String {
        let mut snap = MetricsSnapshot::default();
        let requests = Counter::new("server.requests");
        requests.add(42);
        snap.push_counter(&requests);
        snap.push_gauge("server.uptime.seconds", 3.25);
        let h = Histogram::new();
        for v in [3u64, 90, 90, 4096, 123_456_789] {
            h.record(v);
        }
        snap.hists.push(("req.total.nanos", h.snapshot()));
        snap.to_prometheus()
    }

    #[test]
    fn rendered_exposition_validates() {
        let text = sample_exposition();
        let exp = validate(&text).expect("valid exposition");
        assert_eq!(exp.value("cayman_server_requests"), Some(42.0));
        assert_eq!(exp.value("cayman_req_total_nanos_count"), Some(5.0));
        assert_eq!(exp.histogram_names(), vec!["cayman_req_total_nanos"]);
        let buckets = exp.series("cayman_req_total_nanos_bucket");
        assert!(buckets.len() >= 4, "non-empty buckets plus +Inf");
        assert_eq!(buckets.last().unwrap().label("le"), Some("+Inf"));
    }

    #[test]
    fn duplicate_series_is_rejected() {
        let mut text = sample_exposition();
        text.push_str("cayman_server_requests 43\n");
        let err = validate(&text).expect_err("duplicate must fail");
        assert!(err.contains("duplicate series"), "{err}");
    }

    #[test]
    fn non_monotone_buckets_are_rejected() {
        let text = "# TYPE h histogram\n\
                    h_bucket{le=\"10\"} 5\n\
                    h_bucket{le=\"20\"} 3\n\
                    h_bucket{le=\"+Inf\"} 5\n\
                    h_sum 50\nh_count 5\n";
        let err = validate(text).expect_err("non-monotone counts must fail");
        assert!(err.contains("non-monotone bucket counts"), "{err}");

        let text = "# TYPE h histogram\n\
                    h_bucket{le=\"20\"} 3\n\
                    h_bucket{le=\"10\"} 5\n\
                    h_bucket{le=\"+Inf\"} 5\n\
                    h_sum 50\nh_count 5\n";
        let err = validate(text).expect_err("non-monotone bounds must fail");
        assert!(err.contains("non-monotone le bounds"), "{err}");
    }

    #[test]
    fn inf_bucket_must_match_count() {
        let text = "# TYPE h histogram\n\
                    h_bucket{le=\"10\"} 5\n\
                    h_bucket{le=\"+Inf\"} 5\n\
                    h_sum 50\nh_count 6\n";
        let err = validate(text).expect_err("count mismatch must fail");
        assert!(err.contains("!= _count"), "{err}");
    }

    #[test]
    fn malformed_lines_are_rejected() {
        assert!(parse("name_only\n").is_err());
        assert!(parse("h_bucket{le=\"1\" 3\n").is_err());
        assert!(parse("h_bucket{le=1} 3\n").is_err());
        assert!(parse("bad name 3\n").is_err());
    }
}
