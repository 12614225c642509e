//! A small shared JSON writer for machine-readable bench output: the
//! `BENCH_*.json` artifacts and the bins' `--json` mode all serialise
//! through this one module instead of hand-rolling `write!` calls.
//! Dependency-free (the workspace builds offline); output is pretty-printed
//! with two-space indentation, stable field order, and `{:.N}` float
//! precision chosen per field.

use cayman_obs::escape;
use std::fmt::Write as _;

/// Builds one pretty-printed JSON object and returns the document text
/// (with a trailing newline, ready for `fs::write`).
pub fn document(build: impl FnOnce(&mut Obj)) -> String {
    let mut w = Writer {
        out: String::new(),
        indent: 0,
    };
    w.out.push('{');
    w.indent += 1;
    let mut obj = Obj {
        w: &mut w,
        first: true,
    };
    build(&mut obj);
    let first = obj.first;
    w.indent -= 1;
    if !first {
        w.newline();
    }
    w.out.push_str("}\n");
    w.out
}

/// Writes the `host` block every `BENCH_*.json` carries: the cores this
/// process may use and the build profile, so a number is never compared
/// with one taken on a host of another shape or from another build.
pub fn host(o: &mut Obj) {
    let cores = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    o.obj("host", |o| {
        o.u64("cores", cores as u64);
        o.str(
            "build_profile",
            if cfg!(debug_assertions) {
                "debug"
            } else {
                "release"
            },
        );
    });
}

struct Writer {
    out: String,
    indent: usize,
}

impl Writer {
    fn newline(&mut self) {
        self.out.push('\n');
        for _ in 0..self.indent {
            self.out.push_str("  ");
        }
    }
}

/// Writes the fields of one JSON object.
pub struct Obj<'a> {
    w: &'a mut Writer,
    first: bool,
}

impl Obj<'_> {
    fn key(&mut self, key: &str) {
        if !self.first {
            self.w.out.push(',');
        }
        self.first = false;
        self.w.newline();
        let _ = write!(self.w.out, "\"{}\": ", escape(key));
    }

    /// A string field.
    pub fn str(&mut self, key: &str, value: &str) {
        self.key(key);
        let _ = write!(self.w.out, "\"{}\"", escape(value));
    }

    /// An unsigned integer field.
    pub fn u64(&mut self, key: &str, value: u64) {
        self.key(key);
        let _ = write!(self.w.out, "{value}");
    }

    /// A float field rendered with `precision` decimal places.
    pub fn f64(&mut self, key: &str, value: f64, precision: usize) {
        self.key(key);
        if value.is_finite() {
            let _ = write!(self.w.out, "{value:.precision$}");
        } else {
            self.w.out.push_str("null");
        }
    }

    /// A boolean field.
    pub fn bool(&mut self, key: &str, value: bool) {
        self.key(key);
        let _ = write!(self.w.out, "{value}");
    }

    /// A nested object field.
    pub fn obj(&mut self, key: &str, build: impl FnOnce(&mut Obj)) {
        self.key(key);
        self.w.out.push('{');
        self.w.indent += 1;
        let mut inner = Obj {
            w: self.w,
            first: true,
        };
        build(&mut inner);
        let first = inner.first;
        self.w.indent -= 1;
        if !first {
            self.w.newline();
        }
        self.w.out.push('}');
    }

    /// A nested array field.
    pub fn arr(&mut self, key: &str, build: impl FnOnce(&mut Arr)) {
        self.key(key);
        self.w.out.push('[');
        self.w.indent += 1;
        let mut inner = Arr {
            w: self.w,
            first: true,
        };
        build(&mut inner);
        let first = inner.first;
        self.w.indent -= 1;
        if !first {
            self.w.newline();
        }
        self.w.out.push(']');
    }
}

/// Writes the elements of one JSON array.
pub struct Arr<'a> {
    w: &'a mut Writer,
    first: bool,
}

impl Arr<'_> {
    fn sep(&mut self) {
        if !self.first {
            self.w.out.push(',');
        }
        self.first = false;
        self.w.newline();
    }

    /// An object element.
    pub fn obj(&mut self, build: impl FnOnce(&mut Obj)) {
        self.sep();
        self.w.out.push('{');
        self.w.indent += 1;
        let mut inner = Obj {
            w: self.w,
            first: true,
        };
        build(&mut inner);
        let first = inner.first;
        self.w.indent -= 1;
        if !first {
            self.w.newline();
        }
        self.w.out.push('}');
    }

    /// A string element.
    pub fn str(&mut self, value: &str) {
        self.sep();
        let _ = write!(self.w.out, "\"{}\"", escape(value));
    }

    /// A float element with `precision` decimal places.
    pub fn f64(&mut self, value: f64, precision: usize) {
        self.sep();
        if value.is_finite() {
            let _ = write!(self.w.out, "{value:.precision$}");
        } else {
            self.w.out.push_str("null");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn document_shape_and_escaping() {
        let doc = document(|o| {
            o.str("name", "a \"quoted\"\nthing");
            o.u64("count", 3);
            o.f64("ratio", 1.0 / 3.0, 3);
            o.bool("ok", true);
            o.f64("bad", f64::NAN, 2);
            o.arr("items", |a| {
                a.obj(|o| o.u64("i", 0));
                a.obj(|o| o.u64("i", 1));
                a.f64(2.5, 1);
                a.str("x");
            });
            o.obj("empty", |_| {});
            o.obj("nested", |o| o.str("k", "v"));
        });
        // Parses under the obs JSON parser (round-trip compatibility).
        let parsed = cayman_obs::trace::parse_json(&doc).expect("valid JSON");
        assert_eq!(
            parsed.get("name").and_then(|v| v.as_str()),
            Some("a \"quoted\"\nthing")
        );
        assert_eq!(parsed.get("count").and_then(|v| v.as_f64()), Some(3.0));
        assert_eq!(parsed.get("ratio").and_then(|v| v.as_f64()), Some(0.333));
        assert_eq!(
            parsed
                .get("bad")
                .map(|v| matches!(v, cayman_obs::trace::Json::Null)),
            Some(true)
        );
        assert_eq!(
            parsed
                .get("items")
                .and_then(|v| v.as_arr())
                .map(|a| a.len()),
            Some(4)
        );
        assert!(doc.ends_with("}\n"));
    }

    #[test]
    fn host_block_names_cores_and_profile() {
        let doc = document(host);
        let parsed = cayman_obs::trace::parse_json(&doc).expect("valid JSON");
        let host = parsed.get("host").expect("host block");
        assert!(host.get("cores").and_then(|v| v.as_f64()) >= Some(1.0));
        let profile = host.get("build_profile").and_then(|v| v.as_str());
        assert!(matches!(profile, Some("debug" | "release")), "{profile:?}");
    }
}
