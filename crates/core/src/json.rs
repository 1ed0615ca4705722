//! The one JSON value the library and its binaries render documents
//! through: the `BENCH_*.json` artifacts of the `figures` binary and
//! `buffalo serve --json`. (`buffalo-lint` has no dependencies by design
//! and keeps its own writer.)
//!
//! A [`Json`] is built in the order its fields should print and rendered
//! by one layout rule ([`Json::render`]), so two documents with the same
//! fields print the same way whoever builds them. There is no parser:
//! nothing in the library reads JSON back.

/// An ordered JSON value. Object fields keep the order they were given in.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A non-negative integer, printed in full.
    Int(u64),
    /// A float printed in Rust's shortest round-trip form (`{}`: `2.0`
    /// prints `2`); a non-finite value prints as `null`.
    Float(f64),
    /// A float printed with a fixed number of decimals (`{:.4}`,
    /// `{:.6}`, ...); a non-finite value prints as `null`.
    Fixed(f64, usize),
    /// A string, escaped.
    Str(String),
    /// An array.
    Array(Vec<Json>),
    /// An object; fields print in this order.
    Object(Vec<(&'static str, Json)>),
}

impl From<u64> for Json {
    fn from(v: u64) -> Self {
        Json::Int(v)
    }
}

impl From<usize> for Json {
    fn from(v: usize) -> Self {
        Json::Int(v as u64)
    }
}

impl From<&str> for Json {
    fn from(v: &str) -> Self {
        Json::Str(v.to_string())
    }
}

impl Json {
    /// The value on one line: `{"k": v, "k2": [1, 2]}`.
    pub fn inline(&self) -> String {
        match self {
            Json::Null => "null".to_string(),
            Json::Bool(b) => b.to_string(),
            Json::Int(i) => i.to_string(),
            Json::Float(x) if x.is_finite() => x.to_string(),
            Json::Fixed(x, digits) if x.is_finite() => format!("{x:.digits$}"),
            Json::Float(_) | Json::Fixed(..) => "null".to_string(),
            Json::Str(s) => quote(s),
            Json::Array(items) => format!("[{}]", join(items.iter().map(Json::inline), ", ")),
            Json::Object(fields) => {
                let fields = fields
                    .iter()
                    .map(|(k, v)| format!("{}: {}", quote(k), v.inline()));
                format!("{{{}}}", join(fields, ", "))
            }
        }
    }

    /// The value as a document, newline-terminated: a root object puts one
    /// field per line and a field holding an array of objects one row per
    /// line; everything nested deeper is inline.
    pub fn render(&self) -> String {
        let Json::Object(fields) = self else {
            return self.inline() + "\n";
        };
        let fields = fields.iter().map(|(k, v)| {
            let value = v.rows().map_or_else(
                || v.inline(),
                |rows| {
                    let rows = rows.iter().map(|r| format!("    {}", r.inline()));
                    format!("[\n{}\n  ]", join(rows, ",\n"))
                },
            );
            format!("  {}: {value}", quote(k))
        });
        format!("{{\n{}\n}}\n", join(fields, ",\n"))
    }

    /// Field `key` of an object.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Object(fields) => fields.iter().find(|(k, _)| *k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The elements of an array of objects — a table of rows, which
    /// [`Json::render`] prints one row per line.
    pub fn rows(&self) -> Option<&[Json]> {
        match self {
            Json::Array(rows) if matches!(rows.first(), Some(Json::Object(_))) => Some(rows),
            _ => None,
        }
    }
}

fn join(parts: impl Iterator<Item = String>, sep: &str) -> String {
    parts.collect::<Vec<_>>().join(sep)
}

fn quote(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out + "\""
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_keeps_order_nests_and_escapes() {
        let doc = Json::Object(vec![
            ("zeta", "quote \" slash \\ tab \t nl \n bell \u{7}".into()),
            ("alpha", 47126412u64.into()),
            ("rate", Json::Fixed(1.0 / 3.0, 4)),
            ("p50_s", Json::Fixed(-0.1323834, 6)),
            ("fault_rate", Json::Fixed(0.05, 2)),
            ("nan", Json::Fixed(f64::NAN, 4)),
            ("mean", Json::Float(0.1893216368322457)),
            ("whole", Json::Float(2.0)),
            ("float_nan", Json::Float(f64::NAN)),
            ("flag", Json::Bool(true)),
            ("none", Json::Null),
            (
                "inner",
                Json::Object(vec![("b", 1usize.into()), ("a", Json::Bool(false))]),
            ),
            ("allocs", Json::Array(vec![36u64.into(), 36u64.into()])),
            ("empty", Json::Array(Vec::new())),
            (
                "scenarios",
                Json::Array(vec![
                    Json::Object(vec![
                        ("scenario", "x".into()),
                        ("dead", Json::Array(vec![1u64.into()])),
                    ]),
                    Json::Object(vec![
                        ("scenario", "y".into()),
                        ("dead", Json::Array(Vec::new())),
                    ]),
                ]),
            ),
        ]);
        let expected = r#"{
  "zeta": "quote \" slash \\ tab \t nl \n bell \u0007",
  "alpha": 47126412,
  "rate": 0.3333,
  "p50_s": -0.132383,
  "fault_rate": 0.05,
  "nan": null,
  "mean": 0.1893216368322457,
  "whole": 2,
  "float_nan": null,
  "flag": true,
  "none": null,
  "inner": {"b": 1, "a": false},
  "allocs": [36, 36],
  "empty": [],
  "scenarios": [
    {"scenario": "x", "dead": [1]},
    {"scenario": "y", "dead": []}
  ]
}
"#;
        assert_eq!(doc.render(), expected);
        assert_eq!(doc.get("alpha"), Some(&Json::Int(47126412)));
        assert_eq!(doc.get("missing"), None);
        assert_eq!(Json::Int(3).get("alpha"), None);
    }
}
