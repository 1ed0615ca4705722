//! Plain-text table output for the `figures` binary.

/// A simple column-aligned text table.
#[derive(Debug, Clone)]
pub struct Table {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with the given column headers.
    pub fn new<S: Into<String>, I: IntoIterator<Item = S>>(headers: I) -> Self {
        Table {
            headers: headers.into_iter().map(Into::into).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row (truncated/padded to the header width).
    pub fn row<S: Into<String>, I: IntoIterator<Item = S>>(&mut self, cells: I) -> &mut Self {
        let mut r: Vec<String> = cells.into_iter().map(Into::into).collect();
        r.resize(self.headers.len(), String::new());
        self.rows.push(r);
        self
    }

    /// Renders the table to a string.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.headers.iter().map(String::len).collect();
        for row in &self.rows {
            for (w, cell) in widths.iter_mut().zip(row) {
                *w = (*w).max(cell.len());
            }
        }
        let mut out = String::new();
        let fmt_row = |cells: &[String], widths: &[usize]| -> String {
            cells
                .iter()
                .zip(widths)
                .map(|(c, w)| format!("{c:>w$}"))
                .collect::<Vec<_>>()
                .join("  ")
        };
        out.push_str(&fmt_row(&self.headers, &widths));
        out.push('\n');
        out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (widths.len() - 1)));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row, &widths));
            out.push('\n');
        }
        out
    }

    /// Prints the table to stdout.
    pub fn print(&self) {
        print!("{}", self.render());
    }
}

/// Formats seconds with adaptive precision.
pub fn secs(s: f64) -> String {
    if s >= 1.0 {
        format!("{s:.2}s")
    } else if s >= 1e-3 {
        format!("{:.2}ms", s * 1e3)
    } else {
        format!("{:.1}us", s * 1e6)
    }
}

/// Formats bytes as GiB/MiB.
pub fn mem(bytes: u64) -> String {
    let b = bytes as f64;
    if b >= (1u64 << 30) as f64 {
        format!("{:.2}GB", b / (1u64 << 30) as f64)
    } else {
        format!("{:.1}MB", b / (1u64 << 20) as f64)
    }
}

/// An ordered JSON value with the renderings the `BENCH_*.json` files
/// use. Object fields keep the order they were given in.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A non-negative integer, printed in full.
    Int(u64),
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
            Json::Fixed(x, digits) if x.is_finite() => format!("{x:.digits$}"),
            Json::Fixed(..) => "null".to_string(),
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

    /// The value as a `BENCH_*.json` document, newline-terminated: a root
    /// object puts one field per line and a field holding an array of
    /// objects one row per line; everything nested deeper is inline.
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
    fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Object(fields) => fields.iter().find(|(k, _)| *k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The elements of an array of objects — a scenario table.
    fn rows(&self) -> Option<&[Json]> {
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

/// Prints a `BENCH_*.json` document for people: each field of the root
/// object as `key: value`, except an array of row objects, which becomes a
/// table of `columns` (field names, space-separated).
pub fn print_document(doc: &Json, columns: &str) {
    let Json::Object(fields) = doc else { return };
    let columns: Vec<&str> = columns.split_whitespace().collect();
    let cell = |row: &Json, column: &str| match row.get(column) {
        Some(Json::Str(s)) => s.clone(),
        value => value.map_or_else(String::new, Json::inline),
    };
    for (key, value) in fields {
        let Some(rows) = value.rows() else {
            println!("{key}: {}", value.inline());
            continue;
        };
        let mut t = Table::new(columns.iter().copied());
        for row in rows {
            t.row(columns.iter().map(|c| cell(row, c)));
        }
        t.print();
    }
}

/// Holds a `BENCH_*.json` artifact (a path relative to the working
/// directory, by convention the repo root) against what this run
/// regenerated.
///
/// With `write` (`--write-bench`) the file is rewritten. Without it the
/// committed bytes must equal `json`: every field of these files is exact
/// or simulated, so any difference is a behaviour change (or a stale
/// file) and fails the run.
///
/// # Errors
///
/// The file name plus the I/O error, or the first line that differs.
pub fn check_artifact(name: &str, json: &str, write: bool) -> Result<(), String> {
    if write {
        std::fs::write(name, json).map_err(|e| format!("{name}: cannot write: {e}"))?;
        println!("wrote {name}");
        return Ok(());
    }
    let committed =
        std::fs::read_to_string(name).map_err(|e| format!("{name}: cannot read: {e}"))?;
    if committed == json {
        println!("{name} matches this run");
        return Ok(());
    }
    let same = committed
        .lines()
        .zip(json.lines())
        .take_while(|(a, b)| a == b)
        .count();
    let show = |text: &str| match text.lines().nth(same) {
        Some(line) => format!("`{line}`"),
        None => "<end of file>".to_string(),
    };
    Err(format!(
        "{name}: line {} differs from this run (rerun with --write-bench to accept)\n  \
         committed:   {}\n  regenerated: {}",
        same + 1,
        show(&committed),
        show(json)
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_aligns_columns() {
        let mut t = Table::new(["a", "metric"]);
        t.row(["x", "1"]);
        t.row(["longer", "22"]);
        let s = t.render();
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].contains("metric"));
        assert!(lines[3].contains("longer"));
        // All data lines same width.
        assert_eq!(lines[2].len(), lines[3].len());
    }

    #[test]
    fn row_pads_missing_cells() {
        let mut t = Table::new(["a", "b", "c"]);
        t.row(["only-one"]);
        assert!(t.render().contains("only-one"));
    }

    #[test]
    fn formatters() {
        assert_eq!(secs(2.5), "2.50s");
        assert_eq!(secs(0.0025), "2.50ms");
        assert_eq!(secs(0.0000025), "2.5us");
        assert_eq!(mem(1 << 30), "1.00GB");
        assert_eq!(mem(1 << 20), "1.0MB");
    }

    #[test]
    fn json_keeps_order_nests_and_escapes() {
        let doc = Json::Object(vec![
            ("zeta", "quote \" slash \\ tab \t nl \n bell \u{7}".into()),
            ("alpha", 47126412u64.into()),
            ("rate", Json::Fixed(1.0 / 3.0, 4)),
            ("p50_s", Json::Fixed(-0.1323834, 6)),
            ("fault_rate", Json::Fixed(0.05, 2)),
            ("nan", Json::Fixed(f64::NAN, 4)),
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
    }

    #[test]
    fn artifact_check_names_the_file_and_the_first_differing_line() {
        let dir = std::env::temp_dir().join(format!("buffalo-artifact-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("temp dir");
        let path = dir.join("BENCH_x.json");
        let name = path.to_str().expect("utf-8 temp path");
        let json = "{\n  \"a\": 1,\n  \"b\": 2\n}\n";

        let missing = check_artifact(name, json, false).expect_err("no file yet");
        assert!(missing.contains("BENCH_x.json: cannot read"), "{missing}");

        check_artifact(name, json, true).expect("write");
        check_artifact(name, json, false).expect("equal bytes pass");

        std::fs::write(&path, json.replace("2", "3")).expect("edit");
        let edited = check_artifact(name, json, false).expect_err("one byte changed");
        assert!(edited.contains("BENCH_x.json: line 3 differs"), "{edited}");
        assert!(edited.contains("committed:   `  \"b\": 3`"), "{edited}");
        assert!(edited.contains("regenerated: `  \"b\": 2`"), "{edited}");

        std::fs::write(&path, &json[..json.len() - 8]).expect("truncate");
        let cut = check_artifact(name, json, false).expect_err("truncated");
        assert!(cut.contains("BENCH_x.json: line 3 differs"), "{cut}");
        assert!(cut.contains("committed:   `  \"`"), "{cut}");

        std::fs::write(&path, "{\n  \"a\": 1,\n").expect("truncate at a line end");
        let cut = check_artifact(name, json, false).expect_err("truncated");
        assert!(cut.contains("line 3 differs"), "{cut}");
        assert!(cut.contains("committed:   <end of file>"), "{cut}");

        std::fs::remove_dir_all(&dir).expect("cleanup");
    }
}
