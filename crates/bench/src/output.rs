//! Output for the `figures` binary: plain-text tables, the `secs`/`mem`
//! cell formatters, and the two things done with a `BENCH_*.json`
//! document — printing it for people (`print_document`) and holding it
//! against the committed file (`check_artifact`). The documents
//! themselves are [`Json`] values, the library's one JSON type.

use buffalo_core::json::Json;

/// A simple column-aligned text table.
#[derive(Debug, Clone)]
pub struct Table {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with the given column headers.
    pub(crate) fn new<S: Into<String>, I: IntoIterator<Item = S>>(headers: I) -> Self {
        Table {
            headers: headers.into_iter().map(Into::into).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row (truncated/padded to the header width).
    pub(crate) fn row<S: Into<String>, I: IntoIterator<Item = S>>(
        &mut self,
        cells: I,
    ) -> &mut Self {
        let mut r: Vec<String> = cells.into_iter().map(Into::into).collect();
        r.resize(self.headers.len(), String::new());
        self.rows.push(r);
        self
    }

    /// Renders the table to a string.
    pub(crate) fn render(&self) -> String {
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
    pub(crate) fn print(&self) {
        print!("{}", self.render());
    }
}

/// Formats seconds with adaptive precision.
pub(crate) fn secs(s: f64) -> String {
    if s >= 1.0 {
        format!("{s:.2}s")
    } else if s >= 1e-3 {
        format!("{:.2}ms", s * 1e3)
    } else {
        format!("{:.1}us", s * 1e6)
    }
}

/// Formats bytes as GiB/MiB.
pub(crate) fn mem(bytes: u64) -> String {
    let b = bytes as f64;
    if b >= (1u64 << 30) as f64 {
        format!("{:.2}GB", b / (1u64 << 30) as f64)
    } else {
        format!("{:.1}MB", b / (1u64 << 20) as f64)
    }
}

/// Prints a `BENCH_*.json` document for people: each field of the root
/// object as `key: value`, except an array of row objects, which becomes a
/// table of `columns` (field names, space-separated).
pub(crate) fn print_document(doc: &Json, columns: &str) {
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
pub(crate) fn check_artifact(name: &str, json: &str, write: bool) -> Result<(), String> {
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
