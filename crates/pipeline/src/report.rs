//! Plain-text table rendering and JSON-lines output for the experiment
//! binaries.

use std::io::Write as _;
use std::path::Path;

use serde::Serialize;

/// Renders an aligned plain-text table to a string.
///
/// # Panics
///
/// Panics if a row's width differs from the header's.
pub fn render_table(headers: &[&str], rows: &[Vec<String>]) -> String {
    let cols = headers.len();
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        assert_eq!(row.len(), cols, "row width mismatch");
        for (w, cell) in widths.iter_mut().zip(row) {
            *w = (*w).max(cell.len());
        }
    }
    let mut out = String::new();
    let fmt_row = |cells: &[String], widths: &[usize]| -> String {
        let padded: Vec<String> = cells
            .iter()
            .zip(widths)
            .map(|(c, w)| format!("{c:>w$}", w = w))
            .collect();
        padded.join("  ")
    };
    let header_cells: Vec<String> = headers.iter().map(|h| h.to_string()).collect();
    out.push_str(&fmt_row(&header_cells, &widths));
    out.push('\n');
    out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * cols.saturating_sub(1)));
    out.push('\n');
    for row in rows {
        out.push_str(&fmt_row(row, &widths));
        out.push('\n');
    }
    out
}

/// Prints an aligned table to stdout.
pub fn print_table(headers: &[&str], rows: &[Vec<String>]) {
    print!("{}", render_table(headers, rows));
}

/// Formats a fraction as a percentage with two decimals.
pub fn pct(x: f64) -> String {
    format!("{:.2}", 100.0 * x)
}

/// Formats a float with the given number of decimals.
pub fn num(x: f64, decimals: usize) -> String {
    format!("{x:.decimals$}")
}

/// Appends a serializable value as one JSON line to `path`, creating
/// parent directories if needed (used by [`JsonlSink`](crate::JsonlSink)).
///
/// # Errors
///
/// Returns any I/O error, or an `InvalidData` error if serialization
/// fails.
pub fn save_jsonl_append<T: Serialize>(path: &Path, value: &T) -> std::io::Result<()> {
    if let Some(parent) = path.parent() {
        if !parent.as_os_str().is_empty() {
            std::fs::create_dir_all(parent)?;
        }
    }
    let body = serde_json::to_string(value)
        .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e))?;
    let mut f = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)?;
    f.write_all(body.as_bytes())?;
    f.write_all(b"\n")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_is_aligned() {
        let s = render_table(
            &["algo", "di"],
            &[
                vec!["CBOW".into(), "5.25".into()],
                vec!["MC".into(), "12.00".into()],
            ],
        );
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 4);
        // All data lines have equal width.
        assert_eq!(lines[2].len(), lines[3].len());
        assert!(lines[0].contains("algo"));
    }

    #[test]
    fn formatting_helpers() {
        assert_eq!(pct(0.1234), "12.34");
        assert_eq!(num(1.23456, 3), "1.235");
    }

    #[test]
    #[should_panic(expected = "row width")]
    fn ragged_rows_panic() {
        let _ = render_table(&["a", "b"], &[vec!["x".into()]]);
    }

    #[test]
    fn empty_headers_do_not_underflow() {
        // Regression: `2 * (cols - 1)` underflowed usize when cols == 0.
        let s = render_table(&[], &[]);
        assert_eq!(s, "\n\n");
        // A single column hits the `cols - 1 == 0` edge.
        let s = render_table(&["only"], &[vec!["x".into()]]);
        assert!(s.starts_with("only\n----\n"));
    }

    #[test]
    fn jsonl_append_accumulates_lines() {
        let dir = crate::cache::scratch_dir("report_jsonl");
        let path = dir.join("nested").join("vals.jsonl");
        std::fs::remove_dir_all(&dir).ok();
        #[derive(serde::Serialize)]
        struct V {
            x: f64,
        }
        save_jsonl_append(&path, &V { x: 1.5 }).expect("append");
        save_jsonl_append(&path, &V { x: -2.0 }).expect("append");
        let body = std::fs::read_to_string(&path).expect("read");
        assert_eq!(body.lines().count(), 2);
        std::fs::remove_dir_all(&dir).ok();
    }
}
