//! Plain-text table rendering for the `repro` binary and EXPERIMENTS.md.

use std::fmt::Write as _;

use dike_telemetry::json::Writer;

/// A simple column-aligned text table.
#[derive(Debug, Clone, Default)]
pub struct TextTable {
    title: String,
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl TextTable {
    /// A table with a title and column headers.
    pub fn new(title: impl Into<String>, header: &[&str]) -> Self {
        TextTable {
            title: title.into(),
            header: header.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends one row; short rows are padded with empty cells.
    pub fn row(&mut self, cells: &[String]) -> &mut Self {
        let mut row: Vec<String> = cells.to_vec();
        row.resize(self.header.len().max(row.len()), String::new());
        self.rows.push(row);
        self
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True when no data rows have been added.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Renders the table with aligned columns.
    pub fn render(&self) -> String {
        let ncols = self
            .header
            .len()
            .max(self.rows.iter().map(|r| r.len()).max().unwrap_or(0));
        let mut widths = vec![0usize; ncols];
        for (i, h) in self.header.iter().enumerate() {
            widths[i] = widths[i].max(h.len());
        }
        for row in &self.rows {
            for (i, c) in row.iter().enumerate() {
                widths[i] = widths[i].max(c.len());
            }
        }
        let mut out = String::new();
        if !self.title.is_empty() {
            let _ = writeln!(out, "== {} ==", self.title);
        }
        let line = |cells: &[String], widths: &[usize]| -> String {
            let mut s = String::new();
            for (i, w) in widths.iter().enumerate() {
                let cell = cells.get(i).map(String::as_str).unwrap_or("");
                if i > 0 {
                    s.push_str("  ");
                }
                let _ = write!(s, "{cell:>w$}", w = w);
            }
            s
        };
        if !self.header.is_empty() {
            let _ = writeln!(out, "{}", line(&self.header, &widths));
            let total: usize = widths.iter().sum::<usize>() + 2 * (ncols - 1);
            let _ = writeln!(out, "{}", "-".repeat(total));
        }
        for row in &self.rows {
            let _ = writeln!(out, "{}", line(row, &widths));
        }
        out
    }
}

impl TextTable {
    /// The table as a JSON document:
    /// `{"title": ..., "rows": [{col: cell, ...}]}`, members in column
    /// order. Cells stay strings; consumers parse numerics as needed.
    pub fn to_json(&self) -> String {
        let mut w = Writer::new();
        w.begin_object().key("title").str(&self.title);
        w.key("rows").begin_array();
        for row in &self.rows {
            w.begin_object();
            for (h, c) in self.header.iter().zip(row) {
                w.key(h).str(c);
            }
            w.end_object();
        }
        w.end_array().end_object();
        w.finish()
    }
}

/// Formats a fraction as a percentage with one decimal.
pub fn pct(x: f64) -> String {
    format!("{:.1}%", x * 100.0)
}

/// Formats a ratio like "3.5x".
pub fn ratio(x: f64) -> String {
    format!("{x:.1}x")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned_columns() {
        let mut t = TextTable::new("demo", &["name", "count"]);
        t.row(&["a".into(), "1".into()]);
        t.row(&["long-name".into(), "12345".into()]);
        let s = t.render();
        assert!(s.contains("== demo =="));
        let lines: Vec<&str> = s.lines().collect();
        // Title, header, separator, two rows.
        assert_eq!(lines.len(), 5);
        // Right-aligned count column.
        assert!(lines[3].ends_with("    1"));
        assert!(lines[4].ends_with("12345"));
    }

    #[test]
    fn short_rows_are_padded() {
        let mut t = TextTable::new("", &["a", "b", "c"]);
        t.row(&["x".into()]);
        assert_eq!(t.rows[0].len(), 3);
        assert_eq!(t.len(), 1);
        assert!(!t.is_empty());
    }

    #[test]
    fn to_json_mirrors_rows() {
        let mut t = TextTable::new("demo", &["name", "count"]);
        t.row(&["a".into(), "1".into()]);
        t.row(&["b".into(), "2".into()]);
        assert_eq!(
            t.to_json(),
            r#"{"title":"demo","rows":[{"name":"a","count":"1"},{"name":"b","count":"2"}]}"#
        );
    }

    #[test]
    fn formatting_helpers() {
        assert_eq!(pct(0.305), "30.5%");
        assert_eq!(ratio(8.24), "8.2x");
    }
}
