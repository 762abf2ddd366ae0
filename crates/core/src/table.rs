//! Plain-text experiment tables: what every `exp` driver returns and the
//! `gsp-bench` binaries print, mirroring the rows the paper reports.

use std::fmt;

/// A titled, column-aligned table with optional footnotes.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ExpTable {
    /// Table title (e.g. "E2 — gate complexity (paper §2.3)").
    pub title: String,
    /// Column headers.
    pub headers: Vec<String>,
    /// Rows of cells; each row must match `headers.len()`.
    pub rows: Vec<Vec<String>>,
    /// Footnotes (paper anchors, caveats).
    pub notes: Vec<String>,
}

impl ExpTable {
    /// New empty table.
    pub fn new(title: &str, headers: &[&str]) -> Self {
        ExpTable {
            title: title.to_string(),
            headers: headers.iter().map(|h| h.to_string()).collect(),
            rows: Vec::new(),
            notes: Vec::new(),
        }
    }

    /// Appends a row (must match the header count).
    pub fn row(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.headers.len(), "column count mismatch");
        self.rows.push(cells);
    }

    /// Appends a footnote.
    pub fn note(&mut self, text: &str) {
        self.notes.push(text.to_string());
    }

    /// Cell accessor used by assertions in tests.
    pub fn cell(&self, row: usize, col: usize) -> &str {
        &self.rows[row][col]
    }

    fn widths(&self) -> Vec<usize> {
        let mut w: Vec<usize> = self.headers.iter().map(|h| h.chars().count()).collect();
        for r in &self.rows {
            for (i, c) in r.iter().enumerate() {
                w[i] = w[i].max(c.chars().count());
            }
        }
        w
    }
}

impl fmt::Display for ExpTable {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "{}", self.title)?;
        let w = self.widths();
        let line = |f: &mut fmt::Formatter<'_>| -> fmt::Result {
            for (i, width) in w.iter().enumerate() {
                write!(f, "+{}", "-".repeat(width + 2))?;
                if i == w.len() - 1 {
                    writeln!(f, "+")?;
                }
            }
            Ok(())
        };
        line(f)?;
        for (i, h) in self.headers.iter().enumerate() {
            write!(f, "| {:<width$} ", h, width = w[i])?;
        }
        writeln!(f, "|")?;
        line(f)?;
        for r in &self.rows {
            for (i, c) in r.iter().enumerate() {
                write!(f, "| {:<width$} ", c, width = w[i])?;
            }
            writeln!(f, "|")?;
        }
        line(f)?;
        for n in &self.notes {
            writeln!(f, "  note: {n}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned_table() {
        let mut t = ExpTable::new("T — demo", &["name", "value"]);
        t.row(vec!["short".into(), "1".into()]);
        t.row(vec!["a much longer name".into(), "220080".into()]);
        t.note("anchor: paper §2.3");
        let s = t.to_string();
        assert!(s.contains("T — demo"));
        assert!(s.contains("| a much longer name | 220080 |"));
        assert!(s.contains("note: anchor"));
        // Every data line has the same width.
        let widths: Vec<usize> = s
            .lines()
            .filter(|l| l.starts_with('|') || l.starts_with('+'))
            .map(|l| l.chars().count())
            .collect();
        assert!(widths.windows(2).all(|w| w[0] == w[1]), "{s}");
    }

    #[test]
    #[should_panic(expected = "column count mismatch")]
    fn rejects_ragged_rows() {
        let mut t = ExpTable::new("x", &["a", "b"]);
        t.row(vec!["only one".into()]);
    }

    #[test]
    fn cell_accessor() {
        let mut t = ExpTable::new("x", &["a"]);
        t.row(vec!["v".into()]);
        assert_eq!(t.cell(0, 0), "v");
    }
}
