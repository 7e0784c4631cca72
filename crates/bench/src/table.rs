//! Result tables: aligned text rendering + JSON serialization.

use serde::Serialize;
use std::fmt::Write as _;

/// One experiment's output: a titled table with a claim being validated.
#[derive(Clone, Debug, Serialize)]
pub struct Table {
    /// Experiment id (e.g. `"T1"`, `"F3"`).
    pub id: String,
    /// Human title.
    pub title: String,
    /// The paper claim the experiment validates.
    pub claim: String,
    /// Column headers.
    pub headers: Vec<String>,
    /// Rows (stringified cells, aligned on render).
    pub rows: Vec<Vec<String>>,
    /// Free-form notes (observations, pass/fail summary).
    pub notes: Vec<String>,
}

impl Table {
    /// Creates an empty table.
    #[must_use]
    pub fn new(
        id: impl Into<String>,
        title: impl Into<String>,
        claim: impl Into<String>,
        headers: Vec<&str>,
    ) -> Self {
        Self {
            id: id.into(),
            title: title.into(),
            claim: claim.into(),
            headers: headers.into_iter().map(str::to_string).collect(),
            rows: Vec::new(),
            notes: Vec::new(),
        }
    }

    /// Appends a row; must match the header arity.
    pub fn push_row(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.headers.len(), "row arity mismatch");
        self.rows.push(cells);
    }

    /// Appends a note line.
    pub fn note(&mut self, s: impl Into<String>) {
        self.notes.push(s.into());
    }

    /// Renders an aligned plain-text table.
    #[must_use]
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.headers.iter().map(String::len).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let mut out = String::new();
        let _ = writeln!(out, "== {}: {} ==", self.id, self.title);
        let _ = writeln!(out, "claim: {}", self.claim);
        let line = |cells: &[String], widths: &[usize]| {
            let mut s = String::from("|");
            for (c, w) in cells.iter().zip(widths) {
                let _ = write!(s, " {c:>w$} |", w = w);
            }
            s
        };
        let sep: String = {
            let mut s = String::from("|");
            for w in &widths {
                s.push_str(&"-".repeat(w + 2));
                s.push('|');
            }
            s
        };
        let _ = writeln!(out, "{}", line(&self.headers, &widths));
        let _ = writeln!(out, "{sep}");
        for row in &self.rows {
            let _ = writeln!(out, "{}", line(row, &widths));
        }
        for n in &self.notes {
            let _ = writeln!(out, "note: {n}");
        }
        out
    }

    /// Renders a GitHub-markdown table (used to fill EXPERIMENTS.md).
    #[must_use]
    pub fn render_markdown(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "| {} |", self.headers.join(" | "));
        let _ = writeln!(
            out,
            "|{}|",
            self.headers
                .iter()
                .map(|_| "---")
                .collect::<Vec<_>>()
                .join("|")
        );
        for row in &self.rows {
            let _ = writeln!(out, "| {} |", row.join(" | "));
        }
        out
    }

    /// The table as pretty JSON, the contents of `<id>.json`.
    #[must_use]
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("serializable")
    }
}

/// Formats a ratio with 2 decimals.
#[must_use]
pub fn fmt_ratio(x: f64) -> String {
    format!("{x:.2}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_aligns_columns() {
        let mut t = Table::new("T0", "demo", "none", vec!["name", "ratio"]);
        t.push_row(vec!["a".into(), "1.00".into()]);
        t.push_row(vec!["longer-name".into(), "12.34".into()]);
        let s = t.render();
        assert!(s.contains("== T0: demo =="));
        assert!(s.contains("| longer-name |"));
        assert!(s.contains("|           a |"));
    }

    #[test]
    #[should_panic(expected = "arity")]
    fn arity_checked() {
        let mut t = Table::new("T0", "demo", "none", vec!["a", "b"]);
        t.push_row(vec!["only-one".into()]);
    }

    #[test]
    fn markdown_shape() {
        let mut t = Table::new("T0", "demo", "none", vec!["a", "b"]);
        t.push_row(vec!["1".into(), "2".into()]);
        let md = t.render_markdown();
        assert!(md.starts_with("| a | b |"));
        assert!(md.contains("|---|---|"));
    }
}
