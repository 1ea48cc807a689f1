//! Table formatting: paper value, measured value, ratio.

use std::fmt::Write as _;

/// Builds an aligned comparison table.
///
/// # Examples
///
/// ```
/// use dsnrep_bench::Comparison;
///
/// let mut table = Comparison::new("Table X", &["config", "paper", "measured"]);
/// table.row("Version 3", 275_512.0, 290_000.0);
/// let text = table.render();
/// assert!(text.contains("Version 3"));
/// assert!(text.contains("1.05x"));
/// ```
#[derive(Clone, Debug)]
pub struct Comparison {
    title: String,
    headers: Vec<String>,
    rows: Vec<(String, f64, f64)>,
}

impl Comparison {
    /// Starts a table with a title and three column headers
    /// (label, paper, measured).
    pub fn new(title: &str, headers: &[&str; 3]) -> Self {
        Comparison {
            title: title.to_string(),
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row.
    pub fn row(&mut self, label: &str, paper: f64, measured: f64) -> &mut Self {
        self.rows.push((label.to_string(), paper, measured));
        self
    }

    /// Renders the table as text (also valid Markdown).
    pub fn render(&self) -> String {
        let mut out = String::new();
        let label_w = self
            .rows
            .iter()
            .map(|(l, _, _)| l.len())
            .chain([self.headers[0].len()])
            .max()
            .unwrap_or(8);
        let _ = writeln!(out, "### {}", self.title);
        let _ = writeln!(
            out,
            "| {:label_w$} | {:>12} | {:>12} | {:>7} |",
            self.headers[0], self.headers[1], self.headers[2], "ratio"
        );
        let _ = writeln!(
            out,
            "|{:-<w$}|{:->14}|{:->14}|{:->9}|",
            "",
            "",
            "",
            "",
            w = label_w + 2
        );
        for (label, paper, measured) in &self.rows {
            let ratio = if *paper > 0.0 {
                measured / paper
            } else {
                f64::NAN
            };
            let _ = writeln!(
                out,
                "| {label:label_w$} | {paper:>12.1} | {measured:>12.1} | {ratio:>6.2}x |"
            );
        }
        out
    }

    /// Prints the rendered table to stdout.
    pub fn print(&self) {
        crate::outln!("{}", self.render());
    }

    /// Iterates `(label, paper, measured)` rows.
    pub fn rows(&self) -> impl Iterator<Item = &(String, f64, f64)> {
        self.rows.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_ratio() {
        let mut t = Comparison::new("T", &["a", "b", "c"]);
        t.row("x", 100.0, 150.0);
        let s = t.render();
        assert!(s.contains("1.50x"), "{s}");
    }

    #[test]
    fn zero_paper_value_does_not_panic() {
        let mut t = Comparison::new("T", &["a", "b", "c"]);
        t.row("x", 0.0, 1.0);
        let s = t.render();
        assert!(s.contains("NaN"), "{s}");
    }
}
