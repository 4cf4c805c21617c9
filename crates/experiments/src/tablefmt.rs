//! ASCII table rendering and CSV export for experiment results.

use std::fmt::Write as _;
use std::path::Path;
use twodprof_core::Metrics;

/// A simple column-aligned table that renders to ASCII (for the terminal)
/// and CSV (for plotting).
#[derive(Clone, Debug, Default)]
pub struct Table {
    title: String,
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with a title and column headers.
    pub fn new(title: &str, header: &[&str]) -> Self {
        Self {
            title: title.to_owned(),
            header: header.iter().map(|s| (*s).to_owned()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends one row; the cell count must match the header.
    ///
    /// # Panics
    ///
    /// Panics if `cells.len()` differs from the header length.
    pub fn row(&mut self, cells: Vec<String>) -> &mut Self {
        assert_eq!(
            cells.len(),
            self.header.len(),
            "row width must match header"
        );
        self.rows.push(cells);
        self
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether the table has no data rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Renders the table as aligned ASCII.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.header.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, c) in row.iter().enumerate() {
                widths[i] = widths[i].max(c.len());
            }
        }
        let mut out = String::new();
        let _ = writeln!(out, "== {} ==", self.title);
        let line = |out: &mut String, cells: &[String]| {
            for (i, c) in cells.iter().enumerate() {
                let _ = write!(out, "{:>w$}  ", c, w = widths[i]);
            }
            let _ = writeln!(out);
        };
        line(&mut out, &self.header);
        let total: usize = widths.iter().map(|w| w + 2).sum();
        let _ = writeln!(out, "{}", "-".repeat(total));
        for row in &self.rows {
            line(&mut out, row);
        }
        out
    }

    /// Renders the table as CSV (header + rows).
    pub fn to_csv(&self) -> String {
        let esc = |s: &str| {
            if s.contains(',') || s.contains('"') {
                format!("\"{}\"", s.replace('"', "\"\""))
            } else {
                s.to_owned()
            }
        };
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{}",
            self.header
                .iter()
                .map(|h| esc(h))
                .collect::<Vec<_>>()
                .join(",")
        );
        for row in &self.rows {
            let _ = writeln!(
                out,
                "{}",
                row.iter().map(|c| esc(c)).collect::<Vec<_>>().join(",")
            );
        }
        out
    }

    /// Writes the CSV form to `dir/<name>.csv` (creating `dir` if needed).
    ///
    /// # Errors
    ///
    /// Returns any I/O error from creating the directory or writing the file.
    pub fn write_csv(&self, dir: &Path, name: &str) -> std::io::Result<()> {
        std::fs::create_dir_all(dir)?;
        std::fs::write(dir.join(format!("{name}.csv")), self.to_csv())
    }
}

/// Formats a fraction as a percentage with one decimal, or `n/a`.
pub fn pct(v: Option<f64>) -> String {
    match v {
        Some(x) => format!("{:.1}%", x * 100.0),
        None => "n/a".to_owned(),
    }
}

/// A table row: the `lead` cells, then the four Table 3 metrics (COV-dep,
/// ACC-dep, COV-indep, ACC-indep) as percentages.
pub fn metrics_row<const N: usize>(lead: [String; N], m: &Metrics) -> Vec<String> {
    let metrics = [m.cov_dep, m.acc_dep, m.cov_indep, m.acc_indep];
    lead.into_iter().chain(metrics.map(pct)).collect()
}

/// Formats a large count with thousands separators.
pub fn count(n: u64) -> String {
    let s = n.to_string();
    let mut out = String::new();
    for (i, c) in s.chars().enumerate() {
        if i > 0 && (s.len() - i).is_multiple_of(3) {
            out.push(',');
        }
        out.push(c);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Table {
        let mut t = Table::new("demo", &["name", "value"]);
        t.row(vec!["alpha".into(), "1".into()]);
        t.row(vec!["b".into(), "22,000".into()]);
        t
    }

    #[test]
    fn render_aligns_columns() {
        let s = sample().render();
        assert!(s.contains("== demo =="));
        assert!(s.contains("alpha"));
        let lines: Vec<&str> = s.lines().collect();
        // header, separator, two rows, plus the title line
        assert_eq!(lines.len(), 5);
    }

    #[test]
    fn csv_escapes_commas() {
        let csv = sample().to_csv();
        assert!(csv.starts_with("name,value\n"));
        assert!(csv.contains("\"22,000\""));
    }

    #[test]
    #[should_panic(expected = "row width")]
    fn row_width_checked() {
        Table::new("t", &["a", "b"]).row(vec!["only-one".into()]);
    }

    #[test]
    fn helpers() {
        assert_eq!(pct(Some(0.1234)), "12.3%");
        assert_eq!(pct(None), "n/a");
        assert_eq!(count(1234567), "1,234,567");
        assert_eq!(count(42), "42");
        assert!(sample().len() == 2 && !sample().is_empty());
    }

    #[test]
    fn write_csv_roundtrip() {
        let dir = std::env::temp_dir().join("twodprof_tablefmt_test");
        sample().write_csv(&dir, "demo").unwrap();
        let read = std::fs::read_to_string(dir.join("demo.csv")).unwrap();
        assert_eq!(read, sample().to_csv());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
