//! Report rendering: markdown tables, CSV series and the Fig. 9-style
//! frequency chart, shared by every figure/table study in `tpv-bench`.

use std::fmt::Write as _;

/// A simple column-aligned markdown table builder.
#[derive(Debug, Clone)]
pub struct MarkdownTable {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl MarkdownTable {
    /// Creates a table with the given column headers.
    pub fn new(header: &[&str]) -> Self {
        MarkdownTable { header: header.iter().map(|s| s.to_string()).collect(), rows: Vec::new() }
    }

    /// Appends a row.
    ///
    /// # Panics
    ///
    /// Panics if the row width differs from the header width.
    pub fn row(&mut self, cells: &[String]) -> &mut Self {
        assert_eq!(cells.len(), self.header.len(), "row width mismatch");
        self.rows.push(cells.to_vec());
        self
    }

    /// Renders the table.
    pub fn render(&self) -> String {
        let cols = self.header.len();
        let mut widths: Vec<usize> = self.header.iter().map(String::len).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let mut out = String::new();
        let fmt_row = |out: &mut String, cells: &[String]| {
            out.push('|');
            for i in 0..cols {
                let _ = write!(out, " {:<w$} |", cells[i], w = widths[i]);
            }
            out.push('\n');
        };
        fmt_row(&mut out, &self.header);
        out.push('|');
        for w in &widths {
            let _ = write!(out, "{}|", "-".repeat(w + 2));
        }
        out.push('\n');
        for row in &self.rows {
            fmt_row(&mut out, row);
        }
        out
    }
}

/// A CSV document builder (no quoting needed for numeric reports).
#[derive(Debug, Clone)]
pub struct Csv {
    lines: Vec<String>,
}

impl Csv {
    /// Creates a CSV with a header row.
    pub fn new(header: &[&str]) -> Self {
        Csv { lines: vec![header.join(",")] }
    }

    /// Appends a data row.
    pub fn row(&mut self, cells: &[String]) -> &mut Self {
        self.lines.push(cells.join(","));
        self
    }

    /// Renders the document.
    pub fn render(&self) -> String {
        let mut s = self.lines.join("\n");
        s.push('\n');
        s
    }

    /// Writes the document to `path`, creating parent directories.
    ///
    /// # Errors
    ///
    /// Returns any I/O error from creating directories or writing.
    pub fn write_to(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(parent) = path.parent() {
            std::fs::create_dir_all(parent)?;
        }
        std::fs::write(path, self.render())
    }
}

/// An ASCII frequency chart in the style of the paper's Fig. 9: bucketed
/// counts of per-run averages, with the median bucket marked.
pub fn frequency_chart(samples_us: &[f64], buckets: usize) -> String {
    if samples_us.is_empty() || buckets == 0 {
        return String::from("(no samples)\n");
    }
    let mut sorted = samples_us.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("NaN sample"));
    let median = sorted[sorted.len() / 2];
    let lo = sorted[0];
    let hi = sorted[sorted.len() - 1];
    let width = ((hi - lo) / buckets as f64).max(1e-9);
    let mut counts = vec![0usize; buckets];
    for &x in samples_us {
        let b = (((x - lo) / width) as usize).min(buckets - 1);
        counts[b] += 1;
    }
    let max_count = counts.iter().copied().max().unwrap_or(1).max(1);
    let mut out = String::new();
    let _ = writeln!(out, "Average Response Time (us) | Frequency of Occurrence");
    for (i, &c) in counts.iter().enumerate() {
        let low = lo + i as f64 * width;
        let high = low + width;
        let bar = "#".repeat(c * 40 / max_count);
        let marker = if median >= low && median < high + 1e-12 { " <- median" } else { "" };
        let _ = writeln!(out, "{low:>8.1}-{high:<8.1} | {bar} {c}{marker}");
    }
    out
}

/// Formats a microsecond value the way the paper's tables do.
pub fn us(v: f64) -> String {
    if v >= 1000.0 {
        format!("{:.2}ms", v / 1000.0)
    } else {
        format!("{v:.1}us")
    }
}

/// Formats a ratio ("1.13x").
pub fn ratio(v: f64) -> String {
    format!("{v:.2}x")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn markdown_table_renders_aligned() {
        let mut t = MarkdownTable::new(&["Config", "QPS", "Avg"]);
        t.row(&["LP-SMToff".into(), "10000".into(), "101.2".into()]);
        t.row(&["HP".into(), "500000".into(), "99".into()]);
        let s = t.render();
        assert!(s.contains("| Config    |"));
        assert!(s.lines().count() == 4);
        assert!(s.lines().nth(1).unwrap().starts_with("|--"));
    }

    #[test]
    #[should_panic(expected = "row width mismatch")]
    fn markdown_rejects_ragged_rows() {
        MarkdownTable::new(&["a", "b"]).row(&["only-one".into()]);
    }

    #[test]
    fn csv_round_trips() {
        let mut c = Csv::new(&["qps", "avg_us"]);
        c.row(&["10000".into(), "101.5".into()]);
        let s = c.render();
        assert_eq!(s, "qps,avg_us\n10000,101.5\n");
    }

    #[test]
    fn csv_writes_files() {
        let dir = std::env::temp_dir().join("tpv_report_test");
        let path = dir.join("nested").join("out.csv");
        let mut c = Csv::new(&["x"]);
        c.row(&["1".into()]);
        c.write_to(&path).unwrap();
        let content = std::fs::read_to_string(&path).unwrap();
        assert!(content.starts_with("x\n1"));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn frequency_chart_marks_median() {
        let samples: Vec<f64> = (0..50).map(|i| 90.0 + (i % 17) as f64).collect();
        let chart = frequency_chart(&samples, 17);
        assert!(chart.contains("<- median"));
        assert!(chart.contains('#'));
        assert_eq!(frequency_chart(&[], 5), "(no samples)\n");
    }

    #[test]
    fn formatting_helpers() {
        assert_eq!(us(101.23), "101.2us");
        assert_eq!(us(2300.0), "2.30ms");
        assert_eq!(ratio(1.1312), "1.13x");
    }
}
