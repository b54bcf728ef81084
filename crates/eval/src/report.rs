//! Plain-text report tables.
//!
//! `tests/pipeline_integration.rs` prints tables shaped like the paper's,
//! each cell or row holding the paper's value beside the measured one, so
//! the reader can compare the reproduction at a glance.

/// A simple right-aligned ASCII table with a header row.
#[derive(Debug, Clone, Default)]
pub struct Table {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with the given column headers.
    pub fn new(header: &[&str]) -> Self {
        Self {
            header: header.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row; short rows are padded with empty cells.
    pub fn row(&mut self, cells: &[String]) -> &mut Self {
        let mut row: Vec<String> = cells.to_vec();
        row.resize(self.header.len(), String::new());
        self.rows.push(row);
        self
    }

    /// Appends a horizontal separator.
    pub fn separator(&mut self) -> &mut Self {
        self.rows.push(Vec::new());
        self
    }

    /// Renders the table. The first column is left-aligned, the rest
    /// right-aligned.
    pub fn render(&self) -> String {
        let cols = self.header.len();
        let mut widths: Vec<usize> = self.header.iter().map(|h| h.chars().count()).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.chars().count());
            }
        }
        let mut out = String::new();
        let print_row = |out: &mut String, cells: &[String]| {
            for i in 0..cols {
                let cell = cells.get(i).map(String::as_str).unwrap_or("");
                if i == 0 {
                    out.push_str(&format!("{:<width$}", cell, width = widths[0]));
                } else {
                    out.push_str(&format!("  {:>width$}", cell, width = widths[i]));
                }
            }
            while out.ends_with(' ') {
                out.pop();
            }
            out.push('\n');
        };
        print_row(&mut out, &self.header);
        let total: usize = widths.iter().sum::<usize>() + 2 * (cols - 1);
        out.push_str(&"-".repeat(total));
        out.push('\n');
        for row in &self.rows {
            if row.is_empty() {
                out.push_str(&"-".repeat(total));
                out.push('\n');
            } else {
                print_row(&mut out, row);
            }
        }
        out
    }
}

/// Formats large counts the way the paper does (`6.54·10^8` style for
/// values above 10^5, plain integers below).
pub fn scientific(v: u128) -> String {
    if v < 100_000 {
        return v.to_string();
    }
    // The exponent is chosen after rounding: 999 999 is 1.00e6, not 10.00e5.
    let mantissa = |exp: u32| format!("{:.2}", v as f64 / 10f64.powi(exp as i32));
    let exp = v.ilog10();
    match mantissa(exp) {
        m if m.starts_with("10") => format!("{}e{}", mantissa(exp + 1), exp + 1),
        m => format!("{m}e{exp}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cells(cells: &[&str]) -> Vec<String> {
        cells.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn renders_aligned_columns() {
        let mut t = Table::new(&["dataset", "P", "R"]);
        t.row(&cells(&["Restaurant", "100.0", "100.0"]));
        t.row(&cells(&["Rexa-DBLP", "96.7", "95.3"]));
        let s = t.render();
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].starts_with("dataset"));
        assert!(lines[2].contains("100.0"));
        // All data lines align on the last column.
        let w = lines[2].len();
        assert_eq!(lines[3].len(), w);
    }

    #[test]
    fn separator_draws_a_line() {
        let mut t = Table::new(&["a", "b"]);
        t.row(&cells(&["x", "y"]))
            .separator()
            .row(&cells(&["z", "w"]));
        let s = t.render();
        assert_eq!(s.lines().count(), 5);
        assert_eq!(s.lines().filter(|l| l.starts_with('-')).count(), 2);
    }

    #[test]
    fn short_rows_are_padded() {
        let mut t = Table::new(&["a", "b", "c"]);
        t.row(&cells(&["only"]));
        let s = t.render();
        assert!(s.lines().count() == 3);
    }

    #[test]
    fn scientific_formatting() {
        assert_eq!(scientific(83), "83");
        assert_eq!(scientific(1800), "1800");
        assert_eq!(scientific(100_000), "1.00e5");
        assert_eq!(scientific(654_000_000), "6.54e8");
        assert_eq!(scientific(999_999), "1.00e6");
        assert_eq!(scientific(9_999_999), "1.00e7");
        assert_eq!(scientific(27_800_000_000_000), "2.78e13");
    }
}
