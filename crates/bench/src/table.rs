//! Plain-text table rendering for experiment output.

/// A simple fixed-width text table, printed by every figure/table bench so
//  experiment output is easy to eyeball and diff.
/// Columns are sized to their widest cell.
///
/// # Example
///
/// ```
/// use opprox_bench::TextTable;
///
/// let mut t = TextTable::new(vec!["app".into(), "speedup".into()]);
/// t.add_row(vec!["LULESH".into(), "1.28".into()]);
/// let s = t.render();
/// assert!(s.contains("LULESH"));
/// assert!(s.contains("speedup"));
/// ```
#[derive(Debug, Clone)]
pub struct TextTable {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl TextTable {
    /// Creates a table with the given column headers.
    pub fn new(header: Vec<String>) -> Self {
        TextTable {
            header,
            rows: Vec::new(),
        }
    }

    /// Appends a data row. Rows shorter than the header are padded with
    /// empty cells; longer rows are truncated.
    pub fn add_row(&mut self, mut row: Vec<String>) {
        row.resize(self.header.len(), String::new());
        self.rows.push(row);
    }

    /// Renders the table with aligned columns.
    pub fn render(&self) -> String {
        let cols = self.header.len();
        let mut widths: Vec<usize> = self.header.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (w, cell) in widths.iter_mut().zip(row.iter()) {
                *w = (*w).max(cell.len());
            }
        }
        let mut out = String::new();
        let fmt_row = |cells: &[String], widths: &[usize]| -> String {
            let mut line = String::new();
            for (c, &width) in widths.iter().enumerate().take(cols) {
                if c > 0 {
                    line.push_str("  ");
                }
                let cell = cells.get(c).map(String::as_str).unwrap_or("");
                line.push_str(&format!("{cell:<width$}"));
            }
            line.trim_end().to_string()
        };
        out.push_str(&fmt_row(&self.header, &widths));
        out.push('\n');
        let total: usize = widths.iter().sum::<usize>() + 2 * (cols.saturating_sub(1));
        out.push_str(&"-".repeat(total));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row, &widths));
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned_columns() {
        let mut t = TextTable::new(vec!["a".into(), "long-header".into()]);
        t.add_row(vec!["xxxx".into(), "1".into()]);
        let s = t.render();
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 3);
        assert!(lines[0].starts_with("a     long-header"));
        assert!(lines[2].starts_with("xxxx  1"));
    }

    #[test]
    fn pads_and_truncates_rows() {
        let mut t = TextTable::new(vec!["a".into(), "b".into()]);
        t.add_row(vec!["1".into()]);
        t.add_row(vec!["1".into(), "2".into(), "3".into()]);
        let s = t.render();
        assert_eq!(s.lines().count(), 4, "header, rule and two rows");
        assert!(!s.contains('3'));
    }
}
