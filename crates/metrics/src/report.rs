//! Plain-text and CSV tables for the figure harness.

/// A simple column-aligned table.
#[derive(Debug, Clone, PartialEq)]
pub struct Table {
    title: String,
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates an empty table with a title and column headers.
    pub fn new(title: impl Into<String>, headers: &[&str]) -> Table {
        Table {
            title: title.into(),
            headers: headers.iter().map(|h| h.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// The table title.
    pub fn title(&self) -> &str {
        &self.title
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True when the table has no data rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Appends a row.  Missing cells are padded with empty strings, extra
    /// cells are kept (and widen the table).
    pub fn push_row(&mut self, cells: Vec<String>) {
        self.rows.push(cells);
    }

    /// Renders the table as aligned plain text.
    pub fn to_text(&self) -> String {
        let columns = self
            .headers
            .len()
            .max(self.rows.iter().map(|r| r.len()).max().unwrap_or(0));
        let mut widths = vec![0usize; columns];
        for (i, h) in self.headers.iter().enumerate() {
            widths[i] = widths[i].max(h.len());
        }
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let render_row = |cells: &[String]| -> String {
            let mut line = String::new();
            for (i, width) in widths.iter().enumerate() {
                let cell = cells.get(i).map(String::as_str).unwrap_or("");
                line.push_str(&format!("{cell:>width$}  "));
            }
            line.trim_end().to_string()
        };

        let mut out = String::new();
        out.push_str(&format!("# {}\n", self.title));
        out.push_str(&render_row(&self.headers));
        out.push('\n');
        out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * widths.len()));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&render_row(row));
            out.push('\n');
        }
        out
    }

    /// Renders the table as CSV (header row first).
    pub fn to_csv(&self) -> String {
        let escape = |cell: &str| -> String {
            if cell.contains(',') || cell.contains('"') || cell.contains('\n') {
                format!("\"{}\"", cell.replace('"', "\"\""))
            } else {
                cell.to_string()
            }
        };
        let mut out = String::new();
        out.push_str(
            &self
                .headers
                .iter()
                .map(|h| escape(h))
                .collect::<Vec<_>>()
                .join(","),
        );
        out.push('\n');
        for row in &self.rows {
            out.push_str(&row.iter().map(|c| escape(c)).collect::<Vec<_>>().join(","));
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_table() -> Table {
        let mut t = Table::new("Figure 7", &["nodes", "normal", "fast", "reduction"]);
        t.push_row(vec![
            "100".into(),
            "13.2".into(),
            "10.4".into(),
            "0.21".into(),
        ]);
        t.push_row(vec![
            "8000".into(),
            "33.0".into(),
            "23.1".into(),
            "0.30".into(),
        ]);
        t
    }

    #[test]
    fn text_rendering_is_aligned() {
        let text = sample_table().to_text();
        assert!(text.starts_with("# Figure 7\n"));
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 5, "title, header, separator and two rows");
        assert!(lines[1].contains("nodes"));
        assert!(lines[4].contains("8000"));
        // All data lines have the same width.
        assert_eq!(lines[3].len(), lines[4].len());
    }

    #[test]
    fn csv_rendering_and_escaping() {
        let mut t = sample_table();
        t.push_row(vec!["has,comma".into(), "has\"quote".into()]);
        let csv = t.to_csv();
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines[0], "nodes,normal,fast,reduction");
        assert_eq!(lines[1], "100,13.2,10.4,0.21");
        assert_eq!(lines[3], "\"has,comma\",\"has\"\"quote\"");
    }

    #[test]
    fn bookkeeping_and_display_rows() {
        let mut t = Table::new("t", &["a", "b"]);
        assert!(t.is_empty());
        t.push_row(vec!["1".into(), "2.5".into()]);
        assert_eq!(t.len(), 1);
        assert!(!t.is_empty());
        assert_eq!(t.title(), "t");
        assert!(t.to_text().contains("2.5"));
    }
}
