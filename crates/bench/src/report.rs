//! Table output for the experiment harness binaries.
//!
//! Every `exp_*` binary prints the same shape of report — an
//! `EXPERIMENTS.md` title, a fixed-width column header, data rows, a
//! trailing note — and each used to carry its own copy of the column
//! widths in parallel `println!` format strings, one for the header
//! and one per row kind. A [`Table`] holds the column spec (name,
//! width, alignment) exactly once, so the header and the rows it
//! prints cannot disagree.
//!
//! Cells arrive pre-formatted (`fmt_duration`, `format!("{:.3}", x)`)
//! because precision is per-experiment; only widths and alignment
//! live here.
#![expect(clippy::print_stdout, reason = "this module IS the sanctioned stdout channel")]

/// Cell alignment within a fixed-width column.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Align {
    /// Pad on the right (labels, names).
    Left,
    /// Pad on the left (numbers, durations).
    Right,
}

/// A fixed-width text table bound to stdout.
#[derive(Debug, Clone)]
pub struct Table {
    cols: Vec<(String, usize, Align)>,
    indent: usize,
}

impl Table {
    /// A table from `(name, width, alignment)` column specs.
    pub fn new(cols: &[(&str, usize, Align)]) -> Table {
        Table::indented(0, cols)
    }

    /// A table whose every line is indented by `indent` spaces (for
    /// per-section sub-tables, as in E2).
    pub fn indented(indent: usize, cols: &[(&str, usize, Align)]) -> Table {
        Table {
            cols: cols.iter().map(|(n, w, a)| (n.to_string(), *w, *a)).collect(),
            indent,
        }
    }

    /// Print the header row (the column names, in the column widths).
    pub fn header(&self) {
        let names: Vec<&str> = self.cols.iter().map(|(n, _, _)| n.as_str()).collect();
        println!("{}", self.line(&names));
    }

    /// Print one data row of pre-formatted cells. Missing trailing
    /// cells print empty; extra cells are ignored.
    pub fn row<S: AsRef<str>>(&self, cells: &[S]) {
        println!("{}", self.line(cells));
    }

    /// Render one line: each cell padded to its column width, columns
    /// separated by one space, trailing whitespace trimmed.
    fn line<S: AsRef<str>>(&self, cells: &[S]) -> String {
        let mut out = " ".repeat(self.indent);
        for (i, (_, width, align)) in self.cols.iter().enumerate() {
            let cell = cells.get(i).map(|c| c.as_ref()).unwrap_or("");
            if i > 0 {
                out.push(' ');
            }
            match align {
                Align::Left => out.push_str(&format!("{cell:<width$}")),
                Align::Right => out.push_str(&format!("{cell:>width$}")),
            }
        }
        out.truncate(out.trim_end().len());
        out
    }
}

/// Print the experiment headline (followed by a blank line).
pub fn title(text: &str) {
    println!("{text}\n");
}

/// Print a free-form report line (section labels, footnotes).
pub fn note(text: &str) {
    println!("{text}");
}

/// Print a blank separator line.
pub fn blank() {
    println!();
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> Table {
        Table::new(&[("kernel", 8, Align::Left), ("rows", 6, Align::Right), ("t", 9, Align::Right)])
    }

    #[test]
    fn header_and_rows_share_widths() {
        let t = spec();
        assert_eq!(t.line(&["kernel", "rows", "t"]), "kernel     rows         t");
        assert_eq!(t.line(&["select", "1024", "1.20 ms"]), "select     1024   1.20 ms");
        // Same physical column boundaries in both lines.
        assert_eq!(
            t.line(&["kernel", "rows", "t"]).len(),
            t.line(&["select", "1024", "1.20 ms"]).len()
        );
    }

    #[test]
    fn missing_cells_render_empty_and_trim() {
        let t = spec();
        assert_eq!(t.line(&["only"]), "only");
        let none: [&str; 0] = [];
        assert_eq!(t.line(&none), "");
    }

    #[test]
    fn indent_prefixes_every_line() {
        let t = Table::indented(2, &[("a", 3, Align::Right)]);
        assert_eq!(t.line(&["x"]), "    x");
    }

    #[test]
    fn overwide_cells_are_not_truncated() {
        let t = Table::new(&[("n", 3, Align::Right)]);
        assert_eq!(t.line(&["123456"]), "123456");
    }
}
