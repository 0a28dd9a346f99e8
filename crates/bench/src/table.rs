//! The fixed-width text table every figure report renders into, so each
//! report states its column layout once.

use std::fmt::Write as _;

/// A value in a table row. Text and integers print as they are, a float
/// at its column's precision; every cell is right-aligned to its column's
/// width. An empty string is a blank cell.
pub(crate) trait Cell {
    /// Appends the cell to `out`, right-aligned to `width`.
    fn write(&self, out: &mut String, width: usize, precision: usize);
}

macro_rules! exact_cells {
    ($($t:ty),*) => {$(
        impl Cell for $t {
            fn write(&self, out: &mut String, width: usize, _: usize) {
                let _ = write!(out, "{self:>width$}");
            }
        }
    )*};
}

exact_cells!(&str, String, u32, u64, usize, i64);

impl Cell for f64 {
    fn write(&self, out: &mut String, width: usize, precision: usize) {
        let _ = write!(out, "{self:>width$.precision$}");
    }
}

/// A report table: the `== title ==` line, one header of column names,
/// then rows and raw lines in order. Columns are separated by one space.
pub(crate) struct Table {
    title: String,
    /// Header, width and float precision of each column.
    columns: Vec<(String, usize, usize)>,
    /// The rows and raw lines so far, each ending in a newline.
    body: String,
}

impl Table {
    /// An empty table under `title`, with no columns yet.
    pub(crate) fn new(title: impl Into<String>) -> Self {
        Table {
            title: title.into(),
            columns: Vec::new(),
            body: String::new(),
        }
    }

    /// Adds a column: its `header`, `width` and float `precision`.
    pub(crate) fn col(mut self, header: impl ToString, width: usize, precision: usize) -> Self {
        self.columns.push((header.to_string(), width, precision));
        self
    }

    /// Adds one column per header in `headers`, all of one `width` and
    /// `precision`.
    pub(crate) fn cols<H: ToString>(
        self,
        headers: impl IntoIterator<Item = H>,
        width: usize,
        precision: usize,
    ) -> Self {
        headers
            .into_iter()
            .fold(self, |t, h| t.col(h, width, precision))
    }

    /// Appends a row, cell `i` in column `i`. A short row prints only its
    /// own cells.
    pub(crate) fn row(&mut self, cells: &[&dyn Cell]) {
        push_line(&mut self.body, &self.columns, cells);
    }

    /// Appends `line` as it is: a row whose layout the columns cannot
    /// state.
    pub(crate) fn raw(&mut self, line: String) {
        self.body += &line;
        self.body.push('\n');
    }

    /// The rendered table followed by `notes`, one line each.
    pub(crate) fn render(self, notes: &[&str]) -> String {
        let header: Vec<&dyn Cell> = self.columns.iter().map(|(h, ..)| h as &dyn Cell).collect();
        let mut out = format!("== {} ==\n", self.title);
        push_line(&mut out, &self.columns, &header);
        out += &self.body;
        for note in notes {
            out += note;
            out.push('\n');
        }
        out
    }
}

/// Appends `cells` to `out` laid out in `columns`, one space apart, and a
/// newline.
fn push_line(out: &mut String, columns: &[(String, usize, usize)], cells: &[&dyn Cell]) {
    assert!(cells.len() <= columns.len(), "more cells than columns");
    for (i, (cell, (_, width, precision))) in cells.iter().zip(columns).enumerate() {
        if i > 0 {
            out.push(' ');
        }
        cell.write(out, *width, *precision);
    }
    out.push('\n');
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn columns_state_the_layout_of_header_and_rows() {
        let mut t = Table::new("T")
            .col("name", 5, 0)
            .cols(["a", "b"], 6, 2)
            .col("n", 3, 0);
        t.row(&[&"x", &1.0f64, &-2.5f64, &7u32]);
        t.row(&[&"avg", &"", &0.5f64]);
        t.raw("  raw line".to_owned());
        let lines = [
            "== T ==",
            " name      a      b   n",
            "    x   1.00  -2.50   7",
            "  avg          0.50",
            "  raw line",
            "note",
            "",
        ];
        assert_eq!(t.render(&["note"]), lines.join("\n"));
    }

    #[test]
    fn an_overlong_cell_shifts_the_rest_of_its_row() {
        let mut t = Table::new("T").col("v", 3, 1).col("w", 2, 0);
        t.row(&[&12345.0f64, &1u64]);
        assert_eq!(t.render(&[]), "== T ==\n  v  w\n12345.0  1\n");
    }
}
