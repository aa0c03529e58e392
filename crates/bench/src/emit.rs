//! Plain-text table and CSV emission for experiment binaries.

/// A simple fixed-width text table, printed like the paper's tables.
#[derive(Debug, Clone, Default)]
pub struct Table {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with the given column headers.
    pub fn new<S: Into<String>, I: IntoIterator<Item = S>>(header: I) -> Self {
        Self {
            header: header.into_iter().map(Into::into).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row (must match the header length).
    ///
    /// # Panics
    ///
    /// Panics if the row length differs from the header length.
    pub fn row<S: Into<String>, I: IntoIterator<Item = S>>(&mut self, cells: I) {
        let row: Vec<String> = cells.into_iter().map(Into::into).collect();
        assert_eq!(row.len(), self.header.len(), "row/header length mismatch");
        self.rows.push(row);
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True when the table has no data rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Renders the table with aligned columns.
    pub fn render(&self) -> String {
        let cols = self.header.len();
        let mut widths: Vec<usize> = self.header.iter().map(String::len).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let mut out = String::new();
        let emit_row = |out: &mut String, cells: &[String]| {
            for (i, cell) in cells.iter().enumerate() {
                out.push_str(&format!("{:>w$}", cell, w = widths[i]));
                if i + 1 < cols {
                    out.push_str("  ");
                }
            }
            out.push('\n');
        };
        emit_row(&mut out, &self.header);
        let total: usize = widths.iter().sum::<usize>() + 2 * (cols - 1);
        out.push_str(&"-".repeat(total));
        out.push('\n');
        for row in &self.rows {
            emit_row(&mut out, row);
        }
        out
    }
}

/// A minimal JSON object builder for benchmark-baseline artefacts
/// (`BENCH_*.json`): insertion-ordered keys, no external dependencies.
#[derive(Debug, Clone, Default)]
pub struct JsonObject {
    fields: Vec<(String, String)>,
}

impl JsonObject {
    /// An empty object.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a string field.
    pub fn string(&mut self, key: &str, value: &str) -> &mut Self {
        self.push_raw(key, format!("\"{}\"", escape_json(value)))
    }

    /// Adds a numeric field (serialized with full precision; non-finite
    /// values become `null`).
    pub fn number(&mut self, key: &str, value: f64) -> &mut Self {
        let rendered = if value.is_finite() {
            format!("{value}")
        } else {
            "null".to_string()
        };
        self.push_raw(key, rendered)
    }

    /// Adds an integer field.
    pub fn integer(&mut self, key: &str, value: u64) -> &mut Self {
        self.push_raw(key, value.to_string())
    }

    /// Adds a boolean field.
    pub fn boolean(&mut self, key: &str, value: bool) -> &mut Self {
        self.push_raw(key, value.to_string())
    }

    /// Adds an array of already-rendered JSON values (e.g. nested
    /// objects).
    pub fn array(&mut self, key: &str, values: &[String]) -> &mut Self {
        self.push_raw(key, format!("[{}]", values.join(",")))
    }

    fn push_raw(&mut self, key: &str, rendered: String) -> &mut Self {
        self.fields.push((escape_json(key), rendered));
        self
    }

    /// Renders the object as a single-line JSON string.
    pub fn render(&self) -> String {
        let body: Vec<String> = self
            .fields
            .iter()
            .map(|(k, v)| format!("\"{k}\":{v}"))
            .collect();
        format!("{{{}}}", body.join(","))
    }
}

fn escape_json(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Formats picoseconds as nanoseconds with three digits, as the paper's
/// tables do.
pub fn ps_as_ns(ps: f64) -> String {
    format!("{:.3}", ps / 1000.0)
}

/// Formats a ratio as a percentage with one digit.
pub fn pct(x: f64) -> String {
    format!("{x:.1}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_aligns_columns() {
        let mut t = Table::new(["name", "value"]);
        t.row(["a", "1"]);
        t.row(["long-name", "22"]);
        let s = t.render();
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].contains("name"));
        assert!(!t.is_empty());
        assert_eq!(t.len(), 2);
    }

    #[test]
    #[should_panic(expected = "row/header length mismatch")]
    fn row_length_checked() {
        let mut t = Table::new(["a", "b"]);
        t.row(["only-one"]);
    }

    #[test]
    fn formatters() {
        assert_eq!(ps_as_ns(3490.0), "3.490");
        assert_eq!(pct(10.03), "10.0");
    }

    #[test]
    fn json_object_renders_ordered_fields() {
        let mut inner = JsonObject::new();
        inner
            .string("name", "convolve/64")
            .number("median_ns", 1250.5);
        let mut obj = JsonObject::new();
        obj.string("bench", "dist_ops")
            .integer("sizes", 3)
            .array("results", &[inner.render()]);
        assert_eq!(
            obj.render(),
            "{\"bench\":\"dist_ops\",\"sizes\":3,\
             \"results\":[{\"name\":\"convolve/64\",\"median_ns\":1250.5}]}"
        );
    }

    #[test]
    fn json_escapes_special_characters() {
        let mut obj = JsonObject::new();
        obj.string("k", "a\"b\\c\nd");
        assert_eq!(obj.render(), "{\"k\":\"a\\\"b\\\\c\\nd\"}");
        let mut nan = JsonObject::new();
        nan.number("x", f64::NAN);
        assert_eq!(nan.render(), "{\"x\":null}");
    }
}
