//! Plain-text table rendering for experiment reports.

use core::fmt;

/// A simple column-aligned table with ASCII and CSV renderers, used by the
/// `repro` binary to print each figure's data series.
///
/// # Examples
///
/// ```
/// use hmc_stats::Table;
///
/// let mut t = Table::new(["pattern", "bw (GB/s)"]);
/// t.row(["1 bank", "2.1"]);
/// t.row(["16 vaults", "23.0"]);
/// let ascii = t.to_ascii();
/// assert!(ascii.contains("16 vaults"));
/// let csv = t.to_csv();
/// assert!(csv.starts_with("pattern,bw (GB/s)\n"));
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Table {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with the given column headers.
    pub fn new<I, S>(headers: I) -> Table
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        Table {
            headers: headers.into_iter().map(Into::into).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends one row.
    ///
    /// # Panics
    ///
    /// Panics if the row width differs from the header width.
    pub fn row<I, S>(&mut self, cells: I) -> &mut Table
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        let cells: Vec<String> = cells.into_iter().map(Into::into).collect();
        assert_eq!(
            cells.len(),
            self.headers.len(),
            "row width must match header"
        );
        self.rows.push(cells);
        self
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// `true` if the table has no data rows.
    ///
    /// Kept public beside `len`, as clippy's `len_without_is_empty` asks.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Renders a column-aligned ASCII table.
    pub fn to_ascii(&self) -> String {
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.chars().count()).collect();
        for row in &self.rows {
            for (w, cell) in widths.iter_mut().zip(row) {
                *w = (*w).max(cell.chars().count());
            }
        }
        let mut out = String::new();
        let render_row = |cells: &[String], widths: &[usize], out: &mut String| {
            for (i, (cell, w)) in cells.iter().zip(widths).enumerate() {
                if i > 0 {
                    out.push_str("  ");
                }
                out.push_str(cell);
                for _ in cell.chars().count()..*w {
                    out.push(' ');
                }
            }
            // Trim trailing padding.
            while out.ends_with(' ') {
                out.pop();
            }
            out.push('\n');
        };
        render_row(&self.headers, &widths, &mut out);
        let rule_len = widths.iter().sum::<usize>() + 2 * widths.len().saturating_sub(1);
        out.push_str(&"-".repeat(rule_len));
        out.push('\n');
        for row in &self.rows {
            render_row(row, &widths, &mut out);
        }
        out
    }

    /// Renders the table as a JSON object
    /// (`{"headers": [...], "rows": [[...], ...]}`), for machine-readable
    /// experiment dumps. Serde is deliberately not used: the workspace
    /// builds offline, so serialization is hand-rolled here with full
    /// string escaping ([`json_escape`]).
    ///
    /// Every cell is emitted as a JSON *string*, so the document is
    /// well-formed regardless of cell content — a `NaN` formatted into a
    /// cell yields the (valid, if unhelpful) string `"NaN"`, never a bare
    /// `NaN` token. Emitters that build JSON *numbers* by hand (tables
    /// built from float aggregates, the perfgate harness) must go through
    /// [`json_f64`], which serializes non-finite values as `null`: a
    /// zero-completion port's mean latency is `NaN`, and a bare `NaN` in
    /// a numeric position is invalid JSON.
    pub fn to_json(&self) -> String {
        let arr = |cells: &[String]| -> String {
            let quoted: Vec<String> = cells
                .iter()
                .map(|c| format!("\"{}\"", json_escape(c)))
                .collect();
            format!("[{}]", quoted.join(","))
        };
        let rows: Vec<String> = self.rows.iter().map(|r| arr(r)).collect();
        format!(
            "{{\"headers\":{},\"rows\":[{}]}}",
            arr(&self.headers),
            rows.join(",")
        )
    }

    /// Renders RFC-4180-ish CSV (quotes cells containing commas, quotes or
    /// newlines).
    pub fn to_csv(&self) -> String {
        fn escape(cell: &str) -> String {
            if cell.contains([',', '"', '\n']) {
                format!("\"{}\"", cell.replace('"', "\"\""))
            } else {
                cell.to_owned()
            }
        }
        let mut out = String::new();
        let mut push_row = |cells: &[String]| {
            let line: Vec<String> = cells.iter().map(|c| escape(c)).collect();
            out.push_str(&line.join(","));
            out.push('\n');
        };
        push_row(&self.headers);
        for row in &self.rows {
            push_row(row);
        }
        out
    }
}

/// Formats a float for a JSON *number* position with `decimals` fraction
/// digits, serializing non-finite values (`NaN`, `±inf` — e.g. the mean
/// latency of a port that completed nothing) as `null`: a bare `NaN`
/// token is invalid JSON and silently breaks every downstream parser.
///
/// # Examples
///
/// ```
/// use hmc_stats::json_f64;
///
/// assert_eq!(json_f64(1.25, 2), "1.25");
/// assert_eq!(json_f64(f64::NAN, 3), "null");
/// assert_eq!(json_f64(f64::INFINITY, 0), "null");
/// ```
pub fn json_f64(v: f64, decimals: usize) -> String {
    if v.is_finite() {
        format!("{v:.decimals$}")
    } else {
        "null".to_owned()
    }
}

/// Escapes a string for inclusion inside a JSON string literal.
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out
}

impl fmt::Display for Table {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_ascii())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ascii_aligns_columns() {
        let mut t = Table::new(["a", "long header"]);
        t.row(["wide cell value", "1"]);
        let text = t.to_ascii();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 3);
        // The second column starts at the same offset in header and data.
        let h = lines[0].find("long header").unwrap();
        let d = lines[2].find('1').unwrap();
        assert_eq!(h, d);
    }

    #[test]
    fn csv_escapes_special_cells() {
        let mut t = Table::new(["x"]);
        t.row(["a,b"]);
        t.row(["say \"hi\""]);
        let csv = t.to_csv();
        assert!(csv.contains("\"a,b\""));
        assert!(csv.contains("\"say \"\"hi\"\"\""));
    }

    #[test]
    #[should_panic(expected = "row width")]
    fn row_width_is_validated() {
        let mut t = Table::new(["a", "b"]);
        t.row(["only one"]);
    }

    #[test]
    fn len_and_empty() {
        let mut t = Table::new(["a"]);
        assert!(t.is_empty());
        t.row(["1"]);
        assert_eq!(t.len(), 1);
        assert!(!t.is_empty());
    }

    #[test]
    fn display_matches_ascii() {
        let mut t = Table::new(["h"]);
        t.row(["v"]);
        assert_eq!(t.to_string(), t.to_ascii());
    }

    #[test]
    fn json_round_trips_structure_and_escapes() {
        let mut t = Table::new(["name", "value"]);
        t.row(["say \"hi\"", "1"]);
        t.row(["line\nbreak", "2"]);
        let json = t.to_json();
        assert_eq!(
            json,
            "{\"headers\":[\"name\",\"value\"],\"rows\":[[\"say \\\"hi\\\"\",\"1\"],[\"line\\nbreak\",\"2\"]]}"
        );
    }

    #[test]
    fn json_escape_covers_control_chars() {
        assert_eq!(json_escape("a\\b\t\u{1}"), "a\\\\b\\t\\u0001");
    }

    use crate::validate_json;

    fn assert_parses(doc: &str) {
        validate_json(doc).unwrap_or_else(|e| panic!("invalid JSON: {e}\n{doc}"));
    }

    #[test]
    fn json_f64_serializes_non_finite_as_null() {
        assert_eq!(json_f64(2.5, 3), "2.500");
        assert_eq!(json_f64(-0.125, 2), "-0.12");
        assert_eq!(json_f64(f64::NAN, 2), "null");
        assert_eq!(json_f64(f64::INFINITY, 2), "null");
        assert_eq!(json_f64(f64::NEG_INFINITY, 2), "null");
    }

    #[test]
    fn numeric_documents_with_non_finite_inputs_still_parse() {
        // The audit case: a zero-completion port's mean latency is NaN.
        // Emitted naively into a numeric position it breaks the document;
        // through json_f64 it becomes null and the document parses.
        let mean = f64::NAN;
        let naive = format!("{{\"mean_ns\":{mean:.2}}}");
        assert!(validate_json(&naive).is_err(), "bare NaN must not parse");
        let fixed = format!("{{\"mean_ns\":{}}}", json_f64(mean, 2));
        assert_parses(&fixed);
        assert!(fixed.contains("null"));
    }

    #[test]
    fn table_json_always_parses_even_with_nan_cells() {
        // Table cells are JSON strings, so even a formatted NaN stays a
        // valid (string) token — locked down by the parser.
        let mut t = Table::new(["latency (ns)", "note"]);
        t.row([format!("{:.1}", f64::NAN), "say \"hi\"\n".to_owned()]);
        t.row([json_f64(f64::NAN, 1), "null-cell form".to_owned()]);
        assert_parses(&t.to_json());
    }

    #[test]
    fn accessors_expose_contents() {
        let mut t = Table::new(["a"]);
        t.row(["x"]);
        assert_eq!(t.len(), 1);
        assert_eq!(t.to_ascii(), "a\n-\nx\n");
    }
}
