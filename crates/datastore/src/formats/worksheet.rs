//! "Worksheet" parser — the Excel stand-in.
//!
//! The paper lists Excel files among the supported uploads. Parsing
//! the binary XLS container adds nothing to the platform architecture,
//! so (per the substitution table in DESIGN.md) we accept a plain-text
//! worksheet dialect instead: optional `## sheet: <name>` header lines,
//! tab-separated cells, one sheet per block. Multiple sheets
//! concatenate when their headers match; otherwise the first sheet
//! wins and the rest are reported in [`Worksheet::skipped_sheets`].

use crate::error::StoreError;
use crate::formats::csv::{parse_delimited, Delimited};

/// A parsed worksheet file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct Worksheet {
    /// Name of the (first) sheet, or "Sheet1".
    pub sheet: String,
    /// Header + rows of the accepted sheet(s).
    pub data: Delimited,
    /// Sheets whose headers did not match the first sheet.
    pub skipped_sheets: Vec<String>,
}

/// Parse the worksheet dialect.
pub(crate) fn parse_worksheet(input: &str) -> Result<Worksheet, StoreError> {
    // Split into sheets on "## sheet:" marker lines.
    let mut sheets: Vec<(String, String)> = Vec::new();
    let mut current_name: Option<String> = None;
    let mut current = String::new();
    for line in input.lines() {
        if let Some(rest) = line.strip_prefix("## sheet:") {
            if current_name.is_some() || !current.trim().is_empty() {
                sheets.push((
                    current_name.take().unwrap_or_else(|| "Sheet1".into()),
                    std::mem::take(&mut current),
                ));
            }
            current_name = Some(rest.trim().to_string());
        } else {
            current.push_str(line);
            current.push('\n');
        }
    }
    if current_name.is_some() || !current.trim().is_empty() {
        sheets.push((current_name.unwrap_or_else(|| "Sheet1".into()), current));
    }
    if sheets.is_empty() {
        return Err(StoreError::Parse("worksheet: empty file".into()));
    }
    let (first_name, first_body) = &sheets[0];
    let mut data = parse_delimited(first_body, '\t')?;
    let mut skipped = Vec::new();
    for (name, body) in &sheets[1..] {
        match parse_delimited(body, '\t') {
            Ok(d) if d.names == data.names => data.rows.extend(d.rows),
            _ => skipped.push(name.clone()),
        }
    }
    Ok(Worksheet {
        sheet: first_name.clone(),
        data,
        skipped_sheets: skipped,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_unnamed_sheet() {
        let ws = parse_worksheet("a\tb\n1\t2\n").unwrap();
        assert_eq!(ws.sheet, "Sheet1");
        assert_eq!(ws.data.names, vec!["a", "b"]);
        assert_eq!(ws.data.rows, vec![vec!["1", "2"]]);
    }

    #[test]
    fn named_sheet() {
        let ws = parse_worksheet("## sheet: Inventory\nt\tp\nA\t9\n").unwrap();
        assert_eq!(ws.sheet, "Inventory");
        assert_eq!(ws.data.rows.len(), 1);
    }

    #[test]
    fn matching_sheets_concatenate() {
        let src = "## sheet: S1\nt\tp\nA\t1\n## sheet: S2\nt\tp\nB\t2\n";
        let ws = parse_worksheet(src).unwrap();
        assert_eq!(ws.data.rows.len(), 2);
        assert!(ws.skipped_sheets.is_empty());
    }

    #[test]
    fn mismatched_sheets_skipped_and_reported() {
        let src = "## sheet: S1\nt\tp\nA\t1\n## sheet: Other\nx\ty\tz\n1\t2\t3\n";
        let ws = parse_worksheet(src).unwrap();
        assert_eq!(ws.data.rows.len(), 1);
        assert_eq!(ws.skipped_sheets, vec!["Other"]);
    }

    #[test]
    fn empty_file_errors() {
        assert!(parse_worksheet("").is_err());
        assert!(parse_worksheet("   \n").is_err());
    }
}
