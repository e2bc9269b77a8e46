//! The ingestion pipeline.
//!
//! Paper §II-A, "Proprietary Data": *"It supports a variety of upload
//! methods (e.g., HTTP/FTP file upload, RSS feeds, or URL crawling),
//! as well as a variety of structured data formats (e.g., delimited
//! files, Excel files, and XML)."* This module implements exactly that
//! surface: a format registry, upload methods over byte payloads, RSS
//! ingestion, and a breadth-first crawler driven through the
//! [`PageFetcher`] trait (implemented by the synthetic web in
//! `symphony-web`).

use crate::error::StoreError;
use crate::formats::{csv, json, rss, worksheet, xml};
use crate::schema::Schema;
use crate::table::Table;
use std::collections::HashSet;

/// Structured data formats the pipeline understands.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DataFormat {
    /// Comma-separated values with a header row.
    Csv,
    /// Tab-separated values with a header row.
    Tsv,
    /// XML with repeated row elements.
    Xml,
    /// JSON array of objects (or `{"...": [...]}` envelope).
    Json,
    /// RSS 2.0 feed.
    Rss,
    /// Worksheet dialect (the Excel stand-in, see
    /// `formats::worksheet`).
    Worksheet,
}

impl DataFormat {
    /// Guess a format from a file name's extension.
    pub(crate) fn from_filename(name: &str) -> Option<DataFormat> {
        let ext = name.rsplit('.').next()?.to_lowercase();
        match ext.as_str() {
            "csv" | "txt" => Some(DataFormat::Csv),
            "tsv" => Some(DataFormat::Tsv),
            "xml" => Some(DataFormat::Xml),
            "json" => Some(DataFormat::Json),
            "rss" => Some(DataFormat::Rss),
            "xls" | "xlsx" | "ws" => Some(DataFormat::Worksheet),
            _ => None,
        }
    }
}

impl std::fmt::Display for DataFormat {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            DataFormat::Csv => "csv",
            DataFormat::Tsv => "tsv",
            DataFormat::Xml => "xml",
            DataFormat::Json => "json",
            DataFormat::Rss => "rss",
            DataFormat::Worksheet => "worksheet",
        };
        f.write_str(s)
    }
}

/// How the bytes arrived. HTTP and FTP uploads carry the payload
/// directly (the transfer itself is outside the reproduction's scope);
/// RSS and crawling fetch through the pipeline.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum UploadMethod {
    /// HTTP file upload.
    Http {
        /// Uploaded file name (used for format guessing).
        filename: String,
    },
    /// FTP file upload.
    Ftp {
        /// Uploaded file name (used for format guessing).
        filename: String,
    },
    /// Subscribe to an RSS feed URL.
    RssFeed {
        /// Feed URL.
        url: String,
    },
    /// Breadth-first crawl from a seed URL.
    UrlCrawl {
        /// Seed URL.
        seed: String,
        /// Page budget.
        max_pages: usize,
    },
}

/// Summary of one ingestion run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IngestReport {
    /// Format that was parsed.
    pub format: DataFormat,
    /// Rows stored.
    pub rows: usize,
    /// Rows or sheets skipped (with reasons).
    pub warnings: Vec<String>,
}

/// Parsed upload: `(column names, string rows, warnings)`.
pub(crate) type ParsedContent = (Vec<String>, Vec<Vec<String>>, Vec<String>);

/// Parse `content` in `format` into `(names, rows, warnings)`.
pub(crate) fn parse_content(
    content: &str,
    format: DataFormat,
) -> Result<ParsedContent, StoreError> {
    let mut warnings = Vec::new();
    let (names, rows) = match format {
        DataFormat::Csv => {
            let d = csv::parse_delimited(content, ',')?;
            (d.names, d.rows)
        }
        DataFormat::Tsv => {
            let d = csv::parse_delimited(content, '\t')?;
            (d.names, d.rows)
        }
        DataFormat::Xml => xml::records(&xml::parse(content)?)?,
        DataFormat::Json => json::records(&json::parse(content)?)?,
        DataFormat::Rss => rss::records(&rss::parse_feed(content)?),
        DataFormat::Worksheet => {
            let ws = worksheet::parse_worksheet(content)?;
            for s in ws.skipped_sheets {
                warnings.push(format!("skipped sheet with mismatched header: {s}"));
            }
            (ws.data.names, ws.data.rows)
        }
    };
    // A header that names a column twice has no schema.
    let mut seen = HashSet::new();
    if let Some(dup) = names.iter().find(|n| !seen.insert(n.as_str())) {
        return Err(StoreError::Parse(format!("duplicate column {dup:?}")));
    }
    Ok((names, rows, warnings))
}

/// Build a typed table named `table_name` from `content`: parse, infer
/// the schema, and load every row.
pub fn ingest(
    table_name: &str,
    content: &str,
    format: DataFormat,
) -> Result<(Table, IngestReport), StoreError> {
    let (names, rows, warnings) = parse_content(content, format)?;
    let schema = Schema::infer(&names, &rows);
    let mut table = Table::new(table_name, schema);
    for row in &rows {
        table.insert_raw(row);
    }
    let report = IngestReport {
        format,
        rows: table.len(),
        warnings,
    };
    Ok((table, report))
}

/// Ingest via an [`UploadMethod`]. File uploads guess the format from
/// the file name (falling back to `fallback` when the extension is
/// unknown); feed/crawl methods fetch through `fetcher`.
pub fn ingest_upload(
    table_name: &str,
    method: &UploadMethod,
    payload: Option<&str>,
    fallback: Option<DataFormat>,
    fetcher: Option<&dyn PageFetcher>,
) -> Result<(Table, IngestReport), StoreError> {
    match method {
        UploadMethod::Http { filename } | UploadMethod::Ftp { filename } => {
            let format = DataFormat::from_filename(filename)
                .or(fallback)
                .ok_or_else(|| StoreError::UnsupportedFormat(filename.clone()))?;
            let content = payload
                .ok_or_else(|| StoreError::Parse("file upload requires a payload".into()))?;
            ingest(table_name, content, format)
        }
        UploadMethod::RssFeed { url } => {
            let fetcher =
                fetcher.ok_or_else(|| StoreError::Parse("rss feed requires a fetcher".into()))?;
            let page = fetcher
                .fetch(url)
                .ok_or_else(|| StoreError::Parse(format!("feed not reachable: {url}")))?;
            ingest(table_name, &page.body, DataFormat::Rss)
        }
        UploadMethod::UrlCrawl { seed, max_pages } => {
            let fetcher =
                fetcher.ok_or_else(|| StoreError::Parse("crawl requires a fetcher".into()))?;
            Ok(crawl(table_name, seed, *max_pages, fetcher))
        }
    }
}

/// A fetched page, as the crawler sees it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FetchedPage {
    /// Final URL.
    pub url: String,
    /// Page title.
    pub title: String,
    /// Page body text (or raw feed XML for feed URLs).
    pub body: String,
    /// Outgoing links.
    pub links: Vec<String>,
}

/// Source of pages for the crawler. `symphony-web` implements this
/// over the synthetic corpus; tests implement it over fixtures.
pub trait PageFetcher {
    /// Fetch one URL; `None` means unreachable/404.
    fn fetch(&self, url: &str) -> Option<FetchedPage>;
}

/// Breadth-first crawl from `seed`, visiting at most `max_pages`
/// pages, producing a `url,title,body` table.
pub fn crawl(
    table_name: &str,
    seed: &str,
    max_pages: usize,
    fetcher: &dyn PageFetcher,
) -> (Table, IngestReport) {
    use crate::schema::{FieldDef, FieldType};
    let schema = Schema::new(vec![
        FieldDef {
            name: "url".into(),
            ty: FieldType::Url,
        },
        FieldDef {
            name: "title".into(),
            ty: FieldType::Text,
        },
        FieldDef {
            name: "body".into(),
            ty: FieldType::Text,
        },
    ]);
    let mut table = Table::new(table_name, schema);
    let mut warnings = Vec::new();
    let mut seen = std::collections::HashSet::new();
    let mut queue = std::collections::VecDeque::new();
    queue.push_back(seed.to_string());
    seen.insert(seed.to_string());
    while let Some(url) = queue.pop_front() {
        if table.len() >= max_pages {
            warnings.push(format!("page budget {max_pages} reached"));
            break;
        }
        let Some(page) = fetcher.fetch(&url) else {
            warnings.push(format!("unreachable: {url}"));
            continue;
        };
        table.insert(crate::table::Record::new(vec![
            crate::value::Value::Url(page.url.clone()),
            crate::value::Value::Text(page.title),
            crate::value::Value::Text(page.body),
        ]));
        for link in page.links {
            if seen.insert(link.clone()) {
                queue.push_back(link);
            }
        }
    }
    let rows = table.len();
    (
        table,
        IngestReport {
            format: DataFormat::Xml, // crawling has no file format; reported as markup
            rows,
            warnings,
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::FieldType;

    #[test]
    fn format_guessing() {
        assert_eq!(DataFormat::from_filename("inv.csv"), Some(DataFormat::Csv));
        assert_eq!(
            DataFormat::from_filename("inv.XLS"),
            Some(DataFormat::Worksheet)
        );
        assert_eq!(DataFormat::from_filename("inv.pdf"), None);
    }

    #[test]
    fn ingest_csv_infers_schema() {
        let (table, report) = ingest(
            "inv",
            "title,price\nGalactic Raiders,49.99\nFarm Story,19.99\n",
            DataFormat::Csv,
        )
        .unwrap();
        assert_eq!(report.rows, 2);
        assert_eq!(table.schema().fields()[1].ty, FieldType::Float);
    }

    #[test]
    fn ingest_json() {
        let (table, _) = ingest(
            "inv",
            r#"[{"title":"A","stock":3},{"title":"B","stock":5}]"#,
            DataFormat::Json,
        )
        .unwrap();
        assert_eq!(table.len(), 2);
        assert_eq!(table.schema().fields()[1].ty, FieldType::Int);
    }

    #[test]
    fn ingest_xml() {
        let (table, _) = ingest(
            "inv",
            "<inv><g><t>A</t><p>1.5</p></g><g><t>B</t><p>2.5</p></g></inv>",
            DataFormat::Xml,
        )
        .unwrap();
        assert_eq!(table.len(), 2);
    }

    #[test]
    fn upload_http_guesses_from_filename() {
        let method = UploadMethod::Http {
            filename: "games.csv".into(),
        };
        let (table, _) = ingest_upload("inv", &method, Some("t,p\nA,1\n"), None, None).unwrap();
        assert_eq!(table.len(), 1);
    }

    #[test]
    fn upload_unknown_extension_needs_fallback() {
        let method = UploadMethod::Ftp {
            filename: "games.dat".into(),
        };
        assert!(matches!(
            ingest_upload("inv", &method, Some("t\nA\n"), None, None),
            Err(StoreError::UnsupportedFormat(_))
        ));
        let ok = ingest_upload("inv", &method, Some("t\nA\n"), Some(DataFormat::Csv), None);
        assert!(ok.is_ok());
    }

    struct FixtureWeb;
    impl PageFetcher for FixtureWeb {
        fn fetch(&self, url: &str) -> Option<FetchedPage> {
            match url {
                "http://a" => Some(FetchedPage {
                    url: url.into(),
                    title: "A".into(),
                    body: "root page".into(),
                    links: vec!["http://b".into(), "http://c".into(), "http://a".into()],
                }),
                "http://b" => Some(FetchedPage {
                    url: url.into(),
                    title: "B".into(),
                    body: "leaf".into(),
                    links: vec![],
                }),
                _ => None,
            }
        }
    }

    #[test]
    fn crawl_bfs_dedupes_and_reports_unreachable() {
        let (table, report) = crawl("pages", "http://a", 10, &FixtureWeb);
        assert_eq!(table.len(), 2); // a and b; c unreachable
        assert!(report.warnings.iter().any(|w| w.contains("http://c")));
    }

    #[test]
    fn crawl_respects_budget() {
        let (table, report) = crawl("pages", "http://a", 1, &FixtureWeb);
        assert_eq!(table.len(), 1);
        assert!(report.warnings.iter().any(|w| w.contains("budget")));
    }

    #[test]
    fn rss_upload_via_fetcher() {
        struct FeedHost;
        impl PageFetcher for FeedHost {
            fn fetch(&self, url: &str) -> Option<FetchedPage> {
                (url == "http://feed").then(|| FetchedPage {
                    url: url.into(),
                    title: String::new(),
                    body: "<rss><channel><title>F</title>\
                           <item><title>X</title><link>http://x</link></item>\
                           </channel></rss>"
                        .into(),
                    links: vec![],
                })
            }
        }
        let method = UploadMethod::RssFeed {
            url: "http://feed".into(),
        };
        let (table, report) = ingest_upload("feed", &method, None, None, Some(&FeedHost)).unwrap();
        assert_eq!(report.rows, 1);
        assert_eq!(
            table.cell(crate::table::RecordId(0), "title").unwrap(),
            &crate::value::Value::Text("X".into())
        );
    }

    #[test]
    fn deeply_nested_uploads_are_rejected_not_fatal() {
        let json = "[".repeat(100_000);
        assert!(matches!(
            parse_content(&json, DataFormat::Json),
            Err(StoreError::Parse(_))
        ));
        let xml = "<a>".repeat(100_000);
        for format in [DataFormat::Xml, DataFormat::Rss] {
            assert!(matches!(
                parse_content(&xml, format),
                Err(StoreError::Parse(_))
            ));
        }
    }

    #[test]
    fn duplicate_columns_are_rejected() {
        for (text, format) in [
            ("a,b,a\n1,2,3\n", DataFormat::Csv),
            ("x\tx\n1\t2\n", DataFormat::Tsv),
        ] {
            let err = ingest("t", text, format).unwrap_err();
            assert!(err.to_string().contains("duplicate column"), "{err}");
        }
    }
}
