//! Property-based tests for the store substrate.

use proptest::prelude::*;
use symphony_store::filter::{CmpOp, Filter};
use symphony_store::formats::csv::{parse_delimited, to_csv};
use symphony_store::formats::json;
use symphony_store::formats::xml;
use symphony_store::indexed::{IndexedTable, TableQuery};
use symphony_store::ingest::{ingest, DataFormat};
use symphony_store::schema::{FieldType, Schema};
use symphony_store::table::{Record, Table};
use symphony_store::value::Value;
use symphony_store::IndexKind;

/// Cells without exotic control characters (CSV spec allows them, but
/// the writer only guarantees the printable + quoted subset).
fn cell() -> impl Strategy<Value = String> {
    "[ -~]{0,12}"
}

proptest! {
    /// CSV write -> parse is the identity on rows.
    #[test]
    fn csv_roundtrip(
        names in proptest::collection::vec("[a-z]{1,8}", 1..5),
        rows in proptest::collection::vec(proptest::collection::vec(cell(), 1..5), 0..10),
    ) {
        // Make names unique and rows rectangular to match writer
        // expectations.
        let names: Vec<String> = names
            .into_iter()
            .enumerate()
            .map(|(i, n)| format!("{n}{i}"))
            .collect();
        let width = names.len();
        let rows: Vec<Vec<String>> = rows
            .into_iter()
            .map(|mut r| {
                r.resize(width, String::new());
                r
            })
            // A row of all-empty cells round-trips to a skipped blank
            // line; exclude it (documented writer behaviour).
            .filter(|r| r.iter().any(|c| !c.is_empty()))
            .collect();
        let text = to_csv(&names, &rows);
        let parsed = parse_delimited(&text, ',').unwrap();
        prop_assert_eq!(parsed.names, names);
        prop_assert_eq!(parsed.rows, rows);
    }

    /// JSON serialize -> parse is the identity.
    #[test]
    fn json_roundtrip(v in json_value(3)) {
        let text = json::to_string(&v);
        let back = json::parse(&text).unwrap();
        prop_assert_eq!(back, v);
    }

    /// XML escape -> unescape is the identity.
    #[test]
    fn xml_escape_roundtrip(s in "\\PC{0,40}") {
        prop_assert_eq!(xml::unescape(&xml::escape(&s)), s);
    }

    /// Value sniffing never panics and display text reparses to an
    /// equal value for non-text types.
    #[test]
    fn value_sniff_display_stable(s in "\\PC{0,30}") {
        let v = Value::sniff(&s);
        let again = Value::sniff(&v.display_string());
        match &v {
            Value::Text(_) | Value::Null => {}
            _ => prop_assert_eq!(
                v.cmp_total(&again),
                std::cmp::Ordering::Equal,
                "{:?} vs {:?}", v, again
            ),
        }
    }

    /// An indexed equality query returns exactly what a full scan
    /// returns, for any data distribution.
    #[test]
    fn index_matches_scan(
        keys in proptest::collection::vec(0i64..5, 1..40),
        probe in 0i64..5,
    ) {
        let schema = Schema::of(&[("k", FieldType::Int)]);
        let mut hash = IndexedTable::new(Table::new("t", schema.clone()));
        let mut plain = IndexedTable::new(Table::new("t", schema));
        hash.create_index("k", IndexKind::Hash).unwrap();
        for k in &keys {
            hash.insert(Record::new(vec![Value::Int(*k)]));
            plain.insert(Record::new(vec![Value::Int(*k)]));
        }
        let q = TableQuery::filtered(Filter::eq(0, Value::Int(probe)));
        let a: Vec<_> = hash.query(&q).iter().map(|(id, _)| *id).collect();
        let b: Vec<_> = plain.query(&q).iter().map(|(id, _)| *id).collect();
        prop_assert_eq!(a, b);
    }

    /// Range queries on an ordered index agree with scans too.
    #[test]
    fn range_index_matches_scan(
        keys in proptest::collection::vec(-20i64..20, 1..40),
        lo in -20i64..20,
        span in 0i64..15,
    ) {
        let schema = Schema::of(&[("k", FieldType::Int)]);
        let mut ordered = IndexedTable::new(Table::new("t", schema.clone()));
        let mut plain = IndexedTable::new(Table::new("t", schema));
        ordered.create_index("k", IndexKind::Ordered).unwrap();
        for k in &keys {
            ordered.insert(Record::new(vec![Value::Int(*k)]));
            plain.insert(Record::new(vec![Value::Int(*k)]));
        }
        let f = Filter::cmp(0, CmpOp::Ge, Value::Int(lo))
            .and(Filter::cmp(0, CmpOp::Lt, Value::Int(lo + span)));
        let q = TableQuery::filtered(f);
        let a: Vec<_> = ordered.query(&q).iter().map(|(id, _)| *id).collect();
        let b: Vec<_> = plain.query(&q).iter().map(|(id, _)| *id).collect();
        prop_assert_eq!(a, b);
    }

    /// Plan invariance of the hybrid engine: filter-first (doc-set
    /// pushdown), search-first (over-fetch + post-filter refill), and
    /// scan (exhaustive closure) return bit-identical `(record, score)`
    /// lists over random corpora, filters, selectivities, and k — and
    /// the planner's own unforced choice matches too. Also pins the
    /// fused plan+execute path: filters whose shape defeats the planner
    /// (Or/Not around the indexed column) must degrade to a scan, never
    /// panic. Then writes are interleaved with repeats of the same
    /// query: the table memoises the filter's doc set between writes,
    /// and a set that outlived an insert / update / delete (or a
    /// maintenance tick) would show as a divergence from the scan.
    #[test]
    fn hybrid_plan_invariance(
        rows in proptest::collection::vec(
            ("[ab]{2,3}( [ab]{2,3}){0,5}", 0i64..40, any::<bool>()),
            1..60,
        ),
        needle in proptest::collection::vec("[ab]{2,3}", 1..3),
        lo in 0i64..40,
        span in 0i64..40,
        wrap in 0u8..3,
        k in 1usize..8,
        writes in proptest::collection::vec(
            (0u8..4, 0usize..60, "[ab]{2,3}( [ab]{2,3}){0,5}", 0i64..40),
            0..6,
        ),
    ) {
        use symphony_store::hybrid::{HybridPlan, HybridQuery};
        use symphony_store::table::RecordId;

        let schema = Schema::of(&[
            ("body", FieldType::Text),
            ("price", FieldType::Int),
            ("in_stock", FieldType::Bool),
        ]);
        let mut it = IndexedTable::new(Table::new("t", schema));
        it.create_index("price", IndexKind::Ordered).unwrap();
        it.create_index("in_stock", IndexKind::Hash).unwrap();
        for (body, price, in_stock) in &rows {
            it.insert(Record::new(vec![
                Value::Text(body.clone()),
                Value::Int(*price),
                Value::Bool(*in_stock),
            ]));
        }
        it.enable_fulltext(&[("body", 1.0)]).unwrap();
        it.optimize_fulltext();

        let base = Filter::cmp(1, CmpOp::Ge, Value::Int(lo))
            .and(Filter::cmp(1, CmpOp::Lt, Value::Int(lo + span)));
        let filter = match wrap {
            // Planner-friendly conjunction.
            0 => base,
            // Disjunction: no usable conjunct — must degrade, not panic.
            1 => base.or(Filter::eq(2, Value::Bool(true))),
            // Negation wrapper: same.
            _ => base.not(),
        };
        let q = HybridQuery::new(
            symphony_text::Query::parse(&needle.join(" ")),
            filter,
            k,
        );
        let key = |r: &symphony_store::HybridResult| {
            r.hits.iter().map(|h| (h.record, h.score.to_bits())).collect::<Vec<_>>()
        };
        let ff = it.hybrid_query_planned(&q, Some(HybridPlan::FilterFirst)).unwrap();
        let sf = it.hybrid_query_planned(&q, Some(HybridPlan::SearchFirst)).unwrap();
        let sc = it.hybrid_query_planned(&q, Some(HybridPlan::Scan)).unwrap();
        let planned = it.hybrid_query(&q).unwrap();
        prop_assert_eq!(key(&ff), key(&sc));
        prop_assert_eq!(key(&sf), key(&sc));
        prop_assert_eq!(key(&planned), key(&sc));
        // The forced filter-first run resolved the set; nothing was
        // written since, so the planner's run reused it.
        prop_assert!(!ff.explain.set_reused);
        prop_assert_eq!(planned.explain.plan, HybridPlan::FilterFirst);
        prop_assert!(planned.explain.set_reused);
        prop_assert_eq!(planned.explain.set_len, ff.explain.set_len);

        let mut now_ms = 0;
        for (kind, at, body, price) in writes {
            let id = RecordId((at % rows.len()) as u32);
            let record = Record::new(vec![
                Value::Text(body),
                Value::Int(price),
                Value::Bool(price % 2 == 0),
            ]);
            match kind {
                0 => {
                    it.insert(record);
                }
                // (Either may name a row an earlier write deleted.)
                1 => {
                    it.update(id, record);
                }
                2 => {
                    it.delete(id);
                }
                _ => {
                    now_ms += 1_000;
                    it.maintain_fulltext(now_ms);
                }
            }
            let sc = it.hybrid_query_planned(&q, Some(HybridPlan::Scan)).unwrap();
            let ff = it.hybrid_query_planned(&q, Some(HybridPlan::FilterFirst)).unwrap();
            let planned = it.hybrid_query(&q).unwrap();
            prop_assert_eq!(key(&ff), key(&sc));
            prop_assert_eq!(key(&planned), key(&sc));
            // A write drops the set; maintenance renumbers nothing and
            // keeps it.
            prop_assert_eq!(ff.explain.set_reused, kind == 3);
            prop_assert!(planned.explain.set_reused);
        }
    }
}

proptest! {
    /// Civil-date <-> epoch-day conversion is a bijection over a wide
    /// range (covers leap years and centuries).
    #[test]
    fn civil_days_bijection(days in -200_000i64..200_000) {
        use symphony_store::datetime::{civil_from_days, days_from_civil};
        let (y, m, d) = civil_from_days(days);
        prop_assert!((1..=12).contains(&m));
        prop_assert!((1..=31).contains(&d));
        prop_assert_eq!(days_from_civil(y, m, d), days);
    }

    /// Datetime parse -> format -> parse is stable.
    #[test]
    fn datetime_format_fixpoint(epoch in -4_000_000_000i64..4_000_000_000) {
        use symphony_store::datetime::{format_epoch, parse_datetime};
        let text = format_epoch(epoch);
        prop_assert_eq!(parse_datetime(&text), Some(epoch));
    }
}

/// Strategy for arbitrary JSON values of bounded depth.
fn json_value(depth: u32) -> BoxedStrategy<json::JsonValue> {
    let leaf = prop_oneof![
        Just(json::JsonValue::Null),
        any::<bool>().prop_map(json::JsonValue::Bool),
        // Integral magnitudes that survive the writer's i64 fast path.
        (-1_000_000i64..1_000_000).prop_map(|i| json::JsonValue::Num(i as f64)),
        "[ -~]{0,10}".prop_map(json::JsonValue::Str),
    ];
    leaf.prop_recursive(depth, 24, 4, |inner| {
        prop_oneof![
            proptest::collection::vec(inner.clone(), 0..4).prop_map(json::JsonValue::Arr),
            proptest::collection::vec(("[a-z]{1,6}", inner), 0..4).prop_map(|pairs| {
                // Deduplicate keys (objects with duplicate keys do not
                // round-trip structurally).
                let mut seen = std::collections::HashSet::new();
                json::JsonValue::Obj(
                    pairs
                        .into_iter()
                        .filter(|(k, _)| seen.insert(k.clone()))
                        .collect(),
                )
            }),
        ]
    })
    .boxed()
}

/// Pieces of hostile uploads: every format's metacharacters, markup
/// and literal fragments, multibyte text, and runs of openers nested
/// below, at and past the parsers' depth cap (256).
const HOSTILE_PIECES: &[&str] = &[
    "\"",
    "+",
    "-",
    ":",
    ",",
    "\t",
    "\n",
    "\r\n",
    "[",
    "]",
    "{",
    "}",
    "<",
    ">",
    "/",
    "&",
    ";",
    "\\",
    "=",
    "'",
    "#",
    "## sheet: s\n",
    "title",
    "price",
    "a",
    "7",
    "-1.5e308",
    "true",
    "null",
    "\"k\":",
    "\\u00e9",
    "\\ud800",
    "<row>",
    "</row>",
    "<rss>",
    "<channel>",
    "<item>",
    "</item>",
    "<title>",
    "</title>",
    "<a b='c'>",
    "</a>",
    "<x/>",
    "&amp;",
    "&#x1F3AE;",
    "&#99999999;",
    "&bogus;",
    "<![CDATA[",
    "]]>",
    "<!--",
    "-->",
    "<?xml version=\"1.0\"?>",
    "é",
    "中文",
    "🎮",
    "e\u{301}",
    "ß",
    "İ",
    "\u{0}",
    "\u{feff}",
];

fn hostile_text() -> impl Strategy<Value = String> {
    let piece = prop_oneof![
        (0..HOSTILE_PIECES.len()).prop_map(|i| HOSTILE_PIECES[i].to_string()),
        "[a-z0-9 ]{1,6}",
        (0usize..3, 0usize..6).prop_map(|(kind, depth)| {
            ["[", "{\"a\":", "<a>"][kind].repeat([1, 2, 255, 256, 257, 5_000][depth])
        }),
    ];
    proptest::collection::vec(piece, 0..40).prop_map(|pieces| pieces.concat())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Every upload format returns a table or an error for any text:
    /// no input panics or overflows the stack.
    #[test]
    fn hostile_uploads_never_panic(text in hostile_text()) {
        for format in [
            DataFormat::Csv,
            DataFormat::Tsv,
            DataFormat::Worksheet,
            DataFormat::Json,
            DataFormat::Xml,
            DataFormat::Rss,
        ] {
            if let Ok((table, report)) = ingest("hostile", &text, format) {
                prop_assert_eq!(report.rows, table.len());
            }
        }
    }
}
