//! Allocation guard for the streaming renderer.
//!
//! A storefront-shaped page (search box; a catalog list whose items
//! nest three reviews and one price; two ads) rendered through
//! `render_into` with borrowed field values may allocate only to grow
//! its one output buffer: a 50-item page costs a handful of
//! reallocations more than a 5-item one (11 / 12 / 14 allocations for
//! 5 / 10 / 50 items), not ≈ 100 per item as the recursive
//! `String`-per-element renderer did on this page (602 / 1 093 / 5 015).
//!
//! This file is its own test binary so the counting `#[global_allocator]`
//! cannot skew other suites; all counted regions live in a single
//! `#[test]` so parallel test threads cannot pollute the counter.

use std::borrow::Cow;

use symphony_designer::{render_element, render_into, template, Element, Stylesheet};

#[path = "../../textindex/tests/support/counting_alloc.rs"]
mod counting_alloc;
use counting_alloc::allocations;

type Record = Vec<(&'static str, String)>;

/// The ledger's `storefront` layout, unstyled.
fn storefront(items: usize) -> Element {
    let item = Element::column(vec![
        Element::text("{title}").with_class("result-title"),
        Element::text("{body}"),
        Element::result_list(
            "reviews",
            Element::column(vec![
                Element::link_field("url", "{title}"),
                Element::rich_text("{snippet}"),
            ]),
            3,
        ),
        Element::result_list("pricing", Element::text("${price}"), 1),
    ]);
    Element::column(vec![
        Element::search_box("Search the store…"),
        Element::result_list("catalog", item, items),
        Element::result_list("sponsored", template::ad_layout(), 2),
    ])
}

fn record(i: usize) -> Record {
    vec![
        ("title", format!("Galactic Raiders {i} & <friends>")),
        (
            "body",
            format!(
                "a fast space shooter, edition {i}, for \"everyone\": \
                 lasers, pilots & a campaign across forty star systems"
            ),
        ),
        ("url", format!("https://reviews.example.com/r/{i}")),
        (
            "snippet",
            format!("… a <b>space</b> shooter worth {i} stars, say the critics …"),
        ),
        ("price", format!("{i}.99")),
        ("target_url", format!("http://ads.example.com/{i}")),
        ("text", "Sponsored text".to_string()),
        ("display_url", "ads.example.com".to_string()),
    ]
}

fn lend<'r>(rec: &'r Record) -> impl Fn(&str) -> Option<Cow<'r, str>> {
    move |name| {
        rec.iter()
            .find(|(k, _)| *k == name)
            .map(|(_, v)| Cow::Borrowed(v.as_str()))
    }
}

/// The page the way the runtime writes it: one buffer, borrowed
/// fields, nested lists through the closure.
fn render_page(page: &Element, records: &[Record]) -> String {
    let sheet = Stylesheet::new();
    let mut html = String::new();
    let top = lend(&records[0]);
    render_into(
        &mut html,
        page,
        &sheet,
        &top,
        &mut |out, _, max, item_el| {
            for (i, rec) in records.iter().take(max).enumerate() {
                let fields = lend(rec);
                render_into(
                    out,
                    item_el,
                    &sheet,
                    &fields,
                    &mut |out, _, smax, sitem_el| {
                        for srec in records[i..].iter().take(smax) {
                            render_into(out, sitem_el, &sheet, &lend(srec), &mut |_, _, _, _| {});
                        }
                    },
                );
            }
        },
    );
    html
}

/// The same page through the owned-lookup adapter.
fn render_page_owned(page: &Element, records: &[Record]) -> String {
    let sheet = Stylesheet::new();
    let owned =
        |rec: &Record, name: &str| rec.iter().find(|(k, _)| *k == name).map(|(_, v)| v.clone());
    render_element(
        page,
        &sheet,
        &|n| owned(&records[0], n),
        &mut |_, max, item_el| {
            let mut html = String::new();
            for (i, rec) in records.iter().take(max).enumerate() {
                html.push_str(&render_element(
                    item_el,
                    &sheet,
                    &|n| owned(rec, n),
                    &mut |_, smax, sitem_el| {
                        let mut shtml = String::new();
                        for srec in records[i..].iter().take(smax) {
                            shtml.push_str(&render_element(
                                sitem_el,
                                &sheet,
                                &|n| owned(srec, n),
                                &mut |_, _, _| String::new(),
                            ));
                        }
                        shtml
                    },
                ));
            }
            html
        },
    )
}

#[test]
fn streaming_render_allocates_only_for_buffer_growth() {
    let records: Vec<Record> = (0..60).map(record).collect();
    let pages: Vec<Element> = [5, 10, 50].iter().map(|&n| storefront(n)).collect();

    let mut counts = Vec::new();
    for page in &pages {
        let (allocs, html) = allocations(|| render_page(page, &records));
        assert_eq!(
            html,
            render_page_owned(page, &records),
            "adapter and stream disagree"
        );
        counts.push((allocs, html.len()));
    }
    let [(five, _), (ten, ten_bytes), (fifty, fifty_bytes)] = counts[..] else {
        unreachable!()
    };
    assert!(ten_bytes > 9_000, "page is storefront-sized: {ten_bytes} B");
    assert!(fifty_bytes > 4 * ten_bytes, "{fifty_bytes} B");
    assert!(
        fifty - five <= 4,
        "45 more items cost {} allocations (5 items: {five}, 50: {fifty})",
        fifty - five
    );
    assert!(ten <= 16, "a 10-item page took {ten} allocations");
}
