//! RSS 2.0 feed parsing (on top of the XML parser).
//!
//! RSS feeds are one of Symphony's upload methods; each `<item>`
//! becomes a row with the standard columns.

use crate::error::StoreError;
use crate::formats::xml::{self, XmlElement};

/// A parsed feed.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct Feed {
    /// Channel title.
    pub title: String,
    /// Channel link.
    pub link: String,
    /// Channel description.
    pub description: String,
    /// Items in document order.
    pub items: Vec<FeedItem>,
}

/// One `<item>`.
#[derive(Debug, Clone, PartialEq, Default)]
pub(crate) struct FeedItem {
    /// Item title.
    pub title: String,
    /// Item link.
    pub link: String,
    /// Item description.
    pub description: String,
    /// Raw `pubDate` text (parsed downstream by value sniffing).
    pub pub_date: String,
    /// Stable id; falls back to the link.
    pub guid: String,
    /// First category, if any.
    pub category: String,
}

/// Parse RSS 2.0 text.
pub(crate) fn parse_feed(input: &str) -> Result<Feed, StoreError> {
    let root = xml::parse(input)?;
    if root.tag != "rss" {
        return Err(StoreError::Parse(format!(
            "rss: expected <rss> root, found <{}>",
            root.tag
        )));
    }
    let channel = root
        .child("channel")
        .ok_or_else(|| StoreError::Parse("rss: missing <channel>".into()))?;
    let items = channel
        .children_named("item")
        .map(|item| {
            let link = text(item, "link");
            FeedItem {
                title: text(item, "title"),
                guid: {
                    let g = text(item, "guid");
                    if g.is_empty() {
                        link.clone()
                    } else {
                        g
                    }
                },
                link,
                description: text(item, "description"),
                pub_date: text(item, "pubDate"),
                category: text(item, "category"),
            }
        })
        .collect();
    Ok(Feed {
        title: text(channel, "title"),
        link: text(channel, "link"),
        description: text(channel, "description"),
        items,
    })
}

fn text(el: &XmlElement, tag: &str) -> String {
    el.child_text(tag).unwrap_or_default().to_string()
}

/// The tabular projection of a feed: fixed columns, one row per item.
pub(crate) fn records(feed: &Feed) -> (Vec<String>, Vec<Vec<String>>) {
    let names = vec![
        "title".to_string(),
        "link".to_string(),
        "description".to_string(),
        "pubDate".to_string(),
        "guid".to_string(),
        "category".to_string(),
    ];
    let rows = feed
        .items
        .iter()
        .map(|i| {
            vec![
                i.title.clone(),
                i.link.clone(),
                i.description.clone(),
                i.pub_date.clone(),
                i.guid.clone(),
                i.category.clone(),
            ]
        })
        .collect();
    (names, rows)
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = r#"<?xml version="1.0"?>
<rss version="2.0">
 <channel>
  <title>Game Reviews</title>
  <link>http://reviews.example.com</link>
  <description>Fresh reviews</description>
  <item>
   <title>Galactic Raiders review</title>
   <link>http://reviews.example.com/gr</link>
   <description>A great space shooter.</description>
   <pubDate>Tue, 03 Nov 2009 12:30:00 GMT</pubDate>
   <guid>gr-1</guid>
   <category>shooter</category>
  </item>
  <item>
   <title>Farm Story review</title>
   <link>http://reviews.example.com/fs</link>
  </item>
 </channel>
</rss>"#;

    #[test]
    fn parses_channel_and_items() {
        let feed = parse_feed(SAMPLE).unwrap();
        assert_eq!(feed.title, "Game Reviews");
        assert_eq!(feed.items.len(), 2);
        assert_eq!(feed.items[0].category, "shooter");
        assert_eq!(feed.items[0].guid, "gr-1");
    }

    #[test]
    fn guid_falls_back_to_link() {
        let feed = parse_feed(SAMPLE).unwrap();
        assert_eq!(feed.items[1].guid, "http://reviews.example.com/fs");
    }

    #[test]
    fn records_projection() {
        let feed = parse_feed(SAMPLE).unwrap();
        let (names, rows) = records(&feed);
        assert_eq!(names.len(), 6);
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0][0], "Galactic Raiders review");
        assert_eq!(rows[1][3], ""); // missing pubDate
    }

    #[test]
    fn non_rss_root_rejected() {
        assert!(matches!(
            parse_feed("<feed></feed>"),
            Err(StoreError::Parse(_))
        ));
        assert!(parse_feed("<rss version=\"2.0\"></rss>").is_err());
    }
}
