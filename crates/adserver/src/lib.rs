//! # symphony-ads
//!
//! The advertising substrate — the reproduction's substitute for the
//! adCenter integration in the paper (§II-A "Built-in Services" and
//! "Monetization"). Keyword-targeted campaigns compete in a
//! generalized second-price auction with quality scores; clicks are
//! billed against daily budgets and revenue-shared with the publisher
//! (the application designer) through an append-only ledger.
//!
//! ## Quick example
//!
//! ```
//! use symphony_ads::{Ad, AdServer, Keyword, MatchType};
//!
//! let mut ads = AdServer::new();
//! let adv = ads.add_advertiser("MegaGames");
//! ads.add_campaign(
//!     adv,
//!     "shooter push",
//!     10_000,
//!     vec![Keyword::new("space shooter", MatchType::Phrase, 55)],
//!     Ad {
//!         title: "Mega Games Sale".into(),
//!         display_url: "megagames.example.com".into(),
//!         target_url: "http://megagames.example.com/sale".into(),
//!         text: "50% off space shooters".into(),
//!     },
//!     0.9,
//! );
//! let placements = ads.select("best space shooter", 3);
//! assert_eq!(placements.len(), 1);
//! let entry = ads.record_click(&placements[0], "GamerQueen").unwrap();
//! assert!(entry.publisher_share_cents > 0);
//! ```

#![warn(missing_docs)]

mod auction;
mod ledger;
mod model;
mod server;

pub use auction::{run_auction, Placement, RESERVE_CENTS};
pub use model::{Ad, Campaign, CampaignId, Keyword, MatchType};
pub use server::{AdServer, DEFAULT_REV_SHARE};
