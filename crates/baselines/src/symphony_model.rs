//! Symphony itself, probed through the same [`SystemModel`] interface
//! as the baselines. Everything here exercises the real platform:
//! ingestion, the drag-and-drop designer, hosting, embedding, and the
//! runtime.

use crate::model::{Probe, ScenarioResult, SystemModel};
use crate::scenario::{Scenario, INVENTORY_CSV, REVIEW_SITES};

use symphony_ads::{Ad, Keyword, MatchType};
use symphony_core::app::AppBuilder;
use symphony_core::hosting::Platform;
use symphony_core::source::DataSourceDef;
use symphony_core::AppId;
use symphony_designer::canvas::DataSourceCard;
use symphony_designer::ops::{DesignOp, Designer};
use symphony_designer::Element;
use symphony_services::{LatencyModel, PricingService};
use symphony_store::ingest::{ingest, DataFormat};
use symphony_store::IndexedTable;

/// The full platform hosting the GamerQueen application.
pub struct SymphonyModel {
    platform: Platform,
    app: AppId,
}

impl SymphonyModel {
    /// Stand up the platform and build GamerQueen through the designer
    /// op log (the programmatic Fig.-1 interaction).
    pub fn new(scenario: &Scenario) -> SymphonyModel {
        let mut platform = Platform::new(scenario.engine.clone());
        let (tenant, key) = platform.create_tenant("GamerQueen");

        // Upload Ann's inventory.
        let (table, _) =
            ingest("inventory", INVENTORY_CSV, DataFormat::Csv).expect("scenario inventory parses");
        let mut indexed = IndexedTable::new(table);
        indexed
            .enable_fulltext(&[("title", 2.0), ("genre", 1.0), ("description", 1.0)])
            .expect("searchable columns exist");
        platform
            .upload_table(tenant, &key, indexed)
            .expect("within quota");

        // Real-time pricing service and an advertiser.
        platform.transport_mut().register(
            "pricing",
            Box::new(PricingService),
            LatencyModel::fast(),
        );
        let adv = platform.ads_mut().add_advertiser("MegaGames");
        platform.ads_mut().add_campaign(
            adv,
            "games",
            10_000,
            vec![Keyword::new("game", MatchType::Broad, 40)],
            Ad {
                title: "Mega Games Sale".into(),
                display_url: "megagames.example.com".into(),
                target_url: "http://megagames.example.com/sale".into(),
                text: "50% off this week".into(),
            },
            0.8,
        );

        // Design the layout through drag-and-drop ops.
        let mut designer = Designer::new();
        designer.register_source(DataSourceCard {
            name: "inventory".into(),
            category: "proprietary".into(),
            fields: vec![
                "title".into(),
                "genre".into(),
                "description".into(),
                "detail_url".into(),
                "price".into(),
            ],
        });
        designer.register_source(DataSourceCard {
            name: "reviews".into(),
            category: "web".into(),
            fields: vec![
                "url".into(),
                "title".into(),
                "snippet".into(),
                "domain".into(),
            ],
        });
        let root = designer.canvas().root_id();
        designer
            .apply(DesignOp::AddElement {
                parent: root,
                element: Element::search_box("Search games…"),
            })
            .expect("root exists");
        let list = designer
            .apply(DesignOp::DropSource {
                source: "inventory".into(),
                target: root,
                max_results: 10,
            })
            .expect("source registered")
            .expect("drop creates a list");
        designer
            .apply(DesignOp::AddElement {
                parent: list,
                element: Element::result_list(
                    "reviews",
                    Element::column(vec![
                        Element::link_field("url", "{title}"),
                        Element::rich_text("{snippet}"),
                    ]),
                    3,
                ),
            })
            .expect("drop supplemental onto result layout");

        let config = AppBuilder::new("GamerQueen", tenant)
            .layout(designer.into_canvas())
            .source(
                "inventory",
                DataSourceDef::Proprietary {
                    table: "inventory".into(),
                },
            )
            .source(
                "reviews",
                DataSourceDef::WebVertical {
                    vertical: symphony_web::Vertical::Web,
                    config: symphony_web::SearchConfig::default().restrict_to(REVIEW_SITES),
                },
            )
            .supplemental("reviews", "{title} review")
            .build()
            .expect("valid config");
        let app = platform.register_app(config).expect("registers");
        platform.publish(app).expect("publishes");
        SymphonyModel { platform, app }
    }
}

impl SystemModel for SymphonyModel {
    fn name(&self) -> &'static str {
        "Symphony"
    }

    fn search_api(&self) -> String {
        "Bing (simulated)".into()
    }

    fn probe_custom_sites(&mut self) -> Probe {
        // Run a restricted query and verify the restriction held.
        let results = self.answer("Galactic Raiders review", 10);
        let web: Vec<&ScenarioResult> = results.iter().filter(|r| r.origin == "web").collect();
        if !web.is_empty()
            && web
                .iter()
                .all(|r| REVIEW_SITES.iter().any(|s| r.url.contains(s)))
        {
            Probe::yes("Supported")
        } else {
            Probe::no("restriction leaked")
        }
    }

    fn probe_proprietary_data(&mut self) -> Probe {
        // Actually attempt each upload format.
        let attempts: [(&str, DataFormat, &str); 5] = [
            ("txt", DataFormat::Csv, "title\nA\n"),
            (
                "xml",
                DataFormat::Xml,
                "<inv><g><title>A</title></g><g><title>B</title></g></inv>",
            ),
            ("xls", DataFormat::Worksheet, "title\tprice\nA\t1\n"),
            (
                "rss",
                DataFormat::Rss,
                "<rss><channel><title>c</title><item><title>A</title></item></channel></rss>",
            ),
            ("json", DataFormat::Json, r#"[{"title":"A"}]"#),
        ];
        let mut ok: Vec<&str> = Vec::new();
        for (label, format, payload) in attempts {
            if ingest("probe", payload, format).is_ok() {
                ok.push(label);
            }
        }
        if ok.is_empty() {
            Probe::no("")
        } else {
            Probe::yes(&format!(
                "Supports various uploads (HTTP or FTP; {})",
                ok.join(", ")
            ))
        }
    }

    fn monetization(&self) -> String {
        format!(
            "Ads voluntary (revenue-sharing, {:.0}% to designer)",
            symphony_ads::DEFAULT_REV_SHARE * 100.0
        )
    }

    fn probe_custom_ui(&mut self) -> Probe {
        // A fresh designer session: drop, restyle, undo — no code.
        let mut d = Designer::new();
        d.register_source(DataSourceCard {
            name: "inventory".into(),
            category: "proprietary".into(),
            fields: vec!["title".into()],
        });
        let root = d.canvas().root_id();
        let dropped = d.apply(DesignOp::DropSource {
            source: "inventory".into(),
            target: root,
            max_results: 5,
        });
        let styled = dropped.as_ref().ok().and_then(|id| *id).map(|id| {
            d.apply(DesignOp::SetStyle {
                id,
                property: "color".into(),
                value: "navy".into(),
            })
        });
        match (dropped.is_ok(), styled) {
            (true, Some(Ok(_))) => Probe::yes("Drag'n'drop (wizard, styles, stylesheets)"),
            _ => Probe::no("designer ops failed"),
        }
    }

    fn deployment(&self) -> String {
        let embed = self.platform.embed_code(self.app).is_ok();
        let manifest = self.platform.social_manifest(self.app).ok();
        let social = manifest
            .map(|m| {
                let mut host = symphony_core::SocialCanvasHost::new();
                host.install(m).is_ok()
            })
            .unwrap_or(false);
        match (embed, social) {
            (true, true) => "Hosted at server; embeds on 3rd-party sites; social canvas".into(),
            (true, false) => "Hosted at server; embeds on 3rd-party sites".into(),
            _ => "Hosted at server".into(),
        }
    }

    fn answer(&mut self, query: &str, k: usize) -> Vec<ScenarioResult> {
        let Ok(resp) = self.platform.query(self.app, query) else {
            return Vec::new();
        };
        resp.impressions
            .iter()
            .filter_map(|imp| {
                imp.url.as_ref().map(|url| ScenarioResult {
                    title: imp.title.clone(),
                    url: url.clone(),
                    origin: if imp.is_ad {
                        "ads".into()
                    } else if imp.source == "inventory" {
                        "proprietary".into()
                    } else {
                        "web".into()
                    },
                })
            })
            .take(k)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn symphony_combines_proprietary_and_web() {
        let scenario = Scenario::small();
        let mut m = SymphonyModel::new(&scenario);
        let results = m.answer("space shooter", 10);
        assert!(results.iter().any(|r| r.origin == "proprietary"));
        assert!(results.iter().any(|r| r.origin == "web"));
    }

    #[test]
    fn probes_report_capabilities() {
        let scenario = Scenario::small();
        let mut m = SymphonyModel::new(&scenario);
        assert!(m.probe_custom_sites().supported);
        let data = m.probe_proprietary_data();
        assert!(data.supported);
        assert!(data.notes.contains("xml"));
        assert!(m.probe_custom_ui().supported);
        assert!(m.deployment().contains("social canvas"));
        assert!(m.monetization().contains("voluntary"));
    }
}
