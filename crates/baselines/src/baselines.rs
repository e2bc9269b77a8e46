//! The five comparison systems of Table I, each as a working
//! (restricted) implementation over the shared simulated web.
//!
//! The restrictions are the point: Rollyo *can* restrict sites but has
//! no data upload; Google Base *can* ingest data but gives no custom
//! UI; BOSS exposes the API but leaves hosting and UI to the
//! developer. The Table-I generator probes these behaviours live.

use crate::model::{Probe, ScenarioResult, SystemModel};
use crate::scenario::{INVENTORY_CSV, REVIEW_SITES};
use std::sync::Arc;
use symphony_store::ingest::{ingest, DataFormat};
use symphony_store::IndexedTable;
use symphony_text::Query;
use symphony_web::{SearchConfig, SearchEngine, Vertical};

fn web_results(
    engine: &SearchEngine,
    query: &str,
    config: &SearchConfig,
    k: usize,
) -> Vec<ScenarioResult> {
    engine
        .search(Vertical::Web, query, config, k)
        .into_iter()
        .map(|r| ScenarioResult {
            title: r.title,
            url: r.url,
            origin: "web".into(),
        })
        .collect()
}

// ---------------------------------------------------------------- BOSS

/// Yahoo! BOSS model: raw search API for developers.
pub struct BossModel {
    engine: Arc<SearchEngine>,
}

impl BossModel {
    /// New model over the shared engine.
    pub fn new(engine: Arc<SearchEngine>) -> Self {
        BossModel { engine }
    }
}

impl SystemModel for BossModel {
    fn name(&self) -> &'static str {
        "Y! BOSS"
    }
    fn search_api(&self) -> String {
        "Yahoo (simulated)".into()
    }
    fn probe_custom_sites(&mut self) -> Probe {
        let rs = web_results(
            &self.engine,
            "Galactic Raiders review",
            &SearchConfig::default().restrict_to(REVIEW_SITES),
            5,
        );
        if rs
            .iter()
            .all(|r| REVIEW_SITES.iter().any(|s| r.url.contains(s)))
            && !rs.is_empty()
        {
            Probe::yes("Supported")
        } else {
            Probe::no("")
        }
    }
    fn probe_proprietary_data(&mut self) -> Probe {
        // Partnership-gated: the public API refuses the upload.
        Probe::no("Limited to partners")
    }
    fn monetization(&self) -> String {
        "Ads mandatory".into()
    }
    fn probe_custom_ui(&mut self) -> Probe {
        Probe::yes("Mashup Python library, HTML/CSS (code required)")
    }
    fn deployment(&self) -> String {
        "No assistance.".into()
    }
    fn answer(&mut self, query: &str, k: usize) -> Vec<ScenarioResult> {
        // A lay user gets the raw API defaults: no proprietary data,
        // no restriction (that would require writing code).
        web_results(&self.engine, query, &SearchConfig::default(), k)
    }
}

// -------------------------------------------------------------- Rollyo

/// Rollyo model: site-restricted "searchrolls" with basic styling.
pub struct RollyoModel {
    engine: Arc<SearchEngine>,
    styles: Vec<(String, String)>,
}

impl RollyoModel {
    /// New model over the shared engine.
    pub fn new(engine: Arc<SearchEngine>) -> Self {
        RollyoModel {
            engine,
            styles: Vec::new(),
        }
    }

    /// Styling is limited to colors and fonts; anything else is
    /// rejected (probed by `probe_custom_ui`).
    pub(crate) fn set_style(&mut self, property: &str, value: &str) -> Result<(), String> {
        if matches!(
            property,
            "color" | "background-color" | "font-family" | "font-size"
        ) {
            self.styles.push((property.into(), value.into()));
            Ok(())
        } else {
            Err(format!("style {property:?} not customizable"))
        }
    }
}

impl SystemModel for RollyoModel {
    fn name(&self) -> &'static str {
        "Rollyo"
    }
    fn search_api(&self) -> String {
        "Yahoo (simulated)".into()
    }
    fn probe_custom_sites(&mut self) -> Probe {
        Probe::yes("Supported")
    }
    fn probe_proprietary_data(&mut self) -> Probe {
        Probe::no("No")
    }
    fn monetization(&self) -> String {
        "Show your own ads".into()
    }
    fn probe_custom_ui(&mut self) -> Probe {
        let color = self.set_style("color", "navy").is_ok();
        let layout = self.set_style("display", "grid").is_err();
        if color && layout {
            Probe::yes("Basic styling (e.g., colors, fonts)")
        } else {
            Probe::no("")
        }
    }
    fn deployment(&self) -> String {
        "Only allows search box on 3rd-party sites".into()
    }
    fn answer(&mut self, query: &str, k: usize) -> Vec<ScenarioResult> {
        web_results(
            &self.engine,
            query,
            &SearchConfig::default().restrict_to(REVIEW_SITES),
            k,
        )
    }
}

// ------------------------------------------------------------ Eurekster

/// Eurekster model: community "swickis" — site restriction plus
/// mandatory ads for for-profit users.
pub struct EureksterModel {
    inner: RollyoModel,
}

impl EureksterModel {
    /// New model over the shared engine.
    pub fn new(engine: Arc<SearchEngine>) -> Self {
        EureksterModel {
            inner: RollyoModel::new(engine),
        }
    }
}

impl SystemModel for EureksterModel {
    fn name(&self) -> &'static str {
        "Eurekster"
    }
    fn search_api(&self) -> String {
        "Yahoo (simulated)".into()
    }
    fn probe_custom_sites(&mut self) -> Probe {
        self.inner.probe_custom_sites()
    }
    fn probe_proprietary_data(&mut self) -> Probe {
        Probe::no("No")
    }
    fn monetization(&self) -> String {
        "Ads mandatory for for-profit entities".into()
    }
    fn probe_custom_ui(&mut self) -> Probe {
        self.inner.probe_custom_ui()
    }
    fn deployment(&self) -> String {
        "Only allows search box on 3rd-party sites".into()
    }
    fn answer(&mut self, query: &str, k: usize) -> Vec<ScenarioResult> {
        self.inner.answer(query, k)
    }
}

// --------------------------------------------------------- Google Custom

/// Google Custom Search model: tweak the general engine (restriction,
/// augmentation, URL preference), nothing more.
pub struct GoogleCustomModel {
    engine: Arc<SearchEngine>,
    config: SearchConfig,
}

impl GoogleCustomModel {
    /// New model with Ann's customizations applied.
    pub fn new(engine: Arc<SearchEngine>) -> Self {
        GoogleCustomModel {
            engine,
            config: SearchConfig::default()
                .restrict_to(REVIEW_SITES)
                .augment(["game"])
                .prefer(["gamespot.com"]),
        }
    }
}

impl SystemModel for GoogleCustomModel {
    fn name(&self) -> &'static str {
        "Google Custom"
    }
    fn search_api(&self) -> String {
        "Google (simulated)".into()
    }
    fn probe_custom_sites(&mut self) -> Probe {
        Probe::yes("Supported")
    }
    fn probe_proprietary_data(&mut self) -> Probe {
        Probe::no("No")
    }
    fn monetization(&self) -> String {
        "Ads mandatory for for-profit entities".into()
    }
    fn probe_custom_ui(&mut self) -> Probe {
        Probe::yes("Basic styling (e.g., colors, fonts)")
    }
    fn deployment(&self) -> String {
        "3rd-party sites".into()
    }
    fn answer(&mut self, query: &str, k: usize) -> Vec<ScenarioResult> {
        web_results(&self.engine, query, &self.config, k)
    }
}

// ----------------------------------------------------------- Google Base

/// Google Base model: structured-data upload that surfaces into
/// general results — no custom engine, no custom UI.
pub struct GoogleBaseModel {
    engine: Arc<SearchEngine>,
    uploaded: Option<IndexedTable>,
}

impl GoogleBaseModel {
    /// New model; Ann's inventory is uploaded during probing or lazily
    /// on first use.
    pub fn new(engine: Arc<SearchEngine>) -> Self {
        GoogleBaseModel {
            engine,
            uploaded: None,
        }
    }

    fn ensure_uploaded(&mut self) {
        if self.uploaded.is_none() {
            let (table, _) =
                ingest("base_items", INVENTORY_CSV, DataFormat::Csv).expect("inventory parses");
            let mut indexed = IndexedTable::new(table);
            indexed
                .enable_fulltext(&[("title", 2.0), ("description", 1.0)])
                .expect("columns exist");
            self.uploaded = Some(indexed);
        }
    }
}

impl SystemModel for GoogleBaseModel {
    fn name(&self) -> &'static str {
        "Google Base"
    }
    fn search_api(&self) -> String {
        "Google (simulated)".into()
    }
    fn probe_custom_sites(&mut self) -> Probe {
        Probe::no("No")
    }
    fn probe_proprietary_data(&mut self) -> Probe {
        // Base accepts feeds/tsv/xml — try them for real.
        let mut ok = Vec::new();
        for (label, format, payload) in [
            (
                "RSS",
                DataFormat::Rss,
                "<rss><channel><title>c</title><item><title>A</title></item></channel></rss>",
            ),
            ("txt", DataFormat::Tsv, "title\tprice\nA\t1\n"),
            (
                "xml",
                DataFormat::Xml,
                "<i><r><t>A</t></r><r><t>B</t></r></i>",
            ),
        ] {
            if ingest("probe", payload, format).is_ok() {
                ok.push(label);
            }
        }
        self.ensure_uploaded();
        Probe::yes(&format!("Supports various uploads ({})", ok.join(", ")))
    }
    fn monetization(&self) -> String {
        "No".into()
    }
    fn probe_custom_ui(&mut self) -> Probe {
        Probe::no("No")
    }
    fn deployment(&self) -> String {
        "Data to surface on Google's search products".into()
    }
    fn answer(&mut self, query: &str, k: usize) -> Vec<ScenarioResult> {
        self.ensure_uploaded();
        // General results with uploaded items surfaced among them
        // (Base items appear in the product/onebox slot: position 1).
        let mut results = web_results(&self.engine, query, &SearchConfig::default(), k);
        let uploaded = self.uploaded.as_ref().expect("ensured above");
        let hits = uploaded
            .search(&Query::parse(query), 2)
            .expect("fulltext enabled");
        for (offset, hit) in hits.into_iter().enumerate() {
            let table = uploaded.table();
            let title = table
                .cell(hit.record, "title")
                .map(|v| v.display_string())
                .unwrap_or_default();
            let url = table
                .cell(hit.record, "detail_url")
                .map(|v| v.display_string())
                .unwrap_or_default();
            let pos = (1 + offset).min(results.len());
            results.insert(
                pos,
                ScenarioResult {
                    title,
                    url,
                    origin: "proprietary".into(),
                },
            );
        }
        results.truncate(k);
        results
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::Scenario;

    fn engine() -> Arc<SearchEngine> {
        Scenario::small().engine
    }

    #[test]
    fn boss_returns_unrestricted_web_only() {
        let mut m = BossModel::new(engine());
        let rs = m.answer("space shooter game", 10);
        assert!(!rs.is_empty());
        assert!(rs.iter().all(|r| r.origin == "web"));
        assert!(m.probe_custom_sites().supported);
        assert!(!m.probe_proprietary_data().supported);
    }

    #[test]
    fn rollyo_restricts_but_cannot_upload() {
        let mut m = RollyoModel::new(engine());
        let rs = m.answer("Galactic Raiders review", 10);
        assert!(!rs.is_empty());
        assert!(rs
            .iter()
            .all(|r| REVIEW_SITES.iter().any(|s| r.url.contains(s))));
        assert!(!m.probe_proprietary_data().supported);
        let ui = m.probe_custom_ui();
        assert!(ui.supported);
        assert!(ui.notes.contains("Basic styling"));
    }

    #[test]
    fn rollyo_style_whitelist() {
        let mut m = RollyoModel::new(engine());
        assert!(m.set_style("color", "red").is_ok());
        assert!(m.set_style("display", "grid").is_err());
    }

    #[test]
    fn eurekster_mandatory_ads_for_profit() {
        let mut m = EureksterModel::new(engine());
        assert!(m.monetization().contains("mandatory"));
        assert!(m.probe_custom_sites().supported);
    }

    #[test]
    fn google_custom_tweaks_general_engine() {
        let mut m = GoogleCustomModel::new(engine());
        let rs = m.answer("Galactic Raiders review", 5);
        assert!(!rs.is_empty());
        assert!(!m.probe_proprietary_data().supported);
    }

    #[test]
    fn google_base_surfaces_uploaded_items_in_general_results() {
        let mut m = GoogleBaseModel::new(engine());
        let rs = m.answer("space shooter", 10);
        assert!(rs.iter().any(|r| r.origin == "proprietary"));
        assert!(rs.iter().any(|r| r.origin == "web"));
        // But the capability matrix shows no custom UI / sites.
        assert!(!m.probe_custom_sites().supported);
        assert!(!m.probe_custom_ui().supported);
        assert!(m.probe_proprietary_data().notes.contains("RSS"));
    }
}
