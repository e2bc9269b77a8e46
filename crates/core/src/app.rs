//! Application configuration.
//!
//! Everything the designer produced, in one validated object: the data
//! sources, the layout canvas, the supplemental query bindings, the
//! presentation stylesheet, and the monetization settings. The paper
//! calls this "the configuration file for the application" (§II-C).

use crate::error::PlatformError;
use crate::source::DataSourceDef;
use symphony_designer::{Canvas, Stylesheet, Template};
use symphony_store::{Filter, TenantId};

/// Identifier of a hosted application.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct AppId(pub u32);

/// A named data source in an application.
#[derive(Debug, Clone)]
pub struct DataSourceConfig {
    /// Name referenced by layout `ResultList`s.
    pub name: String,
    /// What it is and how to query it.
    pub def: DataSourceDef,
}

/// How a supplemental (nested) source builds its query from the
/// enclosing primary result (paper §II-A "Data Integration": sources
/// "queried based on selected fields from the primary content").
#[derive(Debug, Clone)]
pub struct SupplementalBinding {
    /// The supplemental source name.
    pub source: String,
    /// Query template over the primary record's fields, e.g.
    /// `"{title}" review`.
    pub query_template: Template,
}

/// Per-query resilience limits. All virtual-clock based; the runtime
/// enforces them so one slow or down dependency cannot stall a whole
/// response — fetches that would blow the deadline are cut off and
/// rendered as degraded slots instead.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ResiliencePolicy {
    /// Hard deadline for the whole query in virtual ms
    /// (`u32::MAX` = unlimited). Must leave room for the runtime's
    /// fixed receive/merge costs.
    pub query_deadline_ms: u32,
    /// Soft budget per source fetch in virtual ms (`u32::MAX` =
    /// unlimited); caps attempts, backoff, and timeouts of one fetch.
    pub per_source_budget_ms: u32,
    /// Total retries the whole query may spend across all fetches
    /// (`u32::MAX` = unlimited).
    pub max_total_retries: u32,
}

impl Default for ResiliencePolicy {
    /// Unlimited: the pre-resilience behaviour.
    fn default() -> Self {
        ResiliencePolicy {
            query_deadline_ms: u32::MAX,
            per_source_budget_ms: u32::MAX,
            max_total_retries: u32::MAX,
        }
    }
}

/// Per-tenant admission limits, enforced by the hosting layer before
/// any query work begins. Where [`ResiliencePolicy`] protects a query
/// against *downstream* failure, this protects the platform against
/// *upstream* overload: requests beyond the bucket rate or concurrency
/// cap are shed with a cheap degraded response instead of executing.
/// All rates are on the virtual clock.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AdmissionPolicy {
    /// Sustained admission rate in queries per virtual second
    /// (`u32::MAX` = unlimited; the token bucket never refuses).
    pub rate_per_sec: u32,
    /// Burst capacity in queries: how far above the sustained rate a
    /// short spike may go before shedding starts. Must be at least 1
    /// when a rate is configured.
    pub burst: u32,
    /// Maximum queries of this app concurrently in execution
    /// (`u32::MAX` = unlimited). Cache hits do not count: they consume
    /// no execution resources.
    pub max_concurrency: u32,
    /// Weighted-fair-scheduling weight for this tenant's share of the
    /// platform's fan-out worker pool (must be at least 1).
    pub weight: u32,
}

impl Default for AdmissionPolicy {
    /// Unlimited: the pre-admission-control behaviour.
    fn default() -> Self {
        AdmissionPolicy {
            rate_per_sec: u32::MAX,
            burst: u32::MAX,
            max_concurrency: u32::MAX,
            weight: 1,
        }
    }
}

impl AdmissionPolicy {
    /// True when no admission limit is configured (weight is advisory
    /// and does not count: it only shapes worker-pool shares).
    pub(crate) fn is_unlimited(&self) -> bool {
        self.rate_per_sec == u32::MAX && self.max_concurrency == u32::MAX
    }
}

/// Monetization settings (paper: voluntary, revenue-shared).
#[derive(Debug, Clone)]
pub struct MonetizationConfig {
    /// Log customer interactions for this app.
    pub log_interactions: bool,
    /// Publisher name credited in the ad ledger.
    pub publisher: String,
}

impl Default for MonetizationConfig {
    fn default() -> Self {
        MonetizationConfig {
            log_interactions: true,
            publisher: String::new(),
        }
    }
}

/// A complete application definition.
#[derive(Debug, Clone)]
pub struct ApplicationConfig {
    /// Application name ("GamerQueen").
    pub name: String,
    /// Owning tenant.
    pub owner: TenantId,
    /// Data sources by name.
    pub sources: Vec<DataSourceConfig>,
    /// The designed layout (top-level result lists are primary content
    /// queried with the user's query; nested ones are supplemental).
    pub layout: Canvas,
    /// Supplemental query bindings.
    pub supplemental: Vec<SupplementalBinding>,
    /// Structured constraints on proprietary sources (paper §IV
    /// "richer querying of structured data"): rows failing the filter
    /// never surface, regardless of text relevance.
    pub constraints: Vec<(String, Filter)>,
    /// Presentation stylesheet.
    pub stylesheet: Stylesheet,
    /// Monetization settings.
    pub monetization: MonetizationConfig,
    /// Per-query deadline / budget / retry limits.
    pub resilience: ResiliencePolicy,
    /// Per-tenant admission rate / concurrency / scheduling weight.
    pub admission: AdmissionPolicy,
}

impl ApplicationConfig {
    /// Look up a source definition by name.
    pub fn source(&self, name: &str) -> Option<&DataSourceConfig> {
        self.sources.iter().find(|s| s.name == name)
    }

    /// Look up a supplemental binding by source name.
    pub fn binding(&self, source: &str) -> Option<&SupplementalBinding> {
        self.supplemental.iter().find(|b| b.source == source)
    }

    /// Look up a structured constraint by source name.
    pub fn constraint(&self, source: &str) -> Option<&Filter> {
        self.constraints
            .iter()
            .find(|(s, _)| s == source)
            .map(|(_, f)| f)
    }

    /// The primary result lists: every `ResultList` reachable from the
    /// root through containers only (a list inside another list's item
    /// layout is supplemental). Returns `(source, max_results, item
    /// layout)` in render order: an owned copy of the borrowing walk
    /// the runtime uses (`primary_list_refs`).
    pub fn primary_lists(&self) -> Vec<(String, usize, symphony_designer::Element)> {
        self.primary_list_refs()
            .into_iter()
            .map(|(source, max, item)| (source.to_string(), max, item.clone()))
            .collect()
    }

    /// [`primary_lists`](Self::primary_lists) by reference into the
    /// layout: what the runtime walks on every miss.
    pub(crate) fn primary_list_refs(&self) -> Vec<(&str, usize, &symphony_designer::Element)> {
        use symphony_designer::{Element, ElementKind};
        fn walk<'a>(e: &'a Element, out: &mut Vec<(&'a str, usize, &'a Element)>) {
            match &e.kind {
                ElementKind::Container { children, .. } => {
                    for c in children {
                        walk(c, out);
                    }
                }
                ElementKind::ResultList {
                    source,
                    item,
                    max_results,
                } => {
                    // Do not recurse into `item`: lists inside it are
                    // supplemental, resolved per primary result.
                    out.push((source, *max_results, item));
                }
                _ => {}
            }
        }
        let mut out = Vec::new();
        walk(self.layout.root(), &mut out);
        out
    }

    /// Source names used by primary result lists.
    pub fn primary_sources(&self) -> Vec<String> {
        let mut out: Vec<String> = Vec::new();
        for (source, _, _) in self.primary_list_refs() {
            if !out.iter().any(|s| s == source) {
                out.push(source.to_string());
            }
        }
        out
    }

    /// Source names used by nested result lists (supplemental).
    pub fn supplemental_sources(&self) -> Vec<String> {
        let all = self.layout.root().sources();
        let primary = self.primary_sources();
        all.into_iter().filter(|s| !primary.contains(s)).collect()
    }

    /// Validate the configuration:
    /// every layout source must be defined; every supplemental source
    /// must have a query binding; monetization needs a publisher name
    /// when interactions are logged.
    pub(crate) fn validate(&self) -> Result<(), PlatformError> {
        for s in self.layout.root().sources() {
            if self.source(&s).is_none() {
                return Err(PlatformError::UnknownSource(s));
            }
        }
        for s in self.supplemental_sources() {
            if self.binding(&s).is_none() {
                return Err(PlatformError::MissingBinding(s));
            }
        }
        if self.primary_sources().is_empty() {
            return Err(PlatformError::InvalidConfig(
                "layout has no top-level result list".into(),
            ));
        }
        for s in self.supplemental_sources() {
            if let Some(cfg) = self.source(&s) {
                if matches!(cfg.def, crate::source::DataSourceDef::ComposedApp { .. }) {
                    return Err(PlatformError::InvalidConfig(format!(
                        "composed app source {s:?} must be primary (top-level), not supplemental"
                    )));
                }
            }
        }
        for (source, _) in &self.constraints {
            match self.source(source).map(|c| &c.def) {
                Some(
                    crate::source::DataSourceDef::Proprietary { .. }
                    | crate::source::DataSourceDef::Hybrid { .. },
                ) => {}
                Some(_) => {
                    return Err(PlatformError::InvalidConfig(format!(
                        "constraint on non-proprietary source {source:?}"
                    )))
                }
                None => return Err(PlatformError::UnknownSource(source.clone())),
            }
        }
        if self.monetization.log_interactions && self.monetization.publisher.is_empty() {
            return Err(PlatformError::InvalidConfig(
                "monetization requires a publisher name".into(),
            ));
        }
        let fixed = crate::runtime::RECEIVE_MS + crate::runtime::MERGE_MS;
        if self.resilience.query_deadline_ms != u32::MAX
            && self.resilience.query_deadline_ms <= fixed
        {
            return Err(PlatformError::InvalidConfig(format!(
                "query deadline of {}ms leaves no room for the fixed \
                 receive+merge cost of {}ms",
                self.resilience.query_deadline_ms, fixed
            )));
        }
        if self.admission.weight == 0 {
            return Err(PlatformError::InvalidConfig(
                "admission weight must be at least 1".into(),
            ));
        }
        if self.admission.max_concurrency == 0 {
            return Err(PlatformError::InvalidConfig(
                "admission concurrency cap of 0 would shed every query".into(),
            ));
        }
        if self.admission.rate_per_sec != u32::MAX
            && (self.admission.rate_per_sec == 0 || self.admission.burst == 0)
        {
            return Err(PlatformError::InvalidConfig(
                "admission rate limiting needs a positive rate and burst".into(),
            ));
        }
        Ok(())
    }
}

/// Fluent builder for [`ApplicationConfig`].
#[derive(Debug)]
pub struct AppBuilder {
    config: ApplicationConfig,
}

impl AppBuilder {
    /// Start a new application for a tenant.
    pub fn new(name: &str, owner: TenantId) -> AppBuilder {
        AppBuilder {
            config: ApplicationConfig {
                name: name.to_string(),
                owner,
                sources: Vec::new(),
                layout: Canvas::new(),
                supplemental: Vec::new(),
                constraints: Vec::new(),
                stylesheet: Stylesheet::new(),
                monetization: MonetizationConfig {
                    log_interactions: true,
                    publisher: name.to_string(),
                },
                resilience: ResiliencePolicy::default(),
                admission: AdmissionPolicy::default(),
            },
        }
    }

    /// Add a data source.
    pub fn source(mut self, name: &str, def: DataSourceDef) -> AppBuilder {
        self.config.sources.push(DataSourceConfig {
            name: name.to_string(),
            def,
        });
        self
    }

    /// Set the layout canvas (usually from a [`symphony_designer::Designer`]).
    pub fn layout(mut self, layout: Canvas) -> AppBuilder {
        self.config.layout = layout;
        self
    }

    /// Bind a supplemental source's query template.
    pub fn supplemental(mut self, source: &str, query_template: &str) -> AppBuilder {
        self.config.supplemental.push(SupplementalBinding {
            source: source.to_string(),
            query_template: Template::parse(query_template),
        });
        self
    }

    /// Attach a structured constraint to a proprietary source.
    pub fn constraint(mut self, source: &str, filter: Filter) -> AppBuilder {
        self.config.constraints.push((source.to_string(), filter));
        self
    }

    /// Set the stylesheet.
    pub fn stylesheet(mut self, sheet: Stylesheet) -> AppBuilder {
        self.config.stylesheet = sheet;
        self
    }

    /// Configure monetization.
    pub fn monetization(mut self, m: MonetizationConfig) -> AppBuilder {
        self.config.monetization = m;
        self
    }

    /// Set the per-query resilience limits.
    pub fn resilience(mut self, policy: ResiliencePolicy) -> AppBuilder {
        self.config.resilience = policy;
        self
    }

    /// Set the per-tenant admission limits.
    pub fn admission(mut self, policy: AdmissionPolicy) -> AppBuilder {
        self.config.admission = policy;
        self
    }

    /// Validate and produce the config.
    pub fn build(self) -> Result<ApplicationConfig, PlatformError> {
        self.config.validate()?;
        Ok(self.config)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use symphony_designer::Element;
    use symphony_web::{SearchConfig, Vertical};

    fn layout_with(primary: &str, nested: Option<&str>) -> Canvas {
        let mut canvas = Canvas::new();
        let root = canvas.root_id();
        let mut item = Element::column(vec![Element::text("{title}")]);
        if let Some(n) = nested {
            if let symphony_designer::ElementKind::Container { children, .. } = &mut item.kind {
                children.push(Element::result_list(n, Element::text("{title}"), 3));
            }
        }
        canvas
            .insert(root, Element::result_list(primary, item, 10))
            .unwrap();
        canvas
    }

    fn builder(layout: Canvas) -> AppBuilder {
        AppBuilder::new("GamerQueen", TenantId(0))
            .source(
                "inventory",
                DataSourceDef::Proprietary {
                    table: "inventory".into(),
                },
            )
            .source(
                "reviews",
                DataSourceDef::WebVertical {
                    vertical: Vertical::Web,
                    config: SearchConfig::default(),
                },
            )
            .layout(layout)
    }

    #[test]
    fn valid_config_builds() {
        let app = builder(layout_with("inventory", Some("reviews")))
            .supplemental("reviews", "{title} review")
            .build()
            .unwrap();
        assert_eq!(app.primary_sources(), vec!["inventory"]);
        assert_eq!(app.supplemental_sources(), vec!["reviews"]);
        assert!(app.binding("reviews").is_some());
    }

    #[test]
    fn unknown_layout_source_rejected() {
        let err = builder(layout_with("mystery", None)).build().unwrap_err();
        assert_eq!(err, PlatformError::UnknownSource("mystery".into()));
    }

    #[test]
    fn missing_supplemental_binding_rejected() {
        let err = builder(layout_with("inventory", Some("reviews")))
            .build()
            .unwrap_err();
        assert_eq!(err, PlatformError::MissingBinding("reviews".into()));
    }

    #[test]
    fn empty_layout_rejected() {
        let err = builder(Canvas::new()).build().unwrap_err();
        assert!(matches!(err, PlatformError::InvalidConfig(_)));
    }

    #[test]
    fn monetization_needs_publisher() {
        let err = builder(layout_with("inventory", None))
            .monetization(MonetizationConfig {
                log_interactions: true,
                publisher: String::new(),
            })
            .build()
            .unwrap_err();
        assert!(matches!(err, PlatformError::InvalidConfig(_)));
        // Disabling logging removes the requirement.
        let ok = builder(layout_with("inventory", None))
            .monetization(MonetizationConfig {
                log_interactions: false,
                publisher: String::new(),
            })
            .build();
        assert!(ok.is_ok());
    }

    #[test]
    fn constraints_validate_against_source_kind() {
        use symphony_store::{CmpOp, Value};
        // Constraint on a proprietary source: fine.
        let ok = builder(layout_with("inventory", None))
            .constraint("inventory", Filter::cmp(2, CmpOp::Lt, Value::Float(50.0)))
            .build();
        assert!(ok.is_ok());
        assert!(ok.unwrap().constraint("inventory").is_some());
        // Constraint on a web source: rejected.
        let err = builder(layout_with("inventory", None))
            .constraint("reviews", Filter::True)
            .build()
            .unwrap_err();
        assert!(matches!(err, PlatformError::InvalidConfig(_)));
        // Constraint on an unknown source: rejected.
        let err = builder(layout_with("inventory", None))
            .constraint("ghost", Filter::True)
            .build()
            .unwrap_err();
        assert_eq!(err, PlatformError::UnknownSource("ghost".into()));
    }

    #[test]
    fn primary_lists_found_inside_containers() {
        // A result list wrapped in a column (header + list) is still
        // primary; only lists inside another list's item layout are
        // supplemental.
        let mut canvas = Canvas::new();
        let root = canvas.root_id();
        canvas
            .insert(
                root,
                Element::column(vec![
                    Element::text("Games"),
                    Element::result_list(
                        "inventory",
                        Element::column(vec![
                            Element::text("{title}"),
                            Element::result_list("reviews", Element::text("{title}"), 2),
                        ]),
                        5,
                    ),
                ]),
            )
            .unwrap();
        let app = builder(canvas)
            .supplemental("reviews", "{title} review")
            .build()
            .unwrap();
        assert_eq!(app.primary_sources(), vec!["inventory"]);
        assert_eq!(app.supplemental_sources(), vec!["reviews"]);
        assert_eq!(app.primary_lists().len(), 1);
        assert_eq!(app.primary_lists()[0].1, 5);
    }

    #[test]
    fn resilience_deadline_must_cover_fixed_costs() {
        let tight = ResiliencePolicy {
            query_deadline_ms: crate::runtime::RECEIVE_MS + crate::runtime::MERGE_MS,
            ..ResiliencePolicy::default()
        };
        let err = builder(layout_with("inventory", None))
            .resilience(tight)
            .build()
            .unwrap_err();
        assert!(matches!(err, PlatformError::InvalidConfig(_)));
        let ok = builder(layout_with("inventory", None))
            .resilience(ResiliencePolicy {
                query_deadline_ms: 500,
                per_source_budget_ms: 200,
                max_total_retries: 4,
            })
            .build()
            .unwrap();
        assert_ne!(ok.resilience, ResiliencePolicy::default());
        assert!(ApplicationConfig::validate(&ok).is_ok());
        // The default is unlimited and always valid.
        let def = builder(layout_with("inventory", None)).build().unwrap();
        assert_eq!(def.resilience, ResiliencePolicy::default());
    }

    #[test]
    fn admission_policy_validates() {
        // Defaults are unlimited and always valid.
        let def = builder(layout_with("inventory", None)).build().unwrap();
        assert!(def.admission.is_unlimited());
        // A rate-limited policy must have positive rate and burst.
        for bad in [
            AdmissionPolicy {
                rate_per_sec: 10,
                burst: 0,
                ..AdmissionPolicy::default()
            },
            AdmissionPolicy {
                rate_per_sec: 0,
                burst: 5,
                ..AdmissionPolicy::default()
            },
            AdmissionPolicy {
                weight: 0,
                ..AdmissionPolicy::default()
            },
            AdmissionPolicy {
                max_concurrency: 0,
                ..AdmissionPolicy::default()
            },
        ] {
            let err = builder(layout_with("inventory", None))
                .admission(bad)
                .build()
                .unwrap_err();
            assert!(matches!(err, PlatformError::InvalidConfig(_)), "{bad:?}");
        }
        let ok = builder(layout_with("inventory", None))
            .admission(AdmissionPolicy {
                rate_per_sec: 50,
                burst: 10,
                max_concurrency: 4,
                weight: 2,
            })
            .build()
            .unwrap();
        assert!(!ok.admission.is_unlimited());
    }

    #[test]
    fn source_lookup() {
        let app = builder(layout_with("inventory", None)).build().unwrap();
        assert!(app.source("inventory").is_some());
        assert!(app.source("nope").is_none());
    }
}
