//! Distribution: embed snippets and social publishing.
//!
//! Paper §II-A, "Distribution": designers embed applications "by
//! copy-and-pasting auto-generated snippets of JavaScript and HTML
//! onto a web page", or publish to social platforms. The snippet is
//! generated here; the social side produces a deployment descriptor
//! validated by a simulated canvas host (see the substitution table in
//! DESIGN.md).

use crate::app::{AppId, ApplicationConfig};

/// Generate the copy-paste embed code for an application.
///
/// The returned HTML contains the placeholder `<div>` the results are
/// injected into and the script that forwards queries to the Symphony
/// host — the mechanism of Fig. 2's first and last arrows.
pub(crate) fn embed_snippet(app: &ApplicationConfig, id: AppId, platform_host: &str) -> String {
    let div_id = format!("symphony-app-{}", id.0);
    format!(
        r#"<!-- Symphony embed for "{name}" — paste into your page -->
<div id="{div_id}" class="symphony-app"></div>
<script type="text/javascript">
  (function () {{
    var HOST = "{host}";
    var APP = {app_id};
    window.symphonySearch = function (form) {{
      var q = form.q.value;
      var xhr = new XMLHttpRequest();
      xhr.open("GET", HOST + "/apps/" + APP + "/search?q=" + encodeURIComponent(q), true);
      xhr.onload = function () {{
        document.getElementById("{div_id}").innerHTML = xhr.responseText;
      }};
      xhr.send();
      return false;
    }};
  }})();
</script>"#,
        name = app.name,
        div_id = div_id,
        host = platform_host,
        app_id = id.0,
    )
}

/// A key/value deployment descriptor for a social canvas platform
/// (the Facebook-publishing analogue).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SocialManifest {
    /// Descriptor entries.
    pub entries: Vec<(String, String)>,
}

impl SocialManifest {
    /// Build the manifest for an application.
    pub(crate) fn for_app(
        app: &ApplicationConfig,
        id: AppId,
        platform_host: &str,
    ) -> SocialManifest {
        SocialManifest {
            entries: vec![
                ("app_name".into(), app.name.clone()),
                (
                    "canvas_url".into(),
                    format!("{platform_host}/apps/{}/canvas", id.0),
                ),
                (
                    "callback_url".into(),
                    format!("{platform_host}/apps/{}/search", id.0),
                ),
                ("platform".into(), "symphony".into()),
                ("version".into(), "1.0".into()),
            ],
        }
    }

    /// Entry lookup.
    pub(crate) fn get(&self, key: &str) -> Option<&str> {
        self.entries
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }
}

/// A simulated social canvas host that accepts app installations.
#[derive(Debug, Default)]
pub struct SocialCanvasHost {
    installed: Vec<SocialManifest>,
}

impl SocialCanvasHost {
    /// Empty host.
    pub fn new() -> SocialCanvasHost {
        SocialCanvasHost::default()
    }

    /// Validate and install a manifest, returning the canvas URL.
    pub fn install(&mut self, manifest: SocialManifest) -> Result<String, String> {
        for required in ["app_name", "canvas_url", "callback_url"] {
            match manifest.get(required) {
                None => return Err(format!("manifest missing {required}")),
                Some("") => return Err(format!("manifest has empty {required}")),
                Some(_) => {}
            }
        }
        if self
            .installed
            .iter()
            .any(|m| m.get("app_name") == manifest.get("app_name"))
        {
            return Err(format!(
                "app {:?} already installed",
                manifest.get("app_name").unwrap_or_default()
            ));
        }
        let url = manifest.get("canvas_url").expect("validated").to_string();
        self.installed.push(manifest);
        Ok(url)
    }

    /// Installed application names.
    pub fn installed_apps(&self) -> Vec<&str> {
        self.installed
            .iter()
            .filter_map(|m| m.get("app_name"))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::app::AppBuilder;
    use crate::source::DataSourceDef;
    use symphony_designer::{Canvas, Element};
    use symphony_store::TenantId;

    fn app() -> ApplicationConfig {
        let mut canvas = Canvas::new();
        let root = canvas.root_id();
        canvas
            .insert(
                root,
                Element::result_list("inv", Element::text("{title}"), 5),
            )
            .unwrap();
        AppBuilder::new("GamerQueen", TenantId(0))
            .source(
                "inv",
                DataSourceDef::Proprietary {
                    table: "inv".into(),
                },
            )
            .layout(canvas)
            .build()
            .unwrap()
    }

    #[test]
    fn snippet_contains_div_script_and_endpoint() {
        let s = embed_snippet(&app(), AppId(7), "https://symphony.example.com");
        assert!(s.contains("id=\"symphony-app-7\""));
        assert!(s.contains("<script"));
        assert!(s.contains("https://symphony.example.com"));
        assert!(s.contains("var APP = 7;"));
        assert!(s.contains("\"/apps/\" + APP + \"/search?q=\""));
        assert!(s.contains("symphonySearch"));
    }

    #[test]
    fn manifest_entries() {
        let m = SocialManifest::for_app(&app(), AppId(3), "https://sym.example.com");
        assert_eq!(m.get("app_name"), Some("GamerQueen"));
        assert_eq!(
            m.get("canvas_url"),
            Some("https://sym.example.com/apps/3/canvas")
        );
        assert_eq!(m.get("nope"), None);
    }

    #[test]
    fn canvas_host_installs_once() {
        let mut host = SocialCanvasHost::new();
        let m = SocialManifest::for_app(&app(), AppId(1), "https://sym.example.com");
        let url = host.install(m.clone()).unwrap();
        assert!(url.ends_with("/apps/1/canvas"));
        assert_eq!(host.installed_apps(), vec!["GamerQueen"]);
        assert!(host.install(m).unwrap_err().contains("already installed"));
    }

    #[test]
    fn canvas_host_rejects_incomplete_manifest() {
        let mut host = SocialCanvasHost::new();
        let bad = SocialManifest {
            entries: vec![("app_name".into(), "X".into())],
        };
        assert!(host.install(bad).unwrap_err().contains("canvas_url"));
        let empty = SocialManifest {
            entries: vec![
                ("app_name".into(), String::new()),
                ("canvas_url".into(), "u".into()),
                ("callback_url".into(), "c".into()),
            ],
        };
        assert!(host.install(empty).unwrap_err().contains("empty app_name"));
    }
}
