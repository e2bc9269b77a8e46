//! The [`SystemModel`] interface: every system in Table I as a
//! *working* (deliberately restricted) implementation.
//!
//! Table I is regenerated by **probing** these models — attempting an
//! upload, attempting a UI customization, asking for deployment modes —
//! rather than by printing hard-coded strings; the capability text in
//! the output is the live behaviour of the model code.

/// Result of attempting a capability.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Probe {
    /// Did the attempt succeed?
    pub supported: bool,
    /// Live detail ("uploaded csv, xml, worksheet", "partner-only").
    pub notes: String,
}

impl Probe {
    /// Supported with notes.
    pub(crate) fn yes(notes: &str) -> Probe {
        Probe {
            supported: true,
            notes: notes.to_string(),
        }
    }

    /// Unsupported with notes.
    pub(crate) fn no(notes: &str) -> Probe {
        Probe {
            supported: false,
            notes: notes.to_string(),
        }
    }

    /// Table-cell rendering.
    pub(crate) fn cell(&self) -> String {
        if self.notes.is_empty() {
            if self.supported { "Supported" } else { "No" }.to_string()
        } else {
            self.notes.clone()
        }
    }
}

/// One result in the E5 scenario comparison.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioResult {
    /// Result title.
    pub title: String,
    /// Result URL.
    pub url: String,
    /// Which side produced it ("proprietary", "web", "ads").
    pub origin: String,
}

/// A Table-I system, implemented as live code over the shared
/// substrates.
pub trait SystemModel {
    /// System name as in Table I.
    fn name(&self) -> &'static str;

    /// Which search API the system builds on (all simulated — see the
    /// substitution table in DESIGN.md).
    fn search_api(&self) -> String;

    /// Attempt to restrict search to the designer's chosen sites.
    fn probe_custom_sites(&mut self) -> Probe;

    /// Attempt to upload proprietary structured data (each format is
    /// actually tried).
    fn probe_proprietary_data(&mut self) -> Probe;

    /// The monetization policy in force.
    fn monetization(&self) -> String;

    /// Attempt to customize the result UI.
    fn probe_custom_ui(&mut self) -> Probe;

    /// How applications are deployed to end users.
    fn deployment(&self) -> String;

    /// Answer a customer query in the GamerQueen scenario (used by the
    /// E5 quality comparison).
    fn answer(&mut self, query: &str, k: usize) -> Vec<ScenarioResult>;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn probe_cells() {
        assert_eq!(Probe::yes("").cell(), "Supported");
        assert_eq!(Probe::no("").cell(), "No");
        assert_eq!(Probe::yes("drag'n'drop").cell(), "drag'n'drop");
    }
}
