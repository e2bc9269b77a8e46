//! Deterministic fault injection scheduled in *virtual time*.
//!
//! A [`FaultPlan`] is a set of per-endpoint windows, each applying one
//! [`FaultEffect`] while the transport's virtual clock is inside the
//! window. Plans compose with the endpoint's [`LatencyModel`]: spikes
//! and ramps add latency on top of the model's draw, bursts raise the
//! failure probability, outages make every call hang until the caller
//! times out. Because windows are expressed in virtual milliseconds
//! and the resilient call path draws latency from a pure hash of
//! `(seed, endpoint, request, now, attempt)`, an injected fault
//! produces *exactly* the same behaviour on every run — the chaos
//! suite asserts degradation down to the millisecond.
//!
//! [`LatencyModel`]: crate::transport::LatencyModel

/// What a fault window does to calls inside it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum FaultEffect {
    /// Hard outage: every call hangs and never completes. The caller's
    /// timeout converts the hang into a charged timeout, so without a
    /// circuit breaker an outage burns `timeout × attempts` per fetch.
    Outage,
    /// Latency spike: a fixed surcharge on every call in the window.
    LatencySpike {
        /// Virtual ms added to each call.
        add_ms: u32,
    },
    /// Fault burst: transport failures at the given probability
    /// (combined with the model's own rate by taking the max).
    FaultBurst {
        /// Probability of a transport failure inside the window.
        failure_rate: f64,
    },
    /// Slow-ramp degradation: added latency grows linearly from 0 at
    /// the window start to `peak_add_ms` at the window end.
    SlowRamp {
        /// Added virtual ms reached at the end of the window.
        peak_add_ms: u32,
    },
}

/// One scheduled fault: an effect applied to an endpoint inside
/// `[from_ms, until_ms)` of virtual time.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct FaultWindow {
    /// Endpoint the fault applies to.
    pub endpoint: String,
    /// Window start (inclusive), virtual ms.
    pub from_ms: u64,
    /// Window end (exclusive), virtual ms.
    pub until_ms: u64,
    /// The effect while inside the window.
    pub effect: FaultEffect,
}

impl FaultWindow {
    fn active(&self, endpoint: &str, now_ms: u64) -> bool {
        self.endpoint == endpoint && (self.from_ms..self.until_ms).contains(&now_ms)
    }
}

/// The composed effect of every window active for one call.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub(crate) struct ActiveFaults {
    /// At least one outage window is active.
    pub outage: bool,
    /// Total added latency from spikes and ramps.
    pub add_ms: u32,
    /// Strongest burst failure rate (0.0 when none).
    pub failure_rate: f64,
}

/// A deterministic schedule of faults in virtual time.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FaultPlan {
    windows: Vec<FaultWindow>,
}

impl FaultPlan {
    /// An empty plan (no faults — the transport behaves per its
    /// latency models alone).
    pub fn new() -> FaultPlan {
        FaultPlan::default()
    }

    /// Schedule a hard outage of `endpoint` for `[from_ms, until_ms)`.
    pub fn outage(mut self, endpoint: &str, from_ms: u64, until_ms: u64) -> FaultPlan {
        self.windows.push(FaultWindow {
            endpoint: endpoint.to_string(),
            from_ms,
            until_ms,
            effect: FaultEffect::Outage,
        });
        self
    }

    /// Schedule a latency spike of `add_ms` on `endpoint`.
    pub fn latency_spike(
        mut self,
        endpoint: &str,
        from_ms: u64,
        until_ms: u64,
        add_ms: u32,
    ) -> FaultPlan {
        self.windows.push(FaultWindow {
            endpoint: endpoint.to_string(),
            from_ms,
            until_ms,
            effect: FaultEffect::LatencySpike { add_ms },
        });
        self
    }

    /// Schedule a burst of transport failures on `endpoint`.
    pub fn fault_burst(
        mut self,
        endpoint: &str,
        from_ms: u64,
        until_ms: u64,
        failure_rate: f64,
    ) -> FaultPlan {
        self.windows.push(FaultWindow {
            endpoint: endpoint.to_string(),
            from_ms,
            until_ms,
            effect: FaultEffect::FaultBurst { failure_rate },
        });
        self
    }

    /// Schedule a slow-ramp degradation on `endpoint`: added latency
    /// climbs linearly to `peak_add_ms` across the window.
    pub fn slow_ramp(
        mut self,
        endpoint: &str,
        from_ms: u64,
        until_ms: u64,
        peak_add_ms: u32,
    ) -> FaultPlan {
        self.windows.push(FaultWindow {
            endpoint: endpoint.to_string(),
            from_ms,
            until_ms,
            effect: FaultEffect::SlowRamp { peak_add_ms },
        });
        self
    }

    /// The scheduled windows.
    pub(crate) fn windows(&self) -> &[FaultWindow] {
        &self.windows
    }

    /// Compose every window active for `endpoint` at `now_ms`.
    pub(crate) fn active(&self, endpoint: &str, now_ms: u64) -> ActiveFaults {
        let mut out = ActiveFaults::default();
        for w in self.windows.iter().filter(|w| w.active(endpoint, now_ms)) {
            match w.effect {
                FaultEffect::Outage => out.outage = true,
                FaultEffect::LatencySpike { add_ms } => {
                    out.add_ms = out.add_ms.saturating_add(add_ms)
                }
                FaultEffect::FaultBurst { failure_rate } => {
                    out.failure_rate = out.failure_rate.max(failure_rate)
                }
                FaultEffect::SlowRamp { peak_add_ms } => {
                    let span = (w.until_ms - w.from_ms).max(1);
                    let into = now_ms - w.from_ms;
                    let add = (peak_add_ms as u64 * into / span) as u32;
                    out.add_ms = out.add_ms.saturating_add(add);
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn windows_are_half_open_and_per_endpoint() {
        let plan = FaultPlan::new().outage("a", 100, 200);
        assert!(!plan.active("a", 99).outage);
        assert!(plan.active("a", 100).outage);
        assert!(plan.active("a", 199).outage);
        assert!(!plan.active("a", 200).outage);
        assert!(!plan.active("b", 150).outage);
    }

    #[test]
    fn effects_compose_across_overlapping_windows() {
        let plan = FaultPlan::new()
            .latency_spike("a", 0, 100, 40)
            .latency_spike("a", 50, 100, 10)
            .fault_burst("a", 0, 100, 0.2)
            .fault_burst("a", 0, 100, 0.6);
        let at_25 = plan.active("a", 25);
        assert_eq!(at_25.add_ms, 40);
        assert_eq!(at_25.failure_rate, 0.6);
        let at_75 = plan.active("a", 75);
        assert_eq!(at_75.add_ms, 50);
    }

    #[test]
    fn slow_ramp_grows_linearly() {
        let plan = FaultPlan::new().slow_ramp("a", 1000, 2000, 300);
        assert_eq!(plan.active("a", 1000).add_ms, 0);
        assert_eq!(plan.active("a", 1500).add_ms, 150);
        assert_eq!(plan.active("a", 1999).add_ms, 299);
        assert_eq!(plan.active("a", 2000).add_ms, 0); // window over
    }

    #[test]
    fn empty_plan_is_inert() {
        let plan = FaultPlan::new();
        assert!(plan.windows().is_empty());
        assert_eq!(plan.active("x", 5), ActiveFaults::default());
    }
}
