//! ROST protocol parameters.

/// Tunable parameters of the ROST protocol.
///
/// Defaults follow §5 of the paper: a 360-second switching interval and a
/// 15-second lock retry delay (§3.3).
#[derive(Debug, Clone, PartialEq)]
pub struct RostConfig {
    /// Seconds between a member's switching-condition checks (§3.3; the
    /// paper's default is 360 s, Fig. 11 sweeps 480–1800 s).
    pub switching_interval_secs: f64,
    /// How long a member waits before re-checking when it could not lock
    /// the nodes involved in a switch (§3.3 suggests ~15 s).
    pub lock_retry_secs: f64,
    /// How long the locks of one switching operation are held (the time
    /// the coordinated reconnections take).
    pub lock_hold_secs: f64,
    /// Whether the §3.3 bandwidth guard is enforced ("its bandwidth is no
    /// less than the parent's bandwidth"). Disabling it is an ablation:
    /// pure BTP ordering, where a strong-BTP weak-bandwidth member can
    /// climb only to be overtaken again later.
    pub bandwidth_guard: bool,
}

impl RostConfig {
    /// The paper's §5 defaults.
    #[must_use]
    pub fn paper() -> Self {
        RostConfig::default()
    }

    /// A copy with a different switching interval (Fig. 11's sweep).
    #[must_use]
    pub fn with_switching_interval(mut self, secs: f64) -> Self {
        assert!(secs > 0.0, "switching interval must be positive");
        self.switching_interval_secs = secs;
        self
    }

    /// A copy without the §3.3 bandwidth guard (ablation).
    #[must_use]
    pub fn without_bandwidth_guard(mut self) -> Self {
        self.bandwidth_guard = false;
        self
    }
}

impl Default for RostConfig {
    fn default() -> Self {
        RostConfig {
            switching_interval_secs: 360.0,
            lock_retry_secs: 15.0,
            lock_hold_secs: 2.0,
            bandwidth_guard: true,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_defaults_match_section5() {
        let c = RostConfig::paper();
        assert_eq!(c.switching_interval_secs, 360.0);
        assert_eq!(c.lock_retry_secs, 15.0);
    }

    #[test]
    fn interval_override() {
        let c = RostConfig::paper().with_switching_interval(480.0);
        assert_eq!(c.switching_interval_secs, 480.0);
        assert_eq!(c.lock_retry_secs, 15.0);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_interval_rejected() {
        let _ = RostConfig::paper().with_switching_interval(0.0);
    }
}
