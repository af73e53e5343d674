//! The resilience governor: policy for surviving deopt storms and compile
//! failures.
//!
//! The paper's mechanism assumes state flips are rare and compilation always
//! succeeds. This module is the *policy* layer that keeps the machinery safe
//! when neither holds (OSR-à-la-Carte's separation of deopt mechanism from
//! policy): per-(method, special-state) guard-failure counters over a
//! modeled-cycle sliding window detect guard-fail → respecialize churn;
//! past a threshold the special is throttled with deterministic exponential
//! backoff (keyed to the modeled clock, never wall time) and the site pinned
//! to general opt code; past a lifetime threshold the special is blacklisted
//! for good. A parallel table quarantines `(method, opt-level)` pairs whose
//! compilation keeps failing, with the same backoff schedule.
//!
//! Everything here is host-side bookkeeping: governor checks charge zero
//! modeled cycles, so a governor that never fires leaves output *and* clock
//! bit-identical to a governor that is off. All state is keyed lookups over
//! deterministic inputs (method ids, binding fingerprints, the modeled
//! clock), so decisions are bit-identical run to run.

use std::collections::HashMap;

// The paper has no governor: the thresholds below are the values it shipped
// with, and every governed figure and test was measured at them.
/// Sliding-window length in modeled cycles for storm detection.
pub const STORM_WINDOW: u64 = 200_000;
/// Guard failures of one (method, state) site within the window that start
/// a throttle episode.
pub const THROTTLE_THRESHOLD: u32 = 8;
/// Lifetime guard failures past which the *next storm* blacklists the
/// special permanently (a slow drip below the throttle rate never
/// blacklists, no matter how long it runs).
pub const BLACKLIST_THRESHOLD: u64 = 32;
/// First-episode backoff in modeled cycles; episode `n` backs off
/// `BACKOFF_BASE << min(n-1, BACKOFF_MAX_EXP)`.
pub const BACKOFF_BASE: u64 = 100_000;
/// Cap on the backoff exponent (prevents shift overflow and absurd waits).
pub const BACKOFF_MAX_EXP: u32 = 10;
/// Compile failures of one (method, level) pair that quarantine it.
pub const QUARANTINE_THRESHOLD: u32 = 3;

/// The [`Governor`]'s switch. Lives in [`crate::state::VmConfig`]; the
/// governor itself holds no copy, so it can be toggled after VM
/// construction (the benchmark's `deopt_storm` runs both halves).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct GovernorConfig {
    /// Master switch. Off: every query permits, nothing is recorded.
    pub enabled: bool,
}

impl Default for GovernorConfig {
    fn default() -> Self {
        GovernorConfig { enabled: true }
    }
}

/// Storm bookkeeping for one (method, binding-fingerprint) site.
#[derive(Clone, Copy, Debug, Default)]
struct SiteState {
    /// Modeled clock at the start of the current sliding window.
    window_start: u64,
    /// Guard failures inside the current window.
    fails_in_window: u32,
    /// Lifetime guard failures.
    total_fails: u64,
    /// Throttle episodes started (drives backoff escalation).
    episodes: u32,
    /// Respecialization is forbidden until this modeled cycle.
    throttled_until: u64,
    /// Permanently banned.
    blacklisted: bool,
}

/// Quarantine bookkeeping for one (method, opt-level) compile pair.
#[derive(Clone, Copy, Debug, Default)]
struct QuarState {
    /// Failures since the last quarantine episode started.
    fails_in_episode: u32,
    /// Lifetime compile failures.
    total_fails: u32,
    /// Quarantine episodes started (drives backoff escalation).
    episodes: u32,
    /// Compilation is forbidden until this modeled cycle.
    until: u64,
}

/// What [`Governor::on_guard_fail`] decided for this failure.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum GuardFailVerdict {
    /// Below every threshold: bookkeeping only, no behavior change.
    None,
    /// Storm detected: pin the site to general code until `until`.
    Throttle {
        /// 1-based episode number (backoff doubles each episode).
        episode: u32,
        /// Modeled cycle the backoff expires at.
        until: u64,
    },
    /// Lifetime threshold crossed: the special is banned for good.
    Blacklist {
        /// Lifetime guard failures of the site.
        total_fails: u64,
    },
}

/// The governor's mutable state: storm sites and compile quarantines.
/// Maps are only ever probed by key (never iterated), so `HashMap` order
/// nondeterminism cannot leak into decisions.
#[derive(Debug, Default)]
pub struct Governor {
    sites: HashMap<(u32, u64), SiteState>,
    quarantine: HashMap<(u32, u8), QuarState>,
}

impl Governor {
    /// Records a guard failure of special code for `(method, fp)` at
    /// modeled `clock` and returns the policy verdict. Blacklisted sites
    /// and failures landing inside an active backoff are counted but never
    /// escalate (residual frames still inside pinned special code must not
    /// re-trigger episodes).
    pub fn on_guard_fail(
        &mut self,
        cfg: &GovernorConfig,
        method: u32,
        fp: u64,
        clock: u64,
    ) -> GuardFailVerdict {
        if !cfg.enabled {
            return GuardFailVerdict::None;
        }
        let s = self.sites.entry((method, fp)).or_default();
        if s.blacklisted {
            return GuardFailVerdict::None;
        }
        if clock.saturating_sub(s.window_start) > STORM_WINDOW {
            s.window_start = clock;
            s.fails_in_window = 0;
        }
        s.fails_in_window += 1;
        s.total_fails += 1;
        if clock < s.throttled_until {
            return GuardFailVerdict::None;
        }
        if s.fails_in_window >= THROTTLE_THRESHOLD {
            // Blacklist replaces the throttle that would start once the
            // site's lifetime budget is spent: it requires an *active*
            // storm, so slow drips below the throttle rate only ever
            // accumulate bookkeeping, never a ban.
            if s.total_fails >= BLACKLIST_THRESHOLD {
                s.blacklisted = true;
                return GuardFailVerdict::Blacklist { total_fails: s.total_fails };
            }
            s.episodes += 1;
            let exp = (s.episodes - 1).min(BACKOFF_MAX_EXP);
            s.throttled_until = clock + (BACKOFF_BASE << exp);
            s.fails_in_window = 0;
            s.window_start = clock;
            return GuardFailVerdict::Throttle {
                episode: s.episodes,
                until: s.throttled_until,
            };
        }
        GuardFailVerdict::None
    }

    /// True when the special for `(method, fp)` may be installed or
    /// dispatched at modeled `clock`: not blacklisted and past any backoff.
    pub fn special_allowed(
        &self,
        cfg: &GovernorConfig,
        method: u32,
        fp: u64,
        clock: u64,
    ) -> bool {
        if !cfg.enabled {
            return true;
        }
        match self.sites.get(&(method, fp)) {
            None => true,
            Some(s) => !s.blacklisted && clock >= s.throttled_until,
        }
    }

    /// Records a compile failure of `(method, level)` at modeled `clock`.
    /// Returns `Some((lifetime_fails, until))` when this failure starts a
    /// quarantine episode.
    pub fn on_compile_failure(
        &mut self,
        cfg: &GovernorConfig,
        method: u32,
        level: u8,
        clock: u64,
    ) -> Option<(u32, u64)> {
        if !cfg.enabled {
            return None;
        }
        let q = self.quarantine.entry((method, level)).or_default();
        q.fails_in_episode += 1;
        q.total_fails += 1;
        if q.fails_in_episode >= QUARANTINE_THRESHOLD {
            q.episodes += 1;
            let exp = (q.episodes - 1).min(BACKOFF_MAX_EXP);
            q.until = clock + (BACKOFF_BASE << exp);
            q.fails_in_episode = 0;
            return Some((q.total_fails, q.until));
        }
        None
    }

    /// True when compiling `(method, level)` is permitted at modeled
    /// `clock` (not inside a quarantine backoff).
    pub fn compile_allowed(
        &self,
        cfg: &GovernorConfig,
        method: u32,
        level: u8,
        clock: u64,
    ) -> bool {
        if !cfg.enabled {
            return true;
        }
        match self.quarantine.get(&(method, level)) {
            None => true,
            Some(q) => clock >= q.until,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn below_threshold_is_bookkeeping_only() {
        let mut g = Governor::default();
        let c = GovernorConfig::default();
        for i in 0..(THROTTLE_THRESHOLD - 1) as u64 {
            assert_eq!(g.on_guard_fail(&c, 1, 7, i), GuardFailVerdict::None);
        }
        assert!(g.special_allowed(&c, 1, 7, 100));
    }

    #[test]
    fn storm_throttles_then_backoff_doubles_then_blacklists() {
        let mut g = Governor::default();
        let c = GovernorConfig::default();
        let mut clock = 0u64;
        let mut untils = Vec::new();
        let mut blacklisted_at = None;
        // Feed failures in tight bursts, skipping past each backoff.
        for _episode in 0..10 {
            let mut done = false;
            for _ in 0..THROTTLE_THRESHOLD {
                clock += 1;
                match g.on_guard_fail(&c, 1, 7, clock) {
                    GuardFailVerdict::None => {}
                    GuardFailVerdict::Throttle { until, .. } => {
                        assert!(!g.special_allowed(&c, 1, 7, clock));
                        assert!(g.special_allowed(&c, 1, 7, until));
                        untils.push(until - clock);
                        clock = until;
                    }
                    GuardFailVerdict::Blacklist { total_fails } => {
                        blacklisted_at = Some(total_fails);
                        done = true;
                        break;
                    }
                }
            }
            if done {
                break;
            }
        }
        // 3 throttle episodes (8, 16, 24 fails) then blacklist at 32.
        assert_eq!(untils, vec![
            BACKOFF_BASE,
            BACKOFF_BASE << 1,
            BACKOFF_BASE << 2
        ]);
        assert_eq!(blacklisted_at, Some(BLACKLIST_THRESHOLD));
        assert!(!g.special_allowed(&c, 1, 7, u64::MAX));
        // Other sites are unaffected.
        assert!(g.special_allowed(&c, 1, 8, 0));
        assert!(g.special_allowed(&c, 2, 7, 0));
    }

    #[test]
    fn slow_drip_outside_window_never_throttles() {
        let mut g = Governor::default();
        let c = GovernorConfig::default();
        let mut clock = 0;
        for _ in 0..100 {
            clock += STORM_WINDOW + 1;
            assert_eq!(g.on_guard_fail(&c, 1, 7, clock), GuardFailVerdict::None);
        }
        assert!(g.special_allowed(&c, 1, 7, clock));
    }

    #[test]
    fn fails_inside_backoff_do_not_restart_episode() {
        let mut g = Governor::default();
        let c = GovernorConfig::default();
        for i in 0..THROTTLE_THRESHOLD as u64 {
            let v = g.on_guard_fail(&c, 1, 7, i);
            if i == (THROTTLE_THRESHOLD - 1) as u64 {
                assert!(matches!(v, GuardFailVerdict::Throttle { episode: 1, .. }));
            }
        }
        // Residual frames still in special code keep failing during the
        // backoff; they must not start episode 2.
        for i in 0..(THROTTLE_THRESHOLD * 2) as u64 {
            assert_eq!(
                g.on_guard_fail(&c, 1, 7, 100 + i),
                GuardFailVerdict::None
            );
        }
    }

    #[test]
    fn disabled_governor_is_inert() {
        let mut g = Governor::default();
        let c = GovernorConfig { enabled: false };
        for i in 0..1000 {
            assert_eq!(g.on_guard_fail(&c, 1, 7, i), GuardFailVerdict::None);
            assert!(g.on_compile_failure(&c, 1, 2, i).is_none());
        }
        assert!(g.special_allowed(&c, 1, 7, 0));
        assert!(g.compile_allowed(&c, 1, 2, 0));
    }

    #[test]
    fn quarantine_after_n_fails_with_backoff_retry() {
        let mut g = Governor::default();
        let c = GovernorConfig::default();
        assert!(g.compile_allowed(&c, 3, 2, 0));
        assert!(g.on_compile_failure(&c, 3, 2, 10).is_none());
        assert!(g.on_compile_failure(&c, 3, 2, 20).is_none());
        let (fails, until) = g.on_compile_failure(&c, 3, 2, 30).expect("3rd fail quarantines");
        assert_eq!(fails, 3);
        assert_eq!(until, 30 + BACKOFF_BASE);
        assert!(!g.compile_allowed(&c, 3, 2, 31));
        assert!(g.compile_allowed(&c, 3, 2, until));
        // Other levels and methods unaffected.
        assert!(g.compile_allowed(&c, 3, 1, 31));
        assert!(g.compile_allowed(&c, 4, 2, 31));
        // Second episode doubles the backoff.
        let t = until + 100;
        g.on_compile_failure(&c, 3, 2, t);
        g.on_compile_failure(&c, 3, 2, t + 1);
        let (fails2, until2) = g.on_compile_failure(&c, 3, 2, t + 2).expect("quarantines again");
        assert_eq!(fails2, 6);
        assert_eq!(until2, t + 2 + (BACKOFF_BASE << 1));
    }
}
