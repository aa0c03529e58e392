//! Failpoint-style fault injection for the robustness test suite.
//!
//! A *failpoint* is a named site in production code where a test (or an
//! operator, via the `STATSIZE_FAILPOINTS` environment variable — see
//! `FAILPOINTS_ENV`) can force a fault: a panic, or a "trigger" the
//! site interprets in its own way (an already-expired deadline, a
//! torn result-store line). Sites call `fire` with their name and a
//! per-invocation detail string (typically the job name or a line
//! number); the call is a no-op unless a matching fault has been
//! armed.
//!
//! The harness is compiled in only under
//! `cfg(any(test, feature = "failpoints"))`; in ordinary builds every
//! site compiles down to a `false` constant and the module exports
//! nothing public. Integration suites enable the `failpoints` cargo
//! feature (CI's `fault-injection` job runs them); faults can also be
//! injected into release binaries built with the feature by setting
//! `STATSIZE_FAILPOINTS=site@detail=action,...` in the environment.
//!
//! Faults armed programmatically (`arm`) live in a process-global
//! registry — campaign shards run on worker threads that inherit no
//! thread-locals, so a thread-local registry could never reach the code
//! under test. Tests keep out of each other's way by arming with unique
//! detail filters (e.g. a job name only their own corpus contains).

#[cfg(any(test, feature = "failpoints"))]
pub use enabled::{arm, fire, FailpointGuard, FaultAction, FAILPOINTS_ENV};

/// In builds without the harness every site reads as "nothing armed".
#[cfg(not(any(test, feature = "failpoints")))]
#[inline(always)]
pub(crate) fn fire(_site: &str, _detail: &str) -> bool {
    false
}

#[cfg(any(test, feature = "failpoints"))]
mod enabled {
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::{Mutex, OnceLock};

    /// Environment variable arming failpoints in processes built with the
    /// harness: a comma- or semicolon-separated list of
    /// `site=action` or `site@detail=action` entries, where `action` is
    /// `panic` or `trigger`. Example:
    /// `STATSIZE_FAILPOINTS="campaign::job@c432=panic"`.
    /// Parsed once per process; malformed entries are ignored.
    pub const FAILPOINTS_ENV: &str = "STATSIZE_FAILPOINTS";

    /// What an armed failpoint does when its site fires.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum FaultAction {
        /// Panic at the site (exercises panic isolation).
        Panic,
        /// Return `true` from [`fire`]; the site interprets the trigger
        /// (e.g. as a forced deadline overrun or a corrupt read).
        Trigger,
    }

    struct Armed {
        id: u64,
        site: String,
        /// `None` matches every invocation of the site.
        detail: Option<String>,
        action: FaultAction,
    }

    static REGISTRY: Mutex<Vec<Armed>> = Mutex::new(Vec::new());
    static NEXT_ID: AtomicU64 = AtomicU64::new(0);

    fn env_faults() -> &'static [(String, Option<String>, FaultAction)] {
        static PARSED: OnceLock<Vec<(String, Option<String>, FaultAction)>> = OnceLock::new();
        PARSED.get_or_init(|| {
            std::env::var(FAILPOINTS_ENV)
                .map(|spec| parse_spec(&spec))
                .unwrap_or_default()
        })
    }

    /// Parses a [`FAILPOINTS_ENV`] spec; malformed entries are dropped.
    fn parse_spec(spec: &str) -> Vec<(String, Option<String>, FaultAction)> {
        spec.split([',', ';'])
            .filter_map(|entry| {
                let entry = entry.trim();
                let (target, action) = entry.split_once('=')?;
                let action = match action.trim() {
                    "panic" => FaultAction::Panic,
                    "trigger" => FaultAction::Trigger,
                    _ => return None,
                };
                let (site, detail) = match target.split_once('@') {
                    Some((s, d)) => (s.trim(), Some(d.trim().to_string())),
                    None => (target.trim(), None),
                };
                if site.is_empty() {
                    return None;
                }
                Some((site.to_string(), detail, action))
            })
            .collect()
    }

    /// Disarms its failpoint when dropped — RAII for test-armed faults.
    #[derive(Debug)]
    #[must_use = "the failpoint is disarmed when the guard drops"]
    pub struct FailpointGuard {
        id: u64,
    }

    impl Drop for FailpointGuard {
        fn drop(&mut self) {
            let mut reg = REGISTRY.lock().unwrap_or_else(|e| e.into_inner());
            reg.retain(|a| a.id != self.id);
        }
    }

    /// Arms a fault at `site`, optionally filtered to invocations whose
    /// detail string equals `detail` (tests use unique details — e.g. a
    /// job name — so concurrently running tests cannot trip each other's
    /// faults). The fault stays armed until the returned guard drops.
    pub fn arm(site: &str, detail: Option<&str>, action: FaultAction) -> FailpointGuard {
        let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
        let mut reg = REGISTRY.lock().unwrap_or_else(|e| e.into_inner());
        reg.push(Armed {
            id,
            site: site.to_string(),
            detail: detail.map(str::to_string),
            action,
        });
        FailpointGuard { id }
    }

    /// Fires the failpoint at `site` with this invocation's `detail`.
    /// Returns `true` when a matching [`FaultAction::Trigger`] is armed;
    /// panics when a matching [`FaultAction::Panic`] is armed; returns
    /// `false` (and costs one uncontended mutex lock) otherwise.
    pub fn fire(site: &str, detail: &str) -> bool {
        let armed_action = {
            let reg = REGISTRY.lock().unwrap_or_else(|e| e.into_inner());
            reg.iter()
                .find(|a| a.site == site && a.detail.as_deref().is_none_or(|d| d == detail))
                .map(|a| a.action)
        };
        let action = armed_action.or_else(|| {
            env_faults()
                .iter()
                .find(|(s, d, _)| s == site && d.as_deref().is_none_or(|d| d == detail))
                .map(|(_, _, a)| *a)
        });
        match action {
            Some(FaultAction::Panic) => {
                panic!("failpoint `{site}` fired a forced panic (detail: `{detail}`)")
            }
            Some(FaultAction::Trigger) => true,
            None => false,
        }
    }

    #[cfg(test)]
    mod tests {
        use super::*;

        #[test]
        fn unarmed_site_never_fires() {
            assert!(!fire("failpoint_test::nowhere", "x"));
        }

        #[test]
        fn trigger_fires_only_for_matching_detail() {
            let _g = arm("failpoint_test::t", Some("only-this"), FaultAction::Trigger);
            assert!(fire("failpoint_test::t", "only-this"));
            assert!(!fire("failpoint_test::t", "something-else"));
            assert!(!fire("failpoint_test::other-site", "only-this"));
        }

        #[test]
        fn wildcard_detail_matches_everything() {
            let _g = arm("failpoint_test::w", None, FaultAction::Trigger);
            assert!(fire("failpoint_test::w", "a"));
            assert!(fire("failpoint_test::w", "b"));
        }

        #[test]
        fn guard_drop_disarms() {
            {
                let _g = arm("failpoint_test::d", None, FaultAction::Trigger);
                assert!(fire("failpoint_test::d", "x"));
            }
            assert!(!fire("failpoint_test::d", "x"));
        }

        #[test]
        #[should_panic(expected = "failpoint `failpoint_test::p` fired a forced panic")]
        fn panic_action_panics_at_the_site() {
            let _g = arm("failpoint_test::p", Some("boom"), FaultAction::Panic);
            fire("failpoint_test::p", "boom");
        }

        #[test]
        fn spec_parsing_accepts_both_forms_and_skips_garbage() {
            let parsed = parse_spec(
                "campaign::job@c432=panic, store::read=trigger; \
                 bad-entry, nope=frobnicate, =panic",
            );
            assert_eq!(
                parsed,
                vec![
                    (
                        "campaign::job".to_string(),
                        Some("c432".to_string()),
                        FaultAction::Panic
                    ),
                    ("store::read".to_string(), None, FaultAction::Trigger),
                ]
            );
            assert_eq!(parse_spec(""), vec![]);
        }
    }
}
