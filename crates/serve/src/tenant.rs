//! Per-tenant admission control: token-bucket rate limiting plus
//! concurrent-query caps, with shed accounting that reconciles exactly.
//!
//! Every admission decision is a pure function of the quota, the tenant's
//! bucket state, and the clock passed in by the caller — under
//! [`crate::net::SimNet`]'s logical clock the full sequence of
//! admit/shed decisions is deterministic and replayable.
//!
//! The accounting invariant (asserted by tests):
//!
//! ```text
//! offered == admitted + shed_rate_limited + shed_saturated
//! ```
//!
//! holds per tenant at every instant, and `in_flight` is always
//! `admitted - completed`.

use crate::config::{ServingConfig, TenantQuota};
use parking_lot::Mutex;
use std::collections::BTreeMap;

/// Outcome of an admission attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Admission {
    /// The request may proceed; the caller must pair this with exactly one
    /// [`AdmissionController::release`] when the response is fully flushed.
    Admitted,
    /// The tenant's token bucket is empty — HTTP `429` with the given
    /// `Retry-After` hint (milliseconds until one token refills).
    RateLimited {
        /// Milliseconds until the bucket next holds a whole token.
        retry_after_ms: u64,
    },
    /// The tenant is at its concurrency cap — HTTP `503`. Retrying is
    /// pointless until an in-flight request drains.
    Saturated,
}

/// Monotone per-tenant admission counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TenantCounters {
    /// Admission attempts (every query request, admitted or not).
    pub offered: u64,
    /// Requests admitted.
    pub admitted: u64,
    /// Requests shed because the token bucket was empty (`429`).
    pub shed_rate_limited: u64,
    /// Requests shed at the concurrency cap (`503`).
    pub shed_saturated: u64,
    /// Admitted requests whose response has fully flushed.
    pub completed: u64,
}

impl TenantCounters {
    /// `true` iff `offered == admitted + shed_*` (the ledger balances).
    pub fn reconciles(&self) -> bool {
        self.offered == self.admitted + self.shed_rate_limited + self.shed_saturated
    }

    /// Requests currently in flight.
    pub fn in_flight(&self) -> u64 {
        self.admitted.saturating_sub(self.completed)
    }
}

struct TenantState {
    tokens: f64,
    last_refill_ns: u64,
    in_flight: u32,
    subscriptions: u32,
    counters: TenantCounters,
}

/// Ceiling on the `Retry-After` hint. A zero-rate quota (tenant fully
/// blocked) has no meaningful refill time — the uncapped arithmetic used
/// to yield `u64::MAX` ms, which `server.rs` then rendered as a
/// 584-million-year `retry-after` header. Clients treat anything at or
/// above this ceiling as "poll again in a minute".
pub const RETRY_AFTER_CEILING_MS: u64 = 60_000;

/// Name under which [`AdmissionController::all_counters`] lists the state
/// that every tenant without its own quota shares.
pub const DEFAULT_ACCOUNT: &str = "default";

/// Whose admission state a request draws on. A tenant named in
/// [`ServingConfig::tenant_quotas`] has its own (by index, so no header
/// value can collide with it); every other name shares one, the way
/// unknown paths share `endpoint="other"`. A client therefore cannot grow
/// the map, or reset its rate limit, by rotating `X-Tenant`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Account {
    Configured(usize),
    Default,
}

/// Shared admission state for all tenants of one server: at most one
/// entry per configured tenant, plus one for everyone else.
pub struct AdmissionController {
    config: ServingConfig,
    tenants: Mutex<BTreeMap<Account, TenantState>>,
}

impl AdmissionController {
    /// Creates a controller enforcing the quotas in `config`.
    pub fn new(config: ServingConfig) -> Self {
        AdmissionController {
            config,
            tenants: Mutex::new(BTreeMap::new()),
        }
    }

    /// The state `tenant` draws on and the quota that governs it.
    fn account(&self, tenant: &str) -> (Account, &TenantQuota) {
        let mut configured = self.config.tenant_quotas.iter().enumerate();
        match configured.find(|(_, (t, _))| t == tenant) {
            Some((i, (_, quota))) => (Account::Configured(i), quota),
            None => (Account::Default, &self.config.default_quota),
        }
    }

    fn with_tenant<R>(
        &self,
        tenant: &str,
        now_ns: u64,
        f: impl FnOnce(&mut TenantState, &TenantQuota) -> R,
    ) -> R {
        let (account, quota) = self.account(tenant);
        let mut tenants = self.tenants.lock();
        let state = tenants.entry(account).or_insert_with(|| TenantState {
            tokens: quota.burst,
            last_refill_ns: now_ns,
            in_flight: 0,
            subscriptions: 0,
            counters: TenantCounters::default(),
        });
        f(state, quota)
    }

    /// Attempts to admit one query for `tenant` at logical time `now_ns`.
    pub fn try_admit(&self, tenant: &str, now_ns: u64) -> Admission {
        self.with_tenant(tenant, now_ns, |state, quota| {
            // Refill from elapsed clock time, clamped at the burst depth.
            let elapsed_ns = now_ns.saturating_sub(state.last_refill_ns);
            state.last_refill_ns = now_ns;
            state.tokens =
                (state.tokens + elapsed_ns as f64 * 1e-9 * quota.rate_per_sec).min(quota.burst);

            state.counters.offered += 1;
            if state.tokens < 1.0 {
                state.counters.shed_rate_limited += 1;
                let deficit = 1.0 - state.tokens;
                // A non-positive rate never refills; any computed hint is
                // capped so the header stays actionable (see
                // [`RETRY_AFTER_CEILING_MS`]).
                let retry_after_ms = if quota.rate_per_sec > 0.0 {
                    (deficit / quota.rate_per_sec * 1000.0).ceil() as u64
                } else {
                    RETRY_AFTER_CEILING_MS
                };
                return Admission::RateLimited {
                    retry_after_ms: retry_after_ms.clamp(1, RETRY_AFTER_CEILING_MS),
                };
            }
            if state.in_flight >= quota.max_concurrent {
                state.counters.shed_saturated += 1;
                return Admission::Saturated;
            }
            state.tokens -= 1.0;
            state.in_flight += 1;
            state.counters.admitted += 1;
            Admission::Admitted
        })
    }

    /// Completes one admitted query (response fully flushed or connection
    /// torn down). Must be called exactly once per [`Admission::Admitted`].
    ///
    /// A release for a tenant that was never admitted (unknown name, or
    /// nothing in flight) is ignored: fabricating state here used to
    /// mint a `TenantState` with `completed > admitted`, silently
    /// breaking the ledger invariant the module contract promises.
    pub fn release(&self, tenant: &str, _now_ns: u64) {
        let mut tenants = self.tenants.lock();
        let Some(state) = tenants.get_mut(&self.account(tenant).0) else {
            return;
        };
        if state.in_flight == 0 {
            return;
        }
        state.in_flight -= 1;
        state.counters.completed += 1;
    }

    /// Attempts to open one streaming subscription for `tenant`.
    pub fn try_subscribe(&self, tenant: &str, now_ns: u64) -> bool {
        self.with_tenant(tenant, now_ns, |state, quota| {
            if state.subscriptions >= quota.max_subscriptions {
                false
            } else {
                state.subscriptions += 1;
                true
            }
        })
    }

    /// Closes one streaming subscription for `tenant`. Ignored for a
    /// tenant that was never seen (no state is fabricated).
    pub fn unsubscribe(&self, tenant: &str, _now_ns: u64) {
        let mut tenants = self.tenants.lock();
        if let Some(state) = tenants.get_mut(&self.account(tenant).0) {
            state.subscriptions = state.subscriptions.saturating_sub(1);
        }
    }

    /// Current counters of the state `tenant` draws on (zeros if never
    /// offered); a tenant without its own quota reads the shared ledger.
    pub fn counters(&self, tenant: &str) -> TenantCounters {
        self.tenants
            .lock()
            .get(&self.account(tenant).0)
            .map(|s| s.counters)
            .unwrap_or_default()
    }

    /// Counters for every state ever offered: configured tenants in
    /// configuration order, then the shared [`DEFAULT_ACCOUNT`].
    pub fn all_counters(&self) -> Vec<(String, TenantCounters)> {
        self.tenants
            .lock()
            .iter()
            .map(|(&account, s)| {
                let name = match account {
                    Account::Configured(i) => self.config.tenant_quotas.get(i),
                    Account::Default => None,
                };
                let name = name.map_or(DEFAULT_ACCOUNT, |(t, _)| t.as_str());
                (name.to_string(), s.counters)
            })
            .collect()
    }

    /// Sum of all tenants' counters.
    pub fn totals(&self) -> TenantCounters {
        let mut total = TenantCounters::default();
        for (_, c) in self.all_counters() {
            total.offered += c.offered;
            total.admitted += c.admitted;
            total.shed_rate_limited += c.shed_rate_limited;
            total.shed_saturated += c.shed_saturated;
            total.completed += c.completed;
        }
        total
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn controller(rate: f64, burst: f64, max_concurrent: u32) -> AdmissionController {
        AdmissionController::new(ServingConfig {
            default_quota: TenantQuota {
                rate_per_sec: rate,
                burst,
                max_concurrent,
                max_subscriptions: 2,
            },
            ..ServingConfig::default()
        })
    }

    #[test]
    fn burst_then_rate_limit_then_refill() {
        let ac = controller(10.0, 3.0, 100);
        for _ in 0..3 {
            assert_eq!(ac.try_admit("t", 0), Admission::Admitted);
            ac.release("t", 0);
        }
        let Admission::RateLimited { retry_after_ms } = ac.try_admit("t", 0) else {
            panic!("expected rate limit");
        };
        // 1 token at 10/s is 100 ms away.
        assert_eq!(retry_after_ms, 100);
        // After 100 ms of clock, exactly one more token is available.
        assert_eq!(ac.try_admit("t", 100_000_000), Admission::Admitted);
        assert!(matches!(
            ac.try_admit("t", 100_000_000),
            Admission::RateLimited { .. }
        ));
    }

    #[test]
    fn concurrency_cap_sheds_saturated_until_release() {
        let ac = controller(1e9, 1e9, 2);
        assert_eq!(ac.try_admit("t", 0), Admission::Admitted);
        assert_eq!(ac.try_admit("t", 0), Admission::Admitted);
        assert_eq!(ac.try_admit("t", 0), Admission::Saturated);
        ac.release("t", 0);
        assert_eq!(ac.try_admit("t", 0), Admission::Admitted);
        let c = ac.counters("t");
        assert_eq!(c.in_flight(), 2);
        assert_eq!(c.shed_saturated, 1);
    }

    #[test]
    fn counters_reconcile_and_tenants_are_isolated() {
        let quota = TenantQuota {
            rate_per_sec: 10.0,
            burst: 2.0,
            max_concurrent: 1,
            max_subscriptions: 2,
        };
        let ac = AdmissionController::new(
            ServingConfig::default()
                .with_tenant("a", quota.clone())
                .with_tenant("b", quota),
        );
        let mut now = 0u64;
        for i in 0..50 {
            let t = if i % 2 == 0 { "a" } else { "b" };
            if ac.try_admit(t, now) == Admission::Admitted && i % 3 == 0 {
                ac.release(t, now);
            }
            now += 10_000_000; // 10 ms
        }
        for t in ["a", "b"] {
            let c = ac.counters(t);
            assert!(c.reconciles(), "{t}: {c:?}");
            assert_eq!(c.offered, 25);
        }
        let total = ac.totals();
        assert!(total.reconciles());
        assert_eq!(total.offered, 50);
    }

    #[test]
    fn rotating_unnamed_tenants_share_one_state_and_one_rate_limit() {
        // Regression: each distinct unnamed `X-Tenant` value used to mint
        // its own state with a full burst, so rotating the header grew the
        // map without bound and never met the rate limit.
        let sheds = |tenant: &dyn Fn(u64) -> String| {
            let ac = controller(10.0, 5.0, 1_000_000);
            let mut rate_limited = 0;
            for i in 0..10_000u64 {
                let name = tenant(i);
                match ac.try_admit(&name, i * 1_000_000) {
                    Admission::Admitted => ac.release(&name, i * 1_000_000),
                    Admission::RateLimited { .. } => rate_limited += 1,
                    Admission::Saturated => panic!("no request is in flight"),
                }
            }
            (rate_limited, ac.all_counters())
        };
        let (rotating, states) = sheds(&|i| format!("client-{i}"));
        let (single, _) = sheds(&|_| "client".to_string());
        assert_eq!(states.len(), 1, "{:?}", &states[..states.len().min(3)]);
        assert_eq!(states[0].0, DEFAULT_ACCOUNT);
        assert_eq!(states[0].1.offered, 10_000);
        assert_eq!(rotating, single);
        // 1 ms apart at 10/s: the burst of 5, then one admit per 100 ms.
        assert_eq!(single, 10_000 - 5 - 99);
    }

    #[test]
    fn configured_tenant_keeps_its_own_state_beside_the_default() {
        let ac = AdmissionController::new(
            ServingConfig::default().with_tenant("default", TenantQuota::unlimited()),
        );
        assert_eq!(ac.try_admit("default", 0), Admission::Admitted);
        assert_eq!(ac.try_admit("someone", 0), Admission::Admitted);
        assert_eq!(ac.try_admit("someone-else", 0), Admission::Admitted);
        // A configured name equal to the shared account's listing name
        // still gets its own state.
        let states = ac.all_counters();
        assert_eq!(states.len(), 2, "{states:?}");
        assert_eq!(states[0].1.offered, 1);
        assert_eq!(states[1].1.offered, 2);
        assert_eq!(ac.counters("someone").offered, 2);
    }

    #[test]
    fn admission_sequence_is_deterministic_under_logical_clock() {
        let run = || {
            let ac = controller(25.0, 5.0, 3);
            let mut decisions = Vec::new();
            let mut now = 0u64;
            for i in 0..200u64 {
                decisions.push(ac.try_admit("t", now));
                if i % 4 == 0 {
                    ac.release("t", now);
                }
                now += 7_000_000;
            }
            decisions
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn zero_rate_quota_caps_retry_after() {
        // Regression: a zero-rate quota used to yield
        // `retry_after_ms == u64::MAX`, rendered by the HTTP layer into
        // an absurd retry-after header. The hint is now capped.
        let ac = controller(0.0, 0.0, 1);
        let Admission::RateLimited { retry_after_ms } = ac.try_admit("blocked", 0) else {
            panic!("zero-rate tenant must be rate limited");
        };
        assert_eq!(retry_after_ms, RETRY_AFTER_CEILING_MS);
        // A huge-but-finite deficit clamps to the same ceiling.
        let ac = controller(1e-9, 1.0, 1);
        assert_eq!(ac.try_admit("slow", 0), Admission::Admitted);
        ac.release("slow", 0);
        let Admission::RateLimited { retry_after_ms } = ac.try_admit("slow", 0) else {
            panic!("drained tenant must be rate limited");
        };
        assert!(retry_after_ms <= RETRY_AFTER_CEILING_MS, "{retry_after_ms}");
    }

    #[test]
    fn release_of_never_admitted_tenant_keeps_ledger_intact() {
        // Regression: releasing an unknown tenant used to fabricate a
        // TenantState with completed=1, admitted=0, breaking
        // `completed <= admitted` and polluting all_counters().
        let ac = controller(10.0, 2.0, 1);
        ac.release("ghost", 0);
        assert_eq!(ac.counters("ghost"), TenantCounters::default());
        assert!(ac.all_counters().is_empty(), "no state may be fabricated");

        // Double-release of a real tenant must not over-count completion.
        assert_eq!(ac.try_admit("t", 0), Admission::Admitted);
        ac.release("t", 0);
        ac.release("t", 0);
        let c = ac.counters("t");
        assert!(c.reconciles(), "{c:?}");
        assert_eq!(c.completed, 1);
        assert!(c.completed <= c.admitted, "{c:?}");
        assert_eq!(c.in_flight(), 0);

        // Unsubscribe is equally non-fabricating.
        ac.unsubscribe("phantom", 0);
        assert!(ac.all_counters().iter().all(|(t, _)| t != "phantom"));
    }

    #[test]
    fn subscription_quota() {
        let ac = controller(1.0, 1.0, 1);
        assert!(ac.try_subscribe("t", 0));
        assert!(ac.try_subscribe("t", 0));
        assert!(!ac.try_subscribe("t", 0));
        ac.unsubscribe("t", 0);
        assert!(ac.try_subscribe("t", 0));
    }
}
