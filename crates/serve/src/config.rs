//! Serving-layer configuration: per-tenant quotas and global limits.
//!
//! The poll loop's buffer sizes are constants of the server
//! (`READ_CHUNK`, `OUT_HIGH_WATER`, `SUB_BUFFER_FRAMES` in `server.rs`).

/// Admission quota for one tenant.
///
/// Rate limiting is a token bucket: `burst` tokens deep, refilled at
/// `rate_per_sec` tokens per second of (logical or wall) clock time, one
/// token per admitted query. Concurrency is a separate hard cap on
/// requests currently in flight — *in flight* means admitted and not yet
/// fully flushed to the client, so slow readers hold their slot and
/// saturation (`503`) reflects real downstream pressure, not just CPU.
#[derive(Debug, Clone)]
pub struct TenantQuota {
    /// Sustained admission rate, queries per second.
    pub rate_per_sec: f64,
    /// Token-bucket depth (instantaneous burst allowance).
    pub burst: f64,
    /// Maximum queries in flight at once.
    pub max_concurrent: u32,
    /// Maximum concurrent streaming subscriptions.
    pub max_subscriptions: u32,
}

impl Default for TenantQuota {
    fn default() -> Self {
        TenantQuota {
            rate_per_sec: 100.0,
            burst: 200.0,
            max_concurrent: 8,
            max_subscriptions: 16,
        }
    }
}

impl TenantQuota {
    /// A quota that admits everything; useful for internal tenants.
    pub fn unlimited() -> Self {
        TenantQuota {
            rate_per_sec: 1e12,
            burst: 1e12,
            max_concurrent: u32::MAX,
            max_subscriptions: u32::MAX,
        }
    }
}

/// Configuration for a [`crate::server::Server`].
#[derive(Debug, Clone)]
pub struct ServingConfig {
    /// Quota applied to tenants without an explicit entry; they all draw
    /// on one shared admission state.
    pub default_quota: TenantQuota,
    /// Per-tenant quota overrides, matched by exact `X-Tenant` value.
    pub tenant_quotas: Vec<(String, TenantQuota)>,
    /// Result-cache capacity in entries; `0` disables caching.
    pub cache_capacity: usize,
    /// Maximum accepted request size (head + body) in bytes.
    pub max_request_bytes: usize,
    /// Maximum simultaneously open connections; beyond this, new
    /// connections are closed immediately.
    pub max_connections: usize,
}

impl Default for ServingConfig {
    fn default() -> Self {
        ServingConfig {
            default_quota: TenantQuota::default(),
            tenant_quotas: Vec::new(),
            cache_capacity: 1024,
            max_request_bytes: 64 * 1024,
            max_connections: 4096,
        }
    }
}

impl ServingConfig {
    /// Registers (or replaces) a per-tenant quota override.
    pub fn with_tenant(mut self, tenant: impl Into<String>, quota: TenantQuota) -> Self {
        let tenant = tenant.into();
        self.tenant_quotas.retain(|(t, _)| *t != tenant);
        self.tenant_quotas.push((tenant, quota));
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn with_tenant_replaces_existing_entry() {
        let cfg = ServingConfig::default()
            .with_tenant(
                "a",
                TenantQuota {
                    max_concurrent: 1,
                    ..TenantQuota::default()
                },
            )
            .with_tenant(
                "a",
                TenantQuota {
                    max_concurrent: 9,
                    ..TenantQuota::default()
                },
            );
        assert_eq!(cfg.tenant_quotas.len(), 1);
        assert_eq!(cfg.tenant_quotas[0].1.max_concurrent, 9);
    }
}
