#![warn(missing_docs)]

//! # oda-serve — multi-tenant query serving layer
//!
//! Production ODA stacks (DCDB, Examon, the LDMS aggregator tier) put a
//! serving layer between the telemetry archive and its consumers: dashboards,
//! schedulers, facility operators and ad-hoc analysts all query the same
//! store, and without admission control a single misbehaving tenant can
//! starve the rest. This crate is that layer for the hpc-oda framework:
//! an HTTP/1.1 frontend over the [`oda_telemetry`] store and bus with
//! per-tenant quotas, a version-validated query-result cache, and bounded
//! subscription fan-out.
//!
//! The crate is organised around one deliberate seam:
//!
//! 1. [`net`] — a readiness-style transport trait ([`net::ServerNet`]) with
//!    two implementations: [`net::RealNet`] over a non-blocking
//!    [`std::net::TcpListener`], and [`net::SimNet`], a deterministic
//!    in-memory twin with a logical clock. Every other module is written
//!    against the trait, so the full request path — parsing, admission,
//!    cache, execution, fan-out, backpressure — is exercised byte-for-byte
//!    identically under tests (`SimNet`) and in production (`RealNet`).
//!    This mirrors the `StorageFs` / `SimFs` split in the storage engine.
//! 2. [`http`] — a minimal HTTP/1.1 request parser and response writer.
//!    No external dependencies; exactly the subset the endpoints need.
//! 3. [`config`] — [`config::ServingConfig`] and per-tenant
//!    [`config::TenantQuota`]s.
//! 4. [`tenant`] — the [`tenant::AdmissionController`]: token-bucket rate
//!    limiting plus concurrent-query caps, with explicit `429` (rate) /
//!    `503` (saturation) semantics and per-tenant shed accounting that
//!    reconciles exactly against offered load.
//! 5. [`cache`] — the [`cache::QueryCache`]: keyed on the canonical query
//!    wire form, validated against per-sensor store versions so a hit is
//!    *provably* bit-identical to re-execution (see `DESIGN.md` §13).
//! 6. [`fanout`] — the [`fanout::FanoutHub`]: one bus subscription per
//!    distinct client pattern, multiplexed to that pattern's HTTP streaming
//!    clients with bounded per-client buffers and slow-consumer shedding.
//! 7. [`server`] — the [`server::Server`] itself: a single-threaded
//!    readiness loop (`poll()`) that glues the above into the endpoint set
//!    documented in the README.
//!
//! ## Quick example (deterministic, in-memory)
//!
//! ```
//! use std::sync::Arc;
//! use oda_serve::prelude::*;
//! use oda_telemetry::prelude::*;
//!
//! let registry = SensorRegistry::new();
//! let id = registry.register("/hw/node0/power", SensorKind::Power, Unit::Watts);
//! let store = Arc::new(TimeSeriesStore::with_capacity(256));
//! store.insert(id, Reading::new(Timestamp::from_millis(1), 120.0));
//!
//! let net = Arc::new(SimNet::new());
//! let plane = Arc::new(LocalPlane { store, registry });
//! let mut server = Server::new(net.clone(), ServingConfig::default(), plane);
//! let conn = net.connect();
//! net.client_send(conn, b"GET /healthz HTTP/1.1\r\n\r\n");
//! server.poll();
//! let reply = net.client_recv(conn);
//! assert!(String::from_utf8_lossy(&reply).starts_with("HTTP/1.1 200"));
//! ```

#![forbid(unsafe_code)]

pub mod cache;
pub mod config;
pub mod fanout;
pub mod http;
pub mod net;
pub mod server;
pub mod tenant;

/// Convenient re-exports of the types used by nearly every consumer.
pub mod prelude {
    pub use crate::cache::{CacheStats, QueryCache};
    pub use crate::config::{ServingConfig, TenantQuota};
    pub use crate::fanout::{FanoutHub, FanoutStats};
    pub use crate::net::{ConnId, IoResult, RealNet, ServerNet, SimNet};
    pub use crate::server::{Server, ServerStats};
    pub use crate::tenant::{Admission, AdmissionController, TenantCounters};
}
