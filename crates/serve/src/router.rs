//! Sharded multi-engine serving: a [`ShardRouter`] fleet surface over
//! N [`ServeEngine`] shards.
//!
//! The paper's economy — pay Fig 5 preprocessing once, reuse the plan
//! forever — only survives fleet scale if a structure's plan lives on
//! exactly one shard. The router enforces that with **rendezvous
//! (highest-random-weight) hashing** on the request's
//! [`MatrixFingerprint`]: every shard is scored against the
//! fingerprint's structural hash, and the highest score owns the key.
//! Two properties fall out of scoring shards *individually* instead of
//! slicing a modulus:
//!
//! * **Determinism** — the same fingerprint always lands on the same
//!   shard, so each structure is prepared (and cached) exactly once
//!   fleet-wide.
//! * **Minimal movement** — removing a shard only relocates the keys
//!   that shard owned (~1/N of them); every other key's owner is
//!   untouched, because its score order never consulted the removed
//!   shard. `tests/router.rs` pins both properties.
//!
//! Underneath all shards sits one shared read-through [`PlanStore`]
//! tier. Shards start with [`ServeConfig::warm_start`] disabled —
//! eager warm-loading would materialise every stored plan into every
//! shard's cache, which is precisely the duplication the router
//! exists to prevent. Instead the owning shard pulls its plans from
//! the store on demand, and **failover** rides the same mechanism: when
//! a shard's [`health().ready()`](HealthSnapshot::ready) goes false,
//! [`ShardRouter::submit`] walks to the next rendezvous candidate,
//! which warm-loads the plan from the store (`serve.store.hit`,
//! [`ServePath::CachedPlan`](crate::ServePath), zero preprocessing)
//! instead of re-preparing.
//!
//! Fleet observability: every shard tees its `serve.*` counters into
//! the router's collector, so [`ShardRouter::manifest`] carries exact
//! fleet-wide totals; [`ShardRouter::stats`] / [`ShardRouter::health`]
//! return [`RouterStats`] / [`RouterHealth`] — the merged view plus the
//! unmerged per-shard snapshots.

use crate::cache::CacheStats;
use crate::engine::{HealthSnapshot, Request, Response, ServeConfig, ServeEngine, ServeStats};
use crate::error::ServeError;
use crate::fingerprint::MatrixFingerprint;
use crate::store::PlanStore;
use crate::Ticket;
use spmm_faults::{splitmix64, FaultPoint};
use spmm_sparse::{Scalar, SparseError};
use spmm_telemetry::{Collector, FanoutRecorder, Recorder, RunManifest, TelemetryHandle};
use std::cmp::Reverse;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Fault point at the top of [`ShardRouter::submit`], before any shard
/// is consulted: an `Error` action fails the request at the routing
/// tier (reported like a kernel execution error), a `Panic` action
/// exercises the caller's panic path. Registered as
/// `serve.router.route` for `FaultPlan` specs.
pub static FAULT_ROUTER_ROUTE: FaultPoint = FaultPoint::new("serve.router.route");

/// The rendezvous weight of `shard` for `key`: a splitmix64 mix of the
/// key with the (pre-whitened) shard identity. Deterministic, uniform,
/// and — crucially — computed per shard, so a shard leaving the fleet
/// cannot change the relative order of the shards that remain.
fn rendezvous_score(key: u64, shard: u64) -> u64 {
    splitmix64(key ^ splitmix64(shard.wrapping_add(0x9E37_79B9_7F4A_7C15)))
}

/// Ranks `shard_ids` for `key` by descending rendezvous score (ties
/// break toward the smaller id). The first element is the key's owner;
/// the rest are its failover order.
pub fn rendezvous_order(key: u64, shard_ids: &[u64]) -> Vec<u64> {
    let mut order: Vec<u64> = shard_ids.to_vec();
    order.sort_by_key(|&id| (Reverse(rendezvous_score(key, id)), id));
    order
}

/// The rendezvous owner of `key` among `shard_ids`, or `None` for an
/// empty fleet.
pub fn rendezvous_pick(key: u64, shard_ids: &[u64]) -> Option<u64> {
    shard_ids
        .iter()
        .copied()
        .min_by_key(|&id| (Reverse(rendezvous_score(key, id)), id))
}

/// Construction options for [`ShardRouter`].
#[derive(Debug, Clone)]
#[non_exhaustive]
pub struct RouterConfig {
    /// Fleet size: how many [`ServeEngine`] shards to start. Default 2.
    pub shards: usize,
    /// The per-shard configuration template. The router overrides its
    /// `telemetry` (each shard tees into the fleet collector), its
    /// `plan_store` (all shards share the router's store tier when one
    /// is attached) and its `warm_start` (always `false` — see the
    /// module docs).
    pub shard: ServeConfig,
    /// The shared read-through plan-store tier under all shards.
    /// Default: none (shards still deduplicate in their own caches,
    /// but failover then re-prepares instead of warm-loading).
    pub plan_store: Option<Arc<PlanStore>>,
    /// Optional external telemetry sink for fleet-wide `serve.*` and
    /// `serve.router.*` events; the router always keeps an internal
    /// collector for [`ShardRouter::manifest`].
    pub telemetry: TelemetryHandle,
}

impl Default for RouterConfig {
    fn default() -> Self {
        RouterConfig {
            shards: 2,
            shard: ServeConfig::default(),
            plan_store: None,
            telemetry: TelemetryHandle::default(),
        }
    }
}

impl RouterConfig {
    /// Starts a builder initialised with the defaults.
    pub fn builder() -> RouterConfigBuilder {
        RouterConfigBuilder::default()
    }
}

/// Builder for [`RouterConfig`].
#[derive(Debug, Clone, Default)]
pub struct RouterConfigBuilder {
    config: RouterConfig,
}

impl RouterConfigBuilder {
    /// Sets the fleet size. Must be at least 1; zero is rejected by
    /// [`build`](RouterConfigBuilder::build).
    pub fn shards(mut self, shards: usize) -> Self {
        self.config.shards = shards;
        self
    }

    /// Sets the per-shard configuration template.
    pub fn shard(mut self, shard: ServeConfig) -> Self {
        self.config.shard = shard;
        self
    }

    /// Attaches the shared plan-store tier.
    pub fn plan_store(mut self, store: Arc<PlanStore>) -> Self {
        self.config.plan_store = Some(store);
        self
    }

    /// Sets the external telemetry sink.
    pub fn telemetry(mut self, telemetry: TelemetryHandle) -> Self {
        self.config.telemetry = telemetry;
        self
    }

    /// Validates and finishes the configuration.
    ///
    /// # Errors
    /// [`ServeError::InvalidConfig`] when `shards` is zero — a router
    /// with no shards could never place a request.
    pub fn build(self) -> Result<RouterConfig, ServeError> {
        if self.config.shards == 0 {
            return Err(ServeError::InvalidConfig {
                field: "shards",
                value: 0,
                minimum: 1,
            });
        }
        Ok(self.config)
    }
}

/// Fleet-level counter snapshot (see [`ShardRouter::stats`]).
#[derive(Debug, Clone)]
#[non_exhaustive]
pub struct RouterStats {
    /// Requests placed on a shard (their rendezvous owner or, on
    /// failover, a later candidate).
    pub routed: u64,
    /// Requests placed on a shard other than their rendezvous owner
    /// because the owner (or an earlier candidate) was not ready.
    pub failovers: u64,
    /// Requests that could not be placed anywhere
    /// ([`ServeError::NoReadyShard`]).
    pub no_ready_shard: u64,
    /// Shards taken down through [`ShardRouter::kill`].
    pub killed: u64,
    /// The component-wise sum of every shard's [`ServeStats`].
    pub fleet: ServeStats,
    /// The unmerged per-shard snapshots, indexed by shard.
    pub per_shard: Vec<ServeStats>,
}

impl RouterStats {
    /// Requests placed on a shard.
    pub fn routed(&self) -> u64 {
        self.routed
    }

    /// Requests placed away from their rendezvous owner.
    pub fn failovers(&self) -> u64 {
        self.failovers
    }

    /// Requests that could not be placed anywhere.
    pub fn no_ready_shard(&self) -> u64 {
        self.no_ready_shard
    }

    /// Shards taken down through [`ShardRouter::kill`].
    pub fn killed(&self) -> u64 {
        self.killed
    }

    /// The component-wise sum of every shard's [`ServeStats`].
    pub fn fleet(&self) -> &ServeStats {
        &self.fleet
    }

    /// The unmerged per-shard snapshots, indexed by shard.
    pub fn per_shard(&self) -> &[ServeStats] {
        &self.per_shard
    }
}

/// Fleet-level health view (see [`ShardRouter::health`]): the merged
/// snapshot for dashboards plus the unmerged per-shard snapshots the
/// routing decisions are actually made from.
#[derive(Debug, Clone)]
#[non_exhaustive]
pub struct RouterHealth {
    /// Every shard's [`HealthSnapshot`] merged with
    /// [`HealthSnapshot::merge`] (gauges and counters sum).
    pub fleet: HealthSnapshot,
    /// The unmerged per-shard snapshots, indexed by shard.
    pub per_shard: Vec<HealthSnapshot>,
}

impl RouterHealth {
    /// Fleet readiness: at least one shard can take traffic.
    pub fn ready(&self) -> bool {
        self.per_shard.iter().any(HealthSnapshot::ready)
    }

    /// How many shards can currently take traffic.
    pub fn ready_shards(&self) -> usize {
        self.per_shard.iter().filter(|h| h.ready()).count()
    }

    /// The merged fleet snapshot.
    pub fn fleet(&self) -> &HealthSnapshot {
        &self.fleet
    }

    /// The unmerged per-shard snapshots, indexed by shard.
    pub fn per_shard(&self) -> &[HealthSnapshot] {
        &self.per_shard
    }
}

/// A fleet of [`ServeEngine`] shards behind rendezvous hashing on the
/// request's [`MatrixFingerprint`] (see the module docs).
///
/// ```
/// use spmm_data::generators;
/// use spmm_serve::{Request, RouterConfig, ServePath, ShardRouter};
///
/// let router = ShardRouter::<f64>::start(RouterConfig::default()).unwrap();
/// let m = generators::banded::<f64>(256, 8, 4, 7);
/// let x = generators::random_dense::<f64>(m.ncols(), 16, 3);
/// // the owning shard pays preprocessing once...
/// let cold = router.execute(Request::spmm(m.clone(), x.clone())).unwrap();
/// assert_eq!(cold.path, ServePath::FreshPlan);
/// // ...and the same structure always routes back to it
/// let warm = router.execute(Request::spmm(m, x)).unwrap();
/// assert_eq!(warm.path, ServePath::CachedPlan);
/// assert!(warm.preprocess.is_zero());
/// ```
pub struct ShardRouter<T: Scalar> {
    shards: Vec<ServeEngine<T>>,
    ids: Vec<u64>,
    telemetry: TelemetryHandle,
    collector: Arc<Collector>,
    routed: AtomicU64,
    failovers: AtomicU64,
    no_ready_shard: AtomicU64,
    killed: AtomicU64,
}

impl<T: Scalar> std::fmt::Debug for ShardRouter<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardRouter")
            .field("shards", &self.shards.len())
            .field("routed", &self.routed.load(Ordering::Relaxed))
            .finish_non_exhaustive()
    }
}

impl<T: Scalar> ShardRouter<T> {
    /// Starts the fleet: N shards from the template, all teeing their
    /// telemetry into the router's collector and sharing the router's
    /// plan-store tier, none warm-starting eagerly.
    ///
    /// # Errors
    /// [`ServeError::InvalidConfig`] when the template's `workers` or
    /// `queue_capacity` is zero (the same validation as
    /// [`ServeConfigBuilder::build`](crate::engine::ServeConfigBuilder::build),
    /// re-checked here because the template travels inside
    /// [`RouterConfig`] by value).
    pub fn start(config: RouterConfig) -> Result<Self, ServeError> {
        // a template mutated after its builder ran must not smuggle a
        // deadlocking value past validation
        if config.shard.workers == 0 {
            return Err(ServeError::InvalidConfig {
                field: "workers",
                value: 0,
                minimum: 1,
            });
        }
        if config.shard.queue_capacity == 0 {
            return Err(ServeError::InvalidConfig {
                field: "queue_capacity",
                value: 0,
                minimum: 1,
            });
        }
        if config.shards == 0 {
            return Err(ServeError::InvalidConfig {
                field: "shards",
                value: 0,
                minimum: 1,
            });
        }
        let collector = Arc::new(Collector::new());
        let telemetry = if config.telemetry.is_enabled() {
            TelemetryHandle::new(Arc::new(FanoutRecorder::new(vec![
                collector.clone() as Arc<dyn Recorder>,
                config.telemetry.recorder(),
            ])))
        } else {
            TelemetryHandle::new(collector.clone())
        };
        let ids: Vec<u64> = (0..config.shards as u64).collect();
        let shards = ids
            .iter()
            .map(|_| {
                let mut shard_config = config.shard.clone();
                shard_config.telemetry = telemetry.clone();
                if let Some(store) = &config.plan_store {
                    shard_config.plan_store = Some(Arc::clone(store));
                }
                // eager warm-loading on every shard would duplicate
                // every stored plan fleet-wide; the owning shard pulls
                // its plans on demand through read-through instead
                shard_config.warm_start = false;
                ServeEngine::start(shard_config)
            })
            .collect::<Vec<_>>();
        // routing reads `health().ready()`, which is false until a
        // shard's workers have registered; without this rendezvous the
        // first requests would spuriously "fail over" past owners that
        // are merely still spawning
        for shard in &shards {
            while shard.health().workers_alive() == 0 {
                std::thread::yield_now();
            }
        }
        Ok(ShardRouter {
            shards,
            ids,
            telemetry,
            collector,
            routed: AtomicU64::new(0),
            failovers: AtomicU64::new(0),
            no_ready_shard: AtomicU64::new(0),
            killed: AtomicU64::new(0),
        })
    }

    /// Fleet size (including killed shards).
    pub fn shards(&self) -> usize {
        self.shards.len()
    }

    /// Direct access to one shard (e.g. for per-shard assertions).
    ///
    /// # Panics
    /// When `shard` is out of range.
    pub fn shard(&self, shard: usize) -> &ServeEngine<T> {
        &self.shards[shard]
    }

    /// The fingerprint's rendezvous owner — where its traffic lands
    /// while the fleet is healthy.
    pub fn owner(&self, fp: &MatrixFingerprint) -> usize {
        // the id list is never empty: `start` rejects a zero-shard fleet
        rendezvous_pick(fp.hash(), &self.ids).unwrap_or_default() as usize
    }

    /// The fingerprint's full failover order: the owner first, then
    /// each successive rendezvous candidate.
    pub fn candidates(&self, fp: &MatrixFingerprint) -> Vec<usize> {
        rendezvous_order(fp.hash(), &self.ids)
            .into_iter()
            .map(|id| id as usize)
            .collect()
    }

    /// Where a request for `fp` would be placed *right now*: the first
    /// rendezvous candidate whose shard is ready, or `None` when no
    /// shard is.
    pub fn route(&self, fp: &MatrixFingerprint) -> Option<usize> {
        self.candidates(fp)
            .into_iter()
            .find(|&idx| self.shards[idx].health().ready())
    }

    /// Routes and enqueues a request, returning the shard's [`Ticket`].
    ///
    /// Placement walks the fingerprint's rendezvous order and takes the
    /// first *ready* shard; passing over a not-ready candidate counts
    /// as `serve.router.failover`. A ready-but-full shard is **not**
    /// failed over: [`ServeError::Overloaded`] is backpressure the
    /// client must handle, and spilling it to a non-owner would
    /// duplicate the structure's plan — exactly what the router exists
    /// to prevent.
    ///
    /// # Errors
    /// [`ServeError::NoReadyShard`] when every shard is shut down or
    /// has no live workers; [`ServeError::Overloaded`] from the chosen
    /// shard's admission control; [`ServeError::Execute`] when the
    /// `serve.router.route` fault point fires.
    pub fn submit(&self, request: Request<T>) -> Result<Ticket<T>, ServeError> {
        FAULT_ROUTER_ROUTE
            .fire()
            .map_err(|e| ServeError::Execute(SparseError::InvalidStructure(e.to_string())))?;
        let fp = MatrixFingerprint::of(request.matrix());
        for (rank, idx) in self.candidates(&fp).into_iter().enumerate() {
            if !self.shards[idx].health().ready() {
                continue;
            }
            self.routed.fetch_add(1, Ordering::Relaxed);
            self.telemetry.counter("serve.router.routed", 1);
            if rank > 0 {
                self.failovers.fetch_add(1, Ordering::Relaxed);
                self.telemetry.counter("serve.router.failover", 1);
            }
            return self.shards[idx].submit_fingerprinted(request, Some(fp));
        }
        self.no_ready_shard.fetch_add(1, Ordering::Relaxed);
        self.telemetry.counter("serve.router.no_ready_shard", 1);
        Err(ServeError::NoReadyShard {
            shards: self.shards.len(),
        })
    }

    /// Routes, submits and waits: the synchronous convenience path.
    ///
    /// # Errors
    /// As [`ShardRouter::submit`], plus any serving error the shard
    /// reports for the request itself.
    pub fn execute(&self, request: Request<T>) -> Result<Response<T>, ServeError> {
        self.submit(request)?.wait()
    }

    /// Refreshes the cached plan for `fp` in place on every shard that
    /// holds one (after a failover the plan may be resident on both the
    /// owner and its backup). Returns `Ok(true)` when at least one
    /// shard refreshed.
    ///
    /// # Errors
    /// The first value-refresh error any shard reports.
    pub fn update_values(&self, fp: &MatrixFingerprint, values: &[T]) -> Result<bool, ServeError> {
        let mut refreshed = false;
        for shard in &self.shards {
            refreshed |= shard.update_values(fp, values)?;
        }
        Ok(refreshed)
    }

    /// Applies a structural delta to the plan for `fp` on exactly one
    /// shard — the first of `fp`'s rendezvous candidates that actually
    /// holds the plan (its owner while the fleet is healthy; after a
    /// failover, the backup that prepared it). Walking past shards that
    /// do not hold the plan keeps the fleet invariant the router exists
    /// for: a structure's plan — old epoch or new — lives on one shard,
    /// never N.
    ///
    /// The returned fingerprint is the *new* structure's key, and its
    /// traffic re-routes through rendezvous independently: when the new
    /// fingerprint's owner is a different shard, that shard warm-loads
    /// the delta'd plan from the shared store tier on first contact
    /// ([`PlanStore::save_delta`] persisted it before the swap
    /// committed). Without a store tier, the new owner re-prepares from
    /// scratch — correct, just not incremental.
    ///
    /// Returns `Ok(None)` when no shard holds a plan for `fp`.
    ///
    /// # Errors
    /// The delta error the holding shard reports; the old plan on that
    /// shard remains fully serveable (see
    /// [`PlanCache::apply_delta`](crate::cache::PlanCache::apply_delta)).
    pub fn apply_delta(
        &self,
        fp: &MatrixFingerprint,
        added: &[(usize, usize, T)],
        removed: &[(usize, usize)],
    ) -> Result<Option<MatrixFingerprint>, ServeError> {
        for idx in self.candidates(fp) {
            match self.shards[idx].apply_delta(fp, added, removed)? {
                Some(new_fp) => {
                    self.telemetry.counter("serve.router.delta", 1);
                    return Ok(Some(new_fp));
                }
                None => continue,
            }
        }
        Ok(None)
    }

    /// Takes one shard down (stops its admission, drains what it
    /// already accepted) — the fault-injection path the chaos bench
    /// uses to prove graceful degradation. Subsequent traffic for the
    /// shard's keys fails over to their next rendezvous candidate.
    ///
    /// # Panics
    /// When `shard` is out of range.
    pub fn kill(&self, shard: usize) {
        self.shards[shard].shutdown();
        self.killed.fetch_add(1, Ordering::Relaxed);
        self.telemetry.counter("serve.router.shard_killed", 1);
    }

    /// Snapshots the routing counters plus every shard's serving
    /// counters (merged and unmerged).
    pub fn stats(&self) -> RouterStats {
        let per_shard: Vec<ServeStats> = self.shards.iter().map(ServeEngine::stats).collect();
        let fleet = per_shard
            .iter()
            .fold(ServeStats::default(), |acc, s| acc.merge(s));
        RouterStats {
            routed: self.routed.load(Ordering::Relaxed),
            failovers: self.failovers.load(Ordering::Relaxed),
            no_ready_shard: self.no_ready_shard.load(Ordering::Relaxed),
            killed: self.killed.load(Ordering::Relaxed),
            fleet,
            per_shard,
        }
    }

    /// Snapshots fleet health: the merged view plus the per-shard
    /// snapshots routing decisions are made from.
    pub fn health(&self) -> RouterHealth {
        let per_shard: Vec<HealthSnapshot> = self.shards.iter().map(ServeEngine::health).collect();
        let fleet = per_shard
            .iter()
            .skip(1)
            .fold(per_shard[0].clone(), |acc, h| acc.merge(h));
        RouterHealth { fleet, per_shard }
    }

    /// The component-wise sum of every shard's plan-cache counters.
    pub fn cache_stats(&self) -> CacheStats {
        self.shards
            .iter()
            .map(ServeEngine::cache_stats)
            .fold(CacheStats::default(), |acc, s| acc.merge(&s))
    }

    /// The fleet's telemetry handle: every shard's `serve.*` events and
    /// the router's `serve.router.*` events land here.
    pub fn telemetry(&self) -> &TelemetryHandle {
        &self.telemetry
    }

    /// Snapshots the fleet collector as a run manifest: exact
    /// fleet-wide `serve.*`, `serve.cache.*`, `serve.store.*` and
    /// `serve.router.*` totals.
    pub fn manifest(&self) -> RunManifest {
        self.collector.manifest()
    }

    /// Stops every shard's admission control; already-admitted jobs are
    /// still drained and answered. Called automatically on drop (each
    /// shard shuts down as it is dropped).
    pub fn shutdown(&self) {
        for shard in &self.shards {
            shard.shutdown();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spmm_data::generators;
    use std::time::Duration;

    fn small_router(shards: usize) -> ShardRouter<f64> {
        ShardRouter::start(
            RouterConfig::builder()
                .shards(shards)
                .shard(
                    ServeConfig::builder()
                        .workers(1)
                        .queue_capacity(32)
                        .build()
                        .unwrap(),
                )
                .build()
                .unwrap(),
        )
        .unwrap()
    }

    #[test]
    fn builder_rejects_a_zero_shard_fleet() {
        let err = RouterConfig::builder().shards(0).build().unwrap_err();
        assert_eq!(
            err,
            ServeError::InvalidConfig {
                field: "shards",
                value: 0,
                minimum: 1,
            }
        );
        // a template mutated behind the builder's back is caught at start
        let mut config = RouterConfig::default();
        config.shard.workers = 0;
        let err = ShardRouter::<f64>::start(config).unwrap_err();
        assert!(matches!(
            err,
            ServeError::InvalidConfig {
                field: "workers",
                ..
            }
        ));
    }

    #[test]
    fn rendezvous_order_is_a_permutation_with_a_stable_owner() {
        let ids: Vec<u64> = (0..8).collect();
        for key in [0u64, 1, 42, 0xDEAD_BEEF, u64::MAX] {
            let order = rendezvous_order(key, &ids);
            let mut sorted = order.clone();
            sorted.sort_unstable();
            assert_eq!(sorted, ids, "order must be a permutation of the ids");
            assert_eq!(rendezvous_pick(key, &ids), Some(order[0]));
            assert_eq!(order, rendezvous_order(key, &ids), "deterministic");
        }
        assert_eq!(rendezvous_pick(7, &[]), None);
    }

    #[test]
    fn same_fingerprint_routes_to_the_same_shard_and_caches_once() {
        let router = small_router(4);
        let m = generators::uniform_random::<f64>(128, 128, 6, 3);
        let x = generators::random_dense::<f64>(m.ncols(), 8, 5);
        let fp = MatrixFingerprint::of(&m);
        let owner = router.owner(&fp);

        let cold = router.execute(Request::spmm(m.clone(), x.clone())).unwrap();
        assert_eq!(cold.path, crate::ServePath::FreshPlan);
        let warm = router.execute(Request::spmm(m, x)).unwrap();
        assert_eq!(warm.path, crate::ServePath::CachedPlan);
        assert_eq!(warm.preprocess, Duration::ZERO);

        // only the owner served anything; the plan exists exactly once
        for idx in 0..router.shards() {
            let expected = if idx == owner { 2 } else { 0 };
            assert_eq!(router.shard(idx).stats().completed(), expected);
        }
        let cache = router.cache_stats();
        assert_eq!(cache.inserts(), 1, "one prepare fleet-wide");
        assert_eq!(cache.hits(), 1);
        let stats = router.stats();
        assert_eq!(stats.routed(), 2);
        assert_eq!(stats.failovers(), 0);
        assert_eq!(stats.fleet().completed(), 2);
        assert_eq!(router.manifest().counters["serve.router.routed"], 2);
    }

    #[test]
    fn killed_shard_fails_over_to_the_next_candidate() {
        let router = small_router(3);
        let m = generators::uniform_random::<f64>(96, 96, 5, 11);
        let x = generators::random_dense::<f64>(m.ncols(), 4, 2);
        let fp = MatrixFingerprint::of(&m);
        let candidates = router.candidates(&fp);

        router.kill(candidates[0]);
        assert!(!router.health().per_shard()[candidates[0]].ready());
        assert_eq!(router.route(&fp), Some(candidates[1]));

        let resp = router.execute(Request::spmm(m, x)).unwrap();
        assert_eq!(resp.path, crate::ServePath::FreshPlan);
        let stats = router.stats();
        assert_eq!(stats.failovers(), 1);
        assert_eq!(stats.per_shard()[candidates[1]].completed(), 1);
        let health = router.health();
        assert!(health.ready());
        assert_eq!(health.ready_shards(), 2);
        assert_eq!(router.manifest().counters["serve.router.shard_killed"], 1);
    }

    #[test]
    fn a_fully_killed_fleet_reports_no_ready_shard() {
        let router = small_router(2);
        router.kill(0);
        router.kill(1);
        let m = generators::uniform_random::<f64>(64, 64, 4, 9);
        let x = generators::random_dense::<f64>(m.ncols(), 4, 1);
        let err = router.execute(Request::spmm(m, x)).unwrap_err();
        assert_eq!(err, ServeError::NoReadyShard { shards: 2 });
        assert!(!router.health().ready());
        assert_eq!(router.stats().no_ready_shard(), 1);
    }

    #[test]
    fn update_values_reaches_the_owning_shard() {
        let router = small_router(3);
        let m = generators::uniform_random::<f64>(96, 96, 5, 77);
        let x = generators::random_dense::<f64>(m.ncols(), 8, 1);
        let fp = MatrixFingerprint::of(&m);
        router.execute(Request::spmm(m.clone(), x.clone())).unwrap();

        let new_values: Vec<f64> = (0..m.nnz()).map(|i| (i % 7) as f64 - 3.0).collect();
        assert!(router.update_values(&fp, &new_values).unwrap());

        let mut m2 = m.clone();
        m2.values_mut().copy_from_slice(&new_values);
        let expected = spmm_kernels::spmm::spmm_rowwise_seq(&m2, &x).unwrap();
        let resp = router.execute(Request::spmm(m2, x)).unwrap();
        assert_eq!(resp.path, crate::ServePath::CachedPlan);
        let got = resp.output.into_dense().unwrap();
        assert!(expected.max_abs_diff(&got) < 1e-10);
    }

    #[test]
    fn structural_delta_lands_on_one_shard_and_both_epochs_serve() {
        let _quiet = spmm_faults::quiesce();
        let router = small_router(3);
        let m = generators::uniform_random::<f64>(96, 96, 5, 77);
        let x = generators::random_dense::<f64>(m.ncols(), 8, 1);
        let fp = MatrixFingerprint::of(&m);
        router.execute(Request::spmm(m.clone(), x.clone())).unwrap();

        let existing = (0usize, m.row_cols(0)[0] as usize);
        let absent = (0..m.ncols() as u32)
            .find(|c| m.row_cols(1).binary_search(c).is_err())
            .unwrap() as usize;
        let added = [(1usize, absent, 2.5f64)];
        let removed = [existing];
        let new_fp = router.apply_delta(&fp, &added, &removed).unwrap().unwrap();
        assert_ne!(new_fp, fp);

        // The delta landed on exactly one shard — the fleet never holds
        // duplicate residents for a structure.
        let holders = router
            .shards
            .iter()
            .filter(|s| s.cache().try_get(&new_fp).is_some())
            .count();
        assert_eq!(holders, 1);

        // Both epochs keep serving exact answers through the router.
        let m_new = m.apply_structural_delta(&added, &removed).unwrap();
        for mat in [m.clone(), m_new.clone()] {
            let expected = spmm_kernels::spmm::spmm_rowwise_seq(&mat, &x).unwrap();
            let got = router
                .execute(Request::spmm(mat, x.clone()))
                .unwrap()
                .output
                .into_dense()
                .unwrap();
            assert!(expected.max_abs_diff(&got) < 1e-10);
        }

        // A fingerprint no shard holds is a routed no-op.
        let stranger = generators::uniform_random::<f64>(32, 32, 3, 5);
        let stranger_fp = MatrixFingerprint::of(&stranger);
        assert!(router
            .apply_delta(&stranger_fp, &[], &[(0, 0)])
            .unwrap()
            .is_none());
    }
}
