//! Capacity-bounded LRU cache of prepared plans, behind one lock.
//!
//! The cache maps a [`MatrixFingerprint`] to an `Arc<Engine<T>>` — one
//! paid-for run of the Fig 5 preprocessing pipeline, shared by every
//! request on the same sparsity structure. Three properties carry the
//! serving layer:
//!
//! * **Coalesced preparation.** A fingerprint's slot is inserted
//!   atomically under the map lock, so under a thundering herd exactly
//!   one caller runs `Engine::prepare`; the rest block on the slot's
//!   condvar and share the result.
//! * **Bounded capacity.** An insert and the evictions it causes happen
//!   in one critical section: an insert past `capacity` evicts the
//!   least-recently-used *settled* entries until the cache is back
//!   within its bound. In-flight prepares and claimed mutations are
//!   never evicted (doing so would let a concurrent lookup of the same
//!   fingerprint re-prepare it). So while other slots are pinned that
//!   way, an insert can leave the cache over its capacity by up to the
//!   number of pinned slots. The overflow stays after those slots
//!   settle: only the next insert (or a removal) brings the cache back
//!   within its bound. The eviction order is the LRU order, which the
//!   tests pin down.
//! * **Exact counters.** Every lookup increments exactly one of
//!   hit/miss (hit: a usable or in-flight entry existed; miss: this
//!   call created the slot, claimed a retry, was suppressed, or found
//!   nothing), decided under the map lock — the `serve.cache.*`
//!   telemetry counters in the run manifest agree with [`CacheStats`]
//!   under any interleaving.
//!
//! Locks are taken map → slot, never the other way. `prepare`, the
//! store's loads and saves, [`Engine::apply_delta`] and every condvar
//! wait run outside the map lock.
//!
//! Failure handling is stateful, not fire-and-forget:
//!
//! * A prepare that **returns an error** leaves the slot `Failed` with
//!   a per-fingerprint failure count. Lookups inside the exponential
//!   backoff window ([`RETRY_BACKOFF_BASE`] × 2ⁿ⁻¹, plus a jitter of up
//!   to 25 % derived from the fingerprint and the failure count)
//!   fast-fail with [`ServeError::RetryBackoff`] without running the
//!   pipeline; the first lookup past the window claims the slot and
//!   retries.
//! * After [`BREAKER_THRESHOLD`] consecutive failures the
//!   fingerprint's **circuit breaker opens**: lookups fast-fail with
//!   [`ServeError::BreakerOpen`] until [`BREAKER_COOLDOWN`] elapses,
//!   then exactly one half-open probe is admitted — success closes the
//!   breaker, failure re-opens it for another cooldown. Transitions
//!   are counted as `serve.breaker.{open,half_open,close}` and retry
//!   outcomes as `serve.retry.{suppressed,attempt,scheduled}`.
//! * A prepare that **panics** poisons its slot: later lookups report
//!   [`ServeError::PoisonedPlan`] deterministically until the entry is
//!   evicted, [`PlanCache::remove`]d, or swept by
//!   [`PlanCache::clear_poisoned`]. The serving layer quarantines such
//!   fingerprints and degrades to the row-wise fallback.
//!
//! All waiting is on the injectable clock ([`ClockHandle`]), so tests
//! step through backoff windows and cooldowns without sleeping.

use crate::error::ServeError;
use crate::fingerprint::MatrixFingerprint;
use crate::lock_clean;
use crate::store::PlanStore;
use spmm_faults::{splitmix64, ClockHandle, FaultPoint};
use spmm_kernels::Engine;
use spmm_sparse::{Scalar, SparseError};
use spmm_telemetry::TelemetryHandle;
use std::collections::HashMap;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::time::Duration;

/// Fault point fired inside the prepare closure, within the cache's
/// `catch_unwind` boundary: an `Error` action surfaces as a failed
/// prepare (feeding the backoff/breaker machinery) and a `Panic`
/// action poisons the slot exactly like a real mid-prepare panic.
pub static FAULT_SERVE_CACHE_PREPARE: FaultPoint = FaultPoint::new("serve.cache.prepare");

/// Fault point fired inside [`PlanCache::apply_delta`], between the
/// incremental re-prepare and the commit of the new epoch — the widest
/// window in which a delta can die with the new plan fully built but
/// not yet installed. Any action (error or panic) aborts the delta:
/// the old fingerprint's slot is restored and keeps serving.
pub static FAULT_SERVE_CACHE_DELTA: FaultPoint = FaultPoint::new("serve.cache.delta");

/// Consecutive prepare failures that open a fingerprint's circuit
/// breaker.
pub const BREAKER_THRESHOLD: u32 = 3;

/// How long an open breaker suppresses attempts before admitting a
/// half-open probe.
pub const BREAKER_COOLDOWN: Duration = Duration::from_millis(250);

/// The backoff window after a first failed prepare; the second failure
/// doubles it. The third opens the breaker, so these two windows (plus
/// jitter) are the only ones.
pub const RETRY_BACKOFF_BASE: Duration = Duration::from_millis(10);

/// Construction options for [`PlanCache`].
#[derive(Debug, Clone)]
#[non_exhaustive]
pub struct PlanCacheConfig {
    /// Capacity bound (at least 1 is enforced). Default 32.
    pub capacity: usize,
    /// Sink for the `serve.cache.*`, `serve.retry.*` and
    /// `serve.breaker.*` counters. Disabled by default.
    pub telemetry: TelemetryHandle,
    /// Time source for backoff windows and breaker cooldowns. Tests
    /// inject a manual clock; defaults to the system clock.
    pub clock: ClockHandle,
    /// Optional disk-backed second tier ([`PlanStore`]): a miss first
    /// tries to load a persisted plan (read-through, counted as
    /// `serve.store.{hit,miss,reject}`) and a freshly prepared plan is
    /// persisted back (write-through, `serve.store.{save,save_error}`,
    /// never failing the request). Disabled by default.
    pub store: Option<Arc<PlanStore>>,
}

impl Default for PlanCacheConfig {
    fn default() -> Self {
        PlanCacheConfig {
            capacity: 32,
            telemetry: TelemetryHandle::default(),
            clock: ClockHandle::default(),
            store: None,
        }
    }
}

impl PlanCacheConfig {
    /// Starts a builder initialised with the defaults.
    pub fn builder() -> PlanCacheConfigBuilder {
        PlanCacheConfigBuilder::default()
    }
}

/// Builder for [`PlanCacheConfig`].
#[derive(Debug, Clone, Default)]
pub struct PlanCacheConfigBuilder {
    config: PlanCacheConfig,
}

impl PlanCacheConfigBuilder {
    /// Sets the capacity bound.
    pub fn capacity(mut self, capacity: usize) -> Self {
        self.config.capacity = capacity;
        self
    }

    /// Sets the telemetry sink.
    pub fn telemetry(mut self, telemetry: TelemetryHandle) -> Self {
        self.config.telemetry = telemetry;
        self
    }

    /// Sets the time source.
    pub fn clock(mut self, clock: ClockHandle) -> Self {
        self.config.clock = clock;
        self
    }

    /// Attaches a disk-backed plan store as the cache's second tier.
    pub fn store(mut self, store: Arc<PlanStore>) -> Self {
        self.config.store = Some(store);
        self
    }

    /// Finishes the configuration.
    pub fn build(self) -> PlanCacheConfig {
        self.config
    }
}

/// A point-in-time snapshot of the cache counters.
///
/// `#[non_exhaustive]`: construct it via [`PlanCache::stats`] (or
/// [`CacheStats::default`]) and read it through the typed accessors,
/// so new counters can be added without breaking downstream code.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
#[non_exhaustive]
pub struct CacheStats {
    /// Lookups that found an entry (ready or in flight).
    pub hits: u64,
    /// Lookups that found nothing usable (created a slot, claimed a
    /// retry, or were suppressed by backoff/breaker).
    pub misses: u64,
    /// Entries dropped to make room at capacity.
    pub evictions: u64,
    /// Slots created (each corresponds to one initial prepare
    /// attempt; backoff retries reuse the slot and are not counted).
    pub inserts: u64,
    /// In-place value refreshes via [`PlanCache::update_values`].
    pub refreshes: u64,
    /// Entries currently cached (including failed and poisoned slots).
    pub len: usize,
    /// Entries currently poisoned (a prepare panicked); recover them
    /// with [`PlanCache::clear_poisoned`].
    pub poisoned: usize,
    /// The configured capacity bound.
    pub capacity: usize,
}

impl CacheStats {
    /// Hits over lookups, in `[0, 1]`; `0` before any lookup.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }

    /// Lookups that found an entry.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Lookups that found nothing usable.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Entries dropped to make room at capacity.
    pub fn evictions(&self) -> u64 {
        self.evictions
    }

    /// Slots created (one initial prepare attempt each).
    pub fn inserts(&self) -> u64 {
        self.inserts
    }

    /// In-place value refreshes.
    pub fn refreshes(&self) -> u64 {
        self.refreshes
    }

    /// Entries currently cached.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the cache holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Entries currently poisoned.
    pub fn poisoned(&self) -> usize {
        self.poisoned
    }

    /// The configured capacity bound.
    pub fn capacity(&self) -> usize {
        self.capacity
    }
}

/// Whether the fingerprint's circuit breaker is tripped. Half-open is
/// a transient condition (an admitted probe), never a stored state:
/// the probe's slot is `Preparing`, and its outcome stores `Closed`
/// (success) or `Open` (failure).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Breaker {
    Closed,
    Open,
}

/// The persistent record of a fingerprint's failed prepare(s).
#[derive(Debug, Clone)]
struct FailureState {
    error: SparseError,
    /// Consecutive failed prepares (resets on success).
    failures: u32,
    /// Clock instant after which the next attempt is admitted.
    next_retry_at: Duration,
    breaker: Breaker,
}

/// State of one fingerprint's slot.
#[derive(Debug)]
enum SlotState<T> {
    /// A caller is running `Engine::prepare`; wait on the condvar.
    Preparing,
    /// The shared, ready-to-execute plan.
    Ready(Arc<Engine<T>>),
    /// An exclusive in-place mutation — a value refresh or a
    /// structural delta — has claimed the slot. Readers keep being
    /// served the carried pre-mutation engine (epoch semantics: there
    /// is no window in which lookups miss); other mutations wait on
    /// the condvar until the claimer settles the slot back to `Ready`.
    Updating(Arc<Engine<T>>),
    /// The last prepare returned an error; the slot persists so
    /// backoff and breaker state survive between attempts.
    Failed(FailureState),
    /// The prepare panicked.
    Poisoned,
}

#[derive(Debug)]
struct PlanSlot<T> {
    state: Mutex<SlotState<T>>,
    ready: Condvar,
}

impl<T: Scalar> PlanSlot<T> {
    fn new(state: SlotState<T>) -> Arc<Self> {
        Arc::new(PlanSlot {
            state: Mutex::new(state),
            ready: Condvar::new(),
        })
    }

    fn fulfill(&self, new: SlotState<T>) {
        *lock_clean(&self.state) = new;
        self.ready.notify_all();
    }

    /// Blocks until the slot leaves `Preparing`.
    fn wait(&self) -> Result<Arc<Engine<T>>, ServeError> {
        let mut state = lock_clean(&self.state);
        loop {
            match &*state {
                SlotState::Preparing => {
                    state = self
                        .ready
                        .wait(state)
                        .unwrap_or_else(PoisonError::into_inner)
                }
                SlotState::Ready(engine) | SlotState::Updating(engine) => {
                    return Ok(Arc::clone(engine))
                }
                SlotState::Failed(fs) => return Err(ServeError::Prepare(fs.error.clone())),
                SlotState::Poisoned => return Err(ServeError::PoisonedPlan),
            }
        }
    }

    /// Claims the slot for an exclusive mutation: waits out an
    /// in-flight prepare *and any other in-flight mutation*, then moves
    /// `Ready` → `Updating` and returns the engine being mutated. The
    /// claimer owns the slot until it calls [`PlanSlot::fulfill`] —
    /// either with the mutated engine or, on failure, with the engine
    /// returned here (restoring the pre-mutation epoch). This is what
    /// makes mutations linearizable: a value refresh that lands during
    /// an in-flight structural delta waits here instead of overwriting
    /// the slot mid-delta and being silently reverted by the delta's
    /// restore path.
    fn claim_for_update(&self) -> Result<Arc<Engine<T>>, ServeError> {
        let mut state = lock_clean(&self.state);
        loop {
            match &*state {
                SlotState::Preparing | SlotState::Updating(_) => {
                    state = self
                        .ready
                        .wait(state)
                        .unwrap_or_else(PoisonError::into_inner)
                }
                SlotState::Ready(engine) => {
                    let engine = Arc::clone(engine);
                    *state = SlotState::Updating(Arc::clone(&engine));
                    return Ok(engine);
                }
                SlotState::Failed(fs) => return Err(ServeError::Prepare(fs.error.clone())),
                SlotState::Poisoned => return Err(ServeError::PoisonedPlan),
            }
        }
    }
}

#[derive(Debug)]
struct Entry<T> {
    slot: Arc<PlanSlot<T>>,
    /// Tick of the last lookup that touched this entry.
    last_used: u64,
    /// Epoch of the plan: `0` for a plan prepared (or warm-loaded)
    /// from scratch, `n+1` for a plan installed by a structural delta
    /// applied to a generation-`n` plan. Purely observational — it
    /// lets operators and tests tell a delta-descended plan from a
    /// fresh prepare of the same structure.
    generation: u64,
}

impl<T> Entry<T> {
    /// Whether the entry may be evicted: its slot is settled, neither
    /// in flight (`Preparing`) nor claimed (`Updating`).
    fn evictable(&self) -> bool {
        !matches!(
            &*lock_clean(&self.slot.state),
            SlotState::Preparing | SlotState::Updating(_)
        )
    }
}

/// The map and the lookup clock that orders it, both behind the
/// cache's one lock.
#[derive(Debug)]
struct Entries<T> {
    by_fp: HashMap<MatrixFingerprint, Entry<T>>,
    /// Lookup clock driving LRU recency.
    tick: u64,
}

impl<T> Entries<T> {
    /// Advances the lookup clock, returning the new tick.
    fn next_tick(&mut self) -> u64 {
        self.tick += 1;
        self.tick
    }
}

/// LRU cache of fingerprint → prepared plan (see the module docs for
/// the concurrency and failure-recovery contracts).
#[derive(Debug)]
pub struct PlanCache<T> {
    entries: Mutex<Entries<T>>,
    capacity: usize,
    telemetry: TelemetryHandle,
    clock: ClockHandle,
    store: Option<Arc<PlanStore>>,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
    inserts: AtomicU64,
    refreshes: AtomicU64,
}

/// Backoff window after the `failures`-th consecutive failure:
/// `RETRY_BACKOFF_BASE × 2^(failures-1)` plus a deterministic jitter
/// of up to 25 % derived from the fingerprint and the failure count.
/// Only failures below [`BREAKER_THRESHOLD`] back off.
fn backoff_after(fp: &MatrixFingerprint, failures: u32) -> Duration {
    debug_assert!((1..BREAKER_THRESHOLD).contains(&failures));
    let raw = RETRY_BACKOFF_BASE * (1 << (failures - 1));
    let quarter = raw.as_nanos() as u64 / 4;
    raw + Duration::from_nanos(splitmix64(fp.hash() ^ u64::from(failures)) % (quarter + 1))
}

impl<T: Scalar> PlanCache<T> {
    /// An empty cache with the given configuration.
    pub fn new(config: PlanCacheConfig) -> Self {
        PlanCache {
            entries: Mutex::new(Entries {
                by_fp: HashMap::new(),
                tick: 0,
            }),
            capacity: config.capacity.max(1),
            telemetry: config.telemetry,
            clock: config.clock,
            store: config.store,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            inserts: AtomicU64::new(0),
            refreshes: AtomicU64::new(0),
        }
    }

    fn count_hit(&self) {
        self.hits.fetch_add(1, Ordering::Relaxed);
        self.telemetry.counter("serve.cache.hit", 1);
    }

    fn count_miss(&self) {
        self.misses.fetch_add(1, Ordering::Relaxed);
        self.telemetry.counter("serve.cache.miss", 1);
    }

    /// Inserts a new entry for `fp` under the held map lock, then
    /// evicts least-recently-used *settled* entries other than `fp`
    /// until the cache is back within its capacity — all in the one
    /// critical section, so no reader ever sees an insert without its
    /// evictions.
    ///
    /// In-flight (`Preparing`) slots are never evicted: dropping one
    /// hides the prepare from later lookups of the same fingerprint,
    /// which then also miss the store (the first write-through has not
    /// landed yet) and pay for a duplicate prepare — exactly the
    /// coalescing the slot exists to provide. Claimed (`Updating`)
    /// slots are likewise pinned: evicting one orphans the mutation's
    /// settle, silently discarding a refresh or a delta restore. When
    /// too few settled entries remain, the insert leaves the cache over
    /// its capacity, by at most the number of pinned slots; the
    /// overflow stays until the next insert evicts it, even after
    /// those slots settle.
    fn insert_locked(&self, entries: &mut Entries<T>, fp: MatrixFingerprint, entry: Entry<T>) {
        entries.by_fp.insert(fp, entry);
        self.inserts.fetch_add(1, Ordering::Relaxed);
        self.telemetry.counter("serve.cache.insert", 1);
        while entries.by_fp.len() > self.capacity {
            let victim = entries
                .by_fp
                .iter()
                .filter(|(k, e)| **k != fp && e.evictable())
                .min_by_key(|(_, e)| e.last_used)
                .map(|(k, _)| *k);
            let Some(victim) = victim else {
                return;
            };
            entries.by_fp.remove(&victim);
            self.evictions.fetch_add(1, Ordering::Relaxed);
            self.telemetry.counter("serve.cache.eviction", 1);
        }
    }

    /// The slot cached under `fp`, with its generation.
    fn slot(&self, fp: &MatrixFingerprint) -> Option<(Arc<PlanSlot<T>>, u64)> {
        lock_clean(&self.entries)
            .by_fp
            .get(fp)
            .map(|e| (Arc::clone(&e.slot), e.generation))
    }

    /// Non-blocking lookup: `Some` iff a fully prepared plan is cached
    /// (bumping its recency and counting a hit); counts a miss
    /// otherwise. This is the deadline-pressured path — a caller that
    /// would fall back rather than wait for an in-flight prepare.
    pub fn try_get(&self, fp: &MatrixFingerprint) -> Option<Arc<Engine<T>>> {
        let mut entries = lock_clean(&self.entries);
        let tick = entries.next_tick();
        let engine = entries.by_fp.get_mut(fp).and_then(|entry| {
            let ready = match &*lock_clean(&entry.slot.state) {
                // an in-flight mutation still serves its pre-mutation
                // snapshot: deltas have no eviction window
                SlotState::Ready(engine) | SlotState::Updating(engine) => Some(Arc::clone(engine)),
                _ => None,
            };
            if ready.is_some() {
                entry.last_used = tick;
            }
            ready
        });
        drop(entries);
        if engine.is_some() {
            self.count_hit();
        } else {
            self.count_miss();
        }
        engine
    }

    /// The coalescing lookup: returns the cached plan for `fp`,
    /// preparing it with `prepare` if absent. Returns the engine plus
    /// `true` when *this call* ran the prepare (a cold miss or an
    /// admitted retry), `false` when the plan was already cached or in
    /// flight.
    ///
    /// Concurrent calls on the same fingerprint run `prepare` exactly
    /// once; the others block until it resolves. `prepare` runs
    /// *outside* the map lock, so unrelated fingerprints are never
    /// blocked behind a slow preprocessing run.
    ///
    /// # Errors
    /// [`ServeError::Prepare`] when `prepare` fails (the slot persists
    /// as failed and schedules a backoff window);
    /// [`ServeError::RetryBackoff`] / [`ServeError::BreakerOpen`] when
    /// a previous failure's backoff window or breaker cooldown has not
    /// elapsed (the attempt is suppressed without running `prepare`);
    /// [`ServeError::PoisonedPlan`] when a previous `prepare` for this
    /// fingerprint panicked and the poisoned entry is still cached.
    ///
    /// # Panics
    /// Re-raises `prepare`'s panic in the preparing caller after
    /// poisoning the slot.
    pub fn get_or_prepare(
        &self,
        fp: MatrixFingerprint,
        prepare: impl FnOnce() -> Result<Engine<T>, SparseError>,
    ) -> Result<(Arc<Engine<T>>, bool), ServeError> {
        let (slot, created) = {
            let mut entries = lock_clean(&self.entries);
            let tick = entries.next_tick();
            match entries.by_fp.get_mut(&fp) {
                Some(entry) => {
                    entry.last_used = tick;
                    (Arc::clone(&entry.slot), false)
                }
                None => {
                    let slot = PlanSlot::new(SlotState::Preparing);
                    let entry = Entry {
                        slot: Arc::clone(&slot),
                        last_used: tick,
                        generation: 0,
                    };
                    self.insert_locked(&mut entries, fp, entry);
                    (slot, true)
                }
            }
        };
        let mut prior: Option<FailureState> = None;
        if created {
            self.count_miss();
        } else {
            // Resolve the existing slot: wait on in-flight/ready slots,
            // claim or suppress failed ones.
            let claimed = {
                let mut state = lock_clean(&slot.state);
                if let SlotState::Failed(fs) = &*state {
                    let now = self.clock.now();
                    if now < fs.next_retry_at {
                        let (failures, retry_in) = (fs.failures, fs.next_retry_at - now);
                        let err = match fs.breaker {
                            Breaker::Open => ServeError::BreakerOpen { failures, retry_in },
                            Breaker::Closed => ServeError::RetryBackoff { failures, retry_in },
                        };
                        drop(state);
                        self.count_miss();
                        self.telemetry.counter("serve.retry.suppressed", 1);
                        return Err(err);
                    }
                    prior = Some(fs.clone());
                    *state = SlotState::Preparing;
                    true
                } else {
                    false
                }
            };
            if !claimed {
                self.count_hit();
                return slot.wait().map(|engine| (engine, false));
            }
            self.count_miss();
            self.telemetry.counter("serve.retry.attempt", 1);
            if prior.as_ref().is_some_and(|p| p.breaker == Breaker::Open) {
                self.telemetry.counter("serve.breaker.half_open", 1);
            }
        }
        // Disk-tier read-through. Both paths that are about to pay for
        // a live prepare — the slot creator and an admitted retry —
        // first consult the persistent store. A stored plan fulfils the
        // slot like a warm cache entry (zero preprocessing, reported as
        // not-fresh); a malformed or stale file is *rejected* and the
        // lookup degrades to the live prepare below.
        if let Some(store) = &self.store {
            match store.load::<T>(&fp, &self.telemetry) {
                Ok(Some(engine)) => {
                    let engine = Arc::new(engine);
                    slot.fulfill(SlotState::Ready(Arc::clone(&engine)));
                    self.telemetry.counter("serve.store.hit", 1);
                    if prior.as_ref().is_some_and(|p| p.breaker == Breaker::Open) {
                        self.telemetry.counter("serve.breaker.close", 1);
                    }
                    return Ok((engine, false));
                }
                Ok(None) => self.telemetry.counter("serve.store.miss", 1),
                Err(_) => self.telemetry.counter("serve.store.reject", 1),
            }
        }
        match catch_unwind(AssertUnwindSafe(|| {
            FAULT_SERVE_CACHE_PREPARE
                .fire()
                .map_err(|e| SparseError::InvalidStructure(e.to_string()))?;
            prepare()
        })) {
            Ok(Ok(engine)) => {
                let engine = Arc::new(engine);
                // Write-through *before* the slot settles: persist the
                // paid-for plan so later processes warm-start. The
                // order matters — a `Ready` slot is evictable, and if
                // it were evicted while the save was still in flight a
                // concurrent lookup of the same fingerprint would miss
                // both tiers and duplicate the prepare (and the save).
                // Keeping the slot `Preparing` until the file lands
                // closes that window. A save failure is logged as a
                // counter and never fails the request — the caller has
                // a perfectly good engine in hand.
                if let Some(store) = &self.store {
                    match store.save(&fp, &engine) {
                        Ok(_) => self.telemetry.counter("serve.store.save", 1),
                        Err(_) => self.telemetry.counter("serve.store.save_error", 1),
                    }
                }
                slot.fulfill(SlotState::Ready(Arc::clone(&engine)));
                if prior.as_ref().is_some_and(|p| p.breaker == Breaker::Open) {
                    self.telemetry.counter("serve.breaker.close", 1);
                }
                Ok((engine, true))
            }
            Ok(Err(e)) => {
                let now = self.clock.now();
                let failures = prior.as_ref().map_or(0, |p| p.failures).saturating_add(1);
                let probe_failed = prior.as_ref().is_some_and(|p| p.breaker == Breaker::Open);
                let (breaker, next_retry_at) = if probe_failed || failures >= BREAKER_THRESHOLD {
                    self.telemetry.counter("serve.breaker.open", 1);
                    (Breaker::Open, now + BREAKER_COOLDOWN)
                } else {
                    self.telemetry.counter("serve.retry.scheduled", 1);
                    (Breaker::Closed, now + backoff_after(&fp, failures))
                };
                slot.fulfill(SlotState::Failed(FailureState {
                    error: e.clone(),
                    failures,
                    next_retry_at,
                    breaker,
                }));
                Err(ServeError::Prepare(e))
            }
            Err(panic) => {
                slot.fulfill(SlotState::Poisoned);
                self.telemetry.counter("serve.cache.poisoned", 1);
                resume_unwind(panic)
            }
        }
    }

    /// Seeds the cache with an already-materialised plan — the serving
    /// engine's startup warm-load path, where plans are read from a
    /// [`PlanStore`] before traffic arrives. Counts as an insert but
    /// neither a hit nor a miss (no lookup happened). Returns `false`
    /// without touching the cache when `fp` already has an entry.
    pub fn insert_ready(&self, fp: MatrixFingerprint, engine: Arc<Engine<T>>) -> bool {
        let mut entries = lock_clean(&self.entries);
        if entries.by_fp.contains_key(&fp) {
            return false;
        }
        let entry = Entry {
            slot: PlanSlot::new(SlotState::Ready(engine)),
            last_used: entries.next_tick(),
            generation: 0,
        };
        self.insert_locked(&mut entries, fp, entry);
        true
    }

    /// Refreshes the cached plan for `fp` in place with new values
    /// (original nonzero order). The fingerprint covers structure
    /// only, so the entry, its LRU position and the hit/miss counters
    /// are untouched — in-flight requests keep executing their
    /// consistent snapshot while new lookups see the new values.
    /// Returns `Ok(false)` when nothing is cached under `fp`.
    ///
    /// The refresh *claims* the slot (`Ready` → `Updating`) before
    /// reading the engine, so it serializes against any in-flight
    /// structural delta on the same fingerprint: it refreshes whatever
    /// the delta settled on, instead of overwriting the slot mid-delta
    /// with a pre-delta snapshot and being reverted by the delta's
    /// restore — a lost update that would resurrect stale values.
    ///
    /// # Errors
    /// [`ServeError::Prepare`] on a value-length mismatch, plus
    /// whatever an in-flight prepare for this fingerprint resolves to.
    pub fn update_values(&self, fp: &MatrixFingerprint, values: &[T]) -> Result<bool, ServeError> {
        let Some((slot, _)) = self.slot(fp) else {
            return Ok(false);
        };
        let current = slot.claim_for_update()?;
        let refreshed = match current.with_updated_values(values) {
            Ok(refreshed) => refreshed,
            Err(e) => {
                // release the claim; the pre-refresh plan stays live
                slot.fulfill(SlotState::Ready(current));
                return Err(ServeError::Prepare(e));
            }
        };
        slot.fulfill(SlotState::Ready(Arc::new(refreshed)));
        self.refreshes.fetch_add(1, Ordering::Relaxed);
        self.telemetry.counter("serve.cache.refresh", 1);
        Ok(true)
    }

    /// Applies a structural delta to the plan cached under `fp` and
    /// installs the result as a *new* entry keyed by the post-delta
    /// structure's fingerprint, which is returned. Returns `Ok(None)`
    /// when nothing is cached under `fp` (callers fall back to a
    /// from-scratch prepare of the patched matrix).
    ///
    /// The swap is epoch-style and leaves no unserveable window:
    ///
    /// 1. the old slot is claimed (`Ready` → `Updating`) — lookups of
    ///    `fp` keep being served the pre-delta engine throughout;
    /// 2. [`Engine::apply_delta`] re-prepares incrementally, off every
    ///    lock;
    /// 3. with a store attached, the new epoch is persisted under the
    ///    *new* fingerprint ([`PlanStore::save_delta`]) before anything
    ///    in memory changes — the old file is untouched, so a crash at
    ///    any instant leaves a warm-loadable snapshot;
    /// 4. the new entry is installed (generation = old + 1), and only
    ///    then is the old slot released back to `Ready`.
    ///
    /// Any failure — a malformed delta, an injected fault at
    /// `kernel.delta`, [`FAULT_SERVE_CACHE_DELTA`] or
    /// `serve.store.delta`, a panic, a failed save — aborts the delta:
    /// the old slot is restored and `fp` keeps serving exactly as if
    /// the delta was never attempted (counted as `serve.delta.abort`).
    ///
    /// # Errors
    /// [`ServeError::Prepare`] wrapping the underlying
    /// [`SparseError`]; [`ServeError::PoisonedPlan`] when the cached
    /// entry is poisoned.
    pub fn apply_delta(
        &self,
        fp: &MatrixFingerprint,
        added: &[(usize, usize, T)],
        removed: &[(usize, usize)],
    ) -> Result<Option<MatrixFingerprint>, ServeError> {
        let Some((slot, old_generation)) = self.slot(fp) else {
            return Ok(None);
        };
        self.telemetry.counter("serve.delta.attempt", 1);
        let old = match slot.claim_for_update() {
            Ok(engine) => engine,
            Err(e) => {
                self.telemetry.counter("serve.delta.abort", 1);
                return Err(e);
            }
        };
        let abort = |e: ServeError| -> ServeError {
            slot.fulfill(SlotState::Ready(Arc::clone(&old)));
            self.telemetry.counter("serve.delta.abort", 1);
            e
        };
        // The incremental re-prepare runs off every lock, inside a
        // panic boundary: a fault-injected panic (kernel.delta or
        // serve.cache.delta with a panic action) must degrade to the
        // old plan, never poison it — the pre-delta epoch is intact by
        // construction.
        let outcome = catch_unwind(AssertUnwindSafe(|| -> Result<Engine<T>, ServeError> {
            let engine = old
                .apply_delta(added, removed)
                .map_err(ServeError::Prepare)?;
            FAULT_SERVE_CACHE_DELTA
                .fire()
                .map_err(|e| ServeError::Prepare(SparseError::InvalidStructure(e.to_string())))?;
            Ok(engine)
        }));
        let new_engine = match outcome {
            Ok(Ok(engine)) => Arc::new(engine),
            Ok(Err(e)) => return Err(abort(e)),
            Err(_panic) => {
                return Err(abort(ServeError::Prepare(SparseError::InvalidStructure(
                    "structural delta panicked; pre-delta plan retained".into(),
                ))))
            }
        };
        let new_fp = MatrixFingerprint::of(&new_engine.source_matrix());
        if let Some(store) = &self.store {
            match store.save_delta(&new_fp, &new_engine) {
                Ok(_) => self.telemetry.counter("serve.store.save", 1),
                Err(e) => {
                    // unlike the write-through on a prepare, a failed
                    // delta save fails the delta: committing only in
                    // memory would leave a restart unable to recover
                    // the new epoch while the old file claims to be
                    // current
                    self.telemetry.counter("serve.store.save_error", 1);
                    return Err(abort(ServeError::Prepare(e)));
                }
            }
        }
        // commit: install the new epoch first, release the old slot
        // second — at no instant is neither fingerprint serveable
        {
            let mut entries = lock_clean(&self.entries);
            let tick = entries.next_tick();
            match entries.by_fp.get_mut(&new_fp) {
                Some(entry) => {
                    // the structure was independently cached (or a
                    // prior delta landed on the same structure): the
                    // delta's engine wins, waiters on an in-flight
                    // prepare are fulfilled with it
                    entry.generation = old_generation + 1;
                    entry.last_used = tick;
                    entry
                        .slot
                        .fulfill(SlotState::Ready(Arc::clone(&new_engine)));
                }
                None => {
                    let entry = Entry {
                        slot: PlanSlot::new(SlotState::Ready(Arc::clone(&new_engine))),
                        last_used: tick,
                        generation: old_generation + 1,
                    };
                    self.insert_locked(&mut entries, new_fp, entry);
                }
            }
        }
        slot.fulfill(SlotState::Ready(old));
        self.telemetry.counter("serve.delta.commit", 1);
        Ok(Some(new_fp))
    }

    /// The generation of the entry cached under `fp`: `0` for a fresh
    /// prepare or warm load, `n+1` for a plan installed by
    /// [`PlanCache::apply_delta`] on a generation-`n` plan. `None`
    /// when nothing is cached under `fp`.
    pub fn generation(&self, fp: &MatrixFingerprint) -> Option<u64> {
        lock_clean(&self.entries)
            .by_fp
            .get(fp)
            .map(|e| e.generation)
    }

    /// Drops the entry for `fp` (the targeted recovery path for a
    /// poisoned or persistently failing plan). Returns whether an
    /// entry was removed.
    pub fn remove(&self, fp: &MatrixFingerprint) -> bool {
        lock_clean(&self.entries).by_fp.remove(fp).is_some()
    }

    /// Sweeps every poisoned slot out of the cache, making their
    /// fingerprints preparable again without guessing which
    /// fingerprints to [`PlanCache::remove`]. Returns how many slots
    /// were cleared.
    pub fn clear_poisoned(&self) -> usize {
        let mut entries = lock_clean(&self.entries);
        let before = entries.by_fp.len();
        entries
            .by_fp
            .retain(|_, e| !matches!(&*lock_clean(&e.slot.state), SlotState::Poisoned));
        before - entries.by_fp.len()
    }

    /// Counts entries matching `pred` (map lock → slot lock, the same
    /// order every reader takes).
    fn count_slots(&self, pred: impl Fn(&SlotState<T>) -> bool) -> usize {
        lock_clean(&self.entries)
            .by_fp
            .values()
            .filter(|e| pred(&lock_clean(&e.slot.state)))
            .count()
    }

    /// Entries currently cached.
    pub fn len(&self) -> usize {
        lock_clean(&self.entries).by_fp.len()
    }

    /// Whether the cache holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The configured capacity bound.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Fingerprints whose circuit breaker is currently open (readiness
    /// signal: structures that cannot be prepared right now).
    pub fn open_breakers(&self) -> usize {
        self.count_slots(|s| matches!(s, SlotState::Failed(fs) if fs.breaker == Breaker::Open))
    }

    /// Fingerprints currently quarantined as poisoned.
    pub fn poisoned_len(&self) -> usize {
        self.count_slots(|s| matches!(s, SlotState::Poisoned))
    }

    /// Snapshots the counters.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            inserts: self.inserts.load(Ordering::Relaxed),
            refreshes: self.refreshes.load(Ordering::Relaxed),
            len: self.len(),
            poisoned: self.poisoned_len(),
            capacity: self.capacity,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spmm_data::generators;
    use spmm_kernels::EngineConfig;
    use spmm_sparse::CsrMatrix;
    use std::sync::atomic::AtomicUsize;

    fn matrix(seed: u64) -> CsrMatrix<f64> {
        generators::uniform_random::<f64>(96, 96, 5, seed)
    }

    fn prepare(m: &CsrMatrix<f64>) -> Result<Engine<f64>, SparseError> {
        Engine::prepare(m, &EngineConfig::default())
    }

    fn cache_of(capacity: usize) -> PlanCache<f64> {
        PlanCache::new(PlanCacheConfig::builder().capacity(capacity).build())
    }

    fn injected() -> Result<Engine<f64>, SparseError> {
        Err(SparseError::InvalidStructure("injected".into()))
    }

    #[test]
    fn eviction_order_is_deterministic_lru() {
        let cache = cache_of(2);
        let (ma, mb, mc) = (matrix(1), matrix(2), matrix(3));
        let (fa, fb, fc) = (
            MatrixFingerprint::of(&ma),
            MatrixFingerprint::of(&mb),
            MatrixFingerprint::of(&mc),
        );
        cache.get_or_prepare(fa, || prepare(&ma)).unwrap();
        cache.get_or_prepare(fb, || prepare(&mb)).unwrap();
        // touch A so B becomes the LRU victim
        assert!(cache.try_get(&fa).is_some());
        cache.get_or_prepare(fc, || prepare(&mc)).unwrap();

        assert_eq!(cache.len(), 2);
        assert!(cache.try_get(&fa).is_some(), "A was recently used");
        assert!(cache.try_get(&fc).is_some(), "C was just inserted");
        assert!(cache.try_get(&fb).is_none(), "B was the LRU victim");
        let stats = cache.stats();
        assert_eq!(stats.evictions, 1);
        assert_eq!(stats.inserts, 3);
        // every lookup above counted exactly once: 3 creating misses,
        // 3 try_get hits, 1 try_get miss (B after eviction)
        assert_eq!(stats.misses, 4);
        assert_eq!(stats.hits, 3);
    }

    #[test]
    fn thundering_herd_prepares_exactly_once() {
        let cache = Arc::new(cache_of(8));
        let m = Arc::new(matrix(7));
        let fp = MatrixFingerprint::of(&*m);
        let prepares = Arc::new(AtomicUsize::new(0));
        const HERD: usize = 8;

        std::thread::scope(|scope| {
            for _ in 0..HERD {
                let (cache, m, prepares) = (cache.clone(), m.clone(), prepares.clone());
                scope.spawn(move || {
                    let (engine, _) = cache
                        .get_or_prepare(fp, || {
                            prepares.fetch_add(1, Ordering::SeqCst);
                            prepare(&m)
                        })
                        .unwrap();
                    assert_eq!(engine.ncols(), m.ncols());
                });
            }
        });

        assert_eq!(prepares.load(Ordering::SeqCst), 1, "duplicated prepare");
        let stats = cache.stats();
        assert_eq!(stats.hits + stats.misses, HERD as u64, "lost a lookup");
        assert_eq!(stats.misses, 1, "only the slot creator is a miss");
        assert_eq!(stats.inserts, 1);
    }

    #[test]
    fn in_flight_prepare_survives_eviction_pressure() {
        // A `Preparing` slot must never be the LRU victim: evicting it
        // hides the prepare from a concurrent lookup of the same
        // fingerprint, which then re-runs the pipeline (and, with a
        // store tier, double-saves the plan). The cache overflows its
        // capacity instead and drains once the slot settles.
        let cache = Arc::new(cache_of(1));
        let ma = Arc::new(matrix(11));
        let mb = matrix(12);
        let fa = MatrixFingerprint::of(&*ma);
        let prepares = Arc::new(AtomicUsize::new(0));
        let (entered_tx, entered_rx) = std::sync::mpsc::channel();
        let (release_tx, release_rx) = std::sync::mpsc::channel::<()>();

        let slow = {
            let (cache, ma, prepares) = (cache.clone(), ma.clone(), prepares.clone());
            std::thread::spawn(move || {
                cache
                    .get_or_prepare(fa, || {
                        entered_tx.send(()).unwrap();
                        release_rx.recv().unwrap();
                        prepares.fetch_add(1, Ordering::SeqCst);
                        prepare(&ma)
                    })
                    .unwrap()
            })
        };
        entered_rx.recv().unwrap();

        // B lands in the full single-slot cache while A is in flight:
        // the insert must not evict A's preparing slot
        cache
            .get_or_prepare(MatrixFingerprint::of(&mb), || prepare(&mb))
            .unwrap();
        assert_eq!(cache.stats().evictions, 0, "in-flight A was evicted");
        assert_eq!(cache.len(), 2, "cache overflows instead of evicting");

        // a second lookup of A coalesces onto the surviving slot —
        // whether it arrives before or after the release, the prepare
        // closure below must never run
        let waiter = {
            let cache = cache.clone();
            std::thread::spawn(move || {
                cache
                    .get_or_prepare(fa, || panic!("coalesced lookup re-ran the prepare"))
                    .unwrap()
            })
        };
        release_tx.send(()).unwrap();
        let (_, fresh) = slow.join().unwrap();
        assert!(fresh, "the slot creator pays for the prepare");
        let (_, fresh) = waiter.join().unwrap();
        assert!(!fresh, "the coalesced lookup shares the result");
        assert_eq!(prepares.load(Ordering::SeqCst), 1);

        // once A settles, the next insert evicts the settled overflow
        // back under the capacity bound
        let mc = matrix(13);
        cache
            .get_or_prepare(MatrixFingerprint::of(&mc), || prepare(&mc))
            .unwrap();
        assert_eq!(cache.len(), 1, "overflow drains once slots settle");
        assert_eq!(cache.stats().evictions, 2);
    }

    #[test]
    fn value_updates_keep_fingerprint_entry_and_counters() {
        let cache = cache_of(4);
        let m = matrix(11);
        let fp = MatrixFingerprint::of(&m);
        cache.get_or_prepare(fp, || prepare(&m)).unwrap();
        let counters_before = (cache.stats().hits, cache.stats().misses);

        let new_values: Vec<f64> = (0..m.nnz()).map(|i| (i % 9) as f64 - 4.0).collect();
        let mut m2 = m.clone();
        m2.values_mut().copy_from_slice(&new_values);
        // same structure → same fingerprint → same entry
        assert_eq!(MatrixFingerprint::of(&m2), fp);
        assert!(cache.update_values(&fp, &new_values).unwrap());

        let engine = cache.try_get(&fp).expect("entry survives the refresh");
        let x = generators::random_dense::<f64>(m.ncols(), 4, 1);
        let expected = spmm_kernels::spmm::spmm_rowwise_seq(&m2, &x).unwrap();
        assert!(expected.max_abs_diff(&engine.spmm(&x).unwrap()) < 1e-10);

        let stats = cache.stats();
        assert_eq!(stats.refreshes, 1);
        assert_eq!(stats.evictions, 0, "refresh must not evict");
        assert_eq!(
            (counters_before.0 + 1, counters_before.1),
            (stats.hits, stats.misses),
            "only the try_get above may count"
        );
        // unknown fingerprint: a no-op, not an error
        let other = MatrixFingerprint::of(&matrix(99));
        assert!(!cache.update_values(&other, &new_values).unwrap());
    }

    #[test]
    fn failed_prepare_persists_backs_off_then_retries() {
        let (clock, driver) = ClockHandle::manual();
        let cache: PlanCache<f64> =
            PlanCache::new(PlanCacheConfig::builder().capacity(4).clock(clock).build());
        let m = matrix(13);
        let fp = MatrixFingerprint::of(&m);
        let err = cache.get_or_prepare(fp, injected).unwrap_err();
        assert!(matches!(err, ServeError::Prepare(_)));
        assert_eq!(cache.len(), 1, "failed entries persist for backoff state");
        // inside the window the retry is suppressed without running prepare
        let err = cache
            .get_or_prepare(fp, || unreachable!("suppressed attempt ran prepare"))
            .unwrap_err();
        let ServeError::RetryBackoff { failures, retry_in } = err else {
            panic!("expected RetryBackoff, got {err:?}");
        };
        assert_eq!(failures, 1);
        assert!(retry_in > Duration::ZERO);
        // past the window the retry runs and succeeds
        driver.advance(retry_in);
        let (engine, fresh) = cache.get_or_prepare(fp, || prepare(&m)).unwrap();
        assert!(fresh, "an admitted retry runs the prepare");
        assert_eq!(engine.ncols(), m.ncols());
        assert!(cache.try_get(&fp).is_some(), "recovered entry is cached");
    }

    #[test]
    fn backoff_windows_grow_exponentially_with_deterministic_jitter() {
        // the breaker opens at the third failure, so failures 1 and 2
        // are the only ones that back off
        let windows = || -> Vec<Duration> {
            let (clock, driver) = ClockHandle::manual();
            let cache: PlanCache<f64> =
                PlanCache::new(PlanCacheConfig::builder().capacity(4).clock(clock).build());
            let m = matrix(23);
            let fp = MatrixFingerprint::of(&m);
            (1..BREAKER_THRESHOLD)
                .map(|_| {
                    cache.get_or_prepare(fp, injected).unwrap_err();
                    let err = cache
                        .get_or_prepare(fp, || unreachable!("suppressed"))
                        .unwrap_err();
                    let ServeError::RetryBackoff { retry_in, .. } = err else {
                        panic!("expected RetryBackoff, got {err:?}");
                    };
                    driver.advance(retry_in);
                    retry_in
                })
                .collect()
        };
        let a = windows();
        assert_eq!(a, windows(), "same fingerprint ⇒ identical schedule");
        assert_eq!(a.len(), 2);
        for (i, w) in a.iter().enumerate() {
            // 10 ms, then 20 ms, each with jitter ≤ 25 %
            let raw = RETRY_BACKOFF_BASE * (1 << i);
            assert!(*w >= raw && *w <= raw + raw / 4, "window {i}: {w:?}");
        }
    }

    #[test]
    fn breaker_opens_at_threshold_and_recovers_via_half_open_probe() {
        let cooldown = BREAKER_COOLDOWN;
        let (clock, driver) = ClockHandle::manual();
        let cache: PlanCache<f64> =
            PlanCache::new(PlanCacheConfig::builder().capacity(4).clock(clock).build());
        let m = matrix(19);
        let fp = MatrixFingerprint::of(&m);
        for attempt in 1..=3u32 {
            let err = cache.get_or_prepare(fp, injected).unwrap_err();
            assert!(matches!(err, ServeError::Prepare(_)), "attempt {attempt}");
            match cache
                .get_or_prepare(fp, || unreachable!("suppressed"))
                .unwrap_err()
            {
                ServeError::RetryBackoff { failures, retry_in } => {
                    assert!(attempt < 3, "backoff only below the threshold");
                    assert_eq!(failures, attempt);
                    driver.advance(retry_in);
                }
                ServeError::BreakerOpen { failures, retry_in } => {
                    assert_eq!(attempt, 3, "breaker opens exactly at the threshold");
                    assert_eq!(failures, 3);
                    assert_eq!(retry_in, cooldown, "cooldown is jitter-free");
                }
                other => panic!("unexpected {other:?}"),
            }
        }
        assert_eq!(cache.open_breakers(), 1);
        // a half-open probe that fails re-opens for another cooldown
        driver.advance(cooldown);
        let err = cache.get_or_prepare(fp, injected).unwrap_err();
        assert!(matches!(err, ServeError::Prepare(_)), "probe is admitted");
        match cache
            .get_or_prepare(fp, || unreachable!("suppressed"))
            .unwrap_err()
        {
            ServeError::BreakerOpen { failures, retry_in } => {
                assert_eq!(failures, 4);
                assert_eq!(retry_in, cooldown);
            }
            other => panic!("failed probe must re-open, got {other:?}"),
        }
        // a half-open probe that succeeds closes the breaker
        driver.advance(cooldown);
        let (_, fresh) = cache.get_or_prepare(fp, || prepare(&m)).unwrap();
        assert!(fresh, "the successful probe ran the prepare");
        assert_eq!(cache.open_breakers(), 0);
        assert!(cache.try_get(&fp).is_some(), "closed breaker serves hits");
    }

    #[test]
    fn panicked_prepare_poisons_deterministically_until_removed() {
        let cache = Arc::new(cache_of(4));
        let m = matrix(17);
        let fp = MatrixFingerprint::of(&m);
        let preparer = {
            let cache = cache.clone();
            std::thread::spawn(move || {
                let _ = cache.get_or_prepare(fp, || panic!("injected prepare panic"));
            })
        };
        assert!(preparer.join().is_err(), "panic must propagate");
        // every later lookup sees the poison, deterministically
        for _ in 0..3 {
            assert_eq!(
                cache.get_or_prepare(fp, || prepare(&m)).unwrap_err(),
                ServeError::PoisonedPlan
            );
            assert!(cache.try_get(&fp).is_none());
        }
        // explicit removal recovers the fingerprint
        assert!(cache.remove(&fp));
        let (_, fresh) = cache.get_or_prepare(fp, || prepare(&m)).unwrap();
        assert!(fresh);
    }

    #[test]
    fn clear_poisoned_sweeps_only_poisoned_slots() {
        let cache = Arc::new(cache_of(4));
        let (ma, mb) = (matrix(31), matrix(32));
        let (fa, fb) = (MatrixFingerprint::of(&ma), MatrixFingerprint::of(&mb));
        cache.get_or_prepare(fa, || prepare(&ma)).unwrap();
        let poisoner = {
            let cache = cache.clone();
            std::thread::spawn(move || {
                let _ = cache.get_or_prepare(fb, || panic!("injected prepare panic"));
            })
        };
        assert!(poisoner.join().is_err());
        let stats = cache.stats();
        assert_eq!((stats.len, stats.poisoned), (2, 1));

        assert_eq!(cache.clear_poisoned(), 1);
        let stats = cache.stats();
        assert_eq!((stats.len, stats.poisoned), (1, 0));
        assert!(cache.try_get(&fa).is_some(), "healthy entries survive");
        let (_, fresh) = cache.get_or_prepare(fb, || prepare(&mb)).unwrap();
        assert!(fresh, "swept fingerprint is preparable again");
        assert_eq!(cache.clear_poisoned(), 0, "sweep is idempotent");
    }

    /// A column absent from `row` of `m` (for building valid deltas).
    fn absent_col(m: &CsrMatrix<f64>, row: usize) -> usize {
        (0..m.ncols() as u32)
            .rev()
            .find(|c| m.row_cols(row).binary_search(c).is_err())
            .unwrap() as usize
    }

    #[test]
    fn structural_delta_installs_new_epoch_and_keeps_old_serveable() {
        let _quiet = spmm_faults::quiesce();
        let cache = cache_of(8);
        let m = matrix(61);
        let fp = MatrixFingerprint::of(&m);
        cache.get_or_prepare(fp, || prepare(&m)).unwrap();

        let added = [(0usize, absent_col(&m, 0), 3.0f64)];
        let r = (0..m.nrows()).find(|&r| m.row_nnz(r) > 0).unwrap();
        let removed = [(r, m.row_cols(r)[0] as usize)];
        let new_fp = cache.apply_delta(&fp, &added, &removed).unwrap().unwrap();
        let patched = m.apply_structural_delta(&added, &removed).unwrap();
        assert_ne!(new_fp, fp, "a structural delta must move the key");
        assert_eq!(MatrixFingerprint::of(&patched), new_fp);

        // both epochs are serveable, each answering for its structure
        let old_engine = cache.try_get(&fp).expect("old epoch still cached");
        let new_engine = cache.try_get(&new_fp).expect("new epoch installed");
        let x = generators::random_dense::<f64>(m.ncols(), 4, 5);
        let e_old = spmm_kernels::spmm::spmm_rowwise_seq(&m, &x).unwrap();
        let e_new = spmm_kernels::spmm::spmm_rowwise_seq(&patched, &x).unwrap();
        assert!(e_old.max_abs_diff(&old_engine.spmm(&x).unwrap()) < 1e-10);
        assert!(e_new.max_abs_diff(&new_engine.spmm(&x).unwrap()) < 1e-10);

        // generations record the epoch lineage
        assert_eq!(cache.generation(&fp), Some(0));
        assert_eq!(cache.generation(&new_fp), Some(1));
        let third = [(1usize, absent_col(&patched, 1), -2.0f64)];
        let fp3 = cache.apply_delta(&new_fp, &third, &[]).unwrap().unwrap();
        assert_eq!(cache.generation(&fp3), Some(2));

        // unknown fingerprint: a no-op, not an error
        let other = MatrixFingerprint::of(&matrix(999));
        assert!(cache.apply_delta(&other, &added, &[]).unwrap().is_none());
    }

    #[test]
    fn failed_and_faulted_deltas_degrade_to_the_old_plan() {
        let tel = Arc::new(spmm_telemetry::Collector::new());
        let cache: PlanCache<f64> = PlanCache::new(
            PlanCacheConfig::builder()
                .capacity(8)
                .telemetry(TelemetryHandle::new(tel.clone()))
                .build(),
        );
        let m = matrix(67);
        let fp = MatrixFingerprint::of(&m);
        cache.get_or_prepare(fp, || prepare(&m)).unwrap();
        let len_before = cache.len();
        let good_add = [(0usize, absent_col(&m, 0), 1.0f64)];

        // malformed delta: rejected up front with the structured error
        let err = cache.apply_delta(&fp, &[(9999, 0, 1.0)], &[]).unwrap_err();
        assert!(
            matches!(
                err,
                ServeError::Prepare(SparseError::DeltaOutOfBounds { .. })
            ),
            "{err:?}"
        );

        // a delta killed at either in-process stage — start of the
        // incremental re-prepare, or post-build pre-commit — by either
        // an error or a panic, degrades to the old plan
        for spec in [
            "kernel.delta:error@1",
            "kernel.delta:panic@1",
            "serve.cache.delta:error@1",
            "serve.cache.delta:panic@1",
        ] {
            let guard = spmm_faults::FaultPlan::parse(spec, 7).unwrap().arm();
            let err = cache.apply_delta(&fp, &good_add, &[]).unwrap_err();
            assert!(matches!(err, ServeError::Prepare(_)), "{spec}: {err:?}");
            assert_eq!(guard.hits(spec.split(':').next().unwrap()), 1, "{spec}");
        }

        assert_eq!(cache.len(), len_before, "aborted deltas must not install");
        assert_eq!(cache.generation(&fp), Some(0));
        let engine = cache.try_get(&fp).expect("old plan still serves");
        let x = generators::random_dense::<f64>(m.ncols(), 4, 9);
        let expected = spmm_kernels::spmm::spmm_rowwise_seq(&m, &x).unwrap();
        assert!(expected.max_abs_diff(&engine.spmm(&x).unwrap()) < 1e-10);
        assert_eq!(tel.counter_value("serve.delta.attempt"), 5);
        assert_eq!(tel.counter_value("serve.delta.abort"), 5);
        assert_eq!(tel.counter_value("serve.delta.commit"), 0);
    }

    #[test]
    fn value_refresh_during_inflight_delta_cannot_resurrect_pre_delta_plan() {
        // Regression: update_values used to read the slot's engine
        // without claiming it, so a refresh landing while a structural
        // delta held the slot would be overwritten by the delta's
        // restore — the refresh reported Ok(true) yet the pre-delta
        // values came back. The claim (Ready → Updating) makes the
        // refresh wait for the delta to settle.
        let (clock, _driver) = ClockHandle::manual();
        let cache: PlanCache<f64> =
            PlanCache::new(PlanCacheConfig::builder().capacity(4).clock(clock).build());
        let m = matrix(71);
        let fp = MatrixFingerprint::of(&m);
        cache.get_or_prepare(fp, || prepare(&m)).unwrap();

        // simulate the in-flight delta exactly as apply_delta does:
        // claim the slot, settle later
        let slot = {
            let entries = lock_clean(&cache.entries);
            Arc::clone(&entries.by_fp.get(&fp).unwrap().slot)
        };
        let claimed = slot.claim_for_update().unwrap();

        let new_values: Vec<f64> = (0..m.nnz()).map(|i| (i % 7) as f64 - 3.0).collect();
        let (done_tx, done_rx) = std::sync::mpsc::channel();
        std::thread::scope(|scope| {
            scope.spawn(|| {
                let refreshed = cache.update_values(&fp, &new_values);
                done_tx.send(refreshed).unwrap();
            });
            // the refresh must block while the delta holds the claim
            assert!(
                done_rx.recv_timeout(Duration::from_millis(100)).is_err(),
                "refresh ran during an in-flight delta"
            );
            // readers are still served the pre-delta snapshot meanwhile
            assert!(cache.try_get(&fp).is_some(), "no eviction window");
            // the delta settles (its restore path)
            slot.fulfill(SlotState::Ready(claimed));
            let refreshed = done_rx
                .recv_timeout(Duration::from_secs(10))
                .expect("refresh must resume once the delta settles");
            assert!(refreshed.unwrap(), "refresh applies after the delta");
        });

        // the refresh survives: the settled slot carries the new
        // values, not the pre-delta ones the old code resurrected
        let engine = cache.try_get(&fp).unwrap();
        let mut m2 = m.clone();
        m2.values_mut().copy_from_slice(&new_values);
        let x = generators::random_dense::<f64>(m.ncols(), 4, 13);
        let expected = spmm_kernels::spmm::spmm_rowwise_seq(&m2, &x).unwrap();
        assert!(expected.max_abs_diff(&engine.spmm(&x).unwrap()) < 1e-10);
    }

    #[test]
    fn delta_write_through_lands_before_commit_and_retains_old_file() {
        let _quiet = spmm_faults::quiesce();
        let dir = temp_store_dir("delta");
        let m = matrix(73);
        let fp = MatrixFingerprint::of(&m);
        let tel = Arc::new(spmm_telemetry::Collector::new());
        let cache = with_store(&dir, TelemetryHandle::new(tel.clone()));
        cache.get_or_prepare(fp, || prepare(&m)).unwrap();

        let added = [(0usize, absent_col(&m, 0), 2.0f64)];
        let new_fp = cache.apply_delta(&fp, &added, &[]).unwrap().unwrap();
        let store = PlanStore::open(&dir).unwrap();
        assert!(store.verify::<f64>(&fp).unwrap(), "old epoch file retained");
        assert!(store.verify::<f64>(&new_fp).unwrap(), "new epoch persisted");

        // a restart warm-loads the delta'd epoch from disk
        let cache_b = with_store(&dir, TelemetryHandle::default());
        let (engine, fresh) = cache_b
            .get_or_prepare(new_fp, || unreachable!("store hit must skip prepare"))
            .unwrap();
        assert!(!fresh);
        let patched = m.apply_structural_delta(&added, &[]).unwrap();
        let x = generators::random_dense::<f64>(m.ncols(), 4, 17);
        let expected = spmm_kernels::spmm::spmm_rowwise_seq(&patched, &x).unwrap();
        assert!(expected.max_abs_diff(&engine.spmm(&x).unwrap()) < 1e-10);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn faulted_delta_save_aborts_without_touching_either_tier() {
        let dir = temp_store_dir("delta-fault");
        let m = matrix(79);
        let fp = MatrixFingerprint::of(&m);
        let tel = Arc::new(spmm_telemetry::Collector::new());
        let cache = with_store(&dir, TelemetryHandle::new(tel.clone()));
        {
            let _quiet = spmm_faults::quiesce();
            cache.get_or_prepare(fp, || prepare(&m)).unwrap();
        }

        let added = [(0usize, absent_col(&m, 0), 2.0f64)];
        let guard = spmm_faults::FaultPlan::parse("serve.store.delta:error@1", 7)
            .unwrap()
            .arm();
        let err = cache.apply_delta(&fp, &added, &[]).unwrap_err();
        assert!(matches!(err, ServeError::Prepare(_)), "{err:?}");
        assert_eq!(guard.hits("serve.store.delta"), 1);
        drop(guard);

        // no new epoch anywhere: cache still has exactly the old entry,
        // store still has exactly the old file
        assert_eq!(cache.len(), 1);
        assert!(cache.try_get(&fp).is_some(), "old plan still serves");
        let store = PlanStore::open(&dir).unwrap();
        let plans = store.list().unwrap();
        assert_eq!(plans.len(), 1);
        assert_eq!(plans[0].fingerprint, fp);
        assert_eq!(tel.counter_value("serve.delta.abort"), 1);
        assert_eq!(tel.counter_value("serve.store.save_error"), 1);
        std::fs::remove_dir_all(&dir).ok();
    }

    fn temp_store_dir(tag: &str) -> std::path::PathBuf {
        use std::sync::atomic::AtomicU64;
        static SEQ: AtomicU64 = AtomicU64::new(0);
        std::env::temp_dir().join(format!(
            "spmm-cache-store-{tag}-{}-{}",
            std::process::id(),
            SEQ.fetch_add(1, Ordering::Relaxed)
        ))
    }

    fn with_store(dir: &std::path::Path, telemetry: TelemetryHandle) -> PlanCache<f64> {
        PlanCache::new(
            PlanCacheConfig::builder()
                .capacity(4)
                .telemetry(telemetry)
                .store(Arc::new(PlanStore::open(dir).unwrap()))
                .build(),
        )
    }

    #[test]
    fn store_tier_write_through_then_read_through() {
        let dir = temp_store_dir("rt");
        let m = matrix(41);
        let fp = MatrixFingerprint::of(&m);

        // first process: a cold miss prepares live and persists
        let writer_tel = Arc::new(spmm_telemetry::Collector::new());
        let cache_a = with_store(&dir, TelemetryHandle::new(writer_tel.clone()));
        let (live, fresh) = cache_a.get_or_prepare(fp, || prepare(&m)).unwrap();
        assert!(fresh, "cold miss with an empty store runs prepare");
        assert_eq!(writer_tel.counter_value("serve.store.miss"), 1);
        assert_eq!(writer_tel.counter_value("serve.store.save"), 1);

        // second process: the store satisfies the miss without a prepare
        let reader_tel = Arc::new(spmm_telemetry::Collector::new());
        let cache_b = with_store(&dir, TelemetryHandle::new(reader_tel.clone()));
        let (stored, fresh) = cache_b
            .get_or_prepare(fp, || unreachable!("store hit must skip prepare"))
            .unwrap();
        assert!(!fresh, "a store hit is not a fresh prepare");
        assert_eq!(reader_tel.counter_value("serve.store.hit"), 1);
        assert_eq!(reader_tel.counter_value("serve.store.save"), 0);

        let x = generators::random_dense::<f64>(m.ncols(), 5, 9);
        assert_eq!(
            live.spmm(&x).unwrap().data(),
            stored.spmm(&x).unwrap().data(),
            "stored plan must be bit-identical to the live one"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn corrupt_store_file_degrades_to_live_prepare() {
        let dir = temp_store_dir("corrupt");
        let m = matrix(43);
        let fp = MatrixFingerprint::of(&m);
        let seed_cache = with_store(&dir, TelemetryHandle::default());
        seed_cache.get_or_prepare(fp, || prepare(&m)).unwrap();

        // flip a byte in the middle of the stored file
        let store = PlanStore::open(&dir).unwrap();
        let path = store.path_for::<f64>(&fp);
        let mut bytes = std::fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x40;
        std::fs::write(&path, &bytes).unwrap();

        let tel = Arc::new(spmm_telemetry::Collector::new());
        let cache = with_store(&dir, TelemetryHandle::new(tel.clone()));
        let (engine, fresh) = cache.get_or_prepare(fp, || prepare(&m)).unwrap();
        assert!(fresh, "a rejected file degrades to the live prepare");
        assert_eq!(tel.counter_value("serve.store.reject"), 1);
        assert_eq!(
            tel.counter_value("serve.store.save"),
            1,
            "the live prepare re-persists a good file over the bad one"
        );

        let x = generators::random_dense::<f64>(m.ncols(), 3, 2);
        let expected = spmm_kernels::spmm::spmm_rowwise_seq(&m, &x).unwrap();
        assert!(expected.max_abs_diff(&engine.spmm(&x).unwrap()) < 1e-10);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn insert_ready_seeds_without_counting_lookups() {
        let cache = cache_of(4);
        let m = matrix(47);
        let fp = MatrixFingerprint::of(&m);
        let engine = Arc::new(prepare(&m).unwrap());
        assert!(cache.insert_ready(fp, Arc::clone(&engine)));
        assert!(!cache.insert_ready(fp, engine), "existing entry untouched");
        let stats = cache.stats();
        assert_eq!(
            (stats.hits, stats.misses),
            (0, 0),
            "seeding is not a lookup"
        );
        assert_eq!(stats.inserts, 1, "duplicate seed does not double-count");
        // the seeded plan serves hits without a prepare
        let (served, fresh) = cache
            .get_or_prepare(fp, || unreachable!("seeded entry must hit"))
            .unwrap();
        assert!(!fresh);
        assert_eq!(served.ncols(), m.ncols());
    }

    #[test]
    fn capacity_bounds_every_insert_even_under_concurrent_inserts() {
        let m = matrix(7);
        let engine = Arc::new(prepare(&m).unwrap());
        let fp_of = |i: u64| MatrixFingerprint::from_raw(96, 96, 480, i);

        // one thread: both insert paths share the bound, and the
        // survivors are the C most recently inserted plans
        for capacity in [1usize, 3, 12, 16] {
            let cache = cache_of(capacity);
            let fps: Vec<MatrixFingerprint> = (0..2 * capacity as u64 + 3).map(fp_of).collect();
            for (i, fp) in fps.iter().enumerate() {
                if i % 2 == 0 {
                    let engine = (*engine).clone();
                    cache.get_or_prepare(*fp, || Ok(engine)).unwrap();
                } else {
                    assert!(cache.insert_ready(*fp, Arc::clone(&engine)));
                }
                assert!(cache.len() <= capacity, "capacity {capacity}");
            }
            let stats = cache.stats();
            assert_eq!(stats.len(), capacity, "exactly C resident");
            assert_eq!(stats.capacity(), capacity);
            assert_eq!(stats.evictions() as usize, fps.len() - capacity);
            let (old, recent) = fps.split_at(fps.len() - capacity);
            assert!(recent.iter().all(|fp| cache.generation(fp).is_some()));
            assert!(old.iter().all(|fp| cache.generation(fp).is_none()));
        }

        // K threads insert distinct settled plans while a reader polls
        // len(): an insert and its eviction are one critical section,
        // so no reader ever sees the cache past its capacity
        const K: u64 = 4;
        const PER_THREAD: u64 = 64;
        const C: usize = 8;
        let cache = cache_of(C);
        let done = std::sync::atomic::AtomicBool::new(false);
        let (max_seen, writers_ok) = std::thread::scope(|scope| {
            let reader = scope.spawn(|| {
                let mut max_seen = 0;
                while !done.load(Ordering::Acquire) {
                    max_seen = max_seen.max(cache.len());
                }
                max_seen
            });
            let writers: Vec<_> = (0..K)
                .map(|t| {
                    let (cache, engine) = (&cache, &engine);
                    scope.spawn(move || {
                        for i in 0..PER_THREAD {
                            let fp = fp_of(t * PER_THREAD + i);
                            assert!(cache.insert_ready(fp, Arc::clone(engine)));
                            assert!(cache.len() <= C);
                        }
                    })
                })
                .collect();
            // a failed writer must stop the reader too, not hang it
            let writers_ok = writers.into_iter().all(|w| w.join().is_ok());
            done.store(true, Ordering::Release);
            (reader.join().unwrap(), writers_ok)
        });
        assert!(writers_ok, "a writer saw the cache past its capacity");
        assert!(max_seen <= C, "a reader saw {max_seen} > {C} entries");
        let stats = cache.stats();
        assert_eq!(stats.inserts(), K * PER_THREAD);
        assert_eq!(stats.len(), C);
        assert_eq!(stats.evictions(), stats.inserts() - C as u64);
    }

    #[test]
    fn counters_are_exact_under_concurrency() {
        let cache = Arc::new(PlanCache::new(
            PlanCacheConfig::builder().capacity(16).build(),
        ));
        let matrices: Vec<Arc<CsrMatrix<f64>>> =
            (0..6).map(|i| Arc::new(matrix(100 + i))).collect();
        const THREADS: usize = 8;
        const LOOKUPS: usize = 20;

        std::thread::scope(|scope| {
            for t in 0..THREADS {
                let cache = cache.clone();
                let matrices = matrices.clone();
                scope.spawn(move || {
                    for i in 0..LOOKUPS {
                        let m = &matrices[(t + i) % matrices.len()];
                        let fp = MatrixFingerprint::of(&**m);
                        cache.get_or_prepare(fp, || prepare(m)).unwrap();
                    }
                });
            }
        });

        let stats = cache.stats();
        assert_eq!(
            stats.hits + stats.misses,
            (THREADS * LOOKUPS) as u64,
            "every lookup counts exactly once"
        );
        assert_eq!(stats.misses, stats.inserts, "miss ⇔ slot created");
        assert!(stats.len <= stats.capacity);
    }
}
