//! Deterministic fault injection for the SpMM serving stack.
//!
//! Production code compiles named [`FaultPoint`]s into the places that
//! can fail in the field — the prepare pipeline, the kernels, the plan
//! cache, the serve workers. Each point is a single
//! `FAULT_X.fire()?` (or [`FaultPoint::fire_or_panic`] on infallible
//! paths). With no plan armed a fire is **one relaxed atomic load** —
//! no allocation, no locking, no time reads — so the instrumented
//! binary behaves bit-identically to an uninstrumented one.
//!
//! Tests and the `chaos-bench` driver arm a seeded [`FaultPlan`]: a
//! list of [`FaultRule`]s saying *which point* misbehaves on *which
//! hit* (`Nth`, `Every`, a range, or always) and *how* (return an
//! error, panic, or inject latency through the plan's injectable
//! [`Clock`]). Hit counting is per point and global to the process, so
//! a scripted schedule replays exactly from a fixed seed.
//!
//! Arming is process-global and guarded: [`FaultPlan::arm`] takes a
//! global lock for the lifetime of the returned [`FaultGuard`], so
//! concurrent tests that arm plans serialize instead of corrupting
//! each other's schedules. Tests that must observe *unarmed* behavior
//! take the same lock via [`quiesce`].
//!
//! ```
//! use spmm_faults::{FaultAction, FaultPlan, FaultPoint, HitSpec};
//!
//! static POINT: FaultPoint = FaultPoint::new("doc.example");
//!
//! // disarmed: a fire is a no-op
//! assert!(POINT.fire().is_ok());
//!
//! let guard = FaultPlan::new(42)
//!     .rule("doc.example", HitSpec::Nth(2), FaultAction::Error)
//!     .arm();
//! assert!(POINT.fire().is_ok()); // hit 1
//! assert!(POINT.fire().is_err()); // hit 2: injected
//! assert!(POINT.fire().is_ok()); // hit 3
//! assert_eq!(guard.hits("doc.example"), 3);
//! ```

#![warn(missing_docs)]
#![cfg_attr(not(test), warn(clippy::unwrap_used, clippy::expect_used))]

mod clock;

pub use clock::{Clock, ClockHandle, ManualClock, SystemClock};

use std::collections::HashMap;
use std::fmt;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::time::Duration;

/// A named site in production code where a fault can be injected.
///
/// Declare one per failure-prone operation as a `static` and call
/// [`FaultPoint::fire`] where the failure would surface. The name is
/// the contract the fault plan targets; keep names stable and
/// dot-scoped by subsystem (`serve.cache.prepare`, `kernel.execute`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultPoint {
    name: &'static str,
}

impl FaultPoint {
    /// A fault point with the given stable name.
    pub const fn new(name: &'static str) -> Self {
        FaultPoint { name }
    }

    /// The point's stable name.
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// Consults the armed plan (if any). Returns `Err` when an `Error`
    /// rule matches this hit, panics when a `Panic` rule matches, and
    /// sleeps on the plan's clock when a `Delay` rule matches. With no
    /// plan armed this is a single relaxed atomic load.
    #[inline]
    pub fn fire(&self) -> Result<(), FaultError> {
        if !ARMED.load(Ordering::Relaxed) {
            return Ok(());
        }
        fire_slow(self.name)
    }

    /// [`FaultPoint::fire`] for infallible call sites: an `Error` rule
    /// escalates to a panic (there is no error channel to return it
    /// on), which the serving layer's `catch_unwind` boundaries treat
    /// like any other mid-pipeline panic.
    #[inline]
    pub fn fire_or_panic(&self) {
        if !ARMED.load(Ordering::Relaxed) {
            return;
        }
        if let Err(e) = fire_slow(self.name) {
            panic!("{e} (escalated: infallible call site)");
        }
    }
}

impl fmt::Display for FaultPoint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name)
    }
}

/// The error an `Error` rule injects.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultError {
    /// The fault point that fired.
    pub point: &'static str,
    /// Which hit of the point this was (1-based).
    pub hit: u64,
}

impl fmt::Display for FaultError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "injected fault at {} (hit {})", self.point, self.hit)
    }
}

impl std::error::Error for FaultError {}

/// Which hits of a point a rule applies to. Hits are counted per point
/// from 1 while a plan is armed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HitSpec {
    /// Exactly the `n`-th hit.
    Nth(u64),
    /// Every `n`-th hit (`n`, `2n`, `3n`, …).
    Every(u64),
    /// Hits `from..=to`, inclusive on both ends.
    Range(u64, u64),
    /// Every hit.
    Always,
}

impl HitSpec {
    fn matches(&self, hit: u64) -> bool {
        match *self {
            HitSpec::Nth(n) => hit == n,
            HitSpec::Every(n) => n > 0 && hit.is_multiple_of(n),
            HitSpec::Range(from, to) => (from..=to).contains(&hit),
            HitSpec::Always => true,
        }
    }
}

/// What happens when a rule matches.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultAction {
    /// The point returns a [`FaultError`].
    Error,
    /// The point panics (exercises `catch_unwind` boundaries).
    Panic,
    /// The point sleeps on the plan's clock for this base duration
    /// plus a deterministic seed-derived jitter of up to 25 %.
    Delay(Duration),
}

/// One scripted fault: point name, which hits, what happens.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultRule {
    /// The targeted [`FaultPoint`] name.
    pub point: String,
    /// Which hits of the point this rule fires on.
    pub spec: HitSpec,
    /// What the point does when the rule fires.
    pub action: FaultAction,
}

/// A seeded, scripted fault schedule. Build one with the rule helpers,
/// then [`FaultPlan::arm`] it for the duration of a test or chaos run.
#[derive(Debug, Clone)]
pub struct FaultPlan {
    rules: Vec<FaultRule>,
    seed: u64,
    clock: ClockHandle,
}

impl FaultPlan {
    /// An empty plan. The seed drives the deterministic delay jitter;
    /// two runs of the same plan against the same workload replay the
    /// same schedule.
    pub fn new(seed: u64) -> Self {
        FaultPlan {
            rules: Vec::new(),
            seed,
            clock: ClockHandle::default(),
        }
    }

    /// Replaces the clock `Delay` actions sleep on (a [`ManualClock`]
    /// makes injected latency instantaneous but observable).
    pub fn with_clock(mut self, clock: ClockHandle) -> Self {
        self.clock = clock;
        self
    }

    /// Adds a rule.
    pub fn rule(mut self, point: &str, spec: HitSpec, action: FaultAction) -> Self {
        self.rules.push(FaultRule {
            point: point.to_string(),
            spec,
            action,
        });
        self
    }

    /// The plan's rules.
    pub fn rules(&self) -> &[FaultRule] {
        &self.rules
    }

    /// The plan's seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Parses the `chaos-bench --faults` grammar: a comma-separated
    /// list of `point:action@hits` rules, where `action` is `error`,
    /// `panic` or `delay:<millis>ms`, and `hits` is `N` (the N-th hit),
    /// `every:N`, `N..M` (inclusive) or `*` (always).
    ///
    /// ```
    /// use spmm_faults::FaultPlan;
    /// let plan = FaultPlan::parse(
    ///     "serve.cache.prepare:error@1..3,serve.worker:delay:5ms@every:2",
    ///     42,
    /// ).unwrap();
    /// assert_eq!(plan.rules().len(), 2);
    /// ```
    ///
    /// # Errors
    /// A human-readable message naming the offending rule fragment.
    pub fn parse(spec: &str, seed: u64) -> Result<Self, String> {
        let mut plan = FaultPlan::new(seed);
        for part in spec.split(',').map(str::trim).filter(|p| !p.is_empty()) {
            let (head, hits) = part
                .rsplit_once('@')
                .ok_or_else(|| format!("fault rule '{part}' is missing '@hits'"))?;
            let (point, action) = head
                .split_once(':')
                .ok_or_else(|| format!("fault rule '{part}' is missing ':action'"))?;
            if point.is_empty() {
                return Err(format!("fault rule '{part}' has an empty point name"));
            }
            let action = match action {
                "error" => FaultAction::Error,
                "panic" => FaultAction::Panic,
                other => match other.strip_prefix("delay:").and_then(|d| {
                    d.strip_suffix("ms")
                        .unwrap_or(d)
                        .parse::<u64>()
                        .ok()
                        .map(Duration::from_millis)
                }) {
                    Some(d) => FaultAction::Delay(d),
                    None => {
                        return Err(format!(
                            "unknown fault action '{other}' in '{part}' \
                             (error, panic, or delay:<millis>ms)"
                        ))
                    }
                },
            };
            let parse_hit = |tok: &str| {
                tok.parse::<u64>()
                    .map_err(|_| format!("bad hit number '{tok}' in '{part}'"))
            };
            let spec = if hits == "*" {
                HitSpec::Always
            } else if let Some(n) = hits.strip_prefix("every:") {
                let n = parse_hit(n)?;
                if n == 0 {
                    return Err(format!("'every:0' never fires in '{part}'"));
                }
                HitSpec::Every(n)
            } else if let Some((from, to)) = hits.split_once("..") {
                let (from, to) = (parse_hit(from)?, parse_hit(to)?);
                if from == 0 || to < from {
                    return Err(format!("bad hit range '{hits}' in '{part}'"));
                }
                HitSpec::Range(from, to)
            } else {
                let n = parse_hit(hits)?;
                if n == 0 {
                    return Err(format!("hits are 1-based; '@0' never fires in '{part}'"));
                }
                HitSpec::Nth(n)
            };
            plan.rules.push(FaultRule {
                point: point.to_string(),
                spec,
                action,
            });
        }
        Ok(plan)
    }

    /// Arms the plan process-wide. Hit counters start at zero; the
    /// plan disarms when the guard drops. Blocks until any other armed
    /// plan (or [`quiesce`] guard) releases the global arming lock, so
    /// concurrently running tests serialize instead of observing each
    /// other's faults.
    pub fn arm(self) -> FaultGuard {
        let permit = ARM_LOCK.lock().unwrap_or_else(PoisonError::into_inner);
        let active = Arc::new(ActivePlan {
            plan: self,
            hits: Mutex::new(HashMap::new()),
        });
        *ACTIVE.lock().unwrap_or_else(PoisonError::into_inner) = Some(active.clone());
        ARMED.store(true, Ordering::SeqCst);
        FaultGuard {
            active: Some(active),
            _permit: permit,
        }
    }
}

/// Holds the global arming lock with **no** plan armed. Tests that
/// assert unarmed (zero-overhead) behavior take this so a concurrently
/// running test cannot arm a plan mid-assertion.
pub fn quiesce() -> FaultGuard {
    let permit = ARM_LOCK.lock().unwrap_or_else(PoisonError::into_inner);
    FaultGuard {
        active: None,
        _permit: permit,
    }
}

/// Keeps a [`FaultPlan`] armed (or, from [`quiesce`], keeps every plan
/// disarmed) until dropped.
#[must_use = "the plan disarms when the guard drops"]
pub struct FaultGuard {
    active: Option<Arc<ActivePlan>>,
    _permit: MutexGuard<'static, ()>,
}

impl FaultGuard {
    /// How many times `point` has fired since arming (0 for a
    /// [`quiesce`] guard).
    pub fn hits(&self, point: &str) -> u64 {
        self.active
            .as_ref()
            .and_then(|a| {
                a.hits
                    .lock()
                    .unwrap_or_else(PoisonError::into_inner)
                    .get(point)
                    .copied()
            })
            .unwrap_or(0)
    }

    /// Disarms the plan but keeps the arming permit: points stop firing
    /// at once, and no other plan can arm until the guard drops. Use it
    /// to run clean follow-up work (checks, epilogues) without letting a
    /// concurrently waiting test arm its plan underneath. Hit counts
    /// stay readable, frozen at their values when disarmed.
    pub fn disarm(&mut self) {
        if self.active.is_some() {
            ARMED.store(false, Ordering::SeqCst);
            *ACTIVE.lock().unwrap_or_else(PoisonError::into_inner) = None;
        }
    }
}

impl fmt::Debug for FaultGuard {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("FaultGuard")
            .field("armed", &self.active.is_some())
            .finish()
    }
}

impl Drop for FaultGuard {
    fn drop(&mut self) {
        self.disarm();
    }
}

struct ActivePlan {
    plan: FaultPlan,
    hits: Mutex<HashMap<&'static str, u64>>,
}

static ARMED: AtomicBool = AtomicBool::new(false);
static ACTIVE: Mutex<Option<Arc<ActivePlan>>> = Mutex::new(None);
static ARM_LOCK: Mutex<()> = Mutex::new(());

/// SplitMix64: the standard 64-bit finalizer, good enough to spread a
/// (seed, point, hit) triple — or any other small-entropy key — into
/// an unbiased jitter draw. Shared with the serving layer's backoff
/// jitter so every injected randomness in the stack is seed-derived.
pub fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

fn fnv1a(s: &str) -> u64 {
    let mut h = 0xCBF2_9CE4_8422_2325u64;
    for b in s.bytes() {
        h = (h ^ u64::from(b)).wrapping_mul(0x100_0000_01B3);
    }
    h
}

fn fire_slow(point: &'static str) -> Result<(), FaultError> {
    let active = ACTIVE
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
        .clone();
    let Some(active) = active else { return Ok(()) };
    let hit = {
        let mut hits = active.hits.lock().unwrap_or_else(PoisonError::into_inner);
        let h = hits.entry(point).or_insert(0);
        *h += 1;
        *h
    };
    let action = active
        .plan
        .rules
        .iter()
        .find(|r| r.point == point && r.spec.matches(hit))
        .map(|r| r.action);
    match action {
        None => Ok(()),
        Some(FaultAction::Error) => Err(FaultError { point, hit }),
        Some(FaultAction::Panic) => {
            panic!("injected fault panic at {point} (hit {hit})")
        }
        Some(FaultAction::Delay(base)) => {
            // deterministic jitter: up to 25 % of the base, fixed by
            // (seed, point, hit)
            let quarter = (base.as_nanos() / 4).min(u128::from(u64::MAX)) as u64;
            let jitter = if quarter == 0 {
                0
            } else {
                splitmix64(active.plan.seed ^ fnv1a(point) ^ hit) % (quarter + 1)
            };
            active.plan.clock.sleep(base + Duration::from_nanos(jitter));
            Ok(())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    static POINT_A: FaultPoint = FaultPoint::new("test.a");
    static POINT_B: FaultPoint = FaultPoint::new("test.b");

    #[test]
    fn disarmed_fire_is_a_noop() {
        let _quiet = quiesce();
        for _ in 0..1000 {
            assert!(POINT_A.fire().is_ok());
            POINT_A.fire_or_panic();
        }
    }

    #[test]
    fn nth_every_range_and_always_match_the_right_hits() {
        assert!(HitSpec::Nth(3).matches(3) && !HitSpec::Nth(3).matches(4));
        assert!(HitSpec::Every(2).matches(4) && !HitSpec::Every(2).matches(5));
        assert!(!HitSpec::Every(0).matches(0), "every:0 must never fire");
        assert!(HitSpec::Range(2, 4).matches(2) && HitSpec::Range(2, 4).matches(4));
        assert!(!HitSpec::Range(2, 4).matches(5));
        assert!(HitSpec::Always.matches(1) && HitSpec::Always.matches(u64::MAX));
    }

    #[test]
    fn armed_plan_injects_on_scripted_hits_only() {
        let guard = FaultPlan::new(7)
            .rule("test.a", HitSpec::Range(2, 3), FaultAction::Error)
            .arm();
        assert!(POINT_A.fire().is_ok());
        let err = POINT_A.fire().unwrap_err();
        assert_eq!(
            err,
            FaultError {
                point: "test.a",
                hit: 2
            }
        );
        assert!(err.to_string().contains("test.a"), "{err}");
        assert!(POINT_A.fire().is_err());
        assert!(POINT_A.fire().is_ok());
        // untargeted points count hits but never fire
        assert!(POINT_B.fire().is_ok());
        assert_eq!(guard.hits("test.a"), 4);
        assert_eq!(guard.hits("test.b"), 1);
        drop(guard);
        assert!(POINT_A.fire().is_ok(), "disarmed after the guard drops");
    }

    #[test]
    fn disarm_stops_firing_but_keeps_the_arming_permit() {
        let mut guard = FaultPlan::new(3)
            .rule("test.a", HitSpec::Always, FaultAction::Error)
            .arm();
        assert!(POINT_A.fire().is_err());
        guard.disarm();
        for _ in 0..10 {
            assert!(POINT_A.fire().is_ok(), "a disarmed point fired");
        }
        assert_eq!(guard.hits("test.a"), 1, "hits freeze at disarm");

        // another thread's arm() must wait for the permit, not slip in
        // between the disarm and the drop
        let (tx, rx) = std::sync::mpsc::channel();
        let waiter = std::thread::spawn(move || {
            let _other = FaultPlan::new(4).arm();
            tx.send(()).unwrap();
        });
        assert!(
            rx.recv_timeout(Duration::from_millis(100)).is_err(),
            "arm() got the permit while a disarmed guard still held it"
        );
        drop(guard);
        rx.recv_timeout(Duration::from_secs(10))
            .expect("arm() never got the permit after the guard dropped");
        waiter.join().unwrap();
    }

    #[test]
    fn hit_counters_reset_per_arming() {
        {
            let g = FaultPlan::new(1).arm();
            POINT_A.fire().ok();
            assert_eq!(g.hits("test.a"), 1);
        }
        let g = FaultPlan::new(1)
            .rule("test.a", HitSpec::Nth(1), FaultAction::Error)
            .arm();
        assert!(POINT_A.fire().is_err(), "a fresh arming counts from 1");
        assert_eq!(g.hits("test.a"), 1);
    }

    #[test]
    fn panic_action_panics_and_or_panic_escalates_errors() {
        let _guard = FaultPlan::new(1)
            .rule("test.a", HitSpec::Nth(1), FaultAction::Panic)
            .rule("test.b", HitSpec::Nth(1), FaultAction::Error)
            .arm();
        let panicked = std::panic::catch_unwind(|| POINT_A.fire().ok());
        assert!(panicked.is_err(), "Panic action must panic");
        let escalated = std::panic::catch_unwind(|| POINT_B.fire_or_panic());
        assert!(escalated.is_err(), "fire_or_panic must escalate Error");
    }

    #[test]
    fn delay_advances_the_plan_clock_deterministically() {
        let (clock, driver) = ClockHandle::manual();
        let base = Duration::from_millis(100);
        let run = |seed: u64| {
            let before = clock.now();
            let _guard = FaultPlan::new(seed)
                .with_clock(clock.clone())
                .rule("test.a", HitSpec::Nth(1), FaultAction::Delay(base))
                .arm();
            POINT_A.fire().ok();
            clock.now() - before
        };
        let d1 = run(42);
        let d2 = run(42);
        let d3 = run(43);
        assert_eq!(d1, d2, "same seed ⇒ same injected latency");
        assert!(
            d1 >= base && d1 <= base + base / 4,
            "jitter within 25 %: {d1:?}"
        );
        assert_ne!(d1, d3, "different seed ⇒ different jitter");
        driver.advance(Duration::ZERO); // keep the driver alive & used
    }

    #[test]
    fn spec_grammar_round_trips() {
        let plan = FaultPlan::parse(
            "a.b:error@3, c.d:panic@every:2 ,e.f:delay:10ms@1..4,g.h:error@*",
            9,
        )
        .unwrap();
        assert_eq!(plan.rules().len(), 4);
        assert_eq!(
            plan.rules()[0],
            FaultRule {
                point: "a.b".into(),
                spec: HitSpec::Nth(3),
                action: FaultAction::Error
            }
        );
        assert_eq!(plan.rules()[1].spec, HitSpec::Every(2));
        assert_eq!(
            plan.rules()[2].action,
            FaultAction::Delay(Duration::from_millis(10))
        );
        assert_eq!(plan.rules()[3].spec, HitSpec::Always);

        for bad in [
            "a.b:error",      // missing hits
            "a.b@3",          // missing action
            ":error@1",       // empty point
            "a.b:boom@1",     // unknown action
            "a.b:error@0",    // 0-based hit
            "a.b:error@4..2", // inverted range
            "a.b:error@every:0",
            "a.b:delay:xxms@1",
        ] {
            assert!(FaultPlan::parse(bad, 0).is_err(), "should reject {bad:?}");
        }
        // empty spec is an empty (but armable) plan
        assert!(FaultPlan::parse("", 0).unwrap().rules().is_empty());
    }
}
