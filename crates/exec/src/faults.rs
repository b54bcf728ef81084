//! Deterministic fault injection behind named sites.
//!
//! Production code marks interesting failure points with
//! [`point`]`("site.name")`. Disarmed (the default) a site is a single
//! relaxed atomic load — no allocation, no locking, no syscalls. Armed,
//! each site consults a seeded plan that decides **deterministically**
//! (a hash of `seed × site × hit-counter`, never wall-clock randomness)
//! whether to inject a fault and of which kind:
//!
//! - `io` — the site returns an injected [`std::io::Error`], which the
//!   caller surfaces through its normal IO error path (classified as a
//!   *transient* failure by the job supervisor);
//! - `panic` — the site panics, exercising the scheduler's
//!   catch-unwind / poison quarantine path;
//! - `delay` — the site sleeps [`DELAY`], simulating a stall so
//!   deadline expiry can be tested without flaky timing tricks;
//! - `alloc` — the site allocates and touches [`ALLOC_SPIKE_BYTES`]
//!   and holds it for [`ALLOC_HOLD`], simulating a memory spike the
//!   RSS watchdog should catch.
//!
//! The plan is armed from the `MINOAN_FAULTS` environment variable on
//! first use, or programmatically via [`arm`] (tests). The spec grammar
//! is a comma-separated list:
//!
//! ```text
//! MINOAN_FAULTS=seed:42,kb.parse.read:1:io:1,serve.job.execute:0.5:panic
//!               ─┬─────  ─┬──────────────── ─┬────────────────────────
//!                seed     site:prob[:kind[:max]]
//! ```
//!
//! `prob` ∈ `[0,1]` is the per-hit firing probability, `kind` is one of
//! `io|panic|delay|alloc` (default `io`), and `max` caps the total
//! number of firings at that site (default unlimited) — `site:1:io:1`
//! reads "fail the first hit, then behave", the shape retry tests want.
//! Arming is process-global; concurrent tests that arm faults must
//! serialize on their own lock and [`disarm`] when done.

use std::io;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Once, RwLock};
use std::time::Duration;

/// Sleep injected by a `delay` fault.
pub const DELAY: Duration = Duration::from_millis(100);

/// Bytes allocated (and touched) by an `alloc` fault.
pub const ALLOC_SPIKE_BYTES: usize = 64 << 20;

/// How long an `alloc` fault holds its spike before dropping it, so a
/// sampling watchdog reliably observes the elevated RSS.
pub const ALLOC_HOLD: Duration = Duration::from_millis(300);

/// What an armed site injects when its rule fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// Return an injected [`io::Error`] from the site.
    Io,
    /// Panic at the site.
    Panic,
    /// Sleep [`DELAY`] at the site.
    Delay,
    /// Allocate, touch and briefly hold [`ALLOC_SPIKE_BYTES`].
    AllocSpike,
}

#[derive(Debug)]
struct Rule {
    site: String,
    prob: f64,
    kind: FaultKind,
    /// Total firings allowed; `u64::MAX` = unlimited.
    max_fires: u64,
    hits: AtomicU64,
    fires: AtomicU64,
}

#[derive(Debug)]
struct Plan {
    seed: u64,
    rules: Vec<Rule>,
}

static ARMED: AtomicBool = AtomicBool::new(false);
static PLAN: RwLock<Option<Plan>> = RwLock::new(None);
static ENV_INIT: Once = Once::new();

/// Parses and installs a fault plan (see the module docs for the
/// grammar), replacing any previous plan. Returns a description of the
/// first malformed clause on error, leaving the previous plan armed.
pub fn arm(spec: &str) -> Result<(), String> {
    // Consume the one-shot env initialization first: a programmatic
    // plan must not be clobbered later when the first `point()` lazily
    // reads `MINOAN_FAULTS`.
    ENV_INIT.call_once(|| {});
    install(spec)
}

fn install(spec: &str) -> Result<(), String> {
    let plan = parse_spec(spec)?;
    let armed = !plan.rules.is_empty();
    *PLAN.write().expect("fault plan lock") = Some(plan);
    ARMED.store(armed, Ordering::SeqCst);
    Ok(())
}

/// Removes any armed plan; every site goes back to zero-cost pass-through.
pub fn disarm() {
    ENV_INIT.call_once(|| {});
    ARMED.store(false, Ordering::SeqCst);
    *PLAN.write().expect("fault plan lock") = None;
}

/// The seed of the armed plan, if any — lets a test suite driven by
/// `MINOAN_FAULTS=seed:N` vary its own programmatic plans by N.
pub fn armed_seed() -> Option<u64> {
    init_from_env();
    PLAN.read()
        .expect("fault plan lock")
        .as_ref()
        .map(|p| p.seed)
}

fn init_from_env() {
    ENV_INIT.call_once(|| {
        if let Ok(spec) = std::env::var("MINOAN_FAULTS") {
            if let Err(e) = install(&spec) {
                minoan_obs::warn!("exec.faults", "ignoring malformed MINOAN_FAULTS: {e}");
            }
        }
    });
}

/// A named fault-injection site. Returns `Ok(())` in normal operation;
/// an armed `io` rule makes it return the injected error, and the other
/// kinds act in place (panic, sleep, allocation spike) before returning
/// `Ok(())`. Call as `faults::point("kb.parse.read")?` wherever an IO
/// failure is plausible.
pub fn point(site: &str) -> io::Result<()> {
    init_from_env();
    if !ARMED.load(Ordering::Relaxed) {
        return Ok(());
    }
    let kind = {
        let guard = PLAN.read().expect("fault plan lock");
        let Some(plan) = guard.as_ref() else {
            return Ok(());
        };
        let Some(rule) = plan.rules.iter().find(|r| r.site == site) else {
            return Ok(());
        };
        let hit = rule.hits.fetch_add(1, Ordering::SeqCst);
        if !decide(plan.seed, site, hit, rule.prob) {
            return Ok(());
        }
        if rule.fires.fetch_add(1, Ordering::SeqCst) >= rule.max_fires {
            return Ok(());
        }
        rule.kind
    };
    match kind {
        FaultKind::Io => Err(io::Error::other(format!("injected fault at {site}"))),
        FaultKind::Panic => panic!("injected panic at {site}"),
        FaultKind::Delay => {
            std::thread::sleep(DELAY);
            Ok(())
        }
        FaultKind::AllocSpike => {
            // Touch every page so the spike is resident, not just mapped.
            let spike = vec![1u8; ALLOC_SPIKE_BYTES];
            std::thread::sleep(ALLOC_HOLD);
            drop(spike);
            Ok(())
        }
    }
}

/// The deterministic firing decision for the `hit`-th arrival at
/// `site` under `seed`: a hash mapped to [0,1) compared against `prob`.
/// Exposed so tests can assert determinism directly.
pub fn decide(seed: u64, site: &str, hit: u64, prob: f64) -> bool {
    if prob >= 1.0 {
        return true;
    }
    if prob <= 0.0 {
        return false;
    }
    let mut h = splitmix64(seed ^ fnv1a(site.as_bytes()));
    h = splitmix64(h ^ hit);
    let unit = (h >> 11) as f64 / (1u64 << 53) as f64;
    unit < prob
}

fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e3779b97f4a7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d049bb133111eb);
    x ^ (x >> 31)
}

fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash = 0xcbf29ce484222325u64;
    for &b in bytes {
        hash ^= b as u64;
        hash = hash.wrapping_mul(0x100000001b3);
    }
    hash
}

fn parse_spec(spec: &str) -> Result<Plan, String> {
    let mut seed = 0u64;
    let mut rules = Vec::new();
    for clause in spec.split(',').map(str::trim).filter(|c| !c.is_empty()) {
        let parts: Vec<&str> = clause.split(':').collect();
        if parts.len() == 2 && parts[0] == "seed" {
            seed = parts[1]
                .parse()
                .map_err(|_| format!("bad seed in {clause:?}"))?;
            continue;
        }
        if !(2..=4).contains(&parts.len()) {
            return Err(format!(
                "bad clause {clause:?}: want site:prob[:kind[:max]]"
            ));
        }
        let prob: f64 = parts[1]
            .parse()
            .map_err(|_| format!("bad probability in {clause:?}"))?;
        if !(0.0..=1.0).contains(&prob) {
            return Err(format!("probability out of [0,1] in {clause:?}"));
        }
        let kind = match parts.get(2).copied().unwrap_or("io") {
            "io" => FaultKind::Io,
            "panic" => FaultKind::Panic,
            "delay" => FaultKind::Delay,
            "alloc" => FaultKind::AllocSpike,
            other => return Err(format!("unknown fault kind {other:?} in {clause:?}")),
        };
        let max_fires = match parts.get(3) {
            Some(n) => n
                .parse()
                .map_err(|_| format!("bad max-fires in {clause:?}"))?,
            None => u64::MAX,
        };
        rules.push(Rule {
            site: parts[0].to_string(),
            prob,
            kind,
            max_fires,
            hits: AtomicU64::new(0),
            fires: AtomicU64::new(0),
        });
    }
    Ok(Plan { seed, rules })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;

    // Arming is process-global; these tests serialize on one lock.
    static ARM_LOCK: Mutex<()> = Mutex::new(());

    fn locked() -> std::sync::MutexGuard<'static, ()> {
        ARM_LOCK.lock().unwrap_or_else(|e| e.into_inner())
    }

    #[test]
    fn disarmed_points_pass_through() {
        let _guard = locked();
        disarm();
        assert!(point("any.site").is_ok());
    }

    #[test]
    fn io_fault_fires_and_respects_max() {
        let _guard = locked();
        arm("seed:1,t.io:1:io:2").unwrap();
        assert!(point("t.io").is_err());
        assert!(point("t.io").is_err());
        assert!(point("t.io").is_ok(), "max-fires exhausted");
        assert!(point("t.other").is_ok(), "unlisted site untouched");
        disarm();
    }

    #[test]
    fn panic_fault_panics() {
        let _guard = locked();
        arm("seed:1,t.panic:1:panic").unwrap();
        let unwound = std::panic::catch_unwind(|| point("t.panic"));
        disarm();
        assert!(unwound.is_err());
    }

    #[test]
    fn decisions_are_deterministic_in_the_seed() {
        let a: Vec<bool> = (0..64).map(|hit| decide(7, "s", hit, 0.5)).collect();
        let b: Vec<bool> = (0..64).map(|hit| decide(7, "s", hit, 0.5)).collect();
        assert_eq!(a, b);
        let c: Vec<bool> = (0..64).map(|hit| decide(8, "s", hit, 0.5)).collect();
        assert_ne!(a, c, "a different seed draws a different sequence");
        let fired = a.iter().filter(|&&f| f).count();
        assert!(
            (8..56).contains(&fired),
            "prob 0.5 fires about half: {fired}"
        );
    }

    #[test]
    fn prob_bounds_short_circuit() {
        assert!(decide(1, "s", 0, 1.0));
        assert!(!decide(1, "s", 0, 0.0));
    }

    #[test]
    fn malformed_specs_are_rejected() {
        let _guard = locked();
        assert!(arm("seed:x").is_err());
        assert!(arm("site").is_err());
        assert!(arm("site:2.0").is_err());
        assert!(arm("site:0.5:nuke").is_err());
        assert!(arm("site:0.5:io:many").is_err());
        disarm();
    }

    #[test]
    fn seed_only_spec_stays_disarmed_but_reports_seed() {
        let _guard = locked();
        arm("seed:42").unwrap();
        assert!(point("t.any").is_ok());
        assert_eq!(armed_seed(), Some(42));
        disarm();
    }
}
