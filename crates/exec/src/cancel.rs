//! Cooperative cancellation for executor-driven work.
//!
//! One rule: **the token rides on the executor**. A job attaches its
//! [`CancelToken`] with [`Executor::with_cancel`](crate::Executor::with_cancel)
//! and hands that executor to every stage; no stage takes a token of
//! its own. The executor observes the token
//!
//! - at the start of every wave, on both backends, and
//! - between the quantum-bounded tasks of a pool wave,
//!
//! and once it has fired the wave unwinds with [`Cancelled`] instead of
//! returning. No wave ever returns a partial result vector — merged
//! partials of an interrupted wave could not be bit-identical to a
//! sequential run — so a cancelled computation leaves no partial state
//! behind. Cancellation latency is one task quantum on the pool backend
//! and one wave on the sequential backend. The unwind is caught once, at
//! a job boundary, by [`catch_cancel`] (or a `catch_unwind` that
//! downcasts the payload); it is raised with
//! [`resume_unwind`](std::panic::resume_unwind), so it never runs the
//! panic hook and prints nothing.
//!
//! Beyond an explicit [`CancelToken::cancel`], a token can carry a
//! **deadline** ([`CancelToken::set_deadline`]): once the deadline
//! passes, [`CancelToken::is_cancelled`] observes the token as
//! cancelled, so a per-job timeout rides the exact same wave/quantum
//! observation points as user cancellation and lands within one quantum
//! of work. The supervisor that set the deadline can distinguish the
//! causes afterwards via [`CancelToken::reason`].
//!
//! The token lives in `minoan-exec`, the bottom of the crate stack, so
//! the serving layer (`minoan-serve`) can attach it to the executor that
//! ingest (`minoan-kb`) and the pipeline (`minoan-core`) run on without
//! dependency cycles.

use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The error a cancelled computation unwinds with. Carries no payload:
/// cancellation is a request honored cooperatively, not a failure. The
/// *cause* (user cancel, deadline, budget kill) stays on the token —
/// see [`CancelToken::reason`] — so the unwind path needs no plumbing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Cancelled;

impl fmt::Display for Cancelled {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("cancelled")
    }
}

impl std::error::Error for Cancelled {}

/// Why a token was cancelled. The first cause wins: once a reason is
/// recorded, later `cancel_with` calls do not overwrite it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CancelReason {
    /// Explicit [`CancelToken::cancel`] — an operator or client request.
    User,
    /// The deadline set via [`CancelToken::set_deadline`] passed.
    DeadlineExceeded,
    /// A supervisor killed the work for exceeding its memory budget.
    OverBudget,
}

const REASON_NONE: u8 = 0;
const REASON_USER: u8 = 1;
const REASON_DEADLINE: u8 = 2;
const REASON_OVER_BUDGET: u8 = 3;

/// Millisecond deadline sentinel meaning "no deadline armed".
const NO_DEADLINE: u64 = u64::MAX;

#[derive(Debug)]
struct TokenState {
    flag: AtomicBool,
    reason: AtomicU8,
    /// Milliseconds after `created` at which the token self-cancels;
    /// [`NO_DEADLINE`] when no deadline is armed.
    deadline_ms: AtomicU64,
    created: Instant,
}

/// Cooperative cancellation flag, cheap to clone and share across
/// threads. Setting it never interrupts running code; an executor
/// carrying it observes it at its next wave start or pool task and
/// unwinds cleanly.
#[derive(Debug, Clone)]
pub struct CancelToken {
    state: Arc<TokenState>,
}

impl Default for CancelToken {
    fn default() -> Self {
        CancelToken {
            state: Arc::new(TokenState {
                flag: AtomicBool::new(false),
                reason: AtomicU8::new(REASON_NONE),
                deadline_ms: AtomicU64::new(NO_DEADLINE),
                created: Instant::now(),
            }),
        }
    }
}

impl CancelToken {
    /// A fresh, uncancelled token with no deadline.
    pub fn new() -> Self {
        Self::default()
    }

    /// Requests cancellation. Idempotent; never blocks.
    pub fn cancel(&self) {
        self.cancel_with(CancelReason::User);
    }

    /// Requests cancellation recording `reason` as the cause. The first
    /// recorded reason wins; the flag itself is idempotent.
    pub fn cancel_with(&self, reason: CancelReason) {
        let code = match reason {
            CancelReason::User => REASON_USER,
            CancelReason::DeadlineExceeded => REASON_DEADLINE,
            CancelReason::OverBudget => REASON_OVER_BUDGET,
        };
        let _ = self.state.reason.compare_exchange(
            REASON_NONE,
            code,
            Ordering::SeqCst,
            Ordering::SeqCst,
        );
        self.state.flag.store(true, Ordering::SeqCst);
    }

    /// Arms (or re-arms) a deadline `timeout` from **now**. Once it
    /// passes, the token reads as cancelled with reason
    /// [`CancelReason::DeadlineExceeded`]. Timeouts therefore land
    /// within one wave/quantum of work, exactly like an explicit cancel.
    pub fn set_deadline(&self, timeout: Duration) {
        let from_created = self
            .state
            .created
            .elapsed()
            .saturating_add(timeout)
            .as_millis()
            .min(NO_DEADLINE as u128 - 1) as u64;
        self.state.deadline_ms.store(from_created, Ordering::SeqCst);
    }

    /// Whether cancellation was requested (explicitly or because an
    /// armed deadline passed).
    pub fn is_cancelled(&self) -> bool {
        if self.state.flag.load(Ordering::SeqCst) {
            return true;
        }
        let deadline = self.state.deadline_ms.load(Ordering::SeqCst);
        if deadline != NO_DEADLINE && self.state.created.elapsed().as_millis() as u64 >= deadline {
            self.cancel_with(CancelReason::DeadlineExceeded);
            return true;
        }
        false
    }

    /// The recorded cause of cancellation, `None` while uncancelled.
    /// Reads the flag through [`CancelToken::is_cancelled`] first so an
    /// expired deadline is visible even if no wave observed it yet.
    pub fn reason(&self) -> Option<CancelReason> {
        if !self.is_cancelled() {
            return None;
        }
        match self.state.reason.load(Ordering::SeqCst) {
            REASON_USER => Some(CancelReason::User),
            REASON_DEADLINE => Some(CancelReason::DeadlineExceeded),
            REASON_OVER_BUDGET => Some(CancelReason::OverBudget),
            _ => Some(CancelReason::User),
        }
    }
}

/// Unwinds the calling thread with a [`Cancelled`] payload. Raised with
/// `resume_unwind` rather than `panic_any`, so the panic hook never
/// runs: a cancelled job prints nothing.
pub(crate) fn unwind_cancelled() -> ! {
    std::panic::resume_unwind(Box::new(Cancelled))
}

/// Runs `f`, converting an unwind carrying [`Cancelled`] into
/// `Err(Cancelled)`: the job boundary around work run on an executor
/// that carries a token (see the module docs). `f`'s own result passes
/// through; any other panic payload is resumed untouched.
pub fn catch_cancel<R>(f: impl FnOnce() -> Result<R, Cancelled>) -> Result<R, Cancelled> {
    match std::panic::catch_unwind(std::panic::AssertUnwindSafe(f)) {
        Ok(result) => result,
        Err(payload) => {
            if payload.downcast_ref::<Cancelled>().is_some() {
                Err(Cancelled)
            } else {
                std::panic::resume_unwind(payload)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_token_passes_checkpoints() {
        let t = CancelToken::new();
        assert!(!t.is_cancelled());
        assert_eq!(t.reason(), None);
    }

    #[test]
    fn cancelled_token_fails_checkpoints_forever() {
        let t = CancelToken::new();
        t.cancel();
        t.cancel(); // idempotent
        assert!(t.is_cancelled());
        assert_eq!(t.reason(), Some(CancelReason::User));
    }

    #[test]
    fn clones_share_the_flag() {
        let t = CancelToken::new();
        let seen_by_worker = t.clone();
        t.cancel();
        assert!(seen_by_worker.is_cancelled());
    }

    #[test]
    fn cancel_is_visible_across_threads() {
        let t = CancelToken::new();
        let u = t.clone();
        std::thread::spawn(move || u.cancel()).join().unwrap();
        assert!(t.is_cancelled());
    }

    #[test]
    fn cancelled_formats_as_an_error() {
        assert_eq!(Cancelled.to_string(), "cancelled");
    }

    #[test]
    fn first_cancel_reason_wins() {
        let t = CancelToken::new();
        t.cancel_with(CancelReason::OverBudget);
        t.cancel();
        assert_eq!(t.reason(), Some(CancelReason::OverBudget));
    }

    #[test]
    fn expired_deadline_cancels_with_deadline_reason() {
        let t = CancelToken::new();
        t.set_deadline(Duration::ZERO);
        assert!(t.is_cancelled());
        assert_eq!(t.reason(), Some(CancelReason::DeadlineExceeded));
    }

    #[test]
    fn future_deadline_leaves_the_token_live() {
        let t = CancelToken::new();
        t.set_deadline(Duration::from_secs(3600));
        assert!(!t.is_cancelled());
        assert_eq!(t.reason(), None);
    }

    #[test]
    fn explicit_cancel_beats_a_pending_deadline() {
        let t = CancelToken::new();
        t.set_deadline(Duration::from_secs(3600));
        t.cancel();
        assert_eq!(t.reason(), Some(CancelReason::User));
    }

    #[test]
    fn deadline_is_visible_through_clones() {
        let t = CancelToken::new();
        let observer = t.clone();
        t.set_deadline(Duration::ZERO);
        assert!(observer.is_cancelled());
        assert_eq!(observer.reason(), Some(CancelReason::DeadlineExceeded));
    }

    #[test]
    fn catch_cancel_passes_values_and_plain_errors_through() {
        assert_eq!(catch_cancel(|| Ok(41)), Ok(41));
        assert_eq!(catch_cancel::<u8>(|| Err(Cancelled)), Err(Cancelled));
    }

    #[test]
    fn catch_cancel_downcasts_cancelled_unwinds() {
        let result = catch_cancel::<u8>(|| unwind_cancelled());
        assert_eq!(result, Err(Cancelled));
    }

    #[test]
    fn catch_cancel_resumes_foreign_panics() {
        let unwound = std::panic::catch_unwind(|| catch_cancel::<u8>(|| panic!("boom")));
        let payload = unwound.expect_err("foreign panic must resume");
        assert_eq!(payload.downcast_ref::<&str>(), Some(&"boom"));
    }
}
