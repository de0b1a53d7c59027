//! Warn-once graceful degradation.
//!
//! Resource accounting ([`profile`](crate::profile)) leans on facilities
//! that may simply be absent: `/proc/thread-self`, `/proc/self/task` and
//! `getconf(1)`.  The policy in every case is the same: the capability
//! degrades to a recorded no-op and the *first* failure is reported to
//! stderr, once per process — a fleet of stage threads failing
//! identically must not flood the log.
//!
//! [`WarnOnce`] is that policy as a value.  Each degradable capability
//! owns one `static` instance; the message closure only runs (and only
//! allocates) on the single losing `swap`.

use std::sync::atomic::{AtomicBool, Ordering};

/// One-shot stderr warning gate for a degradable capability.
pub struct WarnOnce(AtomicBool);

impl WarnOnce {
    /// A gate that has not fired yet.
    pub const fn new() -> Self {
        WarnOnce(AtomicBool::new(false))
    }

    /// Print `message()` to stderr the first time this gate fires;
    /// subsequent calls do nothing.  Returns `true` on the firing call.
    pub fn warn(&self, message: impl FnOnce() -> String) -> bool {
        if self.0.swap(true, Ordering::Relaxed) {
            return false;
        }
        eprintln!("{}", message());
        true
    }

    /// True once [`WarnOnce::warn`] has fired.
    pub fn warned(&self) -> bool {
        self.0.load(Ordering::Relaxed)
    }
}

impl Default for WarnOnce {
    fn default() -> Self {
        WarnOnce::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fires_exactly_once() {
        let gate = WarnOnce::new();
        assert!(!gate.warned());
        assert!(gate.warn(|| "first".into()));
        assert!(gate.warned());
        // The message closure of a suppressed warning must not run.
        assert!(!gate.warn(|| panic!("suppressed closure ran")));
    }
}
