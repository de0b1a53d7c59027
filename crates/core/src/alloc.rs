//! Opt-in tracking allocator: per-stage allocation attribution.
//!
//! PR 8 made the sort kernels' steady-state rounds allocation-free by
//! construction ([`SortScratch`]-style reuse), but that property was only
//! a bench claim — nothing at runtime could *see* an allocation, let alone
//! attribute one to a stage.  [`FgAlloc`] closes that gap: a
//! `#[global_allocator]` wrapper around [`std::alloc::System`] that counts
//! allocs/frees/bytes against the calling thread's current *stage tag*
//! before delegating.  Binaries opt in:
//!
//! ```ignore
//! #[global_allocator]
//! static FG_ALLOC: fg_core::alloc::FgAlloc = fg_core::alloc::FgAlloc;
//! ```
//!
//! Library code (and every test binary that does not install the wrapper)
//! pays nothing and sees [`installed`]`() == false`; all counters read
//! zero and the assertion helper [`assert_steady_state_alloc_free`]
//! degrades to an inert pass-through, so the same code runs unchanged with
//! or without tracking.
//!
//! The hot path is deliberately dumb: a thread-local tag id (a plain
//! `Cell<usize>`, const-initialized so reading it can never itself
//! allocate) indexes a fixed static table of relaxed atomic counters.  No
//! locks, no allocation, no syscalls — a handful of relaxed RMWs per
//! alloc/free, measured end-to-end by the `resource-profile` experiment.
//! The runtime tags each stage thread with its stage's base name at spawn,
//! and hot loops can refine attribution with [`with_tag`] (e.g. the sort
//! kernels split warmup-round allocations from steady-state rounds, which
//! is what turns "zero-alloc steady state" into a CI-checkable
//! `count == 0` on the stage's row of a report's `resources.alloc`).
//!
//! This is the one module in `fg-core` that needs `unsafe`: implementing
//! [`GlobalAlloc`] requires an `unsafe impl`.  The unsafe surface is
//! confined to delegating verbatim to `System`; all bookkeeping is safe
//! code on plain atomics.
#![allow(unsafe_code)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering::Relaxed};
use std::sync::Mutex;

/// Maximum number of distinct stage tags (including the implicit
/// `untagged` slot 0).  Registrations beyond the table fall back to
/// `untagged` rather than failing.
pub const MAX_TAGS: usize = 64;

/// One tag's counters.  `bytes`/`freed_bytes` are cumulative, so a
/// snapshot never goes backwards and cross-thread frees (a buffer
/// allocated under one tag, dropped under another) cannot underflow.
struct Slot {
    allocs: AtomicU64,
    frees: AtomicU64,
    bytes: AtomicU64,
    freed_bytes: AtomicU64,
}

#[allow(clippy::declare_interior_mutable_const)]
const ZERO_SLOT: Slot = Slot {
    allocs: AtomicU64::new(0),
    frees: AtomicU64::new(0),
    bytes: AtomicU64::new(0),
    freed_bytes: AtomicU64::new(0),
};

static SLOTS: [Slot; MAX_TAGS] = [ZERO_SLOT; MAX_TAGS];
/// Names of tags 1.., in registration order (slot 0 is `untagged`).
static NAMES: Mutex<Vec<String>> = Mutex::new(Vec::new());
/// Process-wide live bytes and high-water mark, across all tags.
static CURRENT_BYTES: AtomicU64 = AtomicU64::new(0);
static PEAK_BYTES: AtomicU64 = AtomicU64::new(0);
/// Flipped by the first call into [`FgAlloc`]: the only reliable signal
/// that the wrapper really is the process's global allocator.
static INSTALLED: AtomicBool = AtomicBool::new(false);

thread_local! {
    /// The calling thread's current tag slot.  `const`-initialized: the
    /// first access from inside `FgAlloc::alloc` must not itself allocate
    /// (a lazy initializer would recurse).
    static TAG: Cell<usize> = const { Cell::new(0) };
}

/// An interned stage tag; obtain one with [`register_tag`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TagId(usize);

impl TagId {
    /// The implicit slot for allocations made outside any tag scope.
    pub const UNTAGGED: TagId = TagId(0);
}

/// Intern `name` as a stage tag.  Registering the same name twice returns
/// the same id; once the table is full ([`MAX_TAGS`]) further names fall
/// back to [`TagId::UNTAGGED`] (attribution coarsens, nothing fails).
pub fn register_tag(name: &str) -> TagId {
    let mut names = NAMES.lock().unwrap_or_else(|e| e.into_inner());
    if let Some(i) = names.iter().position(|n| n == name) {
        return TagId(i + 1);
    }
    if names.len() + 1 >= MAX_TAGS {
        return TagId::UNTAGGED;
    }
    names.push(name.to_string());
    TagId(names.len())
}

/// Set the calling thread's tag, returning the previous one.  Prefer the
/// RAII [`thread_tag_scope`] / closure [`with_tag`] forms.
pub fn set_thread_tag(tag: TagId) -> TagId {
    TagId(TAG.try_with(|t| t.replace(tag.0)).unwrap_or(0))
}

/// RAII guard restoring the thread's previous tag on drop.
pub struct TagScope {
    prev: TagId,
}

/// Tag the calling thread until the returned guard drops.  The runtime
/// installs one per stage thread at spawn, so everything a stage allocates
/// lands on its own `alloc` row of a [`ResourceReport`](crate::ResourceReport).
pub fn thread_tag_scope(tag: TagId) -> TagScope {
    TagScope {
        prev: set_thread_tag(tag),
    }
}

impl Drop for TagScope {
    fn drop(&mut self) {
        set_thread_tag(self.prev);
    }
}

/// Run `f` with the calling thread tagged `tag` (restores the previous
/// tag afterwards).  Two `Cell` stores of overhead — cheap enough for a
/// per-round hot-loop wrapper.
pub fn with_tag<R>(tag: TagId, f: impl FnOnce() -> R) -> R {
    let _scope = thread_tag_scope(tag);
    f()
}

/// True once [`FgAlloc`] has served at least one allocation, i.e. a
/// binary really installed it as `#[global_allocator]`.  Everything that
/// *reads* the counters should treat `false` as "no data" rather than
/// "zero allocations".
pub fn installed() -> bool {
    INSTALLED.load(Relaxed)
}

/// Cumulative counters of one tag at a point in time.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TagCounts {
    /// Allocations charged to the tag (allocs + realloc new-sides).
    pub allocs: u64,
    /// Frees charged to the tag (deallocs + realloc old-sides).
    pub frees: u64,
    /// Bytes allocated, cumulative.
    pub bytes: u64,
    /// Bytes freed, cumulative.
    pub freed_bytes: u64,
}

/// Read one tag's counters.
pub fn counts(tag: TagId) -> TagCounts {
    let s = &SLOTS[tag.0.min(MAX_TAGS - 1)];
    TagCounts {
        allocs: s.allocs.load(Relaxed),
        frees: s.frees.load(Relaxed),
        bytes: s.bytes.load(Relaxed),
        freed_bytes: s.freed_bytes.load(Relaxed),
    }
}

/// Process-wide `(current_bytes, peak_bytes)` across all tags.  Zeros
/// unless [`installed`].
pub fn process_bytes() -> (u64, u64) {
    (CURRENT_BYTES.load(Relaxed), PEAK_BYTES.load(Relaxed))
}

/// Every tag with activity: `(name, counts)`, registration order, the
/// untagged slot (named `untagged`) first when it has any.
pub fn snapshot() -> Vec<(String, TagCounts)> {
    let names = NAMES.lock().unwrap_or_else(|e| e.into_inner()).clone();
    let mut out = Vec::new();
    let untagged = counts(TagId::UNTAGGED);
    if untagged != TagCounts::default() {
        out.push(("untagged".to_string(), untagged));
    }
    for (i, name) in names.iter().enumerate() {
        let c = counts(TagId(i + 1));
        if c != TagCounts::default() {
            out.push((name.clone(), c));
        }
    }
    out
}

/// Assert that `f` performs **zero allocations** on the calling thread —
/// the CI-enforced form of PR 8's "steady-state rounds allocate nothing".
/// Runs `f` under a private tag; when [`FgAlloc`] is not installed the
/// check degrades to an inert pass-through (`f` just runs), so library
/// test binaries that don't opt into the allocator still pass.
///
/// `label` names the failing site in the panic message.
pub fn assert_steady_state_alloc_free<R>(label: &str, f: impl FnOnce() -> R) -> R {
    // A private per-label tag keeps concurrent allocations by *other*
    // threads (which keep whatever tag they had) out of the measurement.
    let tag = register_tag(&format!("assert/{label}"));
    let before = counts(tag);
    let out = with_tag(tag, f);
    // A full tag table degrades `tag` to UNTAGGED, which other threads
    // share — skip the check rather than flake on their allocations.
    if installed() && tag != TagId::UNTAGGED {
        let after = counts(tag);
        let allocs = after.allocs - before.allocs;
        let bytes = after.bytes - before.bytes;
        assert!(
            allocs == 0,
            "steady-state section `{label}` allocated {allocs} times ({bytes} bytes); \
             expected zero allocations"
        );
    }
    out
}

fn record_alloc(size: usize) {
    if !INSTALLED.load(Relaxed) {
        INSTALLED.store(true, Relaxed);
    }
    let tag = TAG.try_with(Cell::get).unwrap_or(0);
    let slot = &SLOTS[tag.min(MAX_TAGS - 1)];
    slot.allocs.fetch_add(1, Relaxed);
    slot.bytes.fetch_add(size as u64, Relaxed);
    let now = CURRENT_BYTES.fetch_add(size as u64, Relaxed) + size as u64;
    PEAK_BYTES.fetch_max(now, Relaxed);
}

fn record_free(size: usize) {
    let tag = TAG.try_with(Cell::get).unwrap_or(0);
    let slot = &SLOTS[tag.min(MAX_TAGS - 1)];
    slot.frees.fetch_add(1, Relaxed);
    slot.freed_bytes.fetch_add(size as u64, Relaxed);
    // Saturating: frees of memory allocated before the first recorded
    // alloc (or accounted to a process that exec'd us) must not wrap.
    let _ = CURRENT_BYTES.fetch_update(Relaxed, Relaxed, |v| Some(v.saturating_sub(size as u64)));
}

/// The tracking allocator.  Install with `#[global_allocator]`; see the
/// module docs.
pub struct FgAlloc;

unsafe impl GlobalAlloc for FgAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        record_alloc(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        record_alloc(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        record_free(layout.size());
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // A realloc is a free of the old block plus an alloc of the new
        // one, so grow-in-place churn is still visible as churn.
        record_free(layout.size());
        record_alloc(new_size);
        System.realloc(ptr, layout, new_size)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tags_intern_and_saturate() {
        let a = register_tag("alloc-test/stage-a");
        let b = register_tag("alloc-test/stage-b");
        assert_ne!(a, b);
        assert_eq!(a, register_tag("alloc-test/stage-a"));
    }

    #[test]
    fn tag_scope_restores_previous() {
        let a = register_tag("alloc-test/outer");
        let b = register_tag("alloc-test/inner");
        let prev = set_thread_tag(a);
        with_tag(b, || {
            assert_eq!(set_thread_tag(b), b); // idempotent read-back
        });
        assert_eq!(set_thread_tag(prev), a);
    }

    #[test]
    fn assert_helper_is_inert_without_installation() {
        // fg-core's own test binary does not install FgAlloc, so even an
        // allocating closure must pass: "not installed" means "no data",
        // not "zero allocations".
        let v = assert_steady_state_alloc_free("inert", || vec![1u8; 4096]);
        assert_eq!(v.len(), 4096);
        assert!(!installed());
    }

    #[test]
    fn counts_default_to_zero() {
        let tag = register_tag("alloc-test/never-used");
        assert_eq!(counts(tag), TagCounts::default());
        let (_cur, peak) = process_bytes();
        if !installed() {
            assert_eq!(peak, 0);
        }
    }
}
