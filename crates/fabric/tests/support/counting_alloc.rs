//! The counting global allocator the allocation-pin binaries share
//! (`steady_state_allocations.rs` here; `probe_visit_allocations.rs` and
//! `grid_request_allocations.rs` in `crates/glare-core/tests`). Each
//! includes this file with `#[path]`, so each installs its own copy; no
//! library crate carries it. The tally is per thread, so the harness's own
//! threads do not disturb a measurement.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    /// `(allocations, bytes requested, bytes freed)` by this thread.
    static TALLY: Cell<(u64, u64, u64)> = const { Cell::new((0, 0, 0)) };
}

struct Counting;

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the tally is a `Cell` of plain integers with no
// destructor, so touching it allocates nothing and cannot re-enter.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = TALLY.try_with(|t| {
            let (n, bytes, freed) = t.get();
            t.set((n + 1, bytes + layout.size() as u64, freed));
        });
        // SAFETY: the caller's obligations are passed on as they are.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        let _ = TALLY.try_with(|t| {
            let (n, bytes, freed) = t.get();
            t.set((n, bytes, freed + layout.size() as u64));
        });
        // SAFETY: `ptr` came from `System.alloc` above with this layout.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// `(allocations, bytes requested, bytes freed)` by this thread so far.
pub fn tally() -> (u64, u64, u64) {
    TALLY.with(Cell::get)
}
