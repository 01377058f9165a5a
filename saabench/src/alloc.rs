//! Heap allocations counted process-wide, for `allocs_per_op`.
//!
//! The benchmark installs [`Counting`] as the global allocator, so
//! every allocation made by the engine, the server, the replica and
//! the clients in this process is counted.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

/// Heap allocations (including reallocations) made so far.
pub fn allocations() -> u64 {
    ALLOCATIONS.load(Relaxed)
}

/// The system allocator, counting each allocation and reallocation.
pub struct Counting;

// SAFETY: every call is forwarded unchanged to `System`; counting
// touches only an atomic, which does not allocate.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn allocations_are_counted() {
        let before = allocations();
        let v: Vec<Box<u64>> = (0..100).map(Box::new).collect();
        assert!(allocations() - before >= 100, "{} boxes", v.len());
    }
}
