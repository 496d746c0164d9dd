//! Dropping a `SimWorld` frees what it deployed.
//!
//! Every node's routes own the node, and the node owns a handle on the
//! fabric its routes are bound to. Unless the world unbinds its
//! listeners on drop, that cycle keeps every deployed node — VM image,
//! volumes, keys — alive for the rest of the process. This binary counts
//! live heap bytes with its own global allocator and checks that a
//! deploy-and-drop loop leaves nothing behind.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicIsize, Ordering};

use revelio::node::demo_app;
use revelio::world::SimWorld;

/// Wraps the system allocator and tracks the net live byte count.
struct Counting;

static LIVE_BYTES: AtomicIsize = AtomicIsize::new(0);

// SAFETY: every call forwards to `System` unchanged; the counter is a
// side effect that never touches the returned memory.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let ptr = System.alloc(layout);
        if !ptr.is_null() {
            LIVE_BYTES.fetch_add(layout.size() as isize, Ordering::Relaxed);
        }
        ptr
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let ptr = System.alloc_zeroed(layout);
        if !ptr.is_null() {
            LIVE_BYTES.fetch_add(layout.size() as isize, Ordering::Relaxed);
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        LIVE_BYTES.fetch_sub(layout.size() as isize, Ordering::Relaxed);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let new = System.realloc(ptr, layout, new_size);
        if !new.is_null() {
            LIVE_BYTES.fetch_add(
                new_size as isize - layout.size() as isize,
                Ordering::Relaxed,
            );
        }
        new
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

fn deploy_and_drop(seed: u64) {
    let mut world = SimWorld::new(seed);
    let fleet = world
        .deploy_fleet("teardown.example.org", 4, demo_app())
        .unwrap();
    let extension = world.extension();
    extension.register_site("teardown.example.org", vec![fleet.golden_measurement]);
    extension.browse("teardown.example.org", "/").unwrap();
}

/// The only test in this binary, so no other test allocates while it
/// measures.
#[test]
fn dropped_worlds_free_their_nodes() {
    // The first world pays one-time process state (lazy statics,
    // thread-local buffers); measure from after it.
    deploy_and_drop(1);
    const WORLDS: u64 = 4;
    let before = LIVE_BYTES.load(Ordering::Relaxed);
    for seed in 2..2 + WORLDS {
        deploy_and_drop(seed);
    }
    let retained_per_world = (LIVE_BYTES.load(Ordering::Relaxed) - before) / WORLDS as isize;
    // A leaked 4-node world holds well over a megabyte.
    assert!(
        retained_per_world < 16 * 1024,
        "each dropped world left {retained_per_world} bytes live"
    );
}
