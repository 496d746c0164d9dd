//! A long-lived world's telemetry stops growing.
//!
//! The registry keeps finished spans in a fixed-size window of recent
//! traces, so once the window is full every new trace evicts an old one.
//! This binary counts live heap bytes with its own global allocator and
//! checks that, with the window full, thousands of returning-visitor ops
//! (a resumed handshake plus a monitored GET, the browser extension's
//! common case) leave the heap where they found it.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicIsize, Ordering};

use revelio::extension::WebExtension;
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

const DOMAIN: &str = "retention.example.org";

/// One returning visit: a resumed monitored session and one GET.
fn revisit(extension: &WebExtension) {
    let mut session = extension.open_monitored(DOMAIN).unwrap();
    assert_eq!(session.request("/").unwrap().status, 200);
}

/// The only test in this binary, so no other test allocates while it
/// measures.
#[test]
fn returning_visits_keep_telemetry_memory_flat() {
    let mut world = SimWorld::new(0x5E7E_0001);
    let fleet = world.deploy_fleet(DOMAIN, 2, demo_app()).unwrap();
    let extension = world.extension();
    extension.register_site(DOMAIN, vec![fleet.golden_measurement]);
    // The first visit attests in full and files the session ticket.
    extension.browse(DOMAIN, "/").unwrap();

    // Fill the 4096-span window, so every op measured below has to evict.
    while world.telemetry.span_count() < 5_000 {
        revisit(&extension);
    }
    let dropped = "revelio_telemetry_spans_dropped_total";
    assert!(world.telemetry.counter(dropped) > 0, "the window is full");

    const OPS: usize = 10_000;
    let spans_before = world.telemetry.span_count();
    let before = LIVE_BYTES.load(Ordering::Relaxed);
    for _ in 0..OPS {
        revisit(&extension);
    }
    let grown = LIVE_BYTES.load(Ordering::Relaxed) - before;
    assert!(
        world.telemetry.span_count() - spans_before >= OPS,
        "every op recorded a span"
    );
    // Keeping every span grows the heap by about 0.7 KB per op (7 MB here).
    assert!(
        grown < 16 * 1024,
        "{OPS} returning visits grew the live heap by {grown} bytes"
    );
}
