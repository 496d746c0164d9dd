//! A striped snapshot cell: short reads of an immutable value that a
//! rare writer republishes copy-on-write.
//!
//! The fabric's dial path reads the routing view millions of times per
//! second from many threads, while mutations (bind/unbind, shaper
//! edits, fault-domain installs) happen a handful of times per run. A
//! [`Snapshot<T>`] keeps one `Arc<T>` per stripe, each behind its own
//! mutex on its own cache line:
//!
//! * [`Snapshot::read`] locks one stripe and runs the closure on the
//!   value inside it. Handles on distinct stripes share no lock and no
//!   cache line, so the common dial writes only a line its own handle
//!   uses, and touches no `Arc` count.
//! * [`Snapshot::store`] locks every stripe in index order, replaces
//!   each `Arc`, releases them, and only then drops the old value. A
//!   reader therefore sees either the old value on every stripe or the
//!   new one on every stripe: the publish is atomic across stripes. The
//!   cell keeps no writer lock of its own; the fabric's writer lock
//!   already serialises its read-modify-write edits.
//!
//! DESIGN.md "The read path" compares this layout with the alternatives
//! it was measured against.

use std::sync::Arc;

use parking_lot::Mutex;

/// Stripes, each a separate lock. More stripes mean fewer handles
/// taking turns on one lock; writers lock all of them, so keep it
/// modest. Power of two.
const STRIPES: usize = 16;

/// One cache line per stripe, so readers on two stripes never bounce a
/// line (64-byte lines; 128 covers adjacent-line prefetchers).
#[repr(align(128))]
struct Stripe<T>(Mutex<Arc<T>>);

/// An atomically replaceable `Arc<T>` read through striped locks.
///
/// Aligned to 128 bytes so the cell never shares a cache line with its
/// neighbours: the fabric embeds it in an `Arc`-shared struct, and each
/// dial's `Arc::clone` of that struct writes the `Arc` header. The
/// stripes sit inline for the same reason: a boxed, unaligned stripe
/// array lost 13% of `repro --fleet` dial throughput.
#[repr(align(128))]
pub(crate) struct Snapshot<T> {
    stripes: [Stripe<T>; STRIPES],
}

impl<T> Snapshot<T> {
    /// Creates a cell holding `value`.
    pub(crate) fn new(value: Arc<T>) -> Self {
        Snapshot {
            stripes: std::array::from_fn(|_| Stripe(Mutex::new(Arc::clone(&value)))),
        }
    }

    /// Runs `f` on the current value under stripe
    /// `stripe & (STRIPES - 1)`'s lock. Any stripe value is correct
    /// (every stripe holds the same value); distinct values per handle
    /// merely keep handles from taking turns on one lock.
    ///
    /// Keep `f` short, and **never** call [`read`](Snapshot::read) or
    /// [`store`](Snapshot::store) on this cell from inside `f`: a nested
    /// read of the same stripe, or a store, waits for the lock `f`'s own
    /// read holds and deadlocks.
    pub(crate) fn read<R>(&self, stripe: usize, f: impl FnOnce(&T) -> R) -> R {
        let current = self.stripes[stripe & (STRIPES - 1)].0.lock();
        f(&current)
    }

    /// Publishes `value` on every stripe at once, then drops the previous
    /// value.
    ///
    /// Locks all stripes in index order before replacing any, so no
    /// reader can see the new value on one stripe and the old one on
    /// another. The old value is dropped only after the locks are
    /// released, so its destructor never runs under them.
    pub(crate) fn store(&self, value: Arc<T>) {
        let mut guards: Vec<_> = self.stripes.iter().map(|stripe| stripe.0.lock()).collect();
        // Every stripe holds the same value. Holding one more count of it
        // makes each replacement below a decrement, never the last drop.
        let old = Arc::clone(&guards[0]);
        for guard in &mut guards {
            **guard = Arc::clone(&value);
        }
        drop(guards);
        drop(old);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

    #[test]
    fn read_returns_stored_value() {
        let cell = Snapshot::new(Arc::new(7u64));
        assert_eq!(cell.read(0, |v| *v), 7);
        cell.store(Arc::new(8));
        assert_eq!(cell.read(5, |v| *v), 8);
    }

    #[test]
    fn retired_snapshots_are_dropped_exactly_once() {
        static DROPS: AtomicUsize = AtomicUsize::new(0);
        struct Counted(#[allow(dead_code)] u32);
        impl Drop for Counted {
            fn drop(&mut self) {
                DROPS.fetch_add(1, Ordering::SeqCst);
            }
        }
        let cell = Snapshot::new(Arc::new(Counted(0)));
        for i in 1..=10 {
            cell.store(Arc::new(Counted(i)));
        }
        assert_eq!(DROPS.load(Ordering::SeqCst), 10);
        drop(cell);
        assert_eq!(DROPS.load(Ordering::SeqCst), 11);
    }

    #[test]
    fn a_store_waits_for_a_parked_reader() {
        static DROPS: AtomicUsize = AtomicUsize::new(0);
        struct Counted;
        impl Drop for Counted {
            fn drop(&mut self) {
                DROPS.fetch_add(1, Ordering::SeqCst);
            }
        }
        let cell = Snapshot::new(Arc::new(Counted));
        let entered = std::sync::Barrier::new(2);
        let reader_left = AtomicBool::new(false);
        let drops_seen_by_reader = AtomicUsize::new(usize::MAX);
        std::thread::scope(|s| {
            s.spawn(|| {
                cell.read(3, |_| {
                    entered.wait();
                    // Park inside the read long enough that the writer
                    // must wait on this stripe's lock before it may
                    // replace the value.
                    std::thread::sleep(std::time::Duration::from_millis(20));
                    drops_seen_by_reader.store(DROPS.load(Ordering::SeqCst), Ordering::SeqCst);
                    reader_left.store(true, Ordering::SeqCst);
                });
            });
            entered.wait();
            cell.store(Arc::new(Counted));
            assert!(
                reader_left.load(Ordering::SeqCst),
                "store returned while a reader still borrowed the old value"
            );
        });
        // The parked reader's value was dropped exactly once, after the
        // reader left its read.
        assert_eq!(
            drops_seen_by_reader.load(Ordering::SeqCst),
            0,
            "freed under a reader"
        );
        assert_eq!(DROPS.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn concurrent_republish_never_tears_or_leaks() {
        // A "torn view" would be a pair whose halves disagree; every
        // published pair is internally consistent, so readers must only
        // ever observe x == y. Two writers, serialised by a writer lock
        // as the fabric's are, republish 100k times in total. Each
        // reader moves to the next stripe on every read, so "snapshot
        // went backwards" also catches a publish that some stripes see
        // before others.
        const READERS: usize = 6;
        const WRITES_PER_WRITER: u64 = 50_000;
        const TOTAL: u64 = 2 * WRITES_PER_WRITER;
        let cell = Snapshot::new(Arc::new((0u64, 0u64)));
        let writer = Mutex::new(());
        let stop = AtomicBool::new(false);
        std::thread::scope(|s| {
            for first in 0..READERS {
                let (cell, stop) = (&cell, &stop);
                s.spawn(move || {
                    let mut last = 0;
                    let mut stripe = first;
                    while !stop.load(Ordering::Relaxed) {
                        let pair = cell.read(stripe, |pair| *pair);
                        assert_eq!(pair.0, pair.1, "torn view");
                        assert!(pair.0 >= last, "snapshot went backwards");
                        last = pair.0;
                        stripe = stripe.wrapping_add(1);
                    }
                });
            }
            let writers: Vec<_> = (0..2)
                .map(|stripe| {
                    let (cell, writer) = (&cell, &writer);
                    s.spawn(move || {
                        for _ in 0..WRITES_PER_WRITER {
                            let _guard = writer.lock();
                            let (x, y) = cell.read(READERS + stripe, |pair| *pair);
                            cell.store(Arc::new((x + 1, y + 1)));
                        }
                    })
                })
                .collect();
            for handle in writers {
                handle.join().expect("writer thread");
            }
            stop.store(true, Ordering::Relaxed);
        });
        // Every read-modify-write landed: none was lost to a race.
        assert_eq!(cell.read(0, |pair| *pair), (TOTAL, TOTAL));
    }
}
