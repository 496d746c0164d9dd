//! A from-scratch epoch snapshot cell: lock-free reads of an immutable
//! value that a rare writer republishes copy-on-write.
//!
//! The fabric's dial path reads the routing view millions of times per
//! second from many threads, while mutations (bind/unbind, shaper
//! edits, fault-domain installs) happen a handful of times per run. A
//! [`Snapshot<T>`] holds an `Arc<T>` behind an atomic pointer:
//!
//! * [`Snapshot::read`] is lock-free: announce in a reader stripe, load
//!   the pointer, run the closure on the borrowed value, retract. It
//!   touches no `Arc` count, no mutex and no `RwLock`, and no writer can
//!   block it.
//! * [`Snapshot::store`] swaps the pointer and then waits for every
//!   reader that might still borrow the *old* value to finish before
//!   dropping it: the epoch-reclamation part. The cell keeps no writer
//!   lock; the fabric's writer lock already serialises its
//!   read-modify-write edits.
//!
//! This module is the workspace's only non-test `unsafe`. A safe
//! `RwLock<Arc<_>>` cell in its place lost 12–17% of `repro --fleet`
//! dial throughput at 128 nodes / 4 threads on a 2-vCPU host (DESIGN.md
//! "The read path").
//!
//! # Safety argument
//!
//! A reader increments its stripe **before** loading the pointer and
//! decrements it only **after** its closure has returned; all four
//! operations are `SeqCst`. A writer swaps the pointer first and only
//! then scans the stripes, waiting for each to read zero once. If a
//! reader loaded the *old* pointer, its load preceded the swap in the
//! total order, so its increment did too: the writer cannot see that
//! stripe at zero until the reader has left. A reader the writer does
//! not wait for (it entered after the stripe was observed at zero)
//! necessarily loads the *new* pointer. Either way the old value is
//! dropped only when no borrow of it remains. The argument is per swap
//! and per reader, so it needs neither a consistent cross-stripe instant
//! nor serialised writers: two racing stores each retire the distinct
//! pointer their own swap returned.

use std::marker::PhantomData;
use std::sync::atomic::{AtomicPtr, AtomicU64, Ordering};
use std::sync::Arc;

/// Reader-announcement stripes. More stripes mean less reader/reader
/// cache bouncing; writers scan all of them, so keep it modest. Power
/// of two.
const STRIPES: usize = 16;

/// One cache line per stripe so two reader threads never contend on the
/// same line (64-byte lines; 128 covers adjacent-line prefetchers).
#[repr(align(128))]
struct Stripe(AtomicU64);

/// An atomically replaceable `Arc<T>` with lock-free
/// [`read`](Snapshot::read)s.
///
/// Aligned to 128 bytes so the cell never shares a cache line with its
/// neighbours: the fabric embeds it in an `Arc`-shared struct, and each
/// dial's `Arc::clone` of that struct writes the `Arc` header. A
/// prototype whose smaller cell shared that line once measured 9% fewer
/// dials per second; a later run did not reproduce the loss, so the
/// alignment is a guard costing one cache line per fabric (DESIGN.md
/// "The read path").
#[repr(align(128))]
pub(crate) struct Snapshot<T> {
    /// Raw pointer from `Arc::into_raw`; owns one strong count.
    current: AtomicPtr<T>,
    /// Striped in-flight reader counts (the epoch announcements).
    readers: Box<[Stripe]>,
    /// The cell owns an `Arc<T>`, so it is `Send`/`Sync` only when that
    /// is (a bare `AtomicPtr<T>` would claim both for any `T`).
    _owns: PhantomData<Arc<T>>,
}

impl<T> Snapshot<T> {
    /// Creates a cell holding `value`.
    pub(crate) fn new(value: Arc<T>) -> Self {
        Snapshot {
            current: AtomicPtr::new(Arc::into_raw(value).cast_mut()),
            readers: (0..STRIPES).map(|_| Stripe(AtomicU64::new(0))).collect(),
            _owns: PhantomData,
        }
    }

    /// Runs `f` on the current value, announcing in stripe
    /// `stripe & (STRIPES - 1)`. Any stripe value is correct (the
    /// counters sum); distinct values per thread merely reduce cache
    /// bouncing between readers.
    ///
    /// Keep `f` short and **never** [`store`](Snapshot::store) into this
    /// cell from inside `f`: the writer waits for the stripe to drain,
    /// so it would deadlock against the reader's own announcement.
    pub(crate) fn read<R>(&self, stripe: usize, f: impl FnOnce(&T) -> R) -> R {
        let stripe = &self.readers[stripe & (STRIPES - 1)].0;
        stripe.fetch_add(1, Ordering::SeqCst);
        let ptr = self.current.load(Ordering::SeqCst);
        // SAFETY: `ptr` came from `Arc::into_raw`, and the stripe
        // announcement (see the module docs) keeps a writer from
        // dropping it until the closure returns and we retract.
        let out = f(unsafe { &*ptr });
        stripe.fetch_sub(1, Ordering::SeqCst);
        out
    }

    /// Publishes `value` and drops the previous value once every reader
    /// that might borrow it has finished.
    ///
    /// Writers spin while draining (readers are in-section for a few
    /// nanoseconds), yielding after a while in case a reader was
    /// descheduled mid-section. Each pass scans *all* stripes: the
    /// safety argument is per reader, so one pass that finds every
    /// stripe at zero suffices, and a descheduled reader on one stripe
    /// cannot turn the wait into a yield per stripe.
    pub(crate) fn store(&self, value: Arc<T>) {
        let old = self
            .current
            .swap(Arc::into_raw(value).cast_mut(), Ordering::SeqCst);
        let mut spins: u32 = 0;
        while self
            .readers
            .iter()
            .any(|stripe| stripe.0.load(Ordering::SeqCst) != 0)
        {
            if spins < 64 {
                spins += 1;
                std::hint::spin_loop();
            } else {
                std::thread::yield_now();
            }
        }
        // SAFETY: every reader that could have loaded `old` has left its
        // stripe; this balances the strong count taken by `into_raw`.
        drop(unsafe { Arc::from_raw(old) });
    }
}

impl<T> Drop for Snapshot<T> {
    fn drop(&mut self) {
        // SAFETY: `&mut self`: no readers or writers remain.
        drop(unsafe { Arc::from_raw(self.current.load(Ordering::SeqCst)) });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use parking_lot::Mutex;
    use std::sync::atomic::{AtomicBool, AtomicUsize};

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
                    // Park inside the read section long enough that the
                    // writer must wait before it may drop the old value.
                    // (No assert in here: a panic would leave the stripe
                    // announced and hang the writer.)
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
        // reader left its section.
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
        // as the fabric's are, republish 100k times in total to stress
        // the grace-period reclamation under load; the reads copy the
        // pair out of a borrow that a premature free would invalidate
        // (AddressSanitizer flags such a free; see the CI `asan` job).
        const READERS: usize = 6;
        const WRITES_PER_WRITER: u64 = 50_000;
        const TOTAL: u64 = 2 * WRITES_PER_WRITER;
        let cell = Snapshot::new(Arc::new((0u64, 0u64)));
        let writer = Mutex::new(());
        let stop = AtomicBool::new(false);
        std::thread::scope(|s| {
            for stripe in 0..READERS {
                let (cell, stop) = (&cell, &stop);
                s.spawn(move || {
                    let mut last = 0;
                    while !stop.load(Ordering::Relaxed) {
                        let pair = cell.read(stripe, |pair| *pair);
                        assert_eq!(pair.0, pair.1, "torn view");
                        assert!(pair.0 >= last, "snapshot went backwards");
                        last = pair.0;
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
