//! Multi-threaded stress for the sharded `SimNet` fabric.
//!
//! The fabric promises two things under concurrency:
//!
//! 1. **Liveness/safety** — N threads dialing overlapping addresses while
//!    other threads bind/unbind listeners and churn traffic shaping must
//!    never deadlock, and must never lose a listener that was not
//!    unbound. This additionally exercises the epoch republish
//!    machinery: shaper churn republishes the routing
//!    view thousands of times while dialers read it lock-free.
//! 2. **Determinism** — fault streams are keyed by address (and route),
//!    not by shard or thread, so as long as each address is driven by
//!    one thread, per-address outcomes, the injected-fault total, and
//!    the total sim-clock advance are identical across thread counts.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use revelio_net::clock::SimClock;
use revelio_net::net::{ConnectionHandler, Listener, NetConfig, SimNet};
use revelio_net::{FaultPlan, NetError};

/// Echoes every message back, prefixed so tampering would be visible.
struct Echo;

impl Listener for Echo {
    fn accept(&self) -> Box<dyn ConnectionHandler> {
        struct H;
        impl ConnectionHandler for H {
            fn on_message(&mut self, m: &[u8]) -> Result<Vec<u8>, NetError> {
                let mut out = b"echo:".to_vec();
                out.extend_from_slice(m);
                Ok(out)
            }
        }
        Box::new(H)
    }
}

fn stable_addr(i: usize) -> String {
    format!("stable-{i}.stress.test:443")
}

fn churn_addr(i: usize) -> String {
    format!("churn-{i}.stress.test:443")
}

#[test]
fn concurrent_dials_churn_and_shaping_lose_no_listener_and_do_not_deadlock() {
    const STABLE: usize = 32;
    const DIAL_THREADS: usize = 8;
    const DIALS_PER_THREAD: usize = 400;
    const CHURN_THREADS: usize = 2;
    const SHAPER_THREADS: usize = 2;

    let net = SimNet::new(SimClock::new(), NetConfig::default());
    for i in 0..STABLE {
        net.bind(&stable_addr(i), Arc::new(Echo)).unwrap();
    }

    let stop = AtomicBool::new(false);
    let ok_dials = AtomicU64::new(0);
    // Churners that have finished a round; `stop` waits for all of them so
    // a churner scheduled late still completes one.
    let churned = AtomicU64::new(0);
    std::thread::scope(|s| {
        // Dialers hammer the stable fleet with heavy address overlap; a
        // stable listener must never be missing.
        for t in 0..DIAL_THREADS {
            let net = net.clone();
            let ok_dials = &ok_dials;
            s.spawn(move || {
                for d in 0..DIALS_PER_THREAD {
                    let i = (d + t * 7) % STABLE;
                    let mut conn = net
                        .dial(&stable_addr(i))
                        .expect("stable listener disappeared");
                    let reply = conn.exchange(b"ping").expect("clean fabric exchange");
                    assert_eq!(reply, b"echo:ping");
                    ok_dials.fetch_add(1, Ordering::Relaxed);
                }
            });
        }
        // Churners bind, dial, and unbind their own addresses in a loop;
        // between bind and unbind the dial must succeed (this pins that
        // republish happens inside bind/unbind, so a thread observes its
        // own mutations in program order).
        for t in 0..CHURN_THREADS {
            let net = net.clone();
            let stop = &stop;
            let churned = &churned;
            s.spawn(move || {
                let mut round = 0usize;
                while !stop.load(Ordering::Relaxed) {
                    let address = churn_addr(t);
                    net.bind(&address, Arc::new(Echo)).unwrap();
                    let mut conn = net.dial(&address).expect("just bound");
                    conn.exchange(b"hi").expect("churn exchange");
                    net.unbind(&address);
                    assert!(net.dial(&address).is_err(), "unbind did not take");
                    round += 1;
                    if round == 1 {
                        churned.fetch_add(1, Ordering::Relaxed);
                    }
                }
                assert!(round > 0, "churner never completed a round");
            });
        }
        // Shapers churn latency overrides, redirects-to-nowhere cleanup,
        // and zero-probability fault plans (plan churn must not inject
        // faults or break dials).
        for t in 0..SHAPER_THREADS {
            let net = net.clone();
            let stop = &stop;
            s.spawn(move || {
                let mut round = 0usize;
                while !stop.load(Ordering::Relaxed) {
                    let i = (round + t * 13) % STABLE;
                    let address = stable_addr(i);
                    let _ = net
                        .peer(&address)
                        .latency_us(1_000 + (round as u64 % 7) * 100)
                        .fault_plan(FaultPlan::default())
                        .fault_plan_for_route("/never", FaultPlan::default());
                    let _ = net.peer(&address).clear();
                    round += 1;
                }
            });
        }
        // Let the churners/shapers run for as long as the dialers do, and
        // at least until every churner has completed a round.
        let net = net.clone();
        let stop = &stop;
        let ok_dials = &ok_dials;
        let churned = &churned;
        s.spawn(move || {
            let target = (DIAL_THREADS * DIALS_PER_THREAD) as u64;
            while ok_dials.load(Ordering::Relaxed) < target
                || churned.load(Ordering::Relaxed) < CHURN_THREADS as u64
            {
                std::thread::yield_now();
            }
            stop.store(true, Ordering::Relaxed);
            let _ = net;
        });
    });

    assert_eq!(
        ok_dials.load(Ordering::Relaxed),
        (DIAL_THREADS * DIALS_PER_THREAD) as u64,
        "dial count mismatch"
    );
    // Zero-probability plans and shaping churn never inject faults.
    assert_eq!(net.faults_injected(), 0, "spurious faults");
    // Every stable listener survived the stress.
    for i in 0..STABLE {
        net.dial(&stable_addr(i))
            .unwrap_or_else(|_| panic!("stable listener {i} lost during stress"));
    }
}

/// Runs a faulted workload where each address is driven by exactly one
/// thread, and returns (per-address outcome strings, faults injected,
/// final sim-clock µs).
fn run_partitioned(threads: usize) -> (Vec<Vec<&'static str>>, u64, u64) {
    const ADDRS: usize = 16;
    const EXCHANGES: usize = 40;

    let clock = SimClock::new();
    let net = SimNet::new(clock.clone(), NetConfig::default());
    for i in 0..ADDRS {
        net.bind(&stable_addr(i), Arc::new(Echo)).unwrap();
    }
    net.set_fault_seed(0xF00D_F00D);
    for i in 0..ADDRS {
        let _ = net.peer(&stable_addr(i)).fault_plan(FaultPlan {
            drop_probability: 0.35,
            reset_probability: 0.1,
            jitter_us: 500,
            ..FaultPlan::default()
        });
    }

    let mut outcomes: Vec<Vec<&'static str>> = vec![Vec::new(); ADDRS];
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                let net = net.clone();
                s.spawn(move || {
                    // This thread owns addresses i ≡ t (mod threads), so each
                    // address's fault stream is consumed in program order.
                    let mut local = Vec::new();
                    for i in (t..ADDRS).step_by(threads) {
                        let address = stable_addr(i);
                        let mut per_addr = Vec::with_capacity(EXCHANGES);
                        for _ in 0..EXCHANGES {
                            let outcome = match net.dial(&address) {
                                Ok(mut conn) => match conn.exchange(b"ping") {
                                    Ok(_) => "ok",
                                    Err(_) => "fault",
                                },
                                Err(_) => "dial-fault",
                            };
                            per_addr.push(outcome);
                        }
                        local.push((i, per_addr));
                    }
                    local
                })
            })
            .collect();
        for handle in handles {
            for (i, per_addr) in handle.join().expect("stress worker") {
                outcomes[i] = per_addr;
            }
        }
    });

    (outcomes, net.faults_injected(), clock.now_us())
}

#[test]
fn fault_outcomes_and_clock_are_identical_across_thread_counts_and_modes() {
    // Streams are keyed by address, totals are sums of per-address
    // contributions: 1, 4 and 16 threads must agree byte-for-byte.
    let single = run_partitioned(1);
    assert!(single.1 > 0, "the plan injected no faults at all");
    assert_eq!(
        single,
        run_partitioned(4),
        "4 threads diverged from sequential"
    );
    assert_eq!(
        single,
        run_partitioned(16),
        "16 threads diverged from sequential"
    );
}
