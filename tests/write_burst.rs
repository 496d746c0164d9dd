//! Write-burst determinism for the batched, structurally-shared fabric
//! write path.
//!
//! Fleet provisioning and re-attestation sweeps are *write bursts*:
//! thousands of shaper/bind mutations land while reader threads keep
//! dialing. The batch scope defers the view republish and the slot tree
//! path-copies on flush, so two things must be proven under concurrency:
//!
//! 1. **Transcript determinism** — with every address driven by one
//!    thread, per-address dial outcomes, the injected-fault total, the
//!    sim-clock advance, and the final `view_fingerprint` are
//!    byte-identical across 1/4/16 threads, whether the writers mutate
//!    inside or outside `batch` scopes.
//! 2. **Convergence** — a mutation sequence applied through arbitrary
//!    batch cut points ends in exactly the view the unbatched sequence
//!    produces (the proptest below).

use std::sync::Arc;

use proptest::prelude::*;
use revelio_net::clock::SimClock;
use revelio_net::net::{ConnectionHandler, Listener, NetConfig, SimNet};
use revelio_net::{FaultPlan, NetError};

struct Echo;

impl Listener for Echo {
    fn accept(&self) -> Box<dyn ConnectionHandler> {
        struct H;
        impl ConnectionHandler for H {
            fn on_message(&mut self, m: &[u8]) -> Result<Vec<u8>, NetError> {
                Ok(m.to_vec())
            }
        }
        Box::new(H)
    }
}

/// Addresses the reader threads dial (fault plans installed up front).
const READ_ADDRS: usize = 16;
/// Addresses the writer threads mutate (never dialed, so writer churn
/// cannot perturb a fault stream a reader consumes).
const WRITE_ADDRS: usize = 16;
/// Exchanges per read address — each address's stream is consumed in
/// program order by its owning thread.
const EXCHANGES: usize = 30;
/// Mutation rounds per write address; even rounds run inside a `batch`
/// scope, odd rounds republish per mutation.
const ROUNDS: usize = 8;

fn read_addr(i: usize) -> String {
    format!("read-{i}.burst.test:443")
}

fn write_addr(j: usize) -> String {
    format!("write-{j}.burst.test:443")
}

/// One mutation round on one writer-owned address. Purely a function of
/// `(j, round)`, so the final shape after [`ROUNDS`] rounds is the same
/// no matter how many writer threads split the address set.
fn writer_round(net: &SimNet, j: usize, round: usize) {
    let address = write_addr(j);
    if round == 0 {
        net.bind(&address, Arc::new(Echo)).unwrap();
    }
    net.peer(&address)
        .latency_us(1_000 + ((j * 31 + round) as u64 % 17) * 100);
    match round % 3 {
        0 => {
            net.peer(&address).fault_plan(FaultPlan {
                drop_probability: 0.5,
                ..FaultPlan::default()
            });
        }
        1 => {
            net.peer(&address)
                .fault_plan_for_route("/hot", FaultPlan::fail_first(2));
        }
        _ => {
            net.peer(&address).clear();
            net.peer(&address)
                .latency_us(2_000 + ((j * 7 + round) as u64 % 5) * 100);
        }
    }
}

/// All mutation rounds for the writer owning addresses `j ≡ w (mod
/// writers)` — alternating batched and unbatched rounds.
fn writer_work(net: &SimNet, w: usize, writers: usize) {
    for round in 0..ROUNDS {
        if round % 2 == 0 {
            net.batch(|net| {
                for j in (w..WRITE_ADDRS).step_by(writers) {
                    writer_round(net, j, round);
                }
            });
        } else {
            for j in (w..WRITE_ADDRS).step_by(writers) {
                writer_round(net, j, round);
            }
        }
    }
}

/// Dials every read address the reader owns, `EXCHANGES` exchanges
/// each, returning `(address index, outcome stream)` pairs.
fn reader_work(net: &SimNet, r: usize, readers: usize) -> Vec<(usize, Vec<&'static str>)> {
    let mut local = Vec::new();
    for i in (r..READ_ADDRS).step_by(readers) {
        let address = read_addr(i);
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
}

/// Runs the write-burst workload on `threads` OS threads (1 =
/// sequential; otherwise one writer per four threads, readers take the
/// rest) and returns the full transcript.
fn run_burst(threads: usize) -> (Vec<Vec<&'static str>>, u64, u64, String) {
    let clock = SimClock::new();
    let net = SimNet::new(clock.clone(), NetConfig::default());
    for i in 0..READ_ADDRS {
        net.bind(&read_addr(i), Arc::new(Echo)).unwrap();
    }
    net.set_fault_seed(0xB005_5EED);
    for i in 0..READ_ADDRS {
        let _ = net.peer(&read_addr(i)).fault_plan(FaultPlan {
            drop_probability: 0.3,
            reset_probability: 0.1,
            jitter_us: 400,
            ..FaultPlan::default()
        });
    }

    let mut outcomes: Vec<Vec<&'static str>> = vec![Vec::new(); READ_ADDRS];
    if threads == 1 {
        writer_work(&net, 0, 1);
        for (i, per_addr) in reader_work(&net, 0, 1) {
            outcomes[i] = per_addr;
        }
    } else {
        let writers = threads / 4;
        let readers = threads - writers;
        std::thread::scope(|s| {
            for w in 0..writers {
                let net = net.clone();
                s.spawn(move || writer_work(&net, w, writers));
            }
            let handles: Vec<_> = (0..readers)
                .map(|r| {
                    let net = net.clone();
                    s.spawn(move || reader_work(&net, r, readers))
                })
                .collect();
            for handle in handles {
                for (i, per_addr) in handle.join().expect("reader thread") {
                    outcomes[i] = per_addr;
                }
            }
        });
    }

    (
        outcomes,
        net.faults_injected(),
        clock.now_us(),
        net.view_fingerprint(),
    )
}

#[test]
fn write_burst_transcripts_are_identical_across_thread_counts_and_modes() {
    let single = run_burst(1);
    assert!(single.1 > 0, "the plans injected no faults at all");
    assert_eq!(single, run_burst(4), "4 threads diverged from sequential");
    assert_eq!(single, run_burst(16), "16 threads diverged from sequential");
}

/// Applies one decoded mutation op. The op stream is a plain `Vec<u64>`
/// because the vendored proptest shim has no tuple/enum strategies; each
/// word decodes to an address (bits 8..) and an op kind (`w % 7`).
fn apply_op(net: &SimNet, w: u64) {
    let k = (w >> 8) % 8;
    let address = format!("prop-{k}.burst.test:443");
    match w % 7 {
        0 => {
            // Double binds are a legitimate op-stream artifact: ignore.
            let _ = net.bind(&address, Arc::new(Echo));
        }
        1 => net.unbind(&address),
        2 => {
            let _ = net.peer(&address).latency_us(500 + (w >> 16) % 5_000);
        }
        3 => {
            let _ = net.peer(&address).fault_plan(FaultPlan {
                drop_probability: ((w >> 16) % 100) as f64 / 100.0,
                ..FaultPlan::default()
            });
        }
        4 => {
            let _ = net.peer(&address).clear();
        }
        5 => {
            let target = format!("prop-{}.burst.test:443", (w >> 16) % 8);
            let _ = net.peer(&address).redirect_to(&target);
        }
        _ => {
            let _ = net
                .peer(&address)
                .fault_plan_for_route("/r", FaultPlan::fail_first(((w >> 16) % 4) as u32));
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Batched and unbatched application of the same mutation sequence
    /// converge to byte-identical final views, for arbitrary sequences
    /// and batch cut points (chunk size derived from the stream itself).
    #[test]
    fn batched_and_unbatched_mutation_sequences_converge(
        ops in proptest::collection::vec(any::<u64>(), 0..60),
    ) {
        let unbatched = SimNet::new(SimClock::new(), NetConfig::default());
        for &w in &ops {
            apply_op(&unbatched, w);
        }

        let batched = SimNet::new(SimClock::new(), NetConfig::default());
        let mut rest: &[u64] = &ops;
        while !rest.is_empty() {
            // Cut points come from the data: 1–4 ops per batch scope.
            let take = ((rest[0] >> 4) % 4 + 1) as usize;
            let take = take.min(rest.len());
            let (chunk, tail) = rest.split_at(take);
            batched.batch(|net| {
                for &w in chunk {
                    apply_op(net, w);
                }
            });
            rest = tail;
        }

        prop_assert_eq!(unbatched.view_fingerprint(), batched.view_fingerprint());
    }
}
