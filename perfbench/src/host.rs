//! The host-speed probe: a fixed unit of throughput-bound CPU work owned
//! by the benchmark, timed between ops. No program code runs in it, so a
//! change to the program cannot move it; it moves only with the host.
//!
//! On a shared 2-vCPU Xeon cloud VM, another tenant's load comes and goes
//! for seconds to minutes at a time, and while it is gone code with
//! instruction-level parallelism runs up to twice as fast. A latency-bound
//! loop does not notice; this probe (independent multiply lanes,
//! add-rotate-xor lanes and lookups in an L2-sized table) does, in the
//! same windows as the ops. Op latencies are rescaled to the probe's
//! contended speed, so a run taken while the load was away reads like
//! one taken while it was there. NOTES.md ("Noise") has the measurements.

use std::hint::black_box;
use std::time::Instant;

/// The probe's time on the contended VM, µs: what every rescaled latency
/// is expressed against.
pub const NOMINAL_US: f64 = 70.0;

const LANES: usize = 8;
const ROUNDS: u64 = 2_000;
const TABLE_SLOTS: usize = 1 << 16;

pub struct HostProbe {
    table: Vec<u32>,
}

impl HostProbe {
    pub fn new() -> Self {
        HostProbe {
            table: (0..TABLE_SLOTS as u32)
                .map(|i| i.wrapping_mul(0x9e37_79b1))
                .collect(),
        }
    }

    /// The probe's time now, µs: the fastest of three runs, so an
    /// interrupt in one run does not count.
    pub fn sample_us(&self) -> f64 {
        (0..3).map(|_| self.run_us()).fold(f64::MAX, f64::min)
    }

    fn run_us(&self) -> f64 {
        let start = Instant::now();
        let mut products = black_box([0x9e37_79b9_7f4a_7c15u64, 3, 5, 7, 11, 13, 17, 19]);
        let mut arx = black_box([1u32; 2 * LANES]);
        let mut slots = black_box([1usize, 7, 77, 777, 7777, 17, 171, 1717]);
        let mut sum = 0u32;
        for round in 0..ROUNDS {
            for p in &mut products {
                let wide = u128::from(*p) * u128::from(round | 0x1234_5678_9abc_def1);
                *p = (wide as u64) ^ ((wide >> 64) as u64);
            }
            for (lane, x) in arx.iter_mut().enumerate() {
                *x = x.wrapping_add(lane as u32 ^ round as u32).rotate_left(7) ^ round as u32;
            }
            for slot in &mut slots {
                sum = sum.wrapping_add(self.table[*slot % TABLE_SLOTS]);
                *slot = slot.wrapping_mul(0x9e37_79b9).wrapping_add(round as usize);
            }
        }
        black_box((products, arx, sum));
        start.elapsed().as_secs_f64() * 1e6
    }
}

/// The factor that rescales a latency measured while the probe read
/// `probe_us` to the contended host, for work whose latency goes as the
/// probe's to the power `sensitivity`.
pub fn rescale(probe_us: f64, sensitivity: f64) -> f64 {
    (NOMINAL_US / probe_us).powf(sensitivity)
}
