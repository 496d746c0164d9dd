//! Per-device I/O probe for the storage layer.
//!
//! A [`DeviceProbe`] attached to a block device charges the sim clock for
//! each transfer (a simple bytes × ns/byte cost model) and records
//! per-device counters plus an op-latency histogram. This is how the
//! fig. 5/6 benches obtain machine-independent timings: the "measured"
//! time is modelled I/O cost, not wall clock.

use crate::Telemetry;

/// Cost model + metric labels for one simulated block device.
#[derive(Debug, Clone)]
pub struct DeviceProbe {
    telemetry: Telemetry,
    label: String,
    read_ns_per_byte: f64,
    write_ns_per_byte: f64,
}

impl DeviceProbe {
    /// Creates a probe. `label` becomes part of the metric names:
    /// `revelio_storage_<label>_read_bytes_total` and friends.
    #[must_use]
    pub fn new(
        telemetry: Telemetry,
        label: &str,
        read_ns_per_byte: f64,
        write_ns_per_byte: f64,
    ) -> Self {
        DeviceProbe {
            telemetry,
            label: label.to_string(),
            read_ns_per_byte,
            write_ns_per_byte,
        }
    }

    /// Charges a read of `bytes` bytes and records its metrics. Returns
    /// the modelled duration in milliseconds.
    pub fn on_read(&self, bytes: u64) -> f64 {
        self.charge("read", bytes, self.read_ns_per_byte)
    }

    /// Charges a write of `bytes` bytes and records its metrics. Returns
    /// the modelled duration in milliseconds.
    pub fn on_write(&self, bytes: u64) -> f64 {
        self.charge("write", bytes, self.write_ns_per_byte)
    }

    fn charge(&self, op: &str, bytes: u64, ns_per_byte: f64) -> f64 {
        let us = bytes as f64 * ns_per_byte / 1000.0;
        self.telemetry.clock().advance_us(us as u64);
        let label = &self.label;
        self.telemetry
            .counter_add(&format!("revelio_storage_{label}_{op}_bytes_total"), bytes);
        self.telemetry
            .counter_add(&format!("revelio_storage_{label}_{op}s_total"), 1);
        let ms = us / 1000.0;
        self.telemetry
            .observe(&format!("revelio_storage_{label}_op_ms"), ms);
        ms
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use revelio_net::clock::SimClock;

    #[test]
    fn probe_charges_clock_and_counts() {
        let clock = SimClock::new();
        let t = Telemetry::new(clock.clone());
        // 1000 ns/byte read: 4096 bytes → 4096 µs.
        let probe = DeviceProbe::new(t.clone(), "crypt", 1000.0, 2000.0);
        probe.on_read(4096);
        assert_eq!(clock.now_us(), 4096);
        probe.on_write(512);
        assert_eq!(clock.now_us(), 4096 + 1024);
        assert_eq!(t.counter("revelio_storage_crypt_read_bytes_total"), 4096);
        assert_eq!(t.counter("revelio_storage_crypt_reads_total"), 1);
        assert_eq!(t.counter("revelio_storage_crypt_write_bytes_total"), 512);
        assert_eq!(t.counter("revelio_storage_crypt_writes_total"), 1);
        let ops = t.inner.state.lock().histograms["revelio_storage_crypt_op_ms"].count();
        assert_eq!(ops, 2);
    }
}
