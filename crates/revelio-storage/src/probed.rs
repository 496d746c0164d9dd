//! A telemetry-instrumented pass-through block device.
//!
//! [`ProbedDevice`] wraps any [`BlockDevice`] and charges a
//! [`DeviceProbe`] for every block transferred: the probe advances the sim
//! clock by a bytes × ns/byte cost and records per-device counters and an
//! op-latency histogram. Stacking it over (or under) a device-mapper
//! target turns the wall-clock-free simulation into a deterministic I/O
//! benchmark — the fig. 5/6 reproductions read their timings off the sim
//! clock instead of `Instant::now()`.

use std::sync::Arc;

use revelio_telemetry::DeviceProbe;

use crate::block::BlockDevice;
use crate::StorageError;

/// Pass-through device charging a [`DeviceProbe`] per block operation.
pub struct ProbedDevice {
    inner: Arc<dyn BlockDevice>,
    probe: DeviceProbe,
}

impl std::fmt::Debug for ProbedDevice {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ProbedDevice")
            .field("probe", &self.probe)
            .finish_non_exhaustive()
    }
}

impl ProbedDevice {
    /// Wraps `inner` so every block read/write reports to `probe`.
    #[must_use]
    pub fn new(inner: Arc<dyn BlockDevice>, probe: DeviceProbe) -> Self {
        ProbedDevice { inner, probe }
    }
}

impl BlockDevice for ProbedDevice {
    fn block_size(&self) -> usize {
        self.inner.block_size()
    }

    fn block_count(&self) -> u64 {
        self.inner.block_count()
    }

    fn read_block(&self, index: u64, buf: &mut [u8]) -> Result<(), StorageError> {
        self.inner.read_block(index, buf)?;
        self.probe.on_read(self.inner.block_size() as u64);
        Ok(())
    }

    fn write_block(&self, index: u64, data: &[u8]) -> Result<(), StorageError> {
        self.inner.write_block(index, data)?;
        self.probe.on_write(self.inner.block_size() as u64);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::block::MemBlockDevice;
    use revelio_telemetry::{Telemetry, TelemetryClock as SimClock};

    fn probed(read_ns: f64, write_ns: f64) -> (ProbedDevice, SimClock, Telemetry) {
        let clock = SimClock::new();
        let telemetry = Telemetry::new(clock.clone());
        let inner: Arc<dyn BlockDevice> = Arc::new(MemBlockDevice::new(512, 8));
        let probe = DeviceProbe::new(telemetry.clone(), "test", read_ns, write_ns);
        (ProbedDevice::new(inner, probe), clock, telemetry)
    }

    #[test]
    fn charges_clock_per_block_operation() {
        // 1000 ns/byte → one 512-byte block costs 512 µs.
        let (dev, clock, telemetry) = probed(1000.0, 2000.0);
        let mut buf = vec![0u8; 512];
        dev.read_block(0, &mut buf).unwrap();
        assert_eq!(clock.now_us(), 512);
        dev.write_block(0, &buf).unwrap();
        assert_eq!(clock.now_us(), 512 + 1024);
        assert_eq!(telemetry.counter("revelio_storage_test_reads_total"), 1);
        assert_eq!(telemetry.counter("revelio_storage_test_writes_total"), 1);
        assert_eq!(
            telemetry.counter("revelio_storage_test_read_bytes_total"),
            512
        );
    }

    #[test]
    fn failed_operations_are_not_charged() {
        let (dev, clock, telemetry) = probed(1000.0, 1000.0);
        let mut buf = vec![0u8; 512];
        assert!(dev.read_block(99, &mut buf).is_err());
        assert_eq!(clock.now_us(), 0);
        assert_eq!(telemetry.counter("revelio_storage_test_reads_total"), 0);
    }

    #[test]
    fn passes_data_through_unchanged() {
        let (dev, _, _) = probed(1.0, 1.0);
        let data = vec![0xA5u8; 512];
        dev.write_block(3, &data).unwrap();
        let mut back = vec![0u8; 512];
        dev.read_block(3, &mut back).unwrap();
        assert_eq!(back, data);
        assert_eq!(dev.block_size(), 512);
        assert_eq!(dev.block_count(), 8);
    }
}
