//! Per-node flight recorder: a fixed-capacity ring buffer of recent
//! span/fault/retry/verdict events for chaos forensics.
//!
//! When the buffer is full the oldest event is dropped and a drop counter
//! incremented, so a recorder never grows unbounded and a dump always
//! says how much history it lost. Timestamps come off the shared
//! [`SimClock`], keeping dumps deterministic for a fixed seed.

use std::collections::{BTreeMap, VecDeque};
use std::fmt::Write as _;
use std::sync::Arc;

use parking_lot::Mutex;
use revelio_net::clock::SimClock;

use crate::export::json_escape;

/// Default ring capacity: enough to hold the full attestation exchange a
/// node sees before a quarantine, small enough to stay bounded.
pub const DEFAULT_FLIGHT_CAPACITY: usize = 64;

/// One recorded event: when (sim µs), what kind (`span` / `fault` /
/// `retry` / `verdict` / `request`), and a short free-form detail.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FlightEvent {
    pub(crate) at_us: u64,
    pub kind: String,
    pub detail: String,
}

#[derive(Debug)]
struct FlightState {
    events: VecDeque<FlightEvent>,
    dropped: u64,
}

/// A cloneable handle to one node's ring buffer.
#[derive(Debug, Clone)]
pub struct FlightRecorder {
    clock: SimClock,
    capacity: usize,
    state: Arc<Mutex<FlightState>>,
}

impl FlightRecorder {
    /// Creates a recorder holding at most `capacity` events (min 1).
    #[must_use]
    pub fn new(clock: SimClock, capacity: usize) -> Self {
        let capacity = capacity.max(1);
        FlightRecorder {
            clock,
            capacity,
            state: Arc::new(Mutex::new(FlightState {
                events: VecDeque::with_capacity(capacity),
                dropped: 0,
            })),
        }
    }

    /// Appends an event, evicting the oldest when full.
    pub fn record(&self, kind: &str, detail: &str) {
        let at_us = self.clock.now_us();
        let mut state = self.state.lock();
        if state.events.len() == self.capacity {
            state.events.pop_front();
            state.dropped += 1;
        }
        state.events.push_back(FlightEvent {
            at_us,
            kind: kind.to_string(),
            detail: detail.to_string(),
        });
    }

    /// Snapshot of the ring, oldest first, plus the drop counter.
    #[must_use]
    pub fn dump(&self) -> FlightDump {
        let state = self.state.lock();
        FlightDump {
            capacity: self.capacity,
            dropped: state.dropped,
            events: state.events.iter().cloned().collect(),
        }
    }
}

/// An immutable snapshot of a recorder — what gets attached to a
/// `ProvisionReport` quarantine entry or an `AttestationFailed` verdict.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FlightDump {
    pub(crate) capacity: usize,
    /// Events evicted before this snapshot was taken.
    pub(crate) dropped: u64,
    /// Surviving events, oldest first.
    pub events: Vec<FlightEvent>,
}

impl FlightDump {
    /// Compact single-line-per-event JSON, deterministic byte-for-byte.
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        let _ = write!(
            out,
            "{{\"capacity\":{},\"dropped\":{},\"events\":[",
            self.capacity, self.dropped
        );
        for (i, event) in self.events.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"at_us\":{},\"kind\":\"{}\",\"detail\":\"{}\"}}",
                event.at_us,
                json_escape(&event.kind),
                json_escape(&event.detail)
            );
        }
        out.push_str("]}");
        out
    }

    /// Human-readable timeline, one event per line.
    #[must_use]
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "flight recorder · {} events · {} dropped (capacity {})",
            self.events.len(),
            self.dropped,
            self.capacity
        );
        for event in &self.events {
            let _ = writeln!(
                out,
                "  {:>12} us  {:<8} {}",
                event.at_us, event.kind, event.detail
            );
        }
        out
    }
}

/// World-level directory of per-node recorders, keyed by address.
///
/// A node is reachable on both its bootstrap and public address; `alias`
/// maps both to the same ring so its forensic timeline is one sequence.
#[derive(Debug, Clone)]
pub struct FlightDirectory {
    clock: SimClock,
    capacity: usize,
    map: Arc<Mutex<BTreeMap<String, FlightRecorder>>>,
}

impl FlightDirectory {
    /// Creates an empty directory whose recorders hold `capacity` events.
    #[must_use]
    pub fn new(clock: SimClock, capacity: usize) -> Self {
        FlightDirectory {
            clock,
            capacity,
            map: Arc::new(Mutex::new(BTreeMap::new())),
        }
    }

    /// Returns the recorder for `key`, creating it on first use.
    #[must_use]
    pub fn register(&self, key: &str) -> FlightRecorder {
        let mut map = self.map.lock();
        map.entry(key.to_string())
            .or_insert_with(|| FlightRecorder::new(self.clock.clone(), self.capacity))
            .clone()
    }

    /// Points `alias` at the same ring as `existing` (registering
    /// `existing` first if needed).
    pub fn alias(&self, existing: &str, alias: &str) {
        let recorder = self.register(existing);
        self.map.lock().insert(alias.to_string(), recorder);
    }

    /// The recorder for `key`, if registered.
    #[must_use]
    pub fn get(&self, key: &str) -> Option<FlightRecorder> {
        self.map.lock().get(key).cloned()
    }

    /// Records an event into `key`'s ring when one is registered;
    /// silently ignores unknown keys (e.g. faults injected on addresses
    /// that are not fleet nodes).
    pub fn record(&self, key: &str, kind: &str, detail: &str) {
        if let Some(recorder) = self.get(key) {
            recorder.record(kind, detail);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_drops_oldest_and_counts() {
        let clock = SimClock::new();
        let recorder = FlightRecorder::new(clock.clone(), 3);
        for i in 0..5 {
            clock.advance_ms(1.0);
            recorder.record("fault", &format!("event-{i}"));
        }
        assert_eq!(recorder.dump().events.len(), 3);
        assert_eq!(recorder.dump().dropped, 2);
        let dump = recorder.dump();
        assert_eq!(dump.events.len(), 3);
        assert_eq!(dump.events[0].detail, "event-2");
        assert_eq!(dump.events[2].detail, "event-4");
        assert_eq!(dump.events[2].at_us, 5_000);
        assert!(dump.render().contains("3 events · 2 dropped (capacity 3)"));
    }

    #[test]
    fn dump_json_is_deterministic_and_escaped() {
        let clock = SimClock::new();
        let recorder = FlightRecorder::new(clock, 4);
        recorder.record("verdict", "path \"/x\"\nline2");
        let dump = recorder.dump();
        assert_eq!(dump.to_json(), dump.to_json());
        assert_eq!(
            dump.to_json(),
            "{\"capacity\":4,\"dropped\":0,\"events\":[{\"at_us\":0,\"kind\":\"verdict\",\"detail\":\"path \\\"/x\\\"\\nline2\"}]}"
        );
    }

    #[test]
    fn directory_aliases_share_one_ring() {
        let clock = SimClock::new();
        let directory = FlightDirectory::new(clock, 8);
        let bootstrap = directory.register("node:8443");
        directory.alias("node:8443", "node:443");
        directory.record("node:443", "fault", "drop");
        assert_eq!(bootstrap.dump().events.len(), 1);
        assert_eq!(directory.get("node:8443").unwrap().dump(), bootstrap.dump());
        // Unknown keys are ignored, not created.
        directory.record("stranger:443", "fault", "drop");
        assert!(directory.get("stranger:443").is_none());
    }

    #[test]
    fn zero_capacity_clamps_to_one() {
        let recorder = FlightRecorder::new(SimClock::new(), 0);
        recorder.record("span", "a");
        recorder.record("span", "b");
        assert_eq!(recorder.dump().events.len(), 1);
        assert_eq!(recorder.dump().dropped, 1);
        assert_eq!(recorder.dump().events[0].detail, "b");
    }
}
