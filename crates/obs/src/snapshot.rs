//! The telemetry snapshot: the one container for every series.
//!
//! A [`TelemetrySnapshot`] holds named counters, gauges and [`Histogram`]s
//! keyed by dotted names (`coord.reexecutions`, `db.pending`,
//! `span.submit_to_collect`, …) in `BTreeMap`s, so every traversal — and
//! therefore every serialized byte — is machine-independent.  Actors keep
//! their typed metrics structs and export into a snapshot on demand;
//! nothing in the hot path allocates or hashes a string.  A snapshot
//! renders as stable JSON for humans and tooling, and as the wire codec
//! plus a CRC-64 seal for `Msg::StatusReply` frames.  Two same-seed runs
//! produce byte-identical snapshots — JSON and wire bytes both.

use std::collections::BTreeMap;

use rpcv_simnet::KernelProfile;
use rpcv_wire::{
    from_bytes, open_frame, seal_frame, to_bytes, Reader, WireDecode, WireEncode, WireError,
    WireWrite,
};

use crate::hist::Histogram;

/// Counters, gauges and histograms, each keyed and ordered by name.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TelemetrySnapshot {
    /// Monotone counters.
    pub counters: BTreeMap<String, u64>,
    /// Point-in-time gauges.
    pub gauges: BTreeMap<String, i64>,
    /// Latency histograms.
    pub hists: BTreeMap<String, Histogram>,
}

fn push_json_str(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

impl TelemetrySnapshot {
    /// Adds `v` to counter `name` (creating it at zero).
    pub fn add_counter(&mut self, name: &str, v: u64) {
        if let Some(c) = self.counters.get_mut(name) {
            *c += v;
        } else {
            self.counters.insert(name.to_owned(), v);
        }
    }

    /// Adds every `(field, value)` of a metrics struct's counters to
    /// `{prefix}.{field}`.
    pub fn add_counters<'a>(
        &mut self,
        prefix: &str,
        counters: impl IntoIterator<Item = (&'a str, u64)>,
    ) {
        for (field, v) in counters {
            self.add_counter(&format!("{prefix}.{field}"), v);
        }
    }

    /// Sets gauge `name` to `v` (last write wins).
    pub fn set_gauge(&mut self, name: &str, v: i64) {
        self.gauges.insert(name.to_owned(), v);
    }

    /// The histogram registered under `name`, created empty on first use.
    pub fn hist_mut(&mut self, name: &str) -> &mut Histogram {
        if !self.hists.contains_key(name) {
            self.hists.insert(name.to_owned(), Histogram::new());
        }
        self.hists.get_mut(name).unwrap()
    }

    /// Merges `h` into the histogram under `name`.
    pub fn merge_hist(&mut self, name: &str, h: &Histogram) {
        self.hist_mut(name).merge(h);
    }

    /// Folds every entry of `other` into this snapshot: counters add,
    /// gauges take `other`'s value, histograms merge.
    pub fn merge(&mut self, other: &TelemetrySnapshot) {
        for (k, v) in &other.counters {
            self.add_counter(k, *v);
        }
        for (k, v) in &other.gauges {
            self.set_gauge(k, *v);
        }
        for (k, h) in &other.hists {
            self.merge_hist(k, h);
        }
    }

    /// Adds the simnet kernel's per-actor-class event accounting under
    /// `{prefix}.`: sample and control totals, `{class}.{starts, delivers,
    /// handles, timers}`, and the `queue_depth` histogram.
    pub fn add_kernel_profile(&mut self, prefix: &str, p: &KernelProfile) {
        self.add_counter(&format!("{prefix}.samples"), p.samples());
        self.add_counter(&format!("{prefix}.controls"), p.controls());
        for (class, c) in p.classes() {
            self.add_counters(
                &format!("{prefix}.{class}"),
                [
                    ("starts", c.starts),
                    ("delivers", c.delivers),
                    ("handles", c.handles),
                    ("timers", c.timers),
                ],
            );
        }
        let h = self.hist_mut(&format!("{prefix}.queue_depth"));
        for (b, n) in p.depth_buckets() {
            h.merge_bucket(b, n);
        }
    }

    /// Value of counter `name` (0 when absent).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Value of gauge `name`, if present.
    pub fn gauge(&self, name: &str) -> Option<i64> {
        self.gauges.get(name).copied()
    }

    /// Histogram `name`, if present.
    pub fn hist(&self, name: &str) -> Option<&Histogram> {
        self.hists.get(name)
    }

    /// Stable JSON rendering: keys sorted, integers only, no whitespace
    /// dependence on platform.  Histograms render their count, sum and
    /// deterministic p50/p99 (nanoseconds) plus the non-zero buckets as
    /// `[index, occupancy]` pairs.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        out.push_str("{\n  \"counters\": {");
        for (i, (k, v)) in self.counters.iter().enumerate() {
            out.push_str(if i == 0 { "\n    " } else { ",\n    " });
            push_json_str(&mut out, k);
            out.push_str(&format!(": {v}"));
        }
        out.push_str("\n  },\n  \"gauges\": {");
        for (i, (k, v)) in self.gauges.iter().enumerate() {
            out.push_str(if i == 0 { "\n    " } else { ",\n    " });
            push_json_str(&mut out, k);
            out.push_str(&format!(": {v}"));
        }
        out.push_str("\n  },\n  \"histograms\": {");
        for (i, (k, h)) in self.hists.iter().enumerate() {
            out.push_str(if i == 0 { "\n    " } else { ",\n    " });
            push_json_str(&mut out, k);
            out.push_str(&format!(
                ": {{\"count\": {}, \"sum_ns\": {}, \"p50_ns\": {}, \"p99_ns\": {}, \"buckets\": [",
                h.count(),
                h.sum_nanos(),
                h.p50_nanos(),
                h.p99_nanos()
            ));
            for (j, (b, n)) in h.nonzero().enumerate() {
                if j > 0 {
                    out.push_str(", ");
                }
                out.push_str(&format!("[{b}, {n}]"));
            }
            out.push_str("]}");
        }
        out.push_str("\n  }\n}\n");
        out
    }

    /// Encodes and seals the snapshot into a CRC-64 framed byte vector
    /// (the payload of a `Msg::StatusReply`).
    pub fn seal(&self) -> Vec<u8> {
        seal_frame(to_bytes(self))
    }

    /// Verifies the CRC-64 seal and decodes a snapshot from `frame`.
    pub fn open(frame: &[u8]) -> Result<TelemetrySnapshot, WireError> {
        from_bytes(open_frame(frame)?)
    }
}

impl WireEncode for TelemetrySnapshot {
    fn encode<W: WireWrite + ?Sized>(&self, w: &mut W) {
        w.put_uvarint(self.counters.len() as u64);
        for (k, v) in &self.counters {
            w.put_str(k);
            w.put_uvarint(*v);
        }
        w.put_uvarint(self.gauges.len() as u64);
        for (k, v) in &self.gauges {
            w.put_str(k);
            w.put_ivarint(*v);
        }
        w.put_uvarint(self.hists.len() as u64);
        for (k, h) in &self.hists {
            w.put_str(k);
            h.encode(w);
        }
    }
}

impl WireDecode for TelemetrySnapshot {
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        /// Reads one name-keyed section, rejecting names that are not
        /// strictly ascending (unsorted or duplicate).
        fn section<T>(
            r: &mut Reader<'_>,
            value: impl Fn(&mut Reader<'_>) -> Result<T, WireError>,
        ) -> Result<BTreeMap<String, T>, WireError> {
            let mut out = BTreeMap::new();
            for _ in 0..r.get_seq_len()? {
                let k = r.get_string()?;
                let v = value(r)?;
                if out.keys().next_back().is_some_and(|last| *last >= k) {
                    return Err(WireError::InvalidTag { ty: "TelemetrySnapshot order", tag: 0 });
                }
                out.insert(k, v);
            }
            Ok(out)
        }
        let counters = section(r, |r| r.get_uvarint())?;
        let gauges = section(r, |r| r.get_ivarint())?;
        let hists = section(r, Histogram::decode)?;
        Ok(TelemetrySnapshot { counters, gauges, hists })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rpcv_simnet::SimDuration;

    fn sample() -> TelemetrySnapshot {
        let mut snap = TelemetrySnapshot::default();
        snap.add_counter("coord.reexecutions", 3);
        snap.add_counter("db.jobs", 41);
        snap.set_gauge("db.pending", 5);
        snap.hist_mut("span.submit_to_collect").record_gap(SimDuration::from_millis(120));
        snap.hist_mut("span.submit_to_collect").record_gap(SimDuration::from_millis(340));
        snap
    }

    #[test]
    fn counters_add_and_gauges_overwrite() {
        let mut snap = TelemetrySnapshot::default();
        snap.add_counter("a.x", 2);
        snap.add_counter("a.x", 3);
        snap.set_gauge("a.g", -4);
        snap.set_gauge("a.g", 9);
        assert_eq!(snap.counter("a.x"), 5);
        assert_eq!(snap.gauge("a.g"), Some(9));
        assert_eq!(snap.counter("missing"), 0);
    }

    #[test]
    fn merge_combines_all_kinds() {
        let mut a = TelemetrySnapshot::default();
        let mut b = TelemetrySnapshot::default();
        a.add_counter("n", 1);
        b.add_counter("n", 2);
        b.set_gauge("g", 7);
        b.hist_mut("h").record_gap(SimDuration::from_millis(3));
        a.merge(&b);
        a.merge(&b);
        assert_eq!(a.counter("n"), 5);
        assert_eq!(a.gauge("g"), Some(7));
        assert_eq!(a.hist("h").unwrap().count(), 2);
    }

    #[test]
    fn counters_export_under_prefix_and_add_up() {
        let mut snap = TelemetrySnapshot::default();
        snap.add_counters("db", [("jobs", 7), ("pending", 2), ("tasks", 0)]);
        snap.add_counters("db", [("jobs", 1)]);
        assert_eq!(snap.counter("db.jobs"), 8);
        assert_eq!(snap.counter("db.pending"), 2);
        assert!(snap.counters.contains_key("db.tasks"), "zero counters are exported too");
    }

    #[test]
    fn json_is_stable_and_sorted() {
        let a = sample().to_json();
        let b = sample().to_json();
        assert_eq!(a, b);
        assert!(a.contains("\"coord.reexecutions\": 3"));
        assert!(a.find("coord.reexecutions").unwrap() < a.find("db.jobs").unwrap());
        assert!(a.contains("\"p50_ns\""));
    }

    #[test]
    fn wire_roundtrip_and_seal() {
        let snap = sample();
        let bytes = to_bytes(&snap);
        let back: TelemetrySnapshot = from_bytes(&bytes).unwrap();
        assert_eq!(back, snap);

        let sealed = snap.seal();
        let opened = TelemetrySnapshot::open(&sealed).unwrap();
        assert_eq!(opened, snap);
    }

    #[test]
    fn every_byte_flip_of_a_sealed_snapshot_is_rejected() {
        let sealed = sample().seal();
        for i in 0..sealed.len() {
            for bit in 0..8 {
                let mut m = sealed.clone();
                m[i] ^= 1 << bit;
                assert!(TelemetrySnapshot::open(&m).is_err(), "byte {i} bit {bit} mutant decoded");
            }
        }
    }

    #[test]
    fn decode_rejects_unsorted_keys() {
        // Hand-encoded counter sections: the encoder can only emit sorted
        // names, so descending and duplicate names are written directly.
        let counters = |names: &[&str]| {
            let mut w = rpcv_wire::Writer::new();
            w.put_uvarint(names.len() as u64);
            for name in names {
                w.put_str(name);
                w.put_uvarint(1);
            }
            w.put_uvarint(0); // no gauges
            w.put_uvarint(0); // no histograms
            w.into_vec()
        };
        assert!(from_bytes::<TelemetrySnapshot>(&counters(&["a", "b"])).is_ok());
        assert!(from_bytes::<TelemetrySnapshot>(&counters(&["b", "a"])).is_err(), "descending");
        assert!(from_bytes::<TelemetrySnapshot>(&counters(&["a", "a"])).is_err(), "duplicate");
    }

    #[test]
    fn accessors_hit_sorted_entries() {
        let snap = sample();
        assert_eq!(snap.counter("db.jobs"), 41);
        assert_eq!(snap.counter("nope"), 0);
        assert_eq!(snap.gauge("db.pending"), Some(5));
        assert_eq!(snap.hist("span.submit_to_collect").unwrap().count(), 2);
    }
}
