//! Deterministic metrics registry: counters, gauges, fixed-bucket
//! histograms.
//!
//! Instruments are registered once by static name and then updated
//! through copyable index handles, so hot-path updates are a single
//! `Vec` access — no string hashing, no map lookups, no allocation.
//! Export and fingerprinting walk a `BTreeMap` of names, so iteration
//! order (and therefore the rendered text and the FNV-1a hash) is
//! deterministic. Nothing here reads the wall clock: anything folded
//! into [`MetricsRegistry::fingerprint`] must be a pure function of the
//! seeded simulation, because the determinism gate compares the value
//! across same-seed runs. Wall-clock self-profiling lives in
//! [`crate::profile`] instead, outside the fingerprint.

use ppc_simkit::hash::Fnv1a;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// Handle to a registered counter.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CounterHandle(usize);

/// Handle to a registered gauge.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GaugeHandle(usize);

/// Handle to a registered histogram.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HistogramHandle(usize);

#[derive(Debug, Clone, PartialEq)]
enum Instrument {
    Counter(u64),
    Gauge(f64),
    Histogram {
        /// Upper bounds of the finite buckets, ascending; an implicit
        /// +inf bucket follows.
        bounds: Vec<f64>,
        /// One count per finite bucket, plus the overflow bucket.
        counts: Vec<u64>,
        sum: f64,
        count: u64,
    },
}

impl Instrument {
    fn kind(&self) -> &'static str {
        match self {
            Instrument::Counter(_) => "counter",
            Instrument::Gauge(_) => "gauge",
            Instrument::Histogram { .. } => "histogram",
        }
    }
}

/// Deterministic instrument registry. See the module docs.
#[derive(Debug, Clone, Default)]
pub struct MetricsRegistry {
    names: BTreeMap<&'static str, usize>,
    instruments: Vec<Instrument>,
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    fn register(&mut self, name: &'static str, make: impl FnOnce() -> Instrument) -> usize {
        if let Some(&idx) = self.names.get(name) {
            let fresh = make();
            assert_eq!(
                self.instruments[idx].kind(),
                fresh.kind(),
                "instrument `{name}` re-registered with a different kind"
            );
            return idx;
        }
        let idx = self.instruments.len();
        self.instruments.push(make());
        self.names.insert(name, idx);
        idx
    }

    /// Registers (or retrieves) a counter.
    pub fn counter(&mut self, name: &'static str) -> CounterHandle {
        CounterHandle(self.register(name, || Instrument::Counter(0)))
    }

    /// Registers (or retrieves) a gauge.
    pub fn gauge(&mut self, name: &'static str) -> GaugeHandle {
        GaugeHandle(self.register(name, || Instrument::Gauge(0.0)))
    }

    /// Registers (or retrieves) a fixed-bucket histogram with the given
    /// ascending finite bucket upper bounds (an overflow bucket is
    /// implicit).
    ///
    /// # Panics
    /// Panics if `bounds` is empty or not strictly ascending, or if the
    /// name is already registered with different bounds.
    pub fn histogram(&mut self, name: &'static str, bounds: &[f64]) -> HistogramHandle {
        assert!(!bounds.is_empty(), "histogram `{name}` needs bounds");
        assert!(
            bounds.windows(2).all(|w| w[0] < w[1]),
            "histogram `{name}` bounds must be strictly ascending"
        );
        let idx = self.register(name, || Instrument::Histogram {
            bounds: bounds.to_vec(),
            counts: vec![0; bounds.len() + 1],
            sum: 0.0,
            count: 0,
        });
        if let Instrument::Histogram { bounds: have, .. } = &self.instruments[idx] {
            assert_eq!(
                have.len(),
                bounds.len(),
                "histogram `{name}` re-registered with different bounds"
            );
        }
        HistogramHandle(idx)
    }

    /// Adds `n` to a counter.
    pub fn inc(&mut self, h: CounterHandle, n: u64) {
        if let Instrument::Counter(v) = &mut self.instruments[h.0] {
            *v += n;
        }
    }

    /// Sets a gauge.
    pub fn set(&mut self, h: GaugeHandle, value: f64) {
        if let Instrument::Gauge(v) = &mut self.instruments[h.0] {
            *v = value;
        }
    }

    /// Records an observation into a histogram.
    pub fn observe(&mut self, h: HistogramHandle, value: f64) {
        if let Instrument::Histogram {
            bounds,
            counts,
            sum,
            count,
        } = &mut self.instruments[h.0]
        {
            let idx = bounds.partition_point(|b| value > *b);
            counts[idx] += 1;
            *sum += value;
            *count += 1;
        }
    }

    /// Current value of a counter.
    pub fn counter_value(&self, h: CounterHandle) -> u64 {
        match self.instruments[h.0] {
            Instrument::Counter(v) => v,
            _ => 0,
        }
    }

    /// Number of registered instruments.
    pub fn len(&self) -> usize {
        self.instruments.len()
    }

    /// True if nothing is registered.
    pub fn is_empty(&self) -> bool {
        self.instruments.is_empty()
    }

    /// Order-sensitive FNV-1a hash over every instrument in name order:
    /// name, kind, and exact value bits. Joins the journal and span-tree
    /// hashes in the determinism gate, so a single diverging count or
    /// float bit across same-seed runs fails CI.
    pub fn fingerprint(&self) -> u64 {
        let mut h = Fnv1a::new();
        for (name, &idx) in &self.names {
            h.write_bytes(name.as_bytes());
            match &self.instruments[idx] {
                Instrument::Counter(v) => {
                    h.write_u8(0);
                    h.write_u64(*v);
                }
                Instrument::Gauge(v) => {
                    h.write_u8(1);
                    h.write_f64(*v);
                }
                Instrument::Histogram {
                    bounds,
                    counts,
                    sum,
                    count,
                } => {
                    h.write_u8(2);
                    h.write_u64(bounds.len() as u64);
                    for b in bounds {
                        h.write_f64(*b);
                    }
                    for c in counts {
                        h.write_u64(*c);
                    }
                    h.write_f64(*sum);
                    h.write_u64(*count);
                }
            }
        }
        h.finish()
    }

    /// Owned snapshot of every instrument, in name order.
    pub fn dump(&self) -> Vec<MetricDump> {
        self.names
            .iter()
            .map(|(name, &idx)| {
                let value = match &self.instruments[idx] {
                    Instrument::Counter(v) => MetricValue::Counter(*v),
                    Instrument::Gauge(v) => MetricValue::Gauge(*v),
                    Instrument::Histogram {
                        bounds,
                        counts,
                        sum,
                        count,
                    } => MetricValue::Histogram(HistogramDump {
                        bounds: bounds.clone(),
                        counts: counts.clone(),
                        sum: *sum,
                        count: *count,
                    }),
                };
                MetricDump {
                    name: (*name).to_string(),
                    value,
                }
            })
            .collect()
    }
}

/// Owned snapshot of one instrument.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MetricDump {
    /// Instrument name.
    pub name: String,
    /// Value by kind.
    pub value: MetricValue,
}

/// Owned instrument value.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum MetricValue {
    /// Monotonic count.
    Counter(u64),
    /// Last-set value.
    Gauge(f64),
    /// Fixed-bucket distribution.
    Histogram(HistogramDump),
}

/// Owned histogram state.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HistogramDump {
    /// Finite bucket upper bounds, ascending.
    pub bounds: Vec<f64>,
    /// Counts per finite bucket plus the overflow bucket.
    pub counts: Vec<u64>,
    /// Sum of observations.
    pub sum: f64,
    /// Number of observations.
    pub count: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_gauges_histograms() {
        let mut m = MetricsRegistry::new();
        let c = m.counter("commands_applied");
        let g = m.gauge("power_w");
        let h = m.histogram("selection_size", &[1.0, 2.0, 4.0]);
        m.inc(c, 3);
        m.set(g, 812.5);
        for v in [0.0, 1.0, 3.0, 9.0] {
            m.observe(h, v);
        }
        assert_eq!(m.counter_value(c), 3);
        let dump = m.dump();
        assert_eq!(dump.len(), 3);
        // BTreeMap order: commands_applied, power_w, selection_size.
        assert_eq!(dump[0].name, "commands_applied");
        assert_eq!(dump[1].value, MetricValue::Gauge(812.5));
        let MetricValue::Histogram(hd) = &dump[2].value else {
            panic!("expected histogram");
        };
        // 0.0,1.0 → ≤1 bucket; 3.0 → ≤4 bucket; 9.0 → overflow.
        assert_eq!(hd.counts, vec![2, 0, 1, 1]);
        assert_eq!(hd.count, 4);
        assert_eq!(hd.sum, 13.0);
    }

    #[test]
    fn registration_is_idempotent() {
        let mut m = MetricsRegistry::new();
        let a = m.counter("x");
        let b = m.counter("x");
        assert_eq!(a, b);
        assert_eq!(m.len(), 1);
    }

    #[test]
    #[should_panic(expected = "different kind")]
    fn kind_conflict_is_rejected() {
        let mut m = MetricsRegistry::new();
        m.counter("x");
        m.gauge("x");
    }

    #[test]
    #[should_panic(expected = "ascending")]
    fn unsorted_bounds_rejected() {
        let mut m = MetricsRegistry::new();
        m.histogram("h", &[2.0, 1.0]);
    }

    #[test]
    fn fingerprint_tracks_values_and_names() {
        let run = |n: u64| {
            let mut m = MetricsRegistry::new();
            let c = m.counter("a");
            m.inc(c, n);
            m.fingerprint()
        };
        assert_eq!(run(1), run(1));
        assert_ne!(run(1), run(2));
        let mut other = MetricsRegistry::new();
        let c = other.counter("b");
        other.inc(c, 1);
        assert_ne!(run(1), other.fingerprint(), "name must matter");
    }

    #[test]
    fn fingerprint_is_registration_order_independent() {
        // Name order, not registration order, drives the hash: two
        // components registering in different orders must agree.
        let mut a = MetricsRegistry::new();
        a.counter("x");
        a.gauge("y");
        let mut b = MetricsRegistry::new();
        b.gauge("y");
        b.counter("x");
        assert_eq!(a.fingerprint(), b.fingerprint());
    }

    #[test]
    fn dump_round_trips() {
        let mut m = MetricsRegistry::new();
        let h = m.histogram("lat", &[0.5]);
        m.observe(h, 0.2);
        let dump = m.dump();
        let json = serde_json::to_string(&dump[0]).unwrap();
        let back: MetricDump = serde_json::from_str(&json).unwrap();
        assert_eq!(back, dump[0]);
    }
}
