//! Criterion bench: central collector ingestion, one-by-one vs batched.
//!
//! Backs the Figure-5 discussion: per-cycle collection cost as the
//! monitored-node count grows.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use ppc_node::{Level, NodeId, OperatingState};
use ppc_simkit::SimTime;
use ppc_telemetry::{Collector, NodeSample};

fn samples(n: u32, at: u64) -> Vec<NodeSample> {
    (0..n)
        .map(|i| NodeSample {
            node: NodeId(i),
            at: SimTime::from_secs(at),
            state: OperatingState {
                cpu_util: 0.7,
                mem_used_bytes: 8 << 30,
                nic_bytes: 1_000_000,
            },
            level: Level::new(9),
            power_w: 250.0 + i as f64,
        })
        .collect()
}

fn bench_collector(c: &mut Criterion) {
    let mut group = c.benchmark_group("collector_ingest");
    for n in [16u32, 128, 1_024] {
        group.throughput(Throughput::Elements(n as u64));
        group.bench_with_input(BenchmarkId::new("sequential", n), &n, |b, &n| {
            let mut collector = Collector::new();
            let mut at = 0;
            b.iter(|| {
                at += 1;
                for s in samples(n, at) {
                    collector.ingest(s);
                }
                black_box(collector.latest(NodeId(n - 1)))
            })
        });
        group.bench_with_input(BenchmarkId::new("batched", n), &n, |b, &n| {
            let mut collector = Collector::new();
            let mut at = 0;
            b.iter(|| {
                at += 1;
                collector.ingest_batch(&samples(n, at));
                black_box(collector.latest(NodeId(n - 1)))
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_collector);
criterion_main!(benches);
