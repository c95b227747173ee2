//! Benchmark of the gossip substrate hot path: FIFO buffer insertion.

use criterion::{criterion_group, criterion_main, Criterion};
use fss_gossip::{FifoBuffer, SegmentId};

fn full_buffer() -> FifoBuffer {
    let mut buffer = FifoBuffer::new(600);
    for i in 0..600u64 {
        buffer.insert(SegmentId(1_000 + i));
    }
    buffer
}

fn bench_buffer(c: &mut Criterion) {
    let mut group = c.benchmark_group("buffer");

    group.bench_function("insert_with_eviction", |b| {
        let mut buffer = full_buffer();
        let mut next = 2_000u64;
        b.iter(|| {
            buffer.insert(SegmentId(next));
            next += 1;
        })
    });
    group.finish();
}

criterion_group!(benches, bench_buffer);
criterion_main!(benches);
