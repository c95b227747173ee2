//! Benchmarks of the gossip substrate hot paths: FIFO buffer operations
//! and buffer-map encoding.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use fss_gossip::{BufferMap, FifoBuffer, SegmentId};

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

    let buffer = full_buffer();
    let wanted: Vec<SegmentId> = (0..100).map(|i| SegmentId(1_000 + i * 6)).collect();
    group.bench_function("positions_of_100", |b| {
        b.iter(|| buffer.positions_of(black_box(&wanted)))
    });
    group.bench_function("missing_in_range_600", |b| {
        b.iter(|| buffer.missing_in_range(SegmentId(1_000), SegmentId(1_599)))
    });

    group.bench_function("buffermap_build_and_encode", |b| {
        b.iter(|| BufferMap::from_buffer(&buffer, 600).encode())
    });
    let encoded = BufferMap::from_buffer(&buffer, 600).encode();
    group.bench_function("buffermap_decode", |b| {
        b.iter(|| BufferMap::decode(encoded.clone()).unwrap())
    });
    group.finish();
}

criterion_group!(benches, bench_buffer);
criterion_main!(benches);
