//! C1 — fine-grained concurrency: per-contributor sharded locking under
//! N threads of mixed upload/query traffic over the in-process
//! transport.
//!
//! Each measured iteration builds a fresh 8-contributor store, then
//! drives `threads` workers through alternating uploads (each worker
//! writes its own contributor) and consumer queries (round-robin across
//! contributors). Throughput is reported in requests/second. See
//! EXPERIMENTS.md C1 for recorded sweeps (including the retired
//! global-lock baseline and the contributor-count axis, produced by the
//! `report` binary).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use sensorsafe_bench::{mixed_workload, run_mixed_traffic};
use std::hint::black_box;
use std::time::Duration;

const CONTRIBUTORS: usize = 8;
const OPS_PER_THREAD: usize = 100;

fn bench_mixed_traffic(c: &mut Criterion) {
    let mut group = c.benchmark_group("c1_mixed_traffic_8_contributors");
    group.sample_size(10);
    group.measurement_time(Duration::from_millis(400));
    for threads in [1usize, 2, 4, 8] {
        group.throughput(Throughput::Elements((threads * OPS_PER_THREAD) as u64));
        group.bench_with_input(
            BenchmarkId::new("sharded", threads),
            &threads,
            |b, &threads| {
                b.iter(|| {
                    let workload = mixed_workload(CONTRIBUTORS);
                    black_box(run_mixed_traffic(&workload, threads, OPS_PER_THREAD))
                })
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_mixed_traffic);
criterion_main!(benches);
