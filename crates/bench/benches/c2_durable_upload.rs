//! C2 — durable upload throughput under journal group commit: batched
//! commits vs the per-record (`unbatched`) baseline, sweeping batch
//! settings and upload concurrency.
//!
//! Each measured iteration builds a fresh durable 2-contributor store
//! (journal in a temp dir) under the given [`GroupCommitConfig`], then
//! drives `threads` workers through single-packet durable uploads;
//! every ack means a completed `write`+`fsync` covering that record.
//! With threads > contributors, concurrent uploads to the same account
//! share batches, so the batched configs ack the same uploads with far
//! fewer fsyncs. Throughput is requests/second; the fsync-vs-uploads
//! counter sweep is produced by the `report` binary and recorded in
//! EXPERIMENTS.md C2.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use sensorsafe_bench::{durable_workload, run_durable_uploads};
use sensorsafe_core::store::GroupCommitConfig;
use std::hint::black_box;
use std::time::Duration;

const CONTRIBUTORS: usize = 2;
const OPS_PER_THREAD: usize = 50;

fn configs() -> Vec<(&'static str, GroupCommitConfig)> {
    vec![
        ("unbatched", GroupCommitConfig::unbatched()),
        ("batch64_500us", GroupCommitConfig::default()),
        (
            "batch16_200us",
            GroupCommitConfig {
                max_batch: 16,
                max_delay: Duration::from_micros(200),
            },
        ),
        (
            "batch256_2ms",
            GroupCommitConfig {
                max_batch: 256,
                max_delay: Duration::from_millis(2),
            },
        ),
    ]
}

fn bench_durable_uploads(c: &mut Criterion) {
    let mut group = c.benchmark_group("c2_durable_upload_2_contributors");
    group.sample_size(10);
    group.measurement_time(Duration::from_millis(400));
    for threads in [1usize, 4, 8] {
        group.throughput(Throughput::Elements((threads * OPS_PER_THREAD) as u64));
        for (label, config) in configs() {
            group.bench_with_input(BenchmarkId::new(label, threads), &threads, |b, &threads| {
                b.iter(|| {
                    let workload = durable_workload(config, CONTRIBUTORS);
                    black_box(run_durable_uploads(&workload, threads, OPS_PER_THREAD))
                })
            });
        }
    }
    group.finish();
}

criterion_group!(benches, bench_durable_uploads);
criterion_main!(benches);
