//! F2 — Fig. 2's authentication layer: "Every interaction with both
//! servers has to go through the user authentication layer."
//!
//! Measures the per-request cost of that layer (API-key hash + lookup),
//! its scaling with registered-key count, and the end-to-end overhead
//! on a small query (authenticated vs the same work with auth skipped —
//! approximated by the unauthenticated /healthz endpoint).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use sensorsafe_core::auth::{ApiKey, KeyRing, Principal, Role};
use sensorsafe_core::datastore::{DataStoreConfig, DataStoreService};
use sensorsafe_core::net::{Request, Service};
use sensorsafe_core::{json, Value};
use std::hint::black_box;

fn bench_keyring_lookup_scaling(c: &mut Criterion) {
    let mut group = c.benchmark_group("f2_keyring_authenticate");
    for n in [1usize, 100, 10_000] {
        let ring = KeyRing::new();
        let mut probe = String::new();
        for i in 0..n {
            let key = ring.register(Principal {
                name: format!("user-{i}"),
                role: Role::Consumer,
            });
            if i == n / 2 {
                probe = key.to_hex();
            }
        }
        group.bench_with_input(BenchmarkId::from_parameter(n), &ring, |b, ring| {
            b.iter(|| black_box(ring.authenticate(black_box(&probe)).is_some()))
        });
    }
    group.finish();
}

fn bench_key_generation(c: &mut Criterion) {
    c.bench_function("f2_api_key_generate", |b| {
        b.iter(|| black_box(ApiKey::generate().to_hex()))
    });
}

fn bench_request_with_and_without_auth(c: &mut Criterion) {
    let (svc, admin) = DataStoreService::new(DataStoreConfig::default());
    let resp = svc.handle(&Request::post_json(
        "/api/register",
        &json!({"key": (admin.to_hex()), "name": "alice", "role": "contributor"}),
    ));
    let alice_key = resp.json_body().unwrap()["api_key"]
        .as_str()
        .unwrap()
        .to_string();
    let mut group = c.benchmark_group("f2_request_path");
    // Unauthenticated endpoint (no auth-layer work).
    let health = Request::get("/healthz");
    group.bench_function("healthz_no_auth", |b| {
        b.iter(|| black_box(svc.handle(black_box(&health)).status))
    });
    // Authenticated endpoint doing trivial work (empty rules read).
    let rules_get = Request::post_json("/api/rules/get", &json!({"key": alice_key}));
    group.bench_function("rules_get_authenticated", |b| {
        b.iter(|| black_box(svc.handle(black_box(&rules_get)).status))
    });
    // Rejected request (bad key): the auth layer's failure path.
    let bad = Request::post_json("/api/rules/get", &json!({"key": ("0".repeat(64))}));
    group.bench_function("rules_get_rejected", |b| {
        b.iter(|| black_box(svc.handle(black_box(&bad)).status))
    });
    group.finish();
    let _: Value = json!(null);
}

criterion_group!(
    benches,
    bench_keyring_lookup_scaling,
    bench_key_generation,
    bench_request_with_and_without_auth
);
criterion_main!(benches);
