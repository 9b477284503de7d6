//! A3 — §5.3 privacy-rule-aware data collection.
//!
//! End-to-end device runs over Alice's day: plain upload-everything vs
//! rule-aware collection under her §6 rules. Timing here; the data-
//! volume and sensor-time savings are printed by the `report` binary.

use criterion::{criterion_group, criterion_main, Criterion};
use sensorsafe_bench::alice_scenario;
use sensorsafe_core::net::{LocalTransport, Request, Transport};
use sensorsafe_core::{json, ContributorDevice, Deployment};
use std::hint::black_box;
use std::sync::Arc;

fn device_rig(rules: sensorsafe_core::Value) -> (Arc<dyn Transport>, String) {
    let mut deployment = Deployment::in_process();
    let store = deployment.add_store("s1");
    let alice = deployment.register_contributor("s1", "alice").unwrap();
    alice.set_rules(&rules).unwrap();
    let transport: Arc<dyn Transport> = Arc::new(LocalTransport::new(Arc::new(store)));
    (transport, alice.api_key.clone())
}

fn alice_rules() -> sensorsafe_core::Value {
    json!([
        {"Action": "Allow"},
        {"Context": ["Drive"], "Action": "Deny"},
    ])
}

fn bench_device_runs(c: &mut Criterion) {
    let scenario = alice_scenario(9);
    let mut group = c.benchmark_group("a3_device_day_run");
    group.sample_size(10); // each iteration renders + uploads a full day
    {
        let (transport, key) = device_rig(alice_rules());
        let device = ContributorDevice::new(transport, key);
        group.bench_function("plain_upload_everything", |b| {
            b.iter(|| black_box(device.run_scenario(&scenario).unwrap().0.uploaded_samples))
        });
    }
    {
        let (transport, key) = device_rig(alice_rules());
        let device = ContributorDevice::new(transport, key).with_rule_aware(true);
        group.bench_function("rule_aware", |b| {
            b.iter(|| black_box(device.run_scenario(&scenario).unwrap().0.uploaded_samples))
        });
    }
    {
        // Nothing shareable: the device should be *fastest* (sensors
        // off, no uploads).
        let (transport, key) = device_rig(json!([]));
        let device = ContributorDevice::new(transport, key).with_rule_aware(true);
        group.bench_function("rule_aware_nothing_shared", |b| {
            b.iter(|| black_box(device.run_scenario(&scenario).unwrap().0.sensor_off_secs))
        });
    }
    group.finish();
}

fn bench_rule_download(c: &mut Criterion) {
    let (transport, key) = device_rig(alice_rules());
    let device = ContributorDevice::new(transport.clone(), key.clone());
    c.bench_function("a3_rules_download", |b| {
        b.iter(|| black_box(device.download_rules().unwrap().len()))
    });
    // Keep transport alive explicitly (the rig's store lives in it).
    let _ = transport.round_trip(&Request::get("/healthz"));
    let _ = key;
}

criterion_group!(benches, bench_device_runs, bench_rule_download);
criterion_main!(benches);
