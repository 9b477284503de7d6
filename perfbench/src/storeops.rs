//! Data-store pieces shared by the `mixed` and `study` workloads: the
//! durable store's directory, the benchmark's own key ring, and the
//! decomposed replay of a consumer query.

use crate::harness::{post, Counters, Kind, Phase, Tracer};
use crate::report::{Layers, Outcome};
use sensorsafe_core::auth::{ApiKey, KeyRing, Principal, Role};
use sensorsafe_core::datastore::{shared_view, shared_view_to_json, DataStoreService};
use sensorsafe_core::net::{Request, Service, Status};
use sensorsafe_core::obsv::{audit, awareness};
use sensorsafe_core::store::Query;
use sensorsafe_core::types::{ConsumerId, ContributorId};
use sensorsafe_core::{json, Value};
use std::path::PathBuf;

/// The data directory `sensorsafe_bench::durable_workload_with` made for
/// the live workload. The builder keeps the path private; it names the
/// directory after this process under the temp dir, and only one durable
/// workload is alive at a time here.
pub fn workload_dir() -> PathBuf {
    let prefix = format!("sensorsafe-c2-{}-", std::process::id());
    let mut found: Vec<PathBuf> = std::fs::read_dir(std::env::temp_dir())
        .expect("temp dir readable")
        .filter_map(|e| e.ok())
        .filter(|e| e.file_name().to_string_lossy().starts_with(&prefix))
        .map(|e| e.path())
        .collect();
    assert_eq!(
        found.len(),
        1,
        "exactly one live durable workload directory"
    );
    found.pop().expect("one directory")
}

/// The journal's active (highest-numbered) segment in `dir`: its number
/// and size. Sealed segments only ever shrink away (garbage collection),
/// so growth is read from the active one.
pub fn active_segment(dir: &std::path::Path) -> (u64, u64) {
    std::fs::read_dir(dir)
        .expect("data dir readable")
        .filter_map(|e| e.ok())
        .filter_map(|e| {
            let name = e.file_name().to_string_lossy().into_owned();
            let n = name.strip_prefix("journal.seg-")?.parse::<u64>().ok()?;
            Some((n, e.metadata().ok()?.len()))
        })
        .max()
        .unwrap_or((0, 0))
}

/// Registers an account through the API and returns its key.
pub fn register(store: &DataStoreService, admin: &str, name: &str, role: &str) -> String {
    let resp = store.handle(&Request::post_json(
        "/api/register",
        &json!({"key": admin, "name": name, "role": role}),
    ));
    assert_eq!(resp.status, Status::Created, "registration of {name}");
    resp.json_body().expect("registration reply is JSON")["api_key"]
        .as_str()
        .expect("api key in registration reply")
        .to_string()
}

/// A key ring holding the workload's principals under the same keys the
/// store issued, so `KeyRing::authenticate` is timed on a ring of the
/// workload's size.
pub fn key_ring(principals: &[(String, String, Role)]) -> KeyRing {
    let ring = KeyRing::new();
    for (key, name, role) in principals {
        ring.register_key(
            &ApiKey::parse(key).expect("hex key"),
            Principal {
                name: name.clone(),
                role: *role,
            },
        );
    }
    ring
}

/// The consumer query body: `consumer_key` reads `contributor` over
/// `[start, end)`.
pub fn query_request(consumer_key: &str, contributor: &str, start: i64, end: i64) -> Request {
    post(
        "/api/query",
        json!({
            "key": consumer_key,
            "contributor": contributor,
            "query": {"time": {"start": start, "end": end}},
        })
        .to_string(),
    )
}

/// Replays a consumer query in-process: `Service::handle` of the same
/// request, then the handler's public calls one by one. Returns the
/// decomposed reply body so the caller can check it.
pub fn replay_query(
    store: &DataStoreService,
    ring: &KeyRing,
    req: &Request,
    tracer: &mut Tracer,
    trace: u64,
    parent: u32,
) -> Result<Vec<u8>, String> {
    let handled = tracer.time(trace, parent, "datastore.handle_query", || {
        store.handle(req)
    });
    if handled.status != Status::Ok {
        return Err(format!("in-process query got {}", handled.status.code()));
    }
    let root = tracer.open();
    let start = tracer.now();
    let (body, query) = tracer.time(trace, root, "json.body_decode", || {
        let body = req.json().expect("query body");
        let query = Query::from_json(&body["query"]).expect("query spec");
        (body, query)
    });
    let key = body["key"].as_str().unwrap_or_default();
    let contributor = body["contributor"].as_str().unwrap_or_default().to_string();
    let principal = tracer
        .time(trace, root, "auth.check", || ring.authenticate(key))
        .ok_or("key ring rejected the consumer key")?;
    let ctx = tracer
        .time(trace, root, "datastore.consumer", || {
            store
                .state()
                .consumer(&ConsumerId::new(principal.name.clone()))
        })
        .ok_or("consumer not registered")?
        .to_ctx();
    let consumer_scope = audit::consumer_scope(principal.name.clone());
    let ledger_scope = audit::ledger_scope(store.audit_ledger(), contributor.clone());
    let id = ContributorId::new(contributor.clone());
    let account = tracer
        .time(trace, root, "datastore.read_lock", || {
            store.state().read_contributor(&id)
        })
        .ok_or("contributor missing")?;
    let aware = awareness::awareness_scope(store.awareness(), contributor, account.rule_epoch);
    tracer.time(trace, root, "store.query", || {
        account.store.query(&query).len()
    });
    let view = tracer.time(trace, root, "policy.view", || {
        shared_view(&account, &ctx, &query, store.graph())
    });
    let payload = tracer.time(trace, root, "json.view_encode", || {
        shared_view_to_json(&view)
    });
    drop(account);
    let text = tracer.time(trace, root, "json.serialize", || Value::to_string(&payload));
    drop(aware);
    tracer.time(trace, root, "obsv.ledger_sync", || drop(ledger_scope));
    drop(consumer_scope);
    tracer.close(trace, root, parent, "replay.query", start);
    if text.as_bytes() != handled.body.as_slice() {
        return Err("decomposed query reply differs from the handler's".into());
    }
    Ok(text.into_bytes())
}

/// Counter- and span-based per-layer numbers of the data-store side,
/// shared by `mixed` and `study` (whose journal is idle, so upload numbers read 0).
pub fn store_layers(out: &mut Outcome, layers: &Layers, phase: &Phase, counters: &Counters) {
    let uploads = phase.count(Kind::Upload).max(1) as f64;
    let queries = phase.count(Kind::Query).max(1) as f64;
    let d = |family: &str| counters.delta(family, None);
    let ratio = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
    let decisions = d("sensorsafe_policy_decisions_total");
    let shared = counters.delta(
        "sensorsafe_policy_decisions_total",
        Some("decision=\"allowed\""),
    ) + counters.delta(
        "sensorsafe_policy_decisions_total",
        Some("decision=\"abstracted\""),
    );
    let upload_children = layers.us("replay.upload") - layers.self_us("replay.upload");
    let query_children = layers.us("replay.query") - layers.self_us("replay.query");
    let has_uploads = phase.count(Kind::Upload) > 0;
    out.metrics.extend([
        (
            "datastore.handle_upload_us",
            layers.us("datastore.handle_upload"),
        ),
        (
            "datastore.handle_query_us",
            layers.us("datastore.handle_query"),
        ),
        (
            "datastore.other_upload_us",
            if has_uploads {
                layers.us("datastore.handle_upload") - upload_children
            } else {
                0.0
            },
        ),
        (
            "datastore.other_query_us",
            layers.us("datastore.handle_query") - (query_children - layers.us("store.query")),
        ),
        (
            "datastore.lock_wait_ms",
            d("sensorsafe_datastore_lock_wait_seconds_sum") * 1e3,
        ),
        ("store.insert_us", layers.us("store.insert")),
        ("store.commit_wait_us", layers.us("store.commit_wait")),
        (
            "store.fsyncs_per_upload",
            if has_uploads {
                d("sensorsafe_store_wal_fsyncs_total") / uploads
            } else {
                0.0
            },
        ),
        (
            "store.commit_batch_records",
            ratio(
                d("sensorsafe_store_wal_commit_batch_records_sum"),
                d("sensorsafe_store_wal_commit_batch_records_count"),
            ),
        ),
        (
            "store.merges_per_upload",
            if has_uploads {
                d("sensorsafe_store_segment_merges_total") / uploads
            } else {
                0.0
            },
        ),
        ("store.query_us", layers.us("store.query")),
        (
            "store.scan_segments_per_query",
            ratio(
                d("sensorsafe_store_query_scan_segments_sum"),
                d("sensorsafe_store_query_scan_segments_count"),
            ),
        ),
        (
            "policy.view_us",
            layers.us("policy.view") - layers.us("store.query"),
        ),
        ("policy.decisions_per_query", decisions / queries),
        ("policy.shared_ratio", ratio(shared, decisions)),
        (
            "obsv.ledger_appends_per_query",
            d("sensorsafe_audit_ledger_appends_total") / queries,
        ),
        (
            "obsv.ledger_fsyncs_per_query",
            d("sensorsafe_audit_ledger_fsyncs_total") / queries,
        ),
        ("obsv.ledger_sync_us", layers.us("obsv.ledger_sync")),
    ]);
}
