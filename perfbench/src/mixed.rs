//! `mixed`: device uploads beside consumer point queries on one durable
//! store (journal engine, default group commit, file-backed audit ledger).
//!
//! Each client alternates a single-packet upload that continues one of
//! its own contributors' streams (so no account ever has two uploads in
//! flight) with a consumer query over the 8-packet preload window. The
//! run ends by reopening the store from its data directory.

use crate::harness::{
    drive, family_sum, median, post, scrape, snippet, Client, Kind, Rng, Stop, Tracer,
};
use crate::report::{end_to_end, Layers, Outcome};
use crate::storeops::{
    active_segment, key_ring, query_request, register, replay_query, store_layers, workload_dir,
};
use crate::{measure, save_spans, set_up_repeatedly, Measured, RunArgs, CLIENTS, SEGMENTS};
use sensorsafe_bench::{chest_packets, durable_workload_with, DurableWorkload, DAY_START};
use sensorsafe_core::auth::{KeyRing, Role};
use sensorsafe_core::datastore::{shared_view_from_json, DataStoreConfig, DataStoreService};
use sensorsafe_core::net::{EventedConfig, HttpClient, Request, Response, Server, Service, Status};
use sensorsafe_core::types::{ContributorId, WaveSegment};
use sensorsafe_core::{json, Value};
use std::sync::{Arc, OnceLock};
use std::time::Instant;

/// Packets preloaded per contributor before traffic starts.
const PRELOAD: usize = 8;
/// Samples per chest packet.
const PACKET_SAMPLES: usize = 64;
/// Stream continuation packets rendered ahead per contributor.
const ROUNDS: usize = 4096;
/// Ops per client in the warm-up's journal-growth probe.
const JOURNAL_PROBE_OPS: u64 = 200;
/// Measured ops of a segment after which its resident set is read: about
/// 3 s of this workload on 2 CPUs, so a slower program still reaches it
/// within a segment.
const RSS_AFTER_OPS: u64 = 4_000;

pub struct Scale {
    pub contributors: usize,
}

impl Default for Scale {
    fn default() -> Scale {
        Scale { contributors: 1000 }
    }
}

/// What the output checks expect. The defaults are the correct values;
/// the self-test perturbs one at a time.
#[derive(Clone)]
pub struct Expect {
    /// `stored_segments` in every upload ack.
    pub stored_segments: u64,
    /// Raw samples in every consumer query reply.
    pub query_samples: usize,
    /// Samples each acked upload adds to the owner's data after reopen.
    pub packet_samples: usize,
    /// Ledger records beyond the appends counted during the run.
    pub ledger_extra: u64,
}

impl Default for Expect {
    fn default() -> Expect {
        Expect {
            stored_segments: 1,
            query_samples: PRELOAD * PACKET_SAMPLES,
            packet_samples: PACKET_SAMPLES,
            ledger_extra: 0,
        }
    }
}

struct Shared {
    store: DataStoreService,
    ring: KeyRing,
    contributors: Vec<(String, String)>,
    /// JSON text of stream packet `PRELOAD + k`.
    packets: Arc<Vec<String>>,
    queries: Vec<Request>,
    /// First reply seen per contributor query (fully checked); later
    /// replies must match it byte for byte.
    replies: Vec<OnceLock<Vec<u8>>>,
    expect: Expect,
}

struct MixedClient {
    http: HttpClient,
    shared: Arc<Shared>,
    own: Vec<usize>,
    next_own: usize,
    query_order: Vec<usize>,
    next_query: usize,
    /// Next stream round per contributor (only this client's own are used).
    rounds: Vec<usize>,
    /// Acked uploads per contributor.
    acked: Vec<u64>,
    in_flight: usize,
    op: u64,
}

impl MixedClient {
    fn upload_request(&mut self, c: usize) -> Request {
        let round = self.rounds[c];
        self.rounds[c] += 1;
        let packet = self
            .shared
            .packets
            .get(round)
            .expect("pre-rendered stream rounds exhausted");
        post(
            "/api/upload",
            format!(
                "{{\"key\":\"{}\",\"segments\":[{packet}]}}",
                self.shared.contributors[c].1
            ),
        )
    }

    fn check_ack(&mut self, c: usize, resp: &Response) -> Result<(), String> {
        let stored = resp
            .json_body()
            .ok()
            .and_then(|v| v["stored_segments"].as_u64());
        if stored != Some(self.shared.expect.stored_segments) {
            return Err(format!("upload ack {}", snippet(&resp.body)));
        }
        self.acked[c] += 1;
        Ok(())
    }

    fn check_query(&self, c: usize, body: &[u8]) -> Result<(), String> {
        let reference = &self.shared.replies[c];
        if reference.get().is_none() {
            let text = std::str::from_utf8(body).map_err(|e| e.to_string())?;
            let value = sensorsafe_core::jsonlib::parse(text).map_err(|e| e.to_string())?;
            let view = shared_view_from_json(&value)?;
            if view.raw_samples() != self.shared.expect.query_samples {
                return Err(format!(
                    "query of {} returned {} raw samples",
                    self.shared.contributors[c].0,
                    view.raw_samples()
                ));
            }
            let _ = reference.set(body.to_vec());
        }
        if reference.get().map(Vec::as_slice) != Some(body) {
            return Err(format!(
                "query reply for {} differs from its first reply",
                self.shared.contributors[c].0
            ));
        }
        Ok(())
    }
}

impl Client for MixedClient {
    fn http(&self) -> &HttpClient {
        &self.http
    }

    fn next(&mut self) -> (Kind, Request) {
        self.op += 1;
        if self.op % 2 == 1 {
            let c = self.own[self.next_own % self.own.len()];
            self.next_own += 1;
            self.in_flight = c;
            (Kind::Upload, self.upload_request(c))
        } else {
            let c = self.query_order[self.next_query % self.query_order.len()];
            self.next_query += 1;
            self.in_flight = c;
            (Kind::Query, self.shared.queries[c].clone())
        }
    }

    fn check(&mut self, kind: Kind, resp: &Response) -> Result<(), String> {
        match kind {
            Kind::Upload => self.check_ack(self.in_flight, resp),
            _ => self.check_query(self.in_flight, &resp.body),
        }
    }

    fn replay(
        &mut self,
        kind: Kind,
        req: &Request,
        tracer: &mut Tracer,
        trace: u64,
        parent: u32,
    ) -> Result<(), String> {
        let c = self.in_flight;
        let shared = self.shared.clone();
        if kind == Kind::Query {
            let body = replay_query(&shared.store, &shared.ring, req, tracer, trace, parent)?;
            return self.check_query(c, &body);
        }
        // The same upload, twice more, continuing the stream: once through
        // `Service::handle`, once call by call.
        let handled_req = self.upload_request(c);
        let resp = tracer.time(trace, parent, "datastore.handle_upload", || {
            shared.store.handle(&handled_req)
        });
        if resp.status != Status::Ok {
            return Err(format!("in-process upload got {}", resp.status.code()));
        }
        self.check_ack(c, &resp)?;
        let req = self.upload_request(c);
        let root = tracer.open();
        let start = tracer.now();
        let body = tracer.time(trace, root, "json.body_decode", || {
            req.json().expect("upload body")
        });
        let segment = tracer
            .time(trace, root, "json.segment_decode", || {
                WaveSegment::from_json(&body["segments"][0])
            })
            .map_err(|e| e.to_string())?;
        let key = body["key"].as_str().unwrap_or_default();
        let principal = tracer
            .time(trace, root, "auth.check", || shared.ring.authenticate(key))
            .ok_or("key ring rejected the contributor key")?;
        let id = ContributorId::new(principal.name);
        let mut account = tracer
            .time(trace, root, "datastore.write_lock", || {
                shared.store.state().write_contributor(&id)
            })
            .ok_or("contributor missing")?;
        tracer
            .time(trace, root, "store.insert", || {
                account.store.insert_segment(segment)
            })
            .map_err(|e| e.to_string())?;
        let ticket = account.store.commit_ticket();
        drop(account);
        if let Some(ticket) = ticket {
            tracer
                .time(trace, root, "store.commit_wait", || ticket.wait())
                .map_err(|e| e.to_string())?;
        }
        tracer.close(trace, root, parent, "replay.upload", start);
        self.acked[c] += 1;
        Ok(())
    }
}

/// One set-up: a durable store with every contributor's rules and
/// preload, the consumer `bob`, and an evented server in front.
fn set_up(scale: &Scale) -> (DurableWorkload, Server, String) {
    let workload = durable_workload_with(DataStoreConfig::default(), scale.contributors);
    let preload: Vec<Value> = chest_packets(PRELOAD)
        .iter()
        .map(WaveSegment::to_json)
        .collect();
    for (_, key) in &workload.contributors {
        let resp = workload.store.handle(&Request::post_json(
            "/api/rules/set",
            &json!({"key": (key.clone()), "rules": [
                {"Action": "Allow"},
                {"Context": ["Drive"], "Sensor": ["ecg"], "Action": "Deny"},
            ]}),
        ));
        assert_eq!(resp.status, Status::Ok, "rules/set");
        let resp = workload.store.handle(&Request::post_json(
            "/api/upload",
            &json!({"key": (key.clone()), "segments": (Value::Array(preload.clone()))}),
        ));
        assert_eq!(resp.status, Status::Ok, "preload upload");
    }
    let consumer = register(&workload.store, &workload.admin_key, "bob", "consumer");
    let server = Server::bind_evented(
        "127.0.0.1:0",
        EventedConfig::default(),
        Arc::new(workload.store.clone()),
    )
    .expect("bind evented server");
    (workload, server, consumer)
}

/// Stops the server and closes the durable service; the workload's
/// directory stays until the workload drops.
pub fn close(workload: &mut DurableWorkload, mut server: Server) {
    server.shutdown();
    drop(server);
    let (memory, _) = DataStoreService::new(Default::default());
    drop(std::mem::replace(&mut workload.store, memory));
}

pub fn run(args: &RunArgs, scale: &Scale, expect: &Expect) -> Outcome {
    let mut out = Outcome::default();
    let mut rng = Rng::new(args.seed);
    // Inputs: the continuation packets every stream uploads in turn.
    let packets: Arc<Vec<String>> = Arc::new(
        chest_packets(PRELOAD + ROUNDS)[PRELOAD..]
            .iter()
            .map(|p| p.to_json().to_string())
            .collect(),
    );
    let mut setups = Vec::new();
    let mut m = Measured::default();
    let mut journal_ratios = Vec::new();
    let mut recoveries = Vec::new();
    for _ in 0..SEGMENTS {
        let segment = segment(
            args,
            scale,
            expect,
            &packets,
            &mut rng,
            &mut setups,
            &mut out,
        );
        m.pool(segment.measured);
        journal_ratios.extend(segment.journal_ratio);
        recoveries.push(segment.recovery_s);
    }
    let d = |family: &str| m.counters.delta(family, None);
    out.lines.push(format!(
        "journal during the measured phases: {} rotations, {} checkpoints taking {:.3} s, {} segments collected",
        d("sensorsafe_store_journal_rotations_total"),
        d("sensorsafe_store_journal_checkpoints_total"),
        d("sensorsafe_store_journal_checkpoint_seconds_sum"),
        d("sensorsafe_store_journal_segments_gced_total"),
    ));
    end_to_end(&mut out, &setups, &m);
    let recovery = median(&mut recoveries);
    out.lines.push(format!(
        "recovery_s {recovery:.4} s (median reopen of {:?})",
        recoveries
            .iter()
            .map(|s| (s * 1e4).round() / 1e4)
            .collect::<Vec<_>>()
    ));
    if let Some(traced) = &m.traced {
        let layers = Layers::new(traced);
        layers.common(&mut out, &m.untraced, traced, &m.counters);
        store_layers(&mut out, &layers, &m.untraced, &m.counters);
        out.metrics.push(("store.recovery_s", recovery));
        // A rotation during the probe leaves no single file to measure;
        // without a figure from any segment the metric reads 0 and the
        // line below says why.
        if journal_ratios.is_empty() {
            out.lines
                .push("journal rotated during every warm-up: no bytes-per-upload figure".into());
        } else {
            out.metrics.push((
                "store.journal_bytes_per_upload_byte",
                median(&mut journal_ratios),
            ));
        }
        save_spans(&mut out, args, traced);
    }
    out
}

/// What one segment of `mixed` measured.
struct Segment {
    measured: Measured,
    /// Journal bytes per upload body byte over the warm-up probe, unless
    /// the active segment rotated during it.
    journal_ratio: Option<f64>,
    /// Wall time to reopen the store from its data directory.
    recovery_s: f64,
}

/// One segment: a fresh durable store, warmed up and measured, then
/// closed, its audit ledger verified, and reopened from disk to check
/// every contributor's data.
fn segment(
    args: &RunArgs,
    scale: &Scale,
    expect: &Expect,
    packets: &Arc<Vec<String>>,
    rng: &mut Rng,
    setups: &mut Vec<f64>,
    out: &mut Outcome,
) -> Segment {
    let (mut workload, server, consumer) = set_up_repeatedly(
        setups,
        || set_up(scale),
        |(mut workload, server, _)| close(&mut workload, server),
    );

    let dir = workload_dir();
    let appends_before = family_sum(&scrape(), "sensorsafe_audit_ledger_appends_total", None);

    let n = scale.contributors;
    let window_end = DAY_START + (PRELOAD * PACKET_SAMPLES * 20) as i64;
    let mut principals: Vec<(String, String, Role)> = workload
        .contributors
        .iter()
        .map(|(name, key)| (key.clone(), name.clone(), Role::Contributor))
        .collect();
    principals.push((consumer.clone(), "bob".into(), Role::Consumer));
    let shared = Arc::new(Shared {
        store: workload.store.clone(),
        ring: key_ring(&principals),
        queries: workload
            .contributors
            .iter()
            .map(|(name, _)| query_request(&consumer, name, DAY_START, window_end))
            .collect(),
        contributors: workload.contributors.clone(),
        packets: packets.clone(),
        replies: (0..n).map(|_| OnceLock::new()).collect(),
        expect: expect.clone(),
    });
    let uploads_order = rng.permutation(n);
    let query_order = rng.permutation(n);
    let mut clients: Vec<MixedClient> = (0..CLIENTS)
        .map(|t| {
            let mut queries = query_order.clone();
            queries.rotate_left(t * n / CLIENTS);
            MixedClient {
                http: HttpClient::new(server.addr_string()).with_pool_size(1),
                shared: shared.clone(),
                own: uploads_order
                    .iter()
                    .copied()
                    .filter(|c| c % CLIENTS == t)
                    .collect(),
                next_own: 0,
                query_order: queries,
                next_query: 0,
                rounds: vec![0; n],
                acked: vec![0; n],
                in_flight: 0,
                op: 0,
            }
        })
        .collect();

    // Warm-up: one upload per contributor and one query of each, which
    // also captures every query's reference reply. A short second part
    // reads the journal's growth per upload byte: set-up leaves the
    // active segment close to its rotation threshold, so the first part
    // usually rotates it.
    let warm = drive(
        &mut clients,
        Stop::Ops(2 * n.div_ceil(CLIENTS) as u64),
        None,
        None,
    );
    out.absorb_warmup(&warm);
    let journal_before = active_segment(&dir);
    let warm = drive(&mut clients, Stop::Ops(JOURNAL_PROBE_OPS), None, None);
    let journal_after = active_segment(&dir);
    out.absorb_warmup(&warm);

    let m = measure(&mut clients, args, RSS_AFTER_OPS);
    out.absorb(&m.untraced);
    if let Some(traced) = &m.traced {
        out.absorb(traced);
    }
    let journal_ratio = (journal_after.0 == journal_before.0).then(|| {
        (journal_after.1 - journal_before.1) as f64 / warm.sent_bytes(Kind::Upload).max(1) as f64
    });

    // Close the store, then check the ledger and reopen from disk.
    let mut acked = vec![0u64; n];
    for client in &clients {
        for (total, mine) in acked.iter_mut().zip(&client.acked) {
            *total += mine;
        }
    }
    drop(clients);
    drop(shared);
    let appends =
        family_sum(&scrape(), "sensorsafe_audit_ledger_appends_total", None) - appends_before;
    close(&mut workload, server);
    match sensorsafe_core::store::verify_ledger_file(dir.join("audit.ledger")) {
        Ok(records) => out.check(
            records.len() as f64 + expect.ledger_extra as f64 == appends,
            || {
                format!(
                    "ledger holds {} records, {appends} appends counted",
                    records.len()
                )
            },
        ),
        Err(e) => out.check(false, || format!("audit ledger rejected: {e}")),
    }
    let started = Instant::now();
    let (reopened, admin) = DataStoreService::new(DataStoreConfig {
        data_dir: Some(dir.clone()),
        ..Default::default()
    });
    let recovery_s = started.elapsed().as_secs_f64();
    let admin = admin.to_hex();
    let mut mismatched = Vec::new();
    for (c, (name, _)) in workload.contributors.iter().enumerate() {
        let key = register(&reopened, &admin, name, "contributor");
        let resp = reopened.handle(&Request::post_json(
            "/api/query",
            &json!({"key": key, "contributor": (name.as_str())}),
        ));
        let samples: usize = resp
            .json_body()
            .ok()
            .and_then(|v| {
                v["segments"].as_array().map(|segs| {
                    segs.iter()
                        .filter_map(|s| WaveSegment::from_json(s).ok())
                        .map(|s| s.len())
                        .sum()
                })
            })
            .unwrap_or(0);
        let expected = PRELOAD * PACKET_SAMPLES + expect.packet_samples * acked[c] as usize;
        if samples != expected {
            mismatched.push(format!("{name}: {samples} samples, expected {expected}"));
        }
    }
    out.check(mismatched.is_empty(), || {
        format!(
            "{} contributors lost or gained data across the reopen, e.g. {:?}",
            mismatched.len(),
            &mismatched[..mismatched.len().min(3)]
        )
    });
    drop(reopened);
    Segment {
        measured: m,
        journal_ratio,
        recovery_s,
    }
}
