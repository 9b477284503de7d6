//! `search`: consumers searching the broker's rule mirror while data
//! stores push rule re-syncs.
//!
//! The broker mirrors 2,000 contributors × 4 rules in the four A2
//! classes, loaded through `/api/sync`. Not 10,000: the scan of a mirror
//! that size outgrows the CPU caches, and on a shared host its speed then
//! follows the neighbours' memory traffic (throughput of interleaved
//! runs spread 0.21 at 10,000 against 0.05 at 2,000). 90% of operations search (the
//! paper's work-hours ECG+respiration query alternating with the
//! driving-stress query), 10% re-sync one contributor's rules at a new
//! epoch within its class, so every search answer stays fixed.

use crate::harness::{drive, post, snippet, Client, Kind, Rng, Stop, Tracer};
use crate::report::{end_to_end, Layers, Outcome};
use crate::storeops::key_ring;
use crate::{measure, save_spans, set_up_repeatedly, Measured, RunArgs, CLIENTS, SEGMENTS};
use sensorsafe_bench::synthetic_rules;
use sensorsafe_core::auth::{KeyRing, Role};
use sensorsafe_core::broker::{BrokerConfig, BrokerService};
use sensorsafe_core::net::{EventedConfig, HttpClient, Request, Response, Server, Service, Status};
use sensorsafe_core::policy::{ConsumerCtx, PrivacyRule, RuleIndex, SearchQuery};
use sensorsafe_core::types::{ContextKind, ContributorId, RepeatTime};
use sensorsafe_core::{json, Value};
use std::sync::{Arc, RwLock};

/// Rules per mirrored contributor.
const RULES_EACH: usize = 4;
/// Share of operations that are rule re-syncs, in tenths.
const SYNC_TENTHS: usize = 1;
/// Address the broker records for the (absent) hosting data store.
const STORE_ADDR: &str = "127.0.0.1:9";
/// Measured ops of a segment after which its resident set is read: about
/// 2.5 s of this workload on 2 CPUs.
const RSS_AFTER_OPS: u64 = 1_000;

pub struct Scale {
    pub contributors: usize,
}

impl Default for Scale {
    fn default() -> Scale {
        Scale {
            contributors: 2_000,
        }
    }
}

/// What the output checks expect: the A2 class arithmetic. The defaults
/// are the correct values; the self-test perturbs one at a time.
#[derive(Clone)]
pub struct Expect {
    /// Matches of the work-hours query (only unrestricted sharers).
    pub work_hours_hits: usize,
    /// Matches of the driving-stress query (work-deniers and sharers).
    pub driving_hits: usize,
    /// What every re-sync must answer in `accepted`.
    pub sync_accepted: bool,
}

impl Expect {
    pub fn for_scale(scale: &Scale) -> Expect {
        Expect {
            work_hours_hits: scale.contributors / 4,
            driving_hits: scale.contributors / 2,
            sync_accepted: true,
        }
    }
}

impl Default for Expect {
    fn default() -> Expect {
        Expect::for_scale(&Scale::default())
    }
}

fn contributor_name(i: usize) -> String {
    format!("contributor-{i:05}")
}

/// The two searches, as request bodies and as the policy-layer queries
/// the broker parses them into.
fn searches(consumer_key: &str) -> [(Request, SearchQuery); 2] {
    let work = post(
        "/api/search",
        json!({"key": consumer_key, "query": {
            "channels": ["ecg", "respiration"],
            "location_labels": ["work"],
            "repeat": {"days": ["Mon", "Tue", "Wed", "Thu", "Fri"], "from": "9:00", "to": "18:00"},
        }})
        .to_string(),
    );
    let driving = post(
        "/api/search",
        json!({"key": consumer_key, "query": {
            "channels": ["ecg", "respiration"],
            "active_contexts": ["Drive"],
        }})
        .to_string(),
    );
    [
        (
            work,
            SearchQuery {
                consumer: ConsumerCtx::user("bob"),
                raw_channels: vec!["ecg".into(), "respiration".into()],
                location_labels: vec!["work".into()],
                repeat: Some(RepeatTime::weekdays_nine_to_six()),
                ..Default::default()
            },
        ),
        (
            driving,
            SearchQuery {
                consumer: ConsumerCtx::user("bob"),
                raw_channels: vec!["ecg".into(), "respiration".into()],
                active_contexts: vec![ContextKind::Drive],
                ..Default::default()
            },
        ),
    ]
}

struct Shared {
    broker: BrokerService,
    ring: KeyRing,
    store_key: String,
    /// Rule JSON of each A2 class (`synthetic_rules` depends on `i % 4`).
    class_rules: Vec<String>,
    searches: [(Request, SearchQuery); 2],
    /// The reply captured for each search during set-up.
    references: [Vec<u8>; 2],
    /// The replay's own mirror, synced with the same rules.
    index: RwLock<RuleIndex>,
    expect: Expect,
}

impl Shared {
    fn sync_request(&self, contributor: usize, epoch: u64) -> Request {
        post(
            "/api/sync",
            format!(
                "{{\"key\":\"{}\",\"contributor\":\"{}\",\"epoch\":{epoch},\"rules\":{}}}",
                self.store_key,
                contributor_name(contributor),
                self.class_rules[contributor % 4]
            ),
        )
    }

    fn check_sync(&self, resp: &Response) -> Result<(), String> {
        let accepted = resp.json_body().ok().and_then(|v| v["accepted"].as_bool());
        if accepted != Some(self.expect.sync_accepted) {
            return Err(format!("sync answered {}", snippet(&resp.body)));
        }
        Ok(())
    }
}

struct SearchClient {
    http: HttpClient,
    shared: Arc<Shared>,
    rng: Rng,
    /// Contributors this client re-syncs (no two clients share one, so
    /// epochs rise in order), with their current epochs.
    own: Vec<usize>,
    epochs: Vec<u64>,
    searches_sent: usize,
    in_flight: (usize, usize),
    hits: u64,
    replayed_searches: u64,
}

impl SearchClient {
    fn next_sync(&mut self, slot: usize) -> Request {
        self.epochs[slot] += 1;
        self.shared.sync_request(self.own[slot], self.epochs[slot])
    }
}

impl Client for SearchClient {
    fn http(&self) -> &HttpClient {
        &self.http
    }

    fn next(&mut self) -> (Kind, Request) {
        if self.rng.below(10) < SYNC_TENTHS {
            let slot = self.rng.below(self.own.len());
            self.in_flight = (slot, 0);
            (Kind::Sync, self.next_sync(slot))
        } else {
            let which = self.searches_sent % 2;
            self.searches_sent += 1;
            self.in_flight = (0, which);
            (Kind::Search, self.shared.searches[which].0.clone())
        }
    }

    fn check(&mut self, kind: Kind, resp: &Response) -> Result<(), String> {
        match kind {
            Kind::Sync => self.shared.check_sync(resp),
            _ if resp.body != self.shared.references[self.in_flight.1] => {
                Err("search reply differs from the set-up capture".into())
            }
            _ => Ok(()),
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
        let shared = self.shared.clone();
        if kind == Kind::Search {
            let which = self.in_flight.1;
            let handled = tracer.time(trace, parent, "broker.handle_search", || {
                shared.broker.handle(req)
            });
            let root = tracer.open();
            let start = tracer.now();
            let body = tracer.time(trace, root, "json.body_decode", || {
                req.json().expect("body")
            });
            tracer
                .time(trace, root, "auth.check", || {
                    shared
                        .ring
                        .authenticate(body["key"].as_str().unwrap_or_default())
                })
                .ok_or("key ring rejected the consumer key")?;
            let snapshot = tracer.time(trace, root, "policy.snapshot", || {
                shared.index.read().expect("replay index lock").snapshot()
            });
            let hits = tracer.time(trace, root, "policy.search", || {
                snapshot.search(&shared.searches[which].1)
            });
            let text = tracer.time(trace, root, "json.serialize", || {
                json!({
                    "contributors": (Value::Array(hits.iter().map(|c| Value::from(c.as_str())).collect())),
                    "unreachable": (Value::Array(Vec::new())),
                })
                .to_string()
            });
            tracer.close(trace, root, parent, "replay.search", start);
            self.hits += hits.len() as u64;
            self.replayed_searches += 1;
            let reference = &shared.references[which];
            if handled.body != *reference || text.as_bytes() != reference.as_slice() {
                return Err("replayed search reply differs from the set-up capture".into());
            }
            return Ok(());
        }
        // The same re-sync twice more, at the next epochs: once through
        // `Service::handle`, once call by call against the replay mirror.
        let slot = self.in_flight.0;
        let handled_req = self.next_sync(slot);
        let resp = tracer.time(trace, parent, "broker.handle_sync", || {
            shared.broker.handle(&handled_req)
        });
        shared.check_sync(&resp)?;
        let req = self.next_sync(slot);
        let root = tracer.open();
        let start = tracer.now();
        let body = tracer.time(trace, root, "json.body_decode", || {
            req.json().expect("body")
        });
        tracer
            .time(trace, root, "auth.check", || {
                shared
                    .ring
                    .authenticate(body["key"].as_str().unwrap_or_default())
            })
            .ok_or("key ring rejected the store key")?;
        let rules = tracer
            .time(trace, root, "policy.rule_parse", || {
                PrivacyRule::parse_rules(&body["rules"].to_string())
            })
            .map_err(|e| e.to_string())?;
        let id = ContributorId::new(contributor_name(self.own[slot]));
        let epoch = self.epochs[slot];
        let accepted = tracer.time(trace, root, "policy.index_sync", || {
            shared
                .index
                .write()
                .expect("replay index lock")
                .sync(id, epoch, rules)
        });
        tracer.close(trace, root, parent, "replay.sync", start);
        if !accepted {
            return Err("replay mirror refused a newer epoch".into());
        }
        Ok(())
    }
}

fn admin_call(broker: &BrokerService, path: &str, body: Value) -> Value {
    let resp = broker.handle(&Request::post_json(path, &body));
    assert!(resp.status.is_success(), "{path}: {}", snippet(&resp.body));
    resp.json_body().expect("JSON reply")
}

/// A set-up broker: the service, its server, the store key, the
/// consumer key, and the captured reply of each search.
type Live = (BrokerService, Server, String, String, [Vec<u8>; 2]);

/// One set-up: a broker mirroring every contributor's rules (loaded
/// through `/api/sync`), the consumer `bob`, an evented server, and the
/// reply of each search captured over TCP.
fn set_up(scale: &Scale, class_rules: &[String]) -> Live {
    let (broker, admin) = BrokerService::new(BrokerConfig::default());
    let admin = admin.to_hex();
    let store_key = admin_call(
        &broker,
        "/api/stores/register",
        json!({"key": (admin.clone()), "addr": STORE_ADDR, "register_key": "unused"}),
    )["store_key"]
        .as_str()
        .expect("store key in pairing reply")
        .to_string();
    let consumer = admin_call(
        &broker,
        "/api/register",
        json!({"key": (admin.clone()), "name": "bob"}),
    )["api_key"]
        .as_str()
        .expect("api key in registration reply")
        .to_string();
    for i in 0..scale.contributors {
        let resp = broker.handle(&post(
            "/api/sync",
            format!(
                "{{\"key\":\"{store_key}\",\"contributor\":\"{}\",\"store_addr\":\"{STORE_ADDR}\",\"epoch\":1,\"rules\":{}}}",
                contributor_name(i),
                class_rules[i % 4]
            ),
        ));
        assert_eq!(resp.status, Status::Ok, "initial sync");
    }
    let server = Server::bind_evented(
        "127.0.0.1:0",
        EventedConfig::default(),
        Arc::new(broker.clone()),
    )
    .expect("bind evented server");
    let http = HttpClient::new(server.addr_string()).with_pool_size(1);
    let references = searches(&consumer).map(|(req, _)| {
        let resp = http.send(&req).expect("reference search");
        assert_eq!(resp.status, Status::Ok, "reference search");
        resp.body
    });
    (broker, server, store_key, consumer, references)
}

/// Contributors matched by a captured search reply.
fn hit_count(reply: &[u8]) -> Result<usize, String> {
    let text = std::str::from_utf8(reply).map_err(|e| e.to_string())?;
    let value = sensorsafe_core::jsonlib::parse(text).map_err(|e| e.to_string())?;
    if value["unreachable"].as_array().map(|a| a.len()) != Some(0) {
        return Err("search annotated unreachable contributors".into());
    }
    value["contributors"]
        .as_array()
        .map(|a| a.len())
        .ok_or_else(|| "no contributors list".into())
}

pub fn run(args: &RunArgs, scale: &Scale, expect: &Expect) -> Outcome {
    let mut out = Outcome::default();
    let mut rng = Rng::new(args.seed);
    let class_rules: Vec<String> = (0..4)
        .map(|class| PrivacyRule::rules_to_json(&synthetic_rules(class, RULES_EACH)).to_string())
        .collect();
    let mut setups = Vec::new();
    let mut m = Measured::default();
    let (mut hits, mut searched) = (0, 0);
    for _ in 0..SEGMENTS {
        let segment = segment(
            args,
            scale,
            expect,
            &class_rules,
            &mut rng,
            &mut setups,
            &mut out,
        );
        m.pool(segment.0);
        hits += segment.1;
        searched += segment.2;
    }
    end_to_end(&mut out, &setups, &m);
    if let Some(traced) = &m.traced {
        let layers = Layers::new(traced);
        layers.common(&mut out, &m.untraced, traced, &m.counters);
        out.metrics.extend([
            ("policy.search_us", layers.us("policy.search")),
            ("policy.search_hits", hits as f64 / searched.max(1) as f64),
            ("policy.index_sync_us", layers.us("policy.index_sync")),
            ("broker.handle_search_us", layers.us("broker.handle_search")),
            ("broker.handle_sync_us", layers.us("broker.handle_sync")),
        ]);
        save_spans(&mut out, args, traced);
    }
    out
}

/// One segment: a fresh broker, checked, warmed up and measured. Returns
/// the measured phases and, from traced replays, the search hits and the
/// number of searches replayed.
fn segment(
    args: &RunArgs,
    scale: &Scale,
    expect: &Expect,
    class_rules: &[String],
    rng: &mut Rng,
    setups: &mut Vec<f64>,
    out: &mut Outcome,
) -> (Measured, u64, u64) {
    let (broker, mut server, store_key, consumer, references) = set_up_repeatedly(
        setups,
        || set_up(scale, class_rules),
        |(_, mut server, ..): Live| server.shutdown(),
    );

    for (reply, (name, expected)) in references.iter().zip([
        ("work-hours", expect.work_hours_hits),
        ("driving-stress", expect.driving_hits),
    ]) {
        match hit_count(reply) {
            Ok(hits) => out.check(hits == expected, || {
                format!("{name} search matched {hits} contributors, expected {expected}")
            }),
            Err(e) => out.check(false, || format!("{name} search reply: {e}")),
        }
    }

    let mut index = RuleIndex::new();
    if args.traced {
        for i in 0..scale.contributors {
            index.sync(
                ContributorId::new(contributor_name(i)),
                1,
                synthetic_rules(i, RULES_EACH),
            );
        }
    }
    let shared = Arc::new(Shared {
        broker: broker.clone(),
        ring: key_ring(&[
            (consumer.clone(), "bob".into(), Role::Consumer),
            (
                store_key.clone(),
                format!("store:{STORE_ADDR}"),
                Role::Server,
            ),
        ]),
        store_key,
        class_rules: class_rules.to_vec(),
        searches: searches(&consumer),
        references,
        index: RwLock::new(index),
        expect: expect.clone(),
    });
    let mut clients: Vec<SearchClient> = (0..CLIENTS)
        .map(|t| {
            let own: Vec<usize> = (t..scale.contributors).step_by(CLIENTS).collect();
            SearchClient {
                http: HttpClient::new(server.addr_string()).with_pool_size(1),
                shared: shared.clone(),
                rng: Rng::new(rng.next_u64()),
                epochs: vec![1; own.len()],
                own,
                searches_sent: t,
                in_flight: (0, 0),
                hits: 0,
                replayed_searches: 0,
            }
        })
        .collect();

    let warm = drive(&mut clients, Stop::Ops(20), None, None);
    out.absorb_warmup(&warm);

    let m = measure(&mut clients, args, RSS_AFTER_OPS);
    out.absorb(&m.untraced);
    if let Some(traced) = &m.traced {
        out.absorb(traced);
    }
    let (hits, searched) = clients
        .iter()
        .fold((0, 0), |(h, n), c| (h + c.hits, n + c.replayed_searches));
    drop(clients);
    server.shutdown();
    (m, hits, searched)
}
