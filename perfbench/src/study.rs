//! `study`: researchers downloading whole days through enforcement.
//!
//! A durable store hosts 8 contributors, each holding one simulated
//! Alice day uploaded through the device path, under the Table 1 rule
//! set. The consumer queries a whole day per request, round-robin over
//! contributors. Read-only: the journal is idle and replies are large.

use crate::harness::{drive, Client, Kind, Rng, Stop, Tracer};
use crate::mixed::close;
use crate::report::{end_to_end, Layers, Outcome};
use crate::storeops::{key_ring, query_request, register, replay_query, store_layers};
use crate::{measure, save_spans, set_up_repeatedly, Measured, RunArgs, CLIENTS, SEGMENTS};
use sensorsafe_bench::{
    alice_scenario, durable_workload_with, table1_rule_set, DurableWorkload, DAY_START,
};
use sensorsafe_core::auth::{KeyRing, Role};
use sensorsafe_core::datastore::{shared_view_from_json, DataStoreConfig, DataStoreService};
use sensorsafe_core::net::{
    EventedConfig, HttpClient, Request, Response, Server, Service, Status, TcpTransport,
};
use sensorsafe_core::policy::PrivacyRule;
use sensorsafe_core::sim::Scenario;
use sensorsafe_core::types::{ContextKind, TimeRange};
use sensorsafe_core::{json, ContributorDevice};
use std::sync::Arc;

const DAY_MS: i64 = 86_400_000;
/// Measured queries of a segment after which its resident set is read:
/// about 2.5 s of this workload on 2 CPUs.
const RSS_AFTER_OPS: u64 = 400;

pub struct Scale {
    pub contributors: usize,
}

impl Default for Scale {
    fn default() -> Scale {
        Scale { contributors: 8 }
    }
}

/// What the output checks expect. The defaults are the correct values;
/// the self-test perturbs one at a time.
#[derive(Clone)]
pub struct Expect {
    /// Episodes at this place must yield no raw samples (Table 1's
    /// location deny).
    pub raw_denied_place: &'static str,
    /// Windows overlapping an episode in this context must carry no raw
    /// ECG (Table 1's context deny).
    pub ecg_denied_context: ContextKind,
    /// Flip one byte of every captured reply before comparing.
    pub corrupt_references: bool,
}

impl Default for Expect {
    fn default() -> Expect {
        Expect {
            raw_denied_place: "UCLA",
            ecg_denied_context: ContextKind::Drive,
            corrupt_references: false,
        }
    }
}

struct Shared {
    store: DataStoreService,
    ring: KeyRing,
    queries: Vec<Request>,
    /// The reply captured for each request during set-up.
    references: Vec<Vec<u8>>,
}

struct StudyClient {
    http: HttpClient,
    shared: Arc<Shared>,
    order: Vec<usize>,
    next: usize,
    in_flight: usize,
}

impl StudyClient {
    fn check_reply(&self, body: &[u8]) -> Result<(), String> {
        if body != self.shared.references[self.in_flight].as_slice() {
            return Err(format!(
                "reply for contributor {} differs from the set-up capture",
                self.in_flight
            ));
        }
        Ok(())
    }
}

impl Client for StudyClient {
    fn http(&self) -> &HttpClient {
        &self.http
    }

    fn next(&mut self) -> (Kind, Request) {
        self.in_flight = self.order[self.next % self.order.len()];
        self.next += 1;
        (Kind::Query, self.shared.queries[self.in_flight].clone())
    }

    fn check(&mut self, _kind: Kind, resp: &Response) -> Result<(), String> {
        self.check_reply(&resp.body)
    }

    fn replay(
        &mut self,
        _kind: Kind,
        req: &Request,
        tracer: &mut Tracer,
        trace: u64,
        parent: u32,
    ) -> Result<(), String> {
        let shared = self.shared.clone();
        let body = replay_query(&shared.store, &shared.ring, req, tracer, trace, parent)?;
        self.check_reply(&body)
    }
}

/// Table 1 invariants of one reply, against the scenario's ground truth
/// as an independent oracle.
fn table1_violations(reply: &[u8], scenario: &Scenario, expect: &Expect) -> Vec<String> {
    let view = match std::str::from_utf8(reply)
        .map_err(|e| e.to_string())
        .and_then(|text| sensorsafe_core::jsonlib::parse(text).map_err(|e| e.to_string()))
        .and_then(|value| shared_view_from_json(&value))
    {
        Ok(view) => view,
        Err(e) => return vec![format!("reply does not parse: {e}")],
    };
    let episodes: Vec<(&str, TimeRange, bool)> = scenario
        .episodes
        .iter()
        .zip(scenario.ground_truth())
        .map(|(episode, truth)| {
            let in_context = truth
                .states
                .iter()
                .any(|s| s.kind == expect.ecg_denied_context && s.active);
            (episode.place.label.as_str(), truth.window, in_context)
        })
        .collect();
    let mut violations = Vec::new();
    if view.raw_samples() == 0 {
        violations.push("no raw samples shared at all".to_string());
    }
    for segment in view.windows.iter().filter_map(|w| w.segment.as_ref()) {
        let Some(range) = segment.time_range() else {
            continue;
        };
        let has_ecg = segment.channels().any(|c| c.as_str() == "ecg");
        for (place, window, in_context) in &episodes {
            if !range.overlaps(window) {
                continue;
            }
            if *place == expect.raw_denied_place {
                violations.push(format!("raw samples shared from a {place} episode"));
            }
            if *in_context && has_ecg {
                violations.push(format!(
                    "raw ECG shared in a {:?} episode",
                    expect.ecg_denied_context
                ));
            }
        }
    }
    violations
}

/// A set-up store: the workload, its server, the consumer key, one query
/// per contributor, and the reply captured for each.
type Live = (DurableWorkload, Server, String, Vec<Request>, Vec<Vec<u8>>);

/// One set-up: a durable store whose contributors each upload one Alice
/// day through the device path under the Table 1 rules, the consumer
/// `bob`, an evented server, and one captured reply per request.
fn set_up(scale: &Scale, scenarios: &[Scenario]) -> Live {
    let workload = durable_workload_with(DataStoreConfig::default(), scale.contributors);
    let server = Server::bind_evented(
        "127.0.0.1:0",
        EventedConfig::default(),
        Arc::new(workload.store.clone()),
    )
    .expect("bind evented server");
    let rules = PrivacyRule::rules_to_json(&table1_rule_set());
    for ((_, key), scenario) in workload.contributors.iter().zip(scenarios) {
        let resp = workload.store.handle(&Request::post_json(
            "/api/rules/set",
            &json!({"key": (key.clone()), "rules": (rules.clone())}),
        ));
        assert_eq!(resp.status, Status::Ok, "rules/set");
        let device = ContributorDevice::new(
            Arc::new(TcpTransport::new(server.addr_string())),
            key.clone(),
        );
        device.run_scenario(scenario).expect("device upload");
    }
    let consumer = register(&workload.store, &workload.admin_key, "bob", "consumer");
    let queries: Vec<Request> = workload
        .contributors
        .iter()
        .map(|(name, _)| query_request(&consumer, name, DAY_START, DAY_START + DAY_MS))
        .collect();
    let http = HttpClient::new(server.addr_string()).with_pool_size(1);
    let references = queries
        .iter()
        .map(|q| {
            let resp = http.send(q).expect("reference query");
            assert_eq!(resp.status, Status::Ok, "reference query");
            resp.body
        })
        .collect();
    (workload, server, consumer, queries, references)
}

pub fn run(args: &RunArgs, scale: &Scale, expect: &Expect) -> Outcome {
    let mut out = Outcome::default();
    let mut rng = Rng::new(args.seed);
    let scenarios: Vec<Scenario> = (0..scale.contributors)
        .map(|_| alice_scenario(rng.next_u64()))
        .collect();
    let mut setups = Vec::new();
    let mut m = Measured::default();
    for _ in 0..SEGMENTS {
        let segment = segment(
            args,
            scale,
            expect,
            &scenarios,
            &mut rng,
            &mut setups,
            &mut out,
        );
        m.pool(segment);
    }
    end_to_end(&mut out, &setups, &m);
    if let Some(traced) = &m.traced {
        let layers = Layers::new(traced);
        layers.common(&mut out, &m.untraced, traced, &m.counters);
        store_layers(&mut out, &layers, &m.untraced, &m.counters);
        save_spans(&mut out, args, traced);
    }
    out
}

/// One segment: a fresh store, its replies checked against Table 1,
/// warmed up and measured.
fn segment(
    args: &RunArgs,
    scale: &Scale,
    expect: &Expect,
    scenarios: &[Scenario],
    rng: &mut Rng,
    setups: &mut Vec<f64>,
    out: &mut Outcome,
) -> Measured {
    let (mut workload, server, consumer, queries, mut references) = set_up_repeatedly(
        setups,
        || set_up(scale, scenarios),
        |(mut workload, server, ..): Live| close(&mut workload, server),
    );

    for (i, (reply, scenario)) in references.iter().zip(scenarios).enumerate() {
        let violations = table1_violations(reply, scenario, expect);
        out.check(violations.is_empty(), || {
            format!(
                "contributor {i} breaks Table 1: {:?}",
                &violations[..violations.len().min(3)]
            )
        });
    }
    let sizes = format!(
        "reply_bytes per contributor: {:?}",
        references.iter().map(Vec::len).collect::<Vec<_>>()
    );
    if !out.lines.contains(&sizes) {
        out.lines.push(sizes);
    }
    if expect.corrupt_references {
        for reply in &mut references {
            let middle = reply.len() / 2;
            reply[middle] ^= 1;
        }
    }
    let mut principals: Vec<(String, String, Role)> = workload
        .contributors
        .iter()
        .map(|(name, key)| (key.clone(), name.clone(), Role::Contributor))
        .collect();
    principals.push((consumer, "bob".into(), Role::Consumer));
    let shared = Arc::new(Shared {
        store: workload.store.clone(),
        ring: key_ring(&principals),
        queries,
        references,
    });
    let order = rng.permutation(scale.contributors);
    let mut clients: Vec<StudyClient> = (0..CLIENTS)
        .map(|t| {
            let mut order = order.clone();
            order.rotate_left(t * scale.contributors / CLIENTS);
            StudyClient {
                http: HttpClient::new(server.addr_string()).with_pool_size(1),
                shared: shared.clone(),
                order,
                next: 0,
                in_flight: 0,
            }
        })
        .collect();

    // Warm-up: every contributor's day 8 times per client, enough for
    // every handler thread to have built a full reply.
    let warm = drive(
        &mut clients,
        Stop::Ops(8 * scale.contributors as u64),
        None,
        None,
    );
    out.absorb_warmup(&warm);

    let m = measure(&mut clients, args, RSS_AFTER_OPS);
    out.absorb(&m.untraced);
    if let Some(traced) = &m.traced {
        out.absorb(traced);
    }
    drop(clients);
    drop(shared);
    close(&mut workload, server);
    m
}
