//! What a run reports: the end-to-end metrics (untraced), the per-layer
//! metrics (traced run), the per-kind latency lines printed for people,
//! and the last-line JSON result.

use crate::harness::{median, percentile, span_stats, Counters, Kind, Phase, SpanStat};
use crate::Measured;
use std::collections::HashMap;

/// End-to-end metrics, the same set for every workload (BENCHMARK.json
/// `end_to_end`).
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("ok_ratio", "ratio"),
    ("rss_mb", "MiB"),
    ("p50_ms", "ms"),
];

/// Per-layer metrics (BENCHMARK.json `per_layer`). Every traced run
/// reports all of them; a layer the workload does not exercise reads 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("net.round_trip_us", "us"),
    ("net.transport_us", "us"),
    ("net.fresh_connections", "count"),
    ("net.shed_total", "count"),
    ("json.body_decode_us", "us"),
    ("json.segment_decode_us", "us"),
    ("json.view_encode_us", "us"),
    ("json.serialize_us", "us"),
    ("json.response_bytes", "bytes"),
    ("auth.check_us", "us"),
    ("datastore.handle_upload_us", "us"),
    ("datastore.handle_query_us", "us"),
    ("datastore.other_upload_us", "us"),
    ("datastore.other_query_us", "us"),
    ("datastore.lock_wait_ms", "ms"),
    ("store.insert_us", "us"),
    ("store.commit_wait_us", "us"),
    ("store.fsyncs_per_upload", "ratio"),
    ("store.commit_batch_records", "records"),
    ("store.merges_per_upload", "ratio"),
    ("store.journal_bytes_per_upload_byte", "ratio"),
    ("store.query_us", "us"),
    ("store.scan_segments_per_query", "count"),
    ("store.recovery_s", "s"),
    ("policy.view_us", "us"),
    ("policy.decisions_per_query", "count"),
    ("policy.shared_ratio", "ratio"),
    ("policy.search_us", "us"),
    ("policy.search_hits", "count"),
    ("policy.index_sync_us", "us"),
    ("obsv.ledger_appends_per_query", "count"),
    ("obsv.ledger_fsyncs_per_query", "count"),
    ("obsv.ledger_sync_us", "us"),
    ("broker.handle_search_us", "us"),
    ("broker.handle_sync_us", "us"),
    ("trace.overhead_ratio", "ratio"),
    ("trace.spans", "count"),
];

/// The result of one run of one workload.
#[derive(Default)]
pub struct Outcome {
    /// `(name, value)`; units come from the tables above.
    pub metrics: Vec<(&'static str, f64)>,
    /// Human-readable lines printed before the result.
    pub lines: Vec<String>,
    pub attempted: u64,
    pub failed: u64,
    /// Failed output checks.
    pub wrong: Vec<String>,
}

impl Outcome {
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.wrong.push(what());
        }
    }

    pub fn correct(&self) -> bool {
        self.wrong.is_empty()
    }

    /// Counts a measured phase's attempts, failures and wrong replies.
    pub fn absorb(&mut self, phase: &Phase) {
        self.attempted += phase.attempted;
        self.failed += phase.failed;
        self.absorb_checks(phase);
    }

    /// A warm-up phase is not measured, but its replies are checked like
    /// any other and it must not fail.
    pub fn absorb_warmup(&mut self, phase: &Phase) {
        self.check(phase.failed == 0, || {
            format!("{} warm-up ops failed: {:?}", phase.failed, phase.messages)
        });
        self.absorb_checks(phase);
    }

    fn absorb_checks(&mut self, phase: &Phase) {
        if phase.wrong > 0 {
            self.wrong.push(format!(
                "{} wrong replies, e.g. {:?}",
                phase.wrong, phase.messages
            ));
        } else if phase.failed > 0 {
            self.lines
                .push(format!("failures: {} ({:?})", phase.failed, phase.messages));
        }
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|(n, _)| *n == name)
            .map(|&(_, v)| v)
    }

    /// The final JSON line: the end-to-end metrics, or with `traced` the
    /// per-layer ones.
    pub fn result_json(&self, traced: bool) -> String {
        let table = if traced { PER_LAYER } else { END_TO_END };
        let metrics: Vec<String> = table
            .iter()
            .map(|(name, unit)| {
                let value = self.get(name).unwrap_or(0.0);
                let value = if value.is_finite() { value } else { 0.0 };
                format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        )
    }
}

/// The end-to-end metrics of a run's measured (untraced) phases, all
/// taken over every op of every segment, plus the per-kind figures with
/// their sample counts.
pub fn end_to_end(out: &mut Outcome, setups: &[f64], m: &Measured) {
    let phase = &m.untraced;
    let mut setups = setups.to_vec();
    let setup_s = median(&mut setups);
    let rss_mb = m.rss_mb();
    let attempted = phase.attempted.max(1) as f64;
    out.metrics.extend([
        ("setup_s", setup_s),
        ("ops_per_s", phase.ops_per_s()),
        ("ok_ratio", phase.ok_ops() as f64 / attempted),
        ("rss_mb", rss_mb),
        (
            "p50_ms",
            percentile(&phase.latencies(&Kind::ALL), 0.50).0 / 1e3,
        ),
    ]);
    out.lines.extend([
        format!(
            "setup_s {setup_s:.4} s (median of {:?})",
            setups
                .iter()
                .map(|s| (s * 1e3).round() / 1e3)
                .collect::<Vec<_>>()
        ),
        format!(
            "ops_per_s {:.2} 1/s ({} ok ops in {:.3} s; by segment {:?})",
            phase.ops_per_s(),
            phase.ok_ops(),
            phase.elapsed_s,
            m.segment_ops_per_s
                .iter()
                .map(|r| (r * 10.0).round() / 10.0)
                .collect::<Vec<_>>()
        ),
        format!(
            "failed_ratio {} ratio ({} of {} attempted)",
            phase.failed as f64 / attempted,
            phase.failed,
            phase.attempted
        ),
        format!(
            "rss_mb {rss_mb:.1} MiB (first of the segments' {:?}, each read at a fixed op \
             count of its measured phase, or at its end if it fell short)",
            m.rss.iter().map(|r| r.round()).collect::<Vec<_>>()
        ),
    ]);
    for kind in Kind::ALL {
        let lat = phase.latencies(&[kind]);
        if lat.is_empty() {
            continue;
        }
        // The median, and the highest of p99/p95/p90 that still has ten
        // samples beyond it.
        let tail = [0.99, 0.95, 0.90]
            .into_iter()
            .find(|&q| percentile(&lat, q).1 >= 10);
        for q in std::iter::once(0.50).chain(tail) {
            let (v, beyond) = percentile(&lat, q);
            out.lines.push(format!(
                "{}_p{}_ms {:.4} ms (n={}, {} beyond)",
                kind.name(),
                (q * 100.0).round() as u32,
                v / 1e3,
                lat.len(),
                beyond
            ));
        }
    }
}

/// Per-layer numbers taken from spans; the workload adds its counters.
pub struct Layers {
    stats: HashMap<&'static str, SpanStat>,
}

impl Layers {
    pub fn new(phase: &Phase) -> Layers {
        Layers {
            stats: span_stats(&phase.spans),
        }
    }

    pub fn us(&self, name: &str) -> f64 {
        self.stats.get(name).map(SpanStat::mean_us).unwrap_or(0.0)
    }

    pub fn self_us(&self, name: &str) -> f64 {
        self.stats
            .get(name)
            .map(SpanStat::mean_self_us)
            .unwrap_or(0.0)
    }

    /// Mean over all spans of several names.
    pub fn us_of(&self, names: &[&str]) -> f64 {
        let (n, total) = names
            .iter()
            .filter_map(|name| self.stats.get(name))
            .fold((0u64, 0u64), |(n, t), s| (n + s.count, t + s.total_ns));
        if n == 0 {
            0.0
        } else {
            total as f64 / n as f64 / 1e3
        }
    }

    /// The span table, sorted by name, for the human-readable output.
    pub fn table(&self) -> Vec<String> {
        let mut names: Vec<_> = self.stats.keys().copied().collect();
        names.sort_unstable();
        names
            .into_iter()
            .map(|name| {
                let s = self.stats[name];
                format!(
                    "span {name:<28} n={:<6} mean {:>10.2} us  self {:>10.2} us",
                    s.count,
                    s.mean_us(),
                    s.mean_self_us()
                )
            })
            .collect()
    }

    /// Metrics every traced run shares: round trip, transport, decode,
    /// auth, encode and the tracing overhead.
    pub fn common(&self, out: &mut Outcome, untraced: &Phase, traced: &Phase, counters: &Counters) {
        let handles = [
            "datastore.handle_upload",
            "datastore.handle_query",
            "broker.handle_search",
            "broker.handle_sync",
        ];
        out.metrics.extend([
            ("net.round_trip_us", self.us("net.round_trip")),
            (
                "net.transport_us",
                self.us("net.round_trip") - self.us_of(&handles),
            ),
            ("json.body_decode_us", self.us("json.body_decode")),
            ("json.segment_decode_us", self.us("json.segment_decode")),
            ("json.view_encode_us", self.us("json.view_encode")),
            ("json.serialize_us", self.us("json.serialize")),
            (
                "json.response_bytes",
                untraced.reply_bytes as f64 / untraced.ok_ops().max(1) as f64,
            ),
            ("auth.check_us", self.us("auth.check")),
            (
                "net.fresh_connections",
                counters.delta(
                    "sensorsafe_net_client_connections_total",
                    Some("kind=\"fresh\""),
                ),
            ),
            (
                "net.shed_total",
                counters.delta("sensorsafe_net_overload_shed_total", None),
            ),
            (
                "trace.overhead_ratio",
                1.0 - traced.ops_per_s() / untraced.ops_per_s(),
            ),
            ("trace.spans", traced.spans.len() as f64),
        ]);
        out.lines.extend(self.table());
        out.lines.push(format!(
            "trace overhead: {:.2} ops/s untraced vs {:.2} ops/s traced",
            untraced.ops_per_s(),
            traced.ops_per_s()
        ));
    }
}
