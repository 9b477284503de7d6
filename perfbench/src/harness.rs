//! Workload-independent machinery: the seeded generator, the closed-loop
//! TCP load loop, latency statistics, the span recorder used by traced runs,
//! and readers for the process-wide metrics registry.

use sensorsafe_core::net::{HttpClient, Request, Response};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Barrier, OnceLock};
use std::time::{Duration, Instant};

/// SplitMix64: small, seedable, and identical on every platform, so the
/// same `--seed` always generates the same inputs.
#[derive(Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x5DEE_CE66_D1CE_4E5B)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// A uniformly shuffled `0..n`.
    pub fn permutation(&mut self, n: usize) -> Vec<usize> {
        let mut order: Vec<usize> = (0..n).collect();
        for i in (1..n).rev() {
            order.swap(i, self.below(i + 1));
        }
        order
    }
}

/// A request type the clients send. Reads are the consumer-facing
/// operations (`query`, `search`); writes change state (`upload`, `sync`).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Kind {
    Upload,
    Query,
    Search,
    Sync,
}

impl Kind {
    pub const ALL: [Kind; 4] = [Kind::Upload, Kind::Query, Kind::Search, Kind::Sync];

    pub fn name(self) -> &'static str {
        match self {
            Kind::Upload => "upload",
            Kind::Query => "query",
            Kind::Search => "search",
            Kind::Sync => "sync",
        }
    }

    fn index(self) -> usize {
        self as usize
    }
}

/// One in-memory span: a timed call, its parent (0 = root) and the
/// per-operation trace it belongs to.
#[derive(Clone, Debug)]
pub struct Span {
    pub trace: u64,
    pub id: u32,
    pub parent: u32,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// Per-thread span recorder. Spans stay in memory until the run ends.
pub struct Tracer {
    origin: Instant,
    next_id: u32,
    pub spans: Vec<Span>,
}

impl Tracer {
    pub fn new(origin: Instant) -> Tracer {
        Tracer {
            origin,
            next_id: 0,
            spans: Vec::new(),
        }
    }

    pub fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Reserves a span id, for a span whose children are recorded before
    /// it closes.
    pub fn open(&mut self) -> u32 {
        self.next_id += 1;
        self.next_id
    }

    pub fn close(&mut self, trace: u64, id: u32, parent: u32, name: &'static str, start_ns: u64) {
        let end_ns = self.now();
        self.spans.push(Span {
            trace,
            id,
            parent,
            name,
            start_ns,
            end_ns,
        });
    }

    /// Times `f` as a leaf span under `parent`.
    pub fn time<R>(
        &mut self,
        trace: u64,
        parent: u32,
        name: &'static str,
        f: impl FnOnce() -> R,
    ) -> R {
        let id = self.open();
        let start = self.now();
        let out = f();
        self.close(trace, id, parent, name, start);
        out
    }
}

/// Per-name span totals: how many, summed duration, summed self time
/// (duration minus the part of it covered by child spans).
#[derive(Clone, Copy, Default, Debug)]
pub struct SpanStat {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

impl SpanStat {
    pub fn mean_us(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.total_ns as f64 / self.count as f64 / 1e3
        }
    }

    pub fn mean_self_us(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.self_ns as f64 / self.count as f64 / 1e3
        }
    }
}

/// Aggregates spans by name, computing self time from the parent links.
pub fn span_stats(spans: &[Span]) -> HashMap<&'static str, SpanStat> {
    let mut children: HashMap<(u64, u32), Vec<(u64, u64)>> = HashMap::new();
    for s in spans {
        if s.parent != 0 {
            children
                .entry((s.trace, s.parent))
                .or_default()
                .push((s.start_ns, s.end_ns));
        }
    }
    let mut out: HashMap<&'static str, SpanStat> = HashMap::new();
    for s in spans {
        let dur = s.end_ns.saturating_sub(s.start_ns);
        let mut covered = 0;
        if let Some(kids) = children.get_mut(&(s.trace, s.id)) {
            kids.sort_unstable();
            let mut cursor = s.start_ns;
            for &(a, b) in kids.iter() {
                let (a, b) = (a.max(cursor), b.min(s.end_ns));
                if b > a {
                    covered += b - a;
                    cursor = b;
                }
            }
        }
        let stat = out.entry(s.name).or_default();
        stat.count += 1;
        stat.total_ns += dur;
        stat.self_ns += dur - covered.min(dur);
    }
    out
}

/// Writes spans as JSON lines.
pub fn write_spans(path: &std::path::Path, spans: &[Span]) -> std::io::Result<()> {
    use std::io::Write;
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        writeln!(
            out,
            "{{\"trace\":{},\"id\":{},\"parent\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
            s.trace, s.id, s.parent, s.name, s.start_ns, s.end_ns
        )?;
    }
    out.flush()
}

/// One load-generating client: a keep-alive connection plus the
/// workload's per-thread request generator and output checks.
pub trait Client: Send {
    fn http(&self) -> &HttpClient;
    /// The next request this client sends.
    fn next(&mut self) -> (Kind, Request);
    /// Checks a successful reply; an error is an incorrect output.
    fn check(&mut self, kind: Kind, resp: &Response) -> Result<(), String>;
    /// Traced runs only: replays the request in-process, decomposed into
    /// the public calls its handler is made of, recording one span per
    /// call under `parent`.
    fn replay(
        &mut self,
        kind: Kind,
        req: &Request,
        tracer: &mut Tracer,
        trace: u64,
        parent: u32,
    ) -> Result<(), String>;
}

/// When a phase stops.
#[derive(Clone, Copy)]
pub enum Stop {
    After(Duration),
    Ops(u64),
}

/// One successful op: its round-trip latency and its kind.
#[derive(Clone, Copy)]
pub struct Done {
    pub lat_us: f64,
    pub kind: Kind,
}

/// What one phase of the closed loop observed.
#[derive(Default)]
pub struct Phase {
    /// Every successful op, in no particular order.
    pub done: Vec<Done>,
    pub attempted: u64,
    /// Ops that got no reply or a non-2xx reply (failed or refused).
    pub failed: u64,
    /// Output-check failures (wrong replies), with a few messages kept.
    pub wrong: u64,
    pub messages: Vec<String>,
    pub reply_bytes: u64,
    /// Request body bytes sent, by [`Kind`].
    sent_bytes: [u64; 4],
    pub elapsed_s: f64,
    pub spans: Vec<Span>,
    /// Resident set (MiB) when the phase completed its `rss_after`-th op.
    pub rss_mb: Option<f64>,
}

impl Phase {
    pub fn ok_ops(&self) -> u64 {
        self.attempted - self.failed
    }

    pub fn ops_per_s(&self) -> f64 {
        self.ok_ops() as f64 / self.elapsed_s
    }

    /// Sorted latencies (µs) of the ops of the given kinds.
    pub fn latencies(&self, kinds: &[Kind]) -> Vec<f64> {
        let mut lat: Vec<f64> = self
            .done
            .iter()
            .filter(|d| kinds.contains(&d.kind))
            .map(|d| d.lat_us)
            .collect();
        lat.sort_by(f64::total_cmp);
        lat
    }

    pub fn count(&self, kind: Kind) -> usize {
        self.done.iter().filter(|d| d.kind == kind).count()
    }

    pub fn sent_bytes(&self, kind: Kind) -> u64 {
        self.sent_bytes[kind.index()]
    }

    fn note(&mut self, msg: String) {
        if self.messages.len() < 8 {
            self.messages.push(msg);
        }
    }

    /// Adds another segment's phase to this one: its ops, its time, and
    /// its spans, whose trace ids get the segment number in their top
    /// byte so traces of different segments stay apart.
    pub fn pool(&mut self, other: Phase, segment: usize) {
        self.elapsed_s += other.elapsed_s;
        let mut other = other;
        for span in &mut other.spans {
            span.trace |= (segment as u64) << 56;
        }
        self.absorb(other);
    }

    fn absorb(&mut self, other: Phase) {
        self.done.extend(other.done);
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.wrong += other.wrong;
        for m in other.messages {
            self.note(m);
        }
        self.reply_bytes += other.reply_bytes;
        for (mine, theirs) in self.sent_bytes.iter_mut().zip(other.sent_bytes) {
            *mine += theirs;
        }
        self.spans.extend(other.spans);
    }
}

/// Nearest-rank percentile of sorted samples, plus how many samples lie
/// strictly beyond it.
pub fn percentile(sorted: &[f64], q: f64) -> (f64, usize) {
    if sorted.is_empty() {
        return (0.0, 0);
    }
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    let value = sorted[rank - 1];
    let beyond = sorted.len() - sorted.partition_point(|&x| x <= value);
    (value, beyond)
}

pub fn median(values: &mut [f64]) -> f64 {
    values.sort_by(f64::total_cmp);
    let n = values.len();
    if n % 2 == 1 {
        values[n / 2]
    } else {
        (values[n / 2 - 1] + values[n / 2]) / 2.0
    }
}

/// Runs every client on its own thread in a closed loop (each sends its
/// next request only after the previous reply) until `stop`. With
/// `trace_every = Some(n)`, every n-th operation of a client is also
/// replayed in-process and traced. With `rss_after = Some(n)`, the
/// resident set is read when the clients together have completed n ops.
pub fn drive<C: Client>(
    clients: &mut [C],
    stop: Stop,
    trace_every: Option<u64>,
    rss_after: Option<u64>,
) -> Phase {
    let barrier = Barrier::new(clients.len() + 1);
    let completed = AtomicU64::new(0);
    let rss = OnceLock::new();
    let origin = Instant::now();
    let mut total = Phase::default();
    let results: Vec<(Phase, Instant)> = std::thread::scope(|scope| {
        let handles: Vec<_> = clients
            .iter_mut()
            .enumerate()
            .map(|(t, client)| {
                let (barrier, completed, rss) = (&barrier, &completed, &rss);
                scope.spawn(move || {
                    let mut phase = Phase::default();
                    let mut tracer = Tracer::new(origin);
                    barrier.wait();
                    let started = Instant::now();
                    let mut op = 0u64;
                    loop {
                        match stop {
                            Stop::After(d) if started.elapsed() >= d => break,
                            Stop::Ops(n) if op >= n => break,
                            _ => {}
                        }
                        let traced = trace_every.is_some_and(|n| op.is_multiple_of(n));
                        let (kind, req) = client.next();
                        let trace = ((t as u64) << 40) | op;
                        let root = if traced { tracer.open() } else { 0 };
                        let root_start = tracer.now();
                        let sent = Instant::now();
                        let reply = client.http().send(&req);
                        let lat_us = sent.elapsed().as_secs_f64() * 1e6;
                        if traced {
                            let id = tracer.open();
                            tracer.spans.push(Span {
                                trace,
                                id,
                                parent: root,
                                name: "net.round_trip",
                                start_ns: root_start,
                                end_ns: root_start + (lat_us * 1e3) as u64,
                            });
                        }
                        op += 1;
                        phase.attempted += 1;
                        if rss_after == Some(completed.fetch_add(1, Ordering::Relaxed) + 1) {
                            let _ = rss.set(rss_mb());
                        }
                        match reply {
                            Ok(resp) if resp.status.is_success() => {
                                phase.done.push(Done { lat_us, kind });
                                phase.sent_bytes[kind.index()] += req.body.len() as u64;
                                phase.reply_bytes += resp.body.len() as u64;
                                if let Err(e) = client.check(kind, &resp) {
                                    phase.wrong += 1;
                                    phase.note(format!("{}: {e}", kind.name()));
                                }
                            }
                            Ok(resp) => {
                                phase.failed += 1;
                                phase.note(format!(
                                    "{}: refused with {}",
                                    kind.name(),
                                    resp.status.code()
                                ));
                                continue;
                            }
                            Err(e) => {
                                phase.failed += 1;
                                phase.note(format!("{}: transport error {e}", kind.name()));
                                continue;
                            }
                        }
                        if traced {
                            if let Err(e) = client.replay(kind, &req, &mut tracer, trace, root) {
                                phase.wrong += 1;
                                phase.note(format!("{} replay: {e}", kind.name()));
                            }
                            tracer.close(trace, root, 0, op_name(kind), root_start);
                        }
                    }
                    phase.spans = tracer.spans;
                    (phase, Instant::now())
                })
            })
            .collect();
        barrier.wait();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let mut last = origin;
    for (phase, ended) in results {
        last = last.max(ended);
        total.absorb(phase);
    }
    total.elapsed_s = (last - origin).as_secs_f64();
    total.rss_mb = rss.into_inner();
    total
}

fn op_name(kind: Kind) -> &'static str {
    match kind {
        Kind::Upload => "op.upload",
        Kind::Query => "op.query",
        Kind::Search => "op.search",
        Kind::Sync => "op.sync",
    }
}

/// The process-wide metrics registry in Prometheus text form. Servers run
/// in this process, so their counters are readable here.
pub fn scrape() -> String {
    sensorsafe_core::obsv::global().encode()
}

/// Sums every series of `family` whose labels contain `label` (all
/// series when `None`). For histograms pass `<name>_sum` / `<name>_count`.
pub fn family_sum(text: &str, family: &str, label: Option<&str>) -> f64 {
    text.lines()
        .filter(|line| !line.starts_with('#'))
        .filter_map(|line| {
            let rest = line.strip_prefix(family)?;
            if !(rest.starts_with('{') || rest.starts_with(' ')) {
                return None;
            }
            let (series, value) = line.rsplit_once(' ')?;
            if label.is_some_and(|l| !series.contains(l)) {
                return None;
            }
            value.parse::<f64>().ok()
        })
        .sum()
}

/// Registry scrapes bracketing each measured phase of a run.
#[derive(Default)]
pub struct Counters(Vec<(String, String)>);

impl Counters {
    /// Scrapes the registry before `measured` runs and after it ends.
    pub fn bracket<R>(&mut self, measured: impl FnOnce() -> R) -> R {
        let before = scrape();
        let out = measured();
        self.0.push((before, scrape()));
        out
    }

    pub fn extend(&mut self, other: Counters) {
        self.0.extend(other.0);
    }

    /// Growth of one family over the bracketed phases, summed.
    pub fn delta(&self, family: &str, label: Option<&str>) -> f64 {
        self.0
            .iter()
            .map(|(before, after)| {
                family_sum(after, family, label) - family_sum(before, family, label)
            })
            .sum()
    }
}

/// Resident set size of this process in MiB.
pub fn rss_mb() -> f64 {
    sensorsafe_bench::rss_kb() as f64 / 1024.0
}

/// A reply body as text, for error messages.
pub fn snippet(body: &[u8]) -> String {
    String::from_utf8_lossy(&body[..body.len().min(160)]).into_owned()
}

/// A raw JSON POST, for request bodies rendered as text.
pub fn post(path: &str, body: String) -> Request {
    let mut req = Request::post_json(path, &sensorsafe_core::Value::Null);
    req.body = body.into_bytes();
    req
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_counts_samples_beyond() {
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), (500.0, 500));
        assert_eq!(percentile(&v, 0.99), (990.0, 10));
    }

    #[test]
    fn self_time_subtracts_covered_children() {
        let span = |id, parent, start_ns, end_ns| Span {
            trace: 1,
            id,
            parent,
            name: if parent == 0 { "root" } else { "child" },
            start_ns,
            end_ns,
        };
        let stats = span_stats(&[span(1, 0, 0, 100), span(2, 1, 10, 30), span(3, 1, 20, 50)]);
        assert_eq!(stats["root"].self_ns, 60);
        assert_eq!(stats["child"].total_ns, 50);
    }

    #[test]
    fn family_sum_filters_by_name_and_label() {
        let text = "a_total{kind=\"fresh\"} 3\na_total{kind=\"reused\"} 4\na_total_x 9\n";
        assert_eq!(family_sum(text, "a_total", None), 7.0);
        assert_eq!(family_sum(text, "a_total", Some("kind=\"fresh\"")), 3.0);
    }
}
