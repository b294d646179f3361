//! `serve-cold` and `serve-hot`: traffic against an in-process
//! `adapipe serve` daemon over loopback HTTP.
//!
//! `serve-cold` is an open loop of Poisson arrivals at a fixed rate,
//! then every sender back to back: the saturation rate and the latency
//! under it are the end-to-end metrics. Every request has a digest of
//! its own, so each one runs the daemon's whole cold path. `serve-hot` is a closed loop of clients re-fetching plans
//! from a pool a little larger than the plan cache, so most requests
//! are byte-identical cache hits and the Zipf tail re-plans and evicts.

use crate::layers::{self, Metrics, Span, SpanTotals};
use crate::report::Outcome;
use crate::rng::Rng;
use crate::stats;
use crate::workload::{self, ColdStream, HotStream};
use crate::yardstick::Gauge;
use adapipe::{plan_io, Method, Plan, VerifyOptions};
use adapipe_obs::{keys, Recorder};
use adapipe_serve::cache::PlanCache;
use adapipe_serve::client::{self, HttpResponse};
use adapipe_serve::{http, PlanRequest, ServeConfig, Server};
use std::collections::VecDeque;
use std::io::Write as _;
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

const SETUP_REPS: usize = 3;
/// Yardstick runs per reading (see `crate::yardstick`).
const GAUGE_REPS: usize = 3;
/// The fixed `serve-cold` arrival rate (requests per second): about
/// 40% of what a 2-core machine sustains.
const COLD_RATE: f64 = 100.0;
/// The share of `--seconds` spent at the fixed rate; the rest runs every
/// sender back to back, which gives the end-to-end metrics.
const FIXED_SHARE: f64 = 1.0 / 3.0;
/// A run whose generator sends later than this at p99 is invalid: it did
/// not offer the Poisson load it meant to.
const LATENESS_BOUND_US: f64 = 10_000.0;
/// Traces kept by the daemon and read by a traced run.
const TRACE_SAMPLE: usize = 1024;
/// One in this many `serve-cold` replies is compared with a direct
/// `Planner::plan` of the same request.
const DIRECT_SAMPLE: usize = 16;

/// One daemon worker and one load thread (and connection) per CPU.
fn pin_threads(nproc: usize, cache: usize, out: &mut Outcome) {
    let cpus = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    assert!(nproc <= cpus, "{nproc} load threads exceed the {cpus} CPUs");
    // Sizes the daemon's exec pool, and leaves the global subproblem
    // cache at its default size; set before any thread starts.
    std::env::set_var("ADAPIPE_THREADS", nproc.to_string());
    std::env::remove_var("ADAPIPE_SUBCACHE_CAP");
    out.note("adapipe_threads", nproc);
    out.note_str("subcache_capacity", "default");
    out.note("workers", nproc);
    out.note("load_threads", nproc);
    out.note("connections_max", nproc);
    out.note("cache_capacity", cache);
}

fn config(workers: usize, cache_capacity: usize) -> ServeConfig {
    ServeConfig {
        port: 0,
        workers,
        cache_capacity,
        trace_capacity: TRACE_SAMPLE,
        ..ServeConfig::default()
    }
}

fn post(addr: &str, text: &str) -> Result<HttpResponse, String> {
    client::post_plan(addr, text).map_err(|e| format!("connection failed: {e}"))
}

/// Checks one plan reply: 200, the expected cache state and digest.
fn reply_ok(
    reply: &Result<HttpResponse, String>,
    digest: &str,
    cache: Option<&str>,
) -> Result<(), String> {
    let r = reply.as_ref().map_err(Clone::clone)?;
    if r.status != 200 {
        return Err(format!("status {}: {}", r.status, r.body.trim()));
    }
    if r.header("x-adapipe-digest") != Some(digest) {
        return Err(format!(
            "digest header {:?}, expected {digest}",
            r.header("x-adapipe-digest")
        ));
    }
    if let Some(want) = cache {
        if r.header("x-adapipe-cache") != Some(want) {
            return Err(format!(
                "cache {:?}, expected {want}",
                r.header("x-adapipe-cache")
            ));
        }
    }
    Ok(())
}

/// Binds a daemon and warms it with `requests`; returns the daemon, the
/// bodies it answered and the set-up time.
fn setup_daemon(
    cfg: ServeConfig,
    traced: bool,
    requests: &[PlanRequest],
    out: &mut Outcome,
) -> (Server, Vec<String>, f64) {
    let t0 = Instant::now();
    let rec = if traced {
        Recorder::new()
    } else {
        Recorder::disabled()
    };
    let server = Server::bind(cfg, rec).expect("bind a loopback port");
    let addr = server.addr().to_string();
    let bodies = requests
        .iter()
        .map(|r| {
            let reply = post(&addr, &r.to_wire_text());
            let ok = reply_ok(&reply, &r.digest(), Some("miss"));
            out.check(ok.is_ok(), || {
                format!("set-up request: {}", ok.clone().unwrap_err())
            });
            reply.map(|r| r.body).unwrap_or_default()
        })
        .collect();
    (server, bodies, t0.elapsed().as_secs_f64())
}

fn shutdown(server: Server, out: &mut Outcome) {
    let summary = server.shutdown_and_join();
    out.check(summary.rejected == 0, || {
        format!("daemon rejected {} requests", summary.rejected)
    });
}

fn metrics(addr: &str) -> Metrics {
    client::get(addr, "/metrics")
        .ok()
        .and_then(|r| Metrics::from_json(&r.body))
        .unwrap_or_default()
}

/// Reads the traces of `ids` from the daemon's trace store, with the
/// index of each id found.
fn traces(addr: &str, ids: &[String]) -> Vec<(usize, Vec<Span>)> {
    ids.iter()
        .enumerate()
        .filter_map(|(i, id)| {
            let r = client::get(addr, &format!("/v1/trace/{id}")).ok()?;
            (r.status == 200).then(|| Some((i, layers::from_chrome_trace(&r.body)?)))?
        })
        .collect()
}

/// Span totals of the traces, and the share of the client-observed time
/// `e2e_us[i]` of each traced request that the daemon's phase spans plus
/// `unspanned_us` per request leave unexplained.
fn residual(tr: &[(usize, Vec<Span>)], e2e_us: &[f64], unspanned_us: f64) -> (SpanTotals, f64) {
    let mut totals = SpanTotals::default();
    let (mut e2e, mut attributed) = (0.0, 0.0);
    for (i, t) in tr {
        totals.add(t);
        e2e += e2e_us[*i];
        attributed += spanned_us(t) + unspanned_us;
    }
    (totals, 1.0 - layers::ratio(attributed, e2e))
}

/// Parses and verifies a served plan; returns the plan and the verify
/// time in microseconds.
fn verify_body(req: &PlanRequest, body: &str) -> Result<(Plan, f64), String> {
    let plan = plan_io::from_text(body).map_err(|e| format!("reply does not parse: {e}"))?;
    let planner = req.planner().map_err(|e| e.to_string())?;
    let t0 = Instant::now();
    let report = planner.verify_with(&plan, VerifyOptions::default());
    let us = stats::us_since(t0);
    if report.has_errors() {
        return Err(format!("served plan fails verification: {report}"));
    }
    Ok((plan, us))
}

/// The served plan's predicted iteration time over that of DAPPLE with
/// full recomputation (even partition) for the same request.
fn time_ratio(req: &PlanRequest, plan: &Plan) -> Option<f64> {
    let planner = req.planner().ok()?;
    let base = planner
        .plan(Method::DappleFull, req.parallel().ok()?, req.train().ok()?)
        .ok()?;
    Some(plan.predicted_time()?.as_micros() / base.predicted_time()?.as_micros())
}

/// Mean time of `f` over `items`, in microseconds.
fn mean_us<T>(items: &[T], mut f: impl FnMut(&T)) -> f64 {
    let t0 = Instant::now();
    for it in items {
        f(it);
    }
    layers::ratio(stats::us_since(t0), items.len() as f64)
}

/// Feeds each request's bytes to `http::read_request` over a loopback
/// connection; returns the mean read time in microseconds.
fn http_read_us(texts: &[String], out: &mut Outcome) -> f64 {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind a loopback port");
    let addr = listener.local_addr().expect("bound address");
    let mut total = 0.0;
    let mut bad = 0;
    std::thread::scope(|s| {
        let writer = s.spawn(|| {
            let mut open = Vec::with_capacity(texts.len());
            for text in texts {
                let mut c = TcpStream::connect(addr).expect("loopback connect");
                let head = format!(
                    "POST /v1/plan HTTP/1.1\r\nHost: {addr}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
                    text.len()
                );
                c.write_all(head.as_bytes()).expect("loopback write");
                c.write_all(text.as_bytes()).expect("loopback write");
                open.push(c);
            }
            open
        });
        for text in texts {
            let (mut conn, _) = listener.accept().expect("loopback accept");
            let t0 = Instant::now();
            let req = http::read_request(&mut conn);
            total += stats::us_since(t0);
            if req.map(|r| r.body != *text).unwrap_or(true) {
                bad += 1;
            }
        }
        drop(writer.join().expect("writer thread"));
    });
    out.check(bad == 0, || {
        format!("{bad} requests read back wrong over loopback")
    });
    layers::ratio(total, texts.len() as f64)
}

/// Request-layer timings over the workload's own request texts.
fn request_layers(texts: &[String], out: &mut Outcome) {
    let reqs: Vec<PlanRequest> = texts
        .iter()
        .filter_map(|t| PlanRequest::parse(t).ok())
        .collect();
    out.check(reqs.len() == texts.len(), || {
        "a request text does not parse".to_string()
    });
    out.set(
        "serve.request.parse_us",
        mean_us(texts, |t| {
            std::hint::black_box(PlanRequest::parse(std::hint::black_box(t)).is_ok());
        }),
    );
    out.set(
        "serve.request.digest_us",
        mean_us(&reqs, |r| {
            std::hint::black_box(std::hint::black_box(r).digest());
        }),
    );
    let sample = &texts[..texts.len().min(500)];
    let read_us = http_read_us(sample, out);
    out.set("serve.http.read_us", read_us);
}

/// Queue wait from the sampled traces, and the engine gauges.
fn serve_layers(out: &mut Outcome, m: &Metrics, spans: &[(usize, Vec<Span>)]) {
    let waits: Vec<f64> = spans
        .iter()
        .flat_map(|(_, t)| t)
        .filter(|s| s.name == keys::SPAN_SERVE_QUEUE_WAIT)
        .map(|s| s.dur)
        .collect();
    if !waits.is_empty() {
        let w = stats::sorted(&waits);
        out.set("serve.queue.wait_p50_us", stats::quantile(&w, 0.5));
        out.set("serve.queue.wait_p99_us", stats::quantile(&w, 0.99));
    }
    out.set("exec.pool.tasks", m.gauge(keys::EXEC_POOL_TASKS));
    out.set("exec.pool.steals", m.gauge(keys::EXEC_POOL_STEALS));
    let (hits, misses) = (
        m.counter(keys::SERVE_CACHE_HITS),
        m.counter(keys::SERVE_CACHE_MISSES),
    );
    out.set("serve.cache.hits", hits);
    out.set("serve.cache.lookups", hits + misses);
    out.set("serve.cache.hit_ratio", layers::ratio(hits, hits + misses));
    out.set(
        "serve.cache.evictions",
        m.counter(keys::SERVE_CACHE_EVICTIONS),
    );
}

/// Wall time the daemon's own spans cover in one request trace.
fn spanned_us(trace: &[Span]) -> f64 {
    const PHASES: [&str; 8] = [
        keys::SPAN_SERVE_QUEUE_WAIT,
        keys::SPAN_SERVE_PARSE,
        keys::SPAN_PLAN_PROFILE,
        keys::SPAN_PLAN_PREFILL,
        keys::SPAN_PARTITION_ALG1,
        keys::SPAN_PLAN_MATERIALIZE,
        keys::SPAN_SERVE_VERIFY,
        keys::SPAN_SERVE_CACHE_INSERT,
    ];
    trace
        .iter()
        .filter(|s| PHASES.contains(&s.name.as_str()))
        .map(|s| s.dur)
        .sum()
}

// ---------------------------------------------------------------- cold

/// One request of an open-loop phase, times in microseconds from the
/// phase start.
struct Sent {
    idx: usize,
    due: f64,
    /// When its sender became free to take it.
    picked: f64,
    sent: f64,
    done: f64,
    reply: Result<HttpResponse, String>,
}

impl Sent {
    fn latency_ms(&self) -> f64 {
        (self.done - self.due) / 1e3
    }
    /// How late the generator itself sent it (not counting waits for a
    /// free sender, which are part of the latency).
    fn lateness_us(&self) -> f64 {
        (self.sent - self.due.max(self.picked)).max(0.0)
    }
}

/// Sends `texts[i]` at `due_us[i]` after the start from `senders`
/// threads, each waiting for its reply before taking the next request;
/// with `stop`, takes no request after that instant.
fn open_loop(
    addr: &str,
    texts: &[String],
    due_us: &[f64],
    senders: usize,
    stop: Option<Instant>,
) -> Vec<Sent> {
    let next = AtomicUsize::new(0);
    let start = Instant::now() + Duration::from_millis(20);
    let at = |us: f64| start + Duration::from_secs_f64(us / 1e6);
    let since = |t: Instant| t.saturating_duration_since(start).as_secs_f64() * 1e6;
    let mut sent: Vec<Sent> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..senders)
            .map(|_| {
                s.spawn(|| {
                    let mut mine = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::SeqCst);
                        if i >= texts.len() || stop.is_some_and(|t| Instant::now() >= t) {
                            break;
                        }
                        let picked = since(Instant::now());
                        if let Some(wait) = at(due_us[i]).checked_duration_since(Instant::now()) {
                            std::thread::sleep(wait);
                        }
                        let sent = since(Instant::now());
                        let reply = post(addr, &texts[i]);
                        mine.push(Sent {
                            idx: i,
                            due: due_us[i],
                            picked,
                            sent,
                            done: since(Instant::now()),
                            reply,
                        });
                    }
                    mine
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("sender thread"))
            .collect()
    });
    sent.sort_by_key(|s| s.idx);
    sent
}

/// The cold request stream, drawn in phases.
struct ColdSource {
    stream: ColdStream,
    gaps: Rng,
    reqs: Vec<PlanRequest>,
}

impl ColdSource {
    /// The next `n` requests and their due times at `rate`.
    fn take(&mut self, n: usize, rate: f64) -> (Vec<String>, Vec<f64>, usize) {
        let first = self.reqs.len();
        let mut due = Vec::with_capacity(n);
        let mut t = 0.0;
        for _ in 0..n {
            t += workload::unit_gap(&mut self.gaps) / rate * 1e6;
            due.push(t);
            self.reqs.push(self.stream.next_request().0);
        }
        let texts = self.reqs[first..]
            .iter()
            .map(PlanRequest::to_wire_text)
            .collect();
        (texts, due, first)
    }
}

/// A phase's results, kept for the correctness gate.
struct Phase {
    first: usize,
    sent: Vec<Sent>,
}

/// `n` requests as Poisson arrivals at `rate` per second.
fn fixed_rate(addr: &str, src: &mut ColdSource, n: usize, rate: f64, senders: usize) -> Phase {
    let (texts, due, first) = src.take(n, rate);
    let sent = open_loop(addr, &texts, &due, senders, None);
    Phase { first, sent }
}

/// Every sender sends back to back until `until`; returns the phase and
/// the replies per second it completed. This is the rate above which an
/// open-loop backlog grows without bound.
fn saturation(addr: &str, src: &mut ColdSource, senders: usize, until: Instant) -> (Phase, f64) {
    let secs = until
        .saturating_duration_since(Instant::now())
        .as_secs_f64()
        .max(1.0);
    let n = (secs * 1000.0) as usize;
    let (texts, _, first) = src.take(n, 1.0);
    let sent = open_loop(addr, &texts, &vec![0.0; n], senders, Some(until));
    let begin = sent.iter().map(|s| s.sent).fold(f64::INFINITY, f64::min);
    let end = sent.iter().map(|s| s.done).fold(0.0, f64::max);
    let rate = sent.len() as f64 / ((end - begin) / 1e6);
    (Phase { first, sent }, rate)
}

/// Requests that fill the process-global subproblem cache before a
/// `serve-cold` run. Each new-leaf request stores ~150 leaves, so 600
/// fill the default 65,536 entries with room to spare.
const FILL_REQUESTS: usize = 600;

/// Fills the process-global subproblem cache with requests no measured
/// request repeats, so the run sees the steady state of a long-lived
/// daemon: a full cache that evicts as new leaves arrive. Returns the
/// time taken, binding included.
fn fill_subcache(seed: u64, nproc: usize, cache: usize, out: &mut Outcome) -> f64 {
    let t0 = Instant::now();
    let server =
        Server::bind(config(nproc, cache), Recorder::disabled()).expect("bind a loopback port");
    let addr = server.addr().to_string();
    let mut rng = Rng::fork(seed, 700);
    for k in 0..FILL_REQUESTS {
        let req = workload::fill_request(&mut rng, k);
        let ok = reply_ok(
            &post(&addr, &req.to_wire_text()),
            &req.digest(),
            Some("miss"),
        );
        out.check(ok.is_ok(), || {
            format!("fill request: {}", ok.clone().unwrap_err())
        });
    }
    let secs = t0.elapsed().as_secs_f64();
    shutdown(server, out);
    secs
}

pub fn run_cold(seed: u64, seconds: u64, trace: bool, nproc: usize, out: &mut Outcome) {
    let cache = ServeConfig::default().cache_capacity;
    pin_threads(nproc, cache, out);
    out.note("rate_rps", COLD_RATE);

    // Set-up: fill the global subproblem cache, then bind three daemons,
    // each warmed with leaf sets of its own.
    let mut gauge = Gauge::new(GAUGE_REPS);
    let (fill_s, _, fill_scale) = gauge.time(|| fill_subcache(seed, nproc, cache, out));
    let mut walls = Vec::new();
    let mut times = Vec::new();
    let mut bases = Vec::new();
    let mut kept = Vec::new();
    for rep in 0..SETUP_REPS {
        let mine = workload::cold_bases(seed, rep, SETUP_REPS);
        let warm: Vec<PlanRequest> = mine.iter().map(workload::Base::warmup).collect();
        let traced = trace && rep == SETUP_REPS - 1;
        let ((server, _, secs), _, scale) =
            gauge.time(|| setup_daemon(config(nproc, cache), traced, &warm, out));
        walls.push(secs);
        times.push(secs * scale);
        bases.extend(mine);
        if rep == SETUP_REPS - 1 || (trace && rep == SETUP_REPS - 2) {
            kept.push(server);
        } else {
            shutdown(server, out);
        }
    }
    out.note("fill_wall_s", fill_s);
    out.note("bind_warm_wall_s", format!("{walls:?}"));
    out.set("setup_s", fill_s * fill_scale + stats::median(&times));

    let mut src = ColdSource {
        stream: ColdStream::new(seed, bases),
        gaps: Rng::fork(seed, 500),
        reqs: Vec::new(),
    };
    let t0 = Instant::now();
    let until = t0 + Duration::from_secs(seconds);
    let mut phases = Vec::new();
    let fixed_n = |share: f64| ((seconds as f64 * share * COLD_RATE).round() as usize).max(1);

    let mut trace_data = None;
    if trace {
        // Untraced pass, then the traced pass on the traced daemon.
        let traced_server = kept.pop().expect("traced daemon");
        let plain = kept.pop().expect("untraced daemon");
        let u = fixed_rate(
            &plain.addr().to_string(),
            &mut src,
            fixed_n(0.5),
            COLD_RATE,
            nproc,
        );
        let addr = traced_server.addr().to_string();
        let before = metrics(&addr);
        let t = fixed_rate(&addr, &mut src, fixed_n(0.5), COLD_RATE, nproc);
        let m = metrics(&addr).since(&before);
        let sample = &t.sent[t.sent.len().saturating_sub(TRACE_SAMPLE)..];
        let ids: Vec<String> = sample
            .iter()
            .map(|s| {
                let r = s.reply.as_ref().ok();
                r.and_then(|r| r.header("x-adapipe-trace"))
                    .unwrap_or("-")
                    .to_string()
            })
            .collect();
        let e2e: Vec<f64> = sample.iter().map(|s| s.done - s.sent).collect();
        let tr = (traces(&addr, &ids), e2e);
        let lat =
            |p: &Phase| stats::median(&p.sent.iter().map(Sent::latency_ms).collect::<Vec<_>>());
        out.set("trace_overhead", lat(&t) / lat(&u) - 1.0);
        trace_data = Some((m, tr, t.sent.len()));
        phases.push(u);
        phases.push(t);
        shutdown(plain, out);
        shutdown(traced_server, out);
    } else {
        let server = kept.pop().expect("measured daemon");
        let addr = server.addr().to_string();
        let fixed = fixed_rate(&addr, &mut src, fixed_n(FIXED_SHARE), COLD_RATE, nproc);
        let lat: Vec<f64> = fixed.sent.iter().map(Sent::latency_ms).collect();
        let (tail, label) = stats::tail(&lat);
        out.note("open_loop_requests", lat.len());
        out.note("open_loop_p50_ms", stats::median(&lat));
        out.note(&format!("open_loop_{label}_ms"), tail);
        let late: Vec<f64> = fixed.sent.iter().map(Sent::lateness_us).collect();
        let late_p99 = stats::quantile(&stats::sorted(&late), 0.99);
        out.note("gen_lateness_p99_us", late_p99);
        out.check(late_p99 <= LATENESS_BOUND_US, || {
            format!(
                "load generator ran {late_p99:.0} us late at p99 (bound {LATENESS_BOUND_US} us)"
            )
        });
        phases.push(fixed);
        gauge.refresh();
        let ((phase, rate), _, scale) = gauge.time(|| saturation(&addr, &mut src, nproc, until));
        let lat: Vec<f64> = phase.sent.iter().map(|s| (s.done - s.sent) / 1e3).collect();
        let (tail, label) = stats::tail(&lat);
        out.note("wall_p50_ms", stats::median(&lat));
        out.note("wall_tail_ms", tail);
        out.note("wall_throughput_per_s", rate);
        out.note("yardstick_scale", scale);
        out.set("p50_ms", stats::median(&lat) * scale);
        out.set("tail_ms", tail * scale);
        out.note_str("tail_percentile", label);
        out.note("saturation_requests", lat.len());
        out.set("throughput_per_s", rate / scale);
        phases.push(phase);
        shutdown(server, out);
    }
    out.note("measure_s", t0.elapsed().as_secs_f64());
    out.note("yardstick_s", format!("{:?}", gauge.runs));

    // The gate: every reply is a 200 cold plan for its own digest that
    // parses and verifies clean; a seeded sample equals a direct plan.
    let mut pick = Rng::fork(seed, 600);
    let mut ratios = Vec::new();
    let mut verify_us = Vec::new();
    let mut to_text_us = Vec::new();
    let mut sent_texts = Vec::new();
    for (k, phase) in phases.iter().enumerate() {
        for s in &phase.sent {
            let req = &src.reqs[phase.first + s.idx];
            let checked = reply_ok(&s.reply, &req.digest(), Some("miss")).and_then(|()| {
                let body = &s.reply.as_ref().expect("checked").body;
                let (plan, us) = verify_body(req, body)?;
                verify_us.push(us);
                let t = Instant::now();
                let text = plan_io::to_text(&plan);
                to_text_us.push(stats::us_since(t));
                if text != *body {
                    return Err("plan text does not round-trip".to_string());
                }
                if pick.below(DIRECT_SAMPLE) == 0 {
                    let planner = req.planner().map_err(|e| e.to_string())?;
                    let direct = planner
                        .plan(
                            Method::AdaPipe,
                            req.parallel().map_err(|e| e.to_string())?,
                            req.train().map_err(|e| e.to_string())?,
                        )
                        .map_err(|e| format!("direct plan failed: {e}"))?;
                    if plan_io::to_text(&direct) != *body {
                        return Err("served plan differs from a direct Planner::plan".to_string());
                    }
                }
                // The fixed-rate phase sends the same requests every run
                // of a seed; its plans give the quality ratio.
                if k == 0 && !trace {
                    ratios.push(time_ratio(req, &plan).ok_or("no baseline plan")?);
                }
                Ok(())
            });
            out.check(checked.is_ok(), || {
                format!(
                    "request {}: {}",
                    phase.first + s.idx,
                    checked.clone().unwrap_err()
                )
            });
            if k + 1 == phases.len() && sent_texts.len() < 2000 {
                sent_texts.push(req.to_wire_text());
            }
        }
    }
    out.note("requests_drawn", src.reqs.len());
    if !trace {
        out.set("plan_time_ratio", stats::mean(&ratios));
        out.set("rss_mb", stats::peak_rss_mb() - gauge.resident_mb());
        return;
    }

    let (m, (tr, e2e), ops) = trace_data.expect("traced pass ran");
    let ops = ops as f64;
    out.set("ops", ops);
    out.note("traces_read", tr.len());
    out.set("check.verify_us", stats::mean(&verify_us));
    out.set("plan_io.to_text_us", stats::mean(&to_text_us));
    request_layers(&sent_texts, out);
    // The residual: client-observed time minus the daemon's phase spans
    // and the unspanned digest and serialization.
    let unspanned = out.metrics["serve.request.digest_us"] + out.metrics["plan_io.to_text_us"];
    let (totals, share) = residual(&tr, &e2e, unspanned);
    out.set("unattributed_share", share);
    layers::planner_layers(out, &m, ops, &totals, tr.len() as f64);
    serve_layers(out, &m, &tr);
    let last = phases.last().expect("traced phase");
    let late: Vec<f64> = last.sent.iter().map(Sent::lateness_us).collect();
    out.set(
        "gen.lateness_p99_us",
        stats::quantile(&stats::sorted(&late), 0.99),
    );
}

// ----------------------------------------------------------------- hot

struct Client {
    latencies_us: Vec<f64>,
    recent: VecDeque<(String, f64)>,
    misses: u64,
}

/// A `serve-hot` digest pool as the clients send it: wire texts, the
/// digests the daemon must answer for, and the cold bodies set-up got.
struct Pool {
    reqs: Vec<PlanRequest>,
    texts: Vec<String>,
    digests: Vec<String>,
    bodies: Vec<String>,
}

/// `clients` closed-loop clients for `secs`, each drawing pool indices
/// from its own seeded Zipf stream; every reply must equal the cold
/// body of its digest.
fn closed_loop(
    addr: &str,
    pool: &Pool,
    seed: u64,
    clients: usize,
    secs: f64,
    out: &mut Outcome,
) -> Vec<Client> {
    let Pool {
        texts,
        digests,
        bodies,
        ..
    } = pool;
    let failures: Mutex<Vec<String>> = Mutex::new(Vec::new());
    let attempted = AtomicUsize::new(0);
    let end = Instant::now() + Duration::from_secs_f64(secs);
    let results: Vec<Client> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..clients)
            .map(|c| {
                let failures = &failures;
                let attempted = &attempted;
                s.spawn(move || {
                    let mut stream = HotStream::new(seed, c);
                    let mut me = Client {
                        latencies_us: Vec::new(),
                        recent: VecDeque::with_capacity(TRACE_SAMPLE / clients),
                        misses: 0,
                    };
                    while Instant::now() < end {
                        let i = stream.next_index();
                        let t0 = Instant::now();
                        let reply = post(addr, &texts[i]);
                        let us = stats::us_since(t0);
                        attempted.fetch_add(1, Ordering::Relaxed);
                        let checked = reply_ok(&reply, &digests[i], None).and_then(|()| {
                            let r = reply.as_ref().expect("checked");
                            if r.body != bodies[i] {
                                return Err(format!(
                                    "reply for pool entry {i} differs from its cold body"
                                ));
                            }
                            Ok(r)
                        });
                        match checked {
                            Ok(r) => {
                                if r.header("x-adapipe-cache") == Some("miss") {
                                    me.misses += 1;
                                }
                                if me.recent.len() == TRACE_SAMPLE / clients {
                                    me.recent.pop_front();
                                }
                                if let Some(id) = r.header("x-adapipe-trace") {
                                    me.recent.push_back((id.to_string(), us));
                                }
                            }
                            Err(e) => failures.lock().expect("failure list").push(e),
                        }
                        me.latencies_us.push(us);
                    }
                    me
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect()
    });
    let failures = failures.into_inner().expect("failure list");
    out.attempted += attempted.load(Ordering::Relaxed) as u64;
    for f in failures {
        out.fail(f);
    }
    results
}

pub fn run_hot(seed: u64, seconds: u64, trace: bool, nproc: usize, out: &mut Outcome) {
    let cache = workload::HOT_CACHE_CAPACITY;
    pin_threads(nproc, cache, out);
    out.note("pool", workload::HOT_POOL);
    out.note("zipf_s", workload::HOT_ZIPF_S);

    let mut gauge = Gauge::new(GAUGE_REPS);
    let mut walls = Vec::new();
    let mut times = Vec::new();
    let mut kept = Vec::new();
    for rep in 0..SETUP_REPS {
        let reqs = workload::hot_pool(seed, rep);
        let traced = trace && rep == SETUP_REPS - 1;
        let ((server, bodies, secs), _, scale) =
            gauge.time(|| setup_daemon(config(nproc, cache), traced, &reqs, out));
        walls.push(secs);
        times.push(secs * scale);
        if rep == SETUP_REPS - 1 || (trace && rep == SETUP_REPS - 2) {
            let pool = Pool {
                texts: reqs.iter().map(PlanRequest::to_wire_text).collect(),
                digests: reqs.iter().map(PlanRequest::digest).collect(),
                reqs,
                bodies,
            };
            kept.push((server, pool));
        } else {
            shutdown(server, out);
        }
    }
    out.note("setup_wall_s", format!("{walls:?}"));
    out.set("setup_s", stats::median(&times));

    // Cold bodies must themselves be sound plans.
    let mut ratios = Vec::new();
    let mut verify_us = Vec::new();
    let mut to_text_us = Vec::new();
    for (_, pool) in &kept {
        for (req, body) in pool.reqs.iter().zip(&pool.bodies) {
            let checked = verify_body(req, body).and_then(|(plan, us)| {
                verify_us.push(us);
                let t = Instant::now();
                let text = plan_io::to_text(&plan);
                to_text_us.push(stats::us_since(t));
                if text != *body {
                    return Err("plan text does not round-trip".to_string());
                }
                ratios.push(time_ratio(req, &plan).ok_or("no baseline plan")?);
                Ok(())
            });
            out.check(checked.is_ok(), || {
                format!("pool plan: {}", checked.clone().unwrap_err())
            });
        }
    }

    let run = |(server, pool): &(Server, Pool), secs: f64, out: &mut Outcome| {
        closed_loop(&server.addr().to_string(), pool, seed, nproc, secs, out)
    };
    let summarize = |clients: &[Client]| -> (Vec<f64>, u64) {
        let lat: Vec<f64> = clients
            .iter()
            .flat_map(|c| c.latencies_us.iter().copied())
            .collect();
        (lat, clients.iter().map(|c| c.misses).sum())
    };

    if !trace {
        let main = kept.pop().expect("measured daemon");
        gauge.refresh();
        let (clients, wall, scale) = gauge.time(|| run(&main, seconds as f64, out));
        let (lat, misses) = summarize(&clients);
        let (tail, label) = stats::tail(&lat);
        let rate = lat.len() as f64 / wall;
        out.note("wall_p50_ms", stats::median(&lat) / 1e3);
        out.note("wall_tail_ms", tail / 1e3);
        out.note("wall_throughput_per_s", rate);
        out.note("yardstick_scale", scale);
        out.note("yardstick_s", format!("{:?}", gauge.runs));
        out.set("p50_ms", stats::median(&lat) / 1e3 * scale);
        out.set("tail_ms", tail / 1e3 * scale);
        out.note_str("tail_percentile", label);
        out.set("throughput_per_s", rate / scale);
        out.note("requests", lat.len());
        out.note("misses", misses);
        out.set("plan_time_ratio", stats::mean(&ratios));
        out.set("rss_mb", stats::peak_rss_mb() - gauge.resident_mb());
        shutdown(main.0, out);
        return;
    }

    let traced = kept.pop().expect("traced daemon");
    let plain = kept.pop().expect("untraced daemon");
    let half = seconds as f64 / 2.0;
    let (u, _) = summarize(&run(&plain, half, out));
    let addr = traced.0.addr().to_string();
    let before = metrics(&addr);
    let clients = run(&traced, half, out);
    let m = metrics(&addr).since(&before);
    let (t, _) = summarize(&clients);
    out.set(
        "trace_overhead",
        stats::median(&t) / stats::median(&u) - 1.0,
    );
    let recent: Vec<(String, f64)> = clients
        .iter()
        .flat_map(|c| c.recent.iter().cloned())
        .collect();
    let ids: Vec<String> = recent.iter().map(|(id, _)| id.clone()).collect();
    let e2e: Vec<f64> = recent.iter().map(|(_, us)| *us).collect();
    let tr = traces(&addr, &ids);

    let ops = t.len() as f64;
    out.set("ops", ops);
    out.note("traces_read", tr.len());
    serve_layers(out, &m, &tr);
    out.set("check.verify_us", stats::mean(&verify_us));
    out.set("plan_io.to_text_us", stats::mean(&to_text_us));

    // The request texts in the order the workload draws them.
    let Pool {
        texts,
        digests,
        bodies,
        ..
    } = &traced.1;
    let mut draws = HotStream::new(seed, 99);
    let drawn: Vec<usize> = (0..20_000).map(|_| draws.next_index()).collect();
    let drawn_texts: Vec<String> = drawn.iter().map(|&i| texts[i].clone()).collect();
    request_layers(&drawn_texts, out);

    // The plan cache alone, replaying the draws at the daemon's capacity.
    let cache = PlanCache::new(workload::HOT_CACHE_CAPACITY);
    let (mut get_us, mut ins_us, mut inserts) = (0.0, 0.0, 0usize);
    for &i in &drawn {
        let t0 = Instant::now();
        let hit = cache.get(&digests[i]);
        get_us += stats::us_since(t0);
        if hit.is_none() {
            let body: Arc<str> = Arc::from(bodies[i].as_str());
            let t0 = Instant::now();
            std::hint::black_box(cache.insert(&digests[i], body));
            ins_us += stats::us_since(t0);
            inserts += 1;
        }
    }
    out.set("serve.cache.get_us", get_us / drawn.len() as f64);
    out.set(
        "serve.cache.insert_us",
        layers::ratio(ins_us, inserts as f64),
    );

    let unspanned = out.metrics["serve.request.digest_us"]
        + out.metrics["serve.cache.get_us"]
        + out.metrics["serve.http.read_us"];
    let (totals, share) = residual(&tr, &e2e, unspanned);
    out.set("unattributed_share", share);
    layers::planner_layers(out, &m, ops, &totals, tr.len() as f64);
    shutdown(plain.0, out);
    shutdown(traced.0, out);
}
