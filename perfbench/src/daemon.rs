//! `daemon`: an in-process `doebenchd::Server` on an ephemeral port
//! under closed-loop load from `jobs` client threads.
//!
//! Each client follows a seeded schedule: nine requests in ten are hits
//! over a fixed hot-key set (Tables 4–7, `suite`, `sweep`, in ascii and
//! json); the tenth is a miss with a fresh `seed=` or a fresh `set`
//! override (partial verdict). Every thirtieth round all clients issue
//! the same miss at once, so single-flight coalescing runs. Every body
//! is compared byte for byte with the offline `query::run_query` answer.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

use doebench::benchlib::set_jobs;
use doebench::query::{self, Query, RowValue};
use doebench::report::{json, Format};
use doebenchd::client::{self, ClientResponse};
use doebenchd::service::QueryService;
use doebenchd::Server;

use crate::stats::median;
use crate::{mix, ms_since, Ctx, Outcome, Tally, Tracer};

/// The hot keys, each served in both formats.
pub const HOT: [&str; 6] = [
    "table4",
    "table5",
    "table6",
    "table7",
    "suite",
    "sweep Frontier Summit",
];
/// Response formats the load uses.
pub const FORMATS: [&str; 2] = ["ascii", "json"];
/// Every `MISS_EVERY`-th round of a client is a miss.
pub const MISS_EVERY: u64 = 10;
/// Every `JOINT_EVERY`-th round is one miss issued by all clients at once.
pub const JOINT_EVERY: u64 = 30;
/// Server start + warm-up repetitions before and again after the load
/// (the median of all is reported).
const SETUP_REPS: usize = 3;
/// Share of the load's seconds run before latencies are recorded, so
/// thread, socket and allocator start-up stays out of the samples.
const LOAD_WARMUP: f64 = 0.1;

/// One scheduled request.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Req {
    /// Shorthand query.
    pub query: String,
    /// `ascii` (sent as a GET shorthand) or `json` (POSTed JSON query).
    pub format: &'static str,
    /// Index into `HOT`, for hot keys.
    pub hot: Option<usize>,
    /// Issued by every client at once.
    pub joint: bool,
}

/// The deterministic request schedule of one seed.
///
/// Hits cycle through the twelve (hot key, format) pairs and misses
/// through the five miss kinds, each in a seed-shuffled order, so every
/// seed issues the same mix and only order and fresh values differ.
#[derive(Clone, Debug)]
pub struct Schedule {
    seed: u64,
    cpu: Vec<&'static str>,
    gpu: Vec<&'static str>,
    hits: Vec<(usize, &'static str)>,
    kinds: Vec<u64>,
}

/// Miss kinds (see [`Schedule::miss_query`]).
const MISS_KINDS: u64 = 5;

/// `items` in a seed-derived order (Fisher–Yates).
fn shuffled<T>(mut items: Vec<T>, seed: u64, label: &str) -> Vec<T> {
    for i in (1..items.len()).rev() {
        let j = (mix(seed, label, i as u64) % (i as u64 + 1)) as usize;
        items.swap(i, j);
    }
    items
}

impl Schedule {
    /// The schedule for a workload seed.
    pub fn new(seed: u64) -> Schedule {
        let names = |ms: Vec<doebench::machines::Machine>| ms.iter().map(|m| m.name).collect();
        let pairs = (0..HOT.len())
            .flat_map(|k| FORMATS.into_iter().map(move |f| (k, f)))
            .collect();
        Schedule {
            seed,
            cpu: names(doebench::machines::cpu_machines()),
            gpu: names(doebench::machines::gpu_machines()),
            hits: shuffled(pairs, seed, "hit-order"),
            kinds: shuffled((0..MISS_KINDS).collect(), seed, "miss-order"),
        }
    }

    /// The request client `client` issues in round `round`.
    pub fn req(&self, client: usize, round: u64) -> Req {
        let joint = round % JOINT_EVERY == JOINT_EVERY - 1;
        if joint || round % MISS_EVERY == MISS_EVERY - 1 {
            // A joint miss is drawn from a stream no single client uses.
            let stream = if joint { u64::MAX } else { client as u64 };
            let h = mix(self.seed, "miss", stream.rotate_left(32) ^ round);
            let nth = round / MISS_EVERY + if joint { 0 } else { client as u64 };
            let kind = self.kinds[(nth % MISS_KINDS) as usize];
            return Req {
                query: self.miss_query(kind, h),
                format: FORMATS[(h >> 60) as usize % 2],
                hot: None,
                joint,
            };
        }
        // Hits are the rounds that are not misses; count them.
        let nth = round - (round + 1) / MISS_EVERY + 5 * client as u64;
        let (k, format) = self.hits[(nth % self.hits.len() as u64) as usize];
        Req {
            query: HOT[k].to_string(),
            format,
            hot: Some(k),
            joint: false,
        }
    }

    /// A fresh query of one kind: a new campaign seed (a miss) or a new
    /// value for one machine's override (a partial: the other machines'
    /// cells hit).
    fn miss_query(&self, kind: u64, h: u64) -> String {
        let fresh = h >> 16;
        let cpu = self.cpu[(h >> 8) as usize % self.cpu.len()];
        let gpu = self.gpu[(h >> 8) as usize % self.gpu.len()];
        match kind {
            0 => format!("table4 {cpu} seed={fresh}"),
            1 => format!("table6 {gpu} seed={fresh}"),
            2 => format!(
                "table5 set {gpu}.gpu_peak_bw_gb_s={:.4}",
                1000.0 + (fresh % 10_000_000) as f64 * 1e-4
            ),
            3 => format!(
                "table4 set {cpu}.mpi_shm_latency_us={:.8}",
                0.2 + (fresh % 10_000_000) as f64 * 1e-8
            ),
            _ => format!("sweep {gpu} seed={fresh}"),
        }
    }
}

/// Parse a shorthand query the schedule generated.
fn parse(q: &str) -> Query {
    Query::parse_shorthand(q).expect("schedule emits valid shorthand")
}

fn format_of(name: &str) -> Format {
    Format::parse(name).expect("schedule emits known formats")
}

/// The offline answer the daemon must reproduce byte for byte.
pub fn offline_body(q: &str, format: &str) -> Result<String, String> {
    query::run_query(&parse(q))
        .map(|r| r.body(format_of(format)))
        .map_err(|e| e.to_string())
}

/// Check one response: status 200 and the exact offline body.
pub fn check_response(
    tally: &mut Tally,
    q: &str,
    status: u16,
    body: &[u8],
    expected: &str,
) -> bool {
    tally.check(status == 200 && body == expected.as_bytes(), || {
        format!("daemon: '{q}' answered {status} with a body that differs from run_query")
    })
}

fn send(addr: &str, q: &str, format: &str) -> Result<ClientResponse, String> {
    let r = if format == "json" {
        client::query_json(addr, &parse(q).canonical(), format)
    } else {
        client::query_shorthand(addr, q, format)
    };
    r.map_err(|e| e.to_string())
}

/// One served response, kept for classification and checking.
struct Served {
    req: Req,
    /// Sent after the load's warm-up share.
    measured: bool,
    ms: f64,
    verdict: String,
    status: u16,
    body: Vec<u8>,
}

/// Closed loop of one client until the shared stop flag is seen at a
/// joint round.
#[allow(clippy::too_many_arguments)]
fn client_loop(
    addr: &str,
    sched: &Schedule,
    client: usize,
    barrier: &Barrier,
    stop: &AtomicBool,
    decided: &AtomicBool,
    measuring: &AtomicBool,
    tr: &mut Tracer,
) -> Vec<Served> {
    let mut served = Vec::new();
    for round in 0.. {
        let req = sched.req(client, round);
        if req.joint {
            // All clients agree on whether to stop before the joint miss.
            if barrier.wait().is_leader() {
                decided.store(stop.load(Ordering::SeqCst), Ordering::SeqCst);
            }
            barrier.wait();
            if decided.load(Ordering::SeqCst) {
                break;
            }
        }
        let id = (client as u64) << 40 | round;
        let measured = measuring.load(Ordering::SeqCst);
        let t0 = Instant::now();
        let open = tr.begin("http.request", id);
        let resp = send(addr, &req.query, req.format);
        tr.end(open);
        let ms = ms_since(t0);
        // A failed request is kept (status 0) and fails its check; the
        // client carries on so the joint rounds still line up.
        let (verdict, status, body) = match resp {
            Ok(r) => {
                let verdict = r.header("x-doebench-cache").unwrap_or("").to_string();
                (verdict, r.status, r.body)
            }
            Err(_) => ("error".to_string(), 0, Vec::new()),
        };
        served.push(Served {
            req,
            measured,
            ms,
            verdict,
            status,
            body,
        });
    }
    served
}

/// Cache counters from the daemon's `/stats` endpoint:
/// `(hits, executed, coalesced)`.
fn cache_stats(addr: &str) -> Result<(f64, f64, f64), String> {
    let r = client::request(addr, "GET", "/stats", &[]).map_err(|e| e.to_string())?;
    let v = json::parse(&r.text()).map_err(|e| e.to_string())?;
    let cells = v.get("cells").ok_or("stats without cells")?;
    let n = |k: &str| {
        cells
            .get(k)
            .and_then(|x| x.as_f64())
            .ok_or(format!("stats without {k}"))
    };
    Ok((n("hits")?, n("executed")?, n("coalesced")?))
}

/// Run the workload. Its load lasts the run's seconds.
pub fn run(ctx: &Ctx, tr: &mut Tracer, min_ops: usize) -> Outcome {
    let mut out = Outcome::default();
    set_jobs(ctx.jobs);
    let sched = Schedule::new(ctx.seed);

    // The offline reference for every hot key (the benchmark's own
    // preparation, not timed).
    let mut hot_ref: BTreeMap<(usize, &str), String> = BTreeMap::new();
    for (k, q) in HOT.iter().enumerate() {
        for f in FORMATS {
            let body = offline_body(q, f).expect("hot keys are valid queries");
            hot_ref.insert((k, f), body);
        }
    }

    // Set-up: start the server and warm the hot keys through HTTP. It is
    // sampled before and after the load; the last server before it
    // serves the load.
    let setup = |out: &mut Outcome| {
        let t0 = Instant::now();
        let s = Server::start(0).expect("bind an ephemeral port");
        let addr = s.addr().to_string();
        for (k, q) in HOT.iter().enumerate() {
            for f in FORMATS {
                match send(&addr, q, f) {
                    Ok(r) => {
                        check_response(&mut out.tally, q, r.status, &r.body, &hot_ref[&(k, f)]);
                    }
                    Err(e) => out.tally.fail(|| format!("daemon warm-up '{q}': {e}")),
                }
            }
        }
        out.setup_s.push(t0.elapsed().as_secs_f64());
        s
    };
    for _ in 1..SETUP_REPS {
        setup(&mut out);
    }
    let mut server = setup(&mut out);
    let addr = server.addr().to_string();

    // Closed-loop load.
    let clients = ctx.jobs.max(1);
    let barrier = Barrier::new(clients);
    let stop = AtomicBool::new(false);
    let decided = AtomicBool::new(false);
    let measuring = AtomicBool::new(false);
    let mut t_load = Instant::now();
    let results: Vec<(Vec<Served>, Tracer)> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..clients)
            .map(|c| {
                let mut ctr = tr.fork(c as u32 + 1);
                let flags = (&barrier, &stop, &decided, &measuring);
                let (addr, sched) = (&addr, &sched);
                s.spawn(move || {
                    let (barrier, stop, decided, measuring) = flags;
                    let r =
                        client_loop(addr, sched, c, barrier, stop, decided, measuring, &mut ctr);
                    (r, ctr)
                })
            })
            .collect();
        let warm = ctx.deadline(LOAD_WARMUP);
        let deadline = ctx.deadline(1.0);
        while Instant::now() < warm {
            std::thread::sleep(Duration::from_millis(5));
        }
        measuring.store(true, Ordering::SeqCst);
        t_load = Instant::now();
        while Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(5));
        }
        stop.store(true, Ordering::SeqCst);
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let load_s = t_load.elapsed().as_secs_f64();
    let stats = cache_stats(&addr);
    server.stop();
    for _ in 0..SETUP_REPS {
        setup(&mut out);
    }

    let mut served = Vec::new();
    for (s, ctr) in results {
        tr.absorb(ctr);
        served.extend(s);
    }

    // Classify by the daemon's own verdict; check every body.
    let mut hit_by_key: BTreeMap<(usize, &str), Vec<f64>> = BTreeMap::new();
    let mut miss_ref: BTreeMap<(String, &str), String> = BTreeMap::new();
    for s in &served {
        if s.measured && s.verdict == "hit" {
            out.op_ms.push(s.ms);
            if let Some(k) = s.req.hot {
                hit_by_key.entry((k, s.req.format)).or_default().push(s.ms);
            }
        } else if s.measured && s.status == 200 {
            out.op2_ms.push(s.ms);
        }
        let expected = match s.req.hot {
            Some(k) => &hot_ref[&(k, s.req.format)],
            None => miss_ref
                .entry((s.req.query.clone(), s.req.format))
                .or_insert_with(|| offline_body(&s.req.query, s.req.format).unwrap_or_default()),
        };
        check_response(&mut out.tally, &s.req.query, s.status, &s.body, expected);
    }
    if served.len() < min_ops {
        out.tally
            .fail(|| format!("daemon: only {} requests served", served.len()));
    }
    let measured = served.iter().filter(|s| s.measured).count();
    out.ops_per_s = measured as f64 / load_s;
    let (hit_p50, miss_p50) = (median(&out.op_ms), median(&out.op2_ms));
    let (ht, hit_tail) = crate::stats::tail(&out.op_ms);
    let (mt, miss_tail) = crate::stats::tail(&out.op2_ms);
    out.summary = vec![
        format!("hit_p50_ms {hit_p50} ms ({} hits)", out.op_ms.len()),
        format!("hit_{ht}_ms {hit_tail} ms"),
        format!(
            "miss_p50_ms {miss_p50} ms ({} misses and partials)",
            out.op2_ms.len()
        ),
        format!("miss_{mt}_ms {miss_tail} ms"),
        format!(
            "req_per_s {} 1/s ({clients} closed-loop clients)",
            out.ops_per_s
        ),
    ];
    out.provenance
        .push(("daemon_clients".into(), clients.to_string()));

    match stats {
        Ok((hits, executed, coalesced)) => {
            if tr.enabled() {
                let l = &mut out.layers;
                l.insert("cache.hits".into(), (hits, "count"));
                l.insert("cache.executed".into(), (executed, "count"));
                l.insert("cache.coalesced".into(), (coalesced, "count"));
                let all = hits + executed + coalesced;
                l.insert("cache.hit_ratio".into(), (hits / all.max(1.0), "ratio"));
            }
        }
        Err(e) => out.tally.fail(|| format!("daemon /stats: {e}")),
    }
    if tr.enabled() {
        layer_probe(tr, &hit_by_key, hit_p50, &mut out);
    }
    out
}

/// Time the layers of a hot hit in-process, per hot key: parse, plan,
/// assemble, the whole warm `QueryService::answer`, and body rendering.
/// The HTTP overhead is the client round trip minus answer and body.
fn layer_probe(
    tr: &mut Tracer,
    hit_by_key: &BTreeMap<(usize, &str), Vec<f64>>,
    hit_p50_ms: f64,
    out: &mut Outcome,
) {
    const ROUNDS: u64 = 15;
    let svc = QueryService::new();
    let mut overhead = Vec::new();
    for (k, q) in HOT.iter().enumerate() {
        for f in FORMATS {
            let format = format_of(f);
            let canon = parse(q).canonical();
            let plan = query::plan(&parse(q)).expect("hot plan");
            let values: Vec<Arc<RowValue>> = (0..plan.cells().len())
                .map(|i| Arc::new(plan.compute(i)))
                .collect();
            let _ = svc.answer(&parse(q)).expect("warm answer");
            let body_span = if f == "json" {
                "report.body_json"
            } else {
                "report.body_ascii"
            };
            let (mut answer, mut body) = (Vec::new(), Vec::new());
            for r in 0..ROUNDS {
                let id = 2_000_000 + (k as u64 * 2 + (f == "json") as u64) * 100 + r;
                let open = tr.begin("hit.probe", id);
                let q = tr.span("query.parse", id, || {
                    if f == "json" {
                        Query::parse(&canon)
                    } else {
                        Query::parse_shorthand(q)
                    }
                    .expect("hot query parses")
                });
                let p = tr.span("query.plan", id, || query::plan(&q).expect("hot plan"));
                let assembled = tr.span("query.assemble", id, || {
                    plan.assemble(&values).expect("hot assemble")
                });
                std::hint::black_box((p, assembled));
                let t0 = Instant::now();
                let (res, _) = tr.span("service.answer_hit", id, || svc.answer(&q).expect("warm"));
                answer.push(ms_since(t0));
                let t0 = Instant::now();
                let b = tr.span(body_span, id, || res.body(format));
                body.push(ms_since(t0));
                std::hint::black_box(b);
                tr.end(open);
            }
            if let Some(rt) = hit_by_key.get(&(k, f)) {
                overhead.push(median(rt) - median(&answer) - median(&body));
            }
        }
    }
    let us = |name: &str| median(&tr.durations_ns(name)) / 1e3;
    let l = &mut out.layers;
    for (name, span) in [
        ("query.parse_us", "query.parse"),
        ("query.plan_us", "query.plan"),
        ("query.assemble_us", "query.assemble"),
        ("service.answer_hit_us", "service.answer_hit"),
        ("report.body_ascii_us", "report.body_ascii"),
        ("report.body_json_us", "report.body_json"),
    ] {
        l.insert(name.into(), (us(span), "us"));
    }
    l.insert("http.overhead_us".into(), (median(&overhead) * 1e3, "us"));
    l.insert(
        "query.plan_share_of_hit".into(),
        (us("query.plan") / (hit_p50_ms * 1e3), "ratio"),
    );
    l.insert("daemon.hit_p50_ms".into(), (hit_p50_ms, "ms"));
}
