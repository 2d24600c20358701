//! `doebench-perf --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! --pinned <dir> [--out <dir>]`
//!
//! Runs one workload and prints, as its last line, one JSON object with
//! `correct`, `attempted`, `failed` and `metrics`: the end-to-end metrics
//! untraced (`--trace 0`), the per-layer metrics traced (`--trace 1`).
//! Lines before it carry provenance and the metrics under their
//! workload-specific names. `perfbench/run.py` builds this binary,
//! unpacks the pinned lint input and passes `--pinned`.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

use doebench_perf::stats::{median, tail};
use doebench_perf::{
    campaign, daemon, lint, prov, rss_mb, storm, Ctx, Layers, Outcome, Tally, Tracer,
};

type Workload = fn(&Ctx, &mut Tracer, usize) -> Outcome;

const WORKLOADS: [(&str, Workload); 4] = [
    ("campaign", campaign::run),
    ("daemon", daemon::run),
    ("storm", storm::run),
    ("lint", lint::run),
];

/// Fewest timed operations a workload makes, whatever the seconds.
const MIN_OPS: usize = 3;

/// Every per-layer metric a traced run prints, with its unit.
const PER_LAYER: [(&str, &str); 40] = [
    ("simtime.queue_cycle_ns", "ns"),
    ("simtime.shard.windows", "count"),
    ("simtime.shard.events_per_window", "count"),
    ("simtime.shard.window_us", "us"),
    ("simtime.shard.cross_events", "count"),
    ("simtime.shard.net_windows", "count"),
    ("simtime.shard.net_events_per_window", "count"),
    ("simtime.shard.net_window_us", "us"),
    ("benchlib.fanout_us", "us"),
    ("mpisim.pingpong_ns", "ns"),
    ("mpisim.serial_events_per_s", "1/s"),
    ("mpisim.sharded_events_per_s", "1/s"),
    ("netsim.serial_events_per_s", "1/s"),
    ("netsim.sharded_events_per_s", "1/s"),
    ("gpurt.memcpy_iter_ns", "ns"),
    ("babelstream.cells_s", "s"),
    ("osu.cells_s", "s"),
    ("commscope.cells_s", "s"),
    ("sched.busy_s", "s"),
    ("sched.efficiency", "ratio"),
    ("campaign.campaign_s", "s"),
    ("campaign.serial_s", "s"),
    ("query.parse_us", "us"),
    ("query.plan_us", "us"),
    ("query.assemble_us", "us"),
    ("query.plan_share_of_hit", "ratio"),
    ("service.answer_hit_us", "us"),
    ("daemon.hit_p50_ms", "ms"),
    ("cache.hits", "count"),
    ("cache.executed", "count"),
    ("cache.coalesced", "count"),
    ("cache.hit_ratio", "ratio"),
    ("http.overhead_us", "us"),
    ("report.body_ascii_us", "us"),
    ("report.body_json_us", "us"),
    ("dessan.per_file_ms", "ms"),
    ("dessan.whole_program_ms", "ms"),
    ("dessan.lint_s", "s"),
    ("trace.overhead_pct", "%"),
    ("trace.spans", "count"),
];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    pinned: PathBuf,
    out: Option<PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let mut kv: BTreeMap<String, String> = BTreeMap::new();
    let mut it = std::env::args().skip(1);
    while let Some(k) = it.next() {
        let key = k
            .strip_prefix("--")
            .ok_or(format!("unexpected argument '{k}'"))?;
        let v = it.next().ok_or(format!("--{key} needs a value"))?;
        kv.insert(key.to_string(), v);
    }
    let take = |k: &str| kv.get(k).cloned().ok_or(format!("missing --{k}"));
    let known = ["workload", "seed", "seconds", "trace", "pinned", "out"];
    if let Some(k) = kv.keys().find(|k| !known.contains(&k.as_str())) {
        return Err(format!("unknown option --{k}"));
    }
    let seconds: f64 = take("seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    if !(seconds.is_finite() && seconds >= 0.0) {
        return Err("--seconds must be a non-negative number".into());
    }
    Ok(Args {
        workload: take("workload")?,
        seed: take("seed")?.parse().map_err(|e| format!("--seed: {e}"))?,
        seconds,
        trace: match take("trace")?.as_str() {
            "0" => false,
            "1" => true,
            t => return Err(format!("--trace must be 0 or 1, not '{t}'")),
        },
        pinned: PathBuf::from(take("pinned")?),
        out: kv.get("out").map(PathBuf::from),
    })
}

fn find(name: &str) -> Option<Workload> {
    WORKLOADS.iter().find(|(n, _)| *n == name).map(|&(_, f)| f)
}

/// The end-to-end metrics of an untraced pass.
fn end_to_end(o: &Outcome, rss: f64) -> Vec<(&'static str, f64, &'static str)> {
    vec![
        ("setup_s", median(&o.setup_s), "s"),
        ("success_rate", 1.0 - o.tally.error_rate(), "ratio"),
        ("rss_mb", rss, "MB"),
        ("op_p50_ms", median(&o.op_ms), "ms"),
        ("op_tail_ms", tail(&o.op_ms).1, "ms"),
        ("op2_p50_ms", median(&o.op2_ms), "ms"),
        ("ops_per_s", o.ops_per_s, "1/s"),
    ]
}

fn print_result(tally: &Tally, metrics: &[(&str, f64, &str)]) {
    let body: Vec<String> = metrics
        .iter()
        .map(|(n, v, u)| format!("\"{n}\":{{\"value\":{v:?},\"unit\":\"{u}\"}}"))
        .collect();
    println!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        tally.failed == 0,
        tally.attempted,
        tally.failed,
        body.join(",")
    );
}

fn provenance(args: &Args, jobs: usize, o: &Outcome) {
    let root = Path::new(".");
    let (lines, digest) = prov::source_lines(root);
    println!(
        "# workload {} seed {} seconds {}",
        args.workload, args.seed, args.seconds
    );
    println!(
        "# nproc {jobs} jobs {jobs} commit {} source_digest {digest:016x}",
        prov::commit(root).unwrap_or_else(|| "unknown (not a git checkout)".into())
    );
    let policy = doebench::simtime::default_shard_policy();
    println!(
        "# shard_policy {policy:?} resolves_to {} (for an 8-domain world)",
        policy.resolve(8)
    );
    for (k, v) in &o.provenance {
        println!("# {k} {v}");
    }
    let total: usize = lines.iter().map(|(_, n)| n).sum();
    let per: Vec<String> = lines.iter().map(|(c, n)| format!("{c}={n}")).collect();
    println!("# non_test_src_lines total={total} {}", per.join(" "));
}

fn run(args: &Args) -> Result<(), String> {
    let workload = find(&args.workload).ok_or(format!(
        "unknown workload '{}' (expected campaign, daemon, storm or lint)",
        args.workload
    ))?;
    if !args.pinned.join("dessan.toml").is_file() {
        return Err(format!(
            "pinned lint tree missing at {}",
            args.pinned.display()
        ));
    }
    let jobs = std::thread::available_parallelism().map_or(1, |n| n.get());
    let ctx = Ctx {
        seed: args.seed,
        seconds: args.seconds,
        jobs,
        pinned: args.pinned.clone(),
    };

    if !args.trace {
        let o = workload(&ctx, &mut Tracer::new(false), MIN_OPS);
        let metrics = end_to_end(&o, rss_mb()?);
        if let Some((name, v, _)) = metrics.iter().find(|m| !m.1.is_finite()) {
            return Err(format!("end-to-end metric {name} is {v}"));
        }
        provenance(args, jobs, &o);
        for s in &o.summary {
            println!("{s}");
        }
        println!(
            "error_rate {} ({} of {})",
            o.tally.error_rate(),
            o.tally.failed,
            o.tally.attempted
        );
        for n in &o.tally.notes {
            println!("# failure: {n}");
        }
        print_result(&o.tally, &metrics);
        return Ok(());
    }

    // Traced run: half the seconds untraced, half traced; the difference
    // of the two is the tracing overhead. Layers this workload does not
    // reach come from one minimal traced pass of the workload that does.
    let half = Ctx {
        seconds: args.seconds / 2.0,
        ..ctx.clone()
    };
    let plain = workload(&half, &mut Tracer::new(false), MIN_OPS);
    let mut tr = Tracer::new(true);
    let traced = workload(&half, &mut tr, MIN_OPS);
    let mut layers: Layers = traced.layers.clone();
    let mut tally = plain.tally.clone();
    tally.merge(traced.tally.clone());
    let probe_ctx = Ctx {
        seconds: 0.0,
        ..ctx.clone()
    };
    for (name, other) in WORKLOADS {
        if name == args.workload {
            continue;
        }
        let o = other(&probe_ctx, &mut tr, 1);
        for (k, v) in o.layers {
            layers.entry(k).or_insert(v);
        }
        tally.merge(o.tally);
    }
    let (p0, p1) = (median(&plain.op_ms), median(&traced.op_ms));
    layers.insert("trace.overhead_pct".into(), ((p1 - p0) / p0 * 100.0, "%"));
    layers.insert("trace.spans".into(), (tr.spans().len() as f64, "count"));

    provenance(args, jobs, &traced);
    for s in &traced.summary {
        println!("{s}");
    }
    println!("trace: op_p50_ms untraced {p0} traced {p1}");
    for (name, (n, ns)) in tr.self_time_by_name() {
        println!("# self_time {name} {} ms over {n} spans", ns as f64 / 1e6);
    }
    if let Some(dir) = &args.out {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        let path = dir.join(format!("trace-{}-{}.json", args.workload, args.seed));
        std::fs::write(&path, tr.write_chrome()).map_err(|e| format!("{}: {e}", path.display()))?;
        println!("# spans written to {}", path.display());
    }
    for n in &tally.notes {
        println!("# failure: {n}");
    }
    let mut metrics = Vec::new();
    for (name, unit) in PER_LAYER {
        match layers.get(name) {
            Some(&(v, u)) if u == unit && v.is_finite() => metrics.push((name, v, unit)),
            other => {
                return Err(format!(
                    "per-layer metric {name} missing or malformed: {other:?}"
                ))
            }
        }
    }
    print_result(&tally, &metrics);
    Ok(())
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("doebench-perf: {e}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("doebench-perf: {e}");
            ExitCode::FAILURE
        }
    }
}
