//! `campaign`: the `compare --full` path — one full paper campaign
//! (`experiments::run_all(Campaign::paper())` at jobs = nproc, then
//! `render_markdown`), checked against `verify::claims` and a jobs = 1
//! reference of the same seed.

use std::sync::Arc;
use std::time::Instant;

use doebench::babelstream::{run_sim_cpu, run_sim_gpu};
use doebench::benchlib::set_jobs;
use doebench::commscope::run_commscope;
use doebench::experiments::{self, Manifest, Results};
use doebench::machines::Machine;
use doebench::osu::{on_node_pair, on_socket_pair, osu_latency, osu_latency_device};
use doebench::topo::{DeviceId, LinkClass};
use doebench::{table4, table5, table6, table7, verify, Campaign};

use crate::stats::median;
use crate::{mix, ms_since, probes, Ctx, Outcome, Tally, Tracer};

/// Quick campaigns after each paper campaign.
const QUICK_PER_ROUND: usize = 10;
/// Set-up repetitions after each paper campaign (the median over the
/// run is reported).
const SETUP_PER_ROUND: usize = 40;

/// The paper campaign under the workload seed.
pub fn paper(seed: u64) -> Campaign {
    let mut c = Campaign::paper();
    c.seed = mix(seed, "campaign", 0);
    c
}

/// The report without its wall-time provenance line, the one line that
/// legitimately differs between runs of the same seed.
pub fn comparable(md: &str) -> String {
    md.split_inclusive('\n')
        .filter(|l| !l.starts_with("* wall time:"))
        .collect()
}

/// Check one campaign: every paper claim holds and the tables equal the
/// jobs = 1 reference byte for byte (wall-time line excepted).
pub fn check(tally: &mut Tally, r: &Results, md: &str, reference: &str) -> bool {
    let failed: Vec<&str> = verify::claims(r)
        .into_iter()
        .filter(|c| !c.pass)
        .map(|c| c.name)
        .collect();
    let same = comparable(md) == comparable(reference);
    tally.check(failed.is_empty() && same, || {
        format!("campaign: failed claims {failed:?}, tables match reference: {same}")
    })
}

/// One campaign as `run_all` runs it, with a span per table.
fn traced_campaign(c: &Campaign, tr: &mut Tracer, req: u64, version: &'static str) -> Results {
    let t0 = Instant::now();
    let t4 = tr.span("table4.run", req, || table4::run(c));
    let t1 = Instant::now();
    let t5 = tr.span("table5.run", req, || table5::run(c));
    let t2 = Instant::now();
    let t6 = tr.span("table6.run", req, || table6::run(c));
    let t3 = Instant::now();
    let t7 = tr.span("table7.summarize", req, || table7::summarize(&t5, &t6));
    Results {
        table4: t4,
        table5: t5,
        table6: t6,
        table7: t7,
        manifest: Manifest {
            suite_version: version,
            seed: c.seed,
            reps: (
                c.stream_cpu.reps,
                c.stream_gpu.reps,
                c.osu.reps,
                c.commscope.reps,
            ),
            wall_secs: (
                (t1 - t0).as_secs_f64(),
                (t2 - t1).as_secs_f64(),
                (t3 - t2).as_secs_f64(),
            ),
        },
    }
}

/// One benchmark cell of the campaign grid, as the table modules lay it
/// out.
enum Cell<'m> {
    CpuStream(&'m Machine),
    CpuLatency(&'m Machine, &'static str),
    GpuStream(&'m Machine),
    HostToHost(&'m Machine),
    DeviceToDevice(&'m Machine, LinkClass, DeviceId, DeviceId),
    CommScope(&'m Machine),
}

/// The campaign's (machine × benchmark) grid: Tables 4, 5 and 6.
fn grid<'m>(cpu: &'m [Machine], gpu: &'m [Machine]) -> Vec<Cell<'m>> {
    let mut out = Vec::new();
    for m in cpu {
        out.push(Cell::CpuStream(m));
        out.push(Cell::CpuLatency(m, "osu-socket"));
        out.push(Cell::CpuLatency(m, "osu-node"));
    }
    for m in gpu {
        out.push(Cell::GpuStream(m));
        out.push(Cell::HostToHost(m));
        for (class, (da, db)) in m.topo.representative_pairs() {
            out.push(Cell::DeviceToDevice(m, class, da, db));
        }
    }
    for m in gpu {
        out.push(Cell::CommScope(m));
    }
    out
}

/// Run one cell serially through its suite's public entry point; the
/// span name says which suite.
fn run_cell(cell: &Cell<'_>, c: &Campaign, tr: &mut Tracer, req: u64) -> &'static str {
    match *cell {
        Cell::CpuStream(m) => tr.span("babelstream.cell", req, || {
            let seed = c.seed_for(m.name, "babelstream");
            let r = run_sim_cpu(
                &m.topo,
                &m.host_mem,
                m.host_stream_jitter,
                seed,
                &c.stream_cpu,
            );
            std::hint::black_box(r);
            "babelstream"
        }),
        Cell::CpuLatency(m, bench) => tr.span("osu.cell", req, || {
            let pair = if bench == "osu-socket" {
                on_socket_pair(&m.topo)
            } else {
                on_node_pair(&m.topo)
            };
            let pair = pair.expect("machine has two cores");
            let seed = c.seed_for(m.name, bench);
            std::hint::black_box(osu_latency(&m.topo, &m.mpi, pair, &c.osu, seed));
            "osu"
        }),
        Cell::GpuStream(m) => tr.span("babelstream.cell", req, || {
            let seed = c.seed_for(m.name, "babelstream-gpu");
            let r = run_sim_gpu(Arc::clone(&m.topo), &m.gpu_models, seed, &c.stream_gpu);
            std::hint::black_box(r);
            "babelstream"
        }),
        Cell::HostToHost(m) => tr.span("osu.cell", req, || {
            let pair = on_socket_pair(&m.topo).expect("machine has two cores");
            let seed = c.seed_for(m.name, "osu-h2h");
            std::hint::black_box(osu_latency(&m.topo, &m.mpi, pair, &c.osu, seed));
            "osu"
        }),
        Cell::DeviceToDevice(m, class, da, db) => tr.span("osu.cell", req, || {
            let cores = table5::device_pair_cores(&m.topo, da, db);
            let seed = c.seed_for(m.name, &format!("osu-d2d-{class}"));
            let r = osu_latency_device(&m.topo, &m.mpi, cores, (da, db), &c.osu, seed);
            std::hint::black_box(r);
            "osu"
        }),
        Cell::CommScope(m) => tr.span("commscope.cell", req, || {
            let seed = c.seed_for(m.name, "commscope");
            std::hint::black_box(run_commscope(&m.topo, &m.gpu_models, &c.commscope, seed));
            "commscope"
        }),
    }
}

/// Run the workload: `min_ops` paper campaigns at least, and more until
/// the run's seconds are spent. Quick campaigns (`compare` without
/// `--full`) and set-up repetitions run between them, so every kind of
/// sample spans the whole run.
pub fn run(ctx: &Ctx, tr: &mut Tracer, min_ops: usize) -> Outcome {
    let mut out = Outcome::default();
    let c = paper(ctx.seed);
    let mut q = Campaign::quick();
    q.seed = c.seed;

    // The jobs = 1 campaigns are the references the parallel ones must
    // match.
    set_jobs(1);
    let t0 = Instant::now();
    let reference_results = tr.span("campaign.serial", 0, || experiments::run_all(&c));
    let reference = experiments::render_markdown(&reference_results);
    let serial_s = t0.elapsed().as_secs_f64();
    check(&mut out.tally, &reference_results, &reference, &reference);
    let version = reference_results.manifest.suite_version;
    let quick_results = experiments::run_all(&q);
    let quick_reference = experiments::render_markdown(&quick_results);
    check(
        &mut out.tally,
        &quick_results,
        &quick_reference,
        &quick_reference,
    );

    set_jobs(ctx.jobs);
    let deadline = ctx.deadline(1.0);
    let mut req = 0u64;
    while out.op_ms.len() < min_ops || Instant::now() < deadline {
        req += 1;
        let t0 = Instant::now();
        let open = tr.begin("campaign", req);
        let r = if tr.enabled() {
            traced_campaign(&c, tr, req, version)
        } else {
            experiments::run_all(&c)
        };
        let md = tr.span("report.render_markdown", req, || {
            experiments::render_markdown(&r)
        });
        tr.end(open);
        out.op_ms.push(ms_since(t0));
        check(&mut out.tally, &r, &md, &reference);

        for _ in 0..QUICK_PER_ROUND {
            let t0 = Instant::now();
            let r = tr.span("campaign.quick", req, || experiments::run_all(&q));
            let md = experiments::render_markdown(&r);
            out.op2_ms.push(ms_since(t0));
            check(&mut out.tally, &r, &md, &quick_reference);
        }
        // Set-up: the machine models and campaign config a campaign is
        // built from.
        for _ in 0..SETUP_PER_ROUND {
            let t0 = Instant::now();
            let c = paper(ctx.seed);
            let machines = doebench::machines::all_machines();
            std::hint::black_box((c, machines));
            out.setup_s.push(t0.elapsed().as_secs_f64());
        }
    }

    let cpu = doebench::machines::cpu_machines();
    let gpu = doebench::machines::gpu_machines();
    let grid = grid(&cpu, &gpu);
    let campaign_s = median(&out.op_ms) / 1e3;
    out.ops_per_s = grid.len() as f64 / campaign_s;
    out.summary = vec![
        format!(
            "campaign_s {campaign_s} s (median of {}, jobs {})",
            out.op_ms.len(),
            ctx.jobs
        ),
        format!("campaign_serial_s {serial_s} s (jobs 1)"),
        format!(
            "quick_campaign_s {} s (median of {})",
            median(&out.op2_ms) / 1e3,
            out.op2_ms.len()
        ),
        format!("cells_per_s {} 1/s ({} cells)", out.ops_per_s, grid.len()),
    ];
    out.provenance
        .push(("campaign_jobs".into(), ctx.jobs.to_string()));

    if tr.enabled() {
        // Per-suite serial cell time: every cell once, at jobs = 1.
        set_jobs(1);
        let mut busy = [0.0f64; 3];
        for (i, cell) in grid.iter().enumerate() {
            let t0 = Instant::now();
            let suite = run_cell(cell, &c, tr, 1_000_000 + i as u64);
            let k = ["babelstream", "osu", "commscope"]
                .iter()
                .position(|s| *s == suite)
                .expect("known suite");
            busy[k] += t0.elapsed().as_secs_f64();
        }
        set_jobs(ctx.jobs);
        let total: f64 = busy.iter().sum();
        let l = &mut out.layers;
        l.insert("babelstream.cells_s".into(), (busy[0], "s"));
        l.insert("osu.cells_s".into(), (busy[1], "s"));
        l.insert("commscope.cells_s".into(), (busy[2], "s"));
        l.insert("sched.busy_s".into(), (total, "s"));
        l.insert(
            "sched.efficiency".into(),
            (total / (campaign_s * ctx.jobs as f64), "ratio"),
        );
        l.insert("campaign.campaign_s".into(), (campaign_s, "s"));
        l.insert("campaign.serial_s".into(), (serial_s, "s"));
        l.insert("mpisim.pingpong_ns".into(), (probes::pingpong_ns(tr), "ns"));
        l.insert(
            "gpurt.memcpy_iter_ns".into(),
            (probes::memcpy_iter_ns(tr), "ns"),
        );
    }
    out
}
