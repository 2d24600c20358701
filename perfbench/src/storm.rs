//! `storm`: the 10k-rank mpisim `ShardedStorm` and the 1k-rank netsim
//! `ShardedNetStorm` under `ShardPolicy::Auto`, each built fresh and run
//! to a seed-derived virtual-time horizon. Each sharded run's clock
//! digest must equal the serial storm's at the same horizon.
//!
//! The mpisim storm is barrier-bound (a handful of events per lock-step
//! window), the netsim storm work-bound (hundreds per window), so a
//! change to per-window fan-out cost moves the first and barely the
//! second.

use std::time::Instant;

use doebench::benchlib::set_jobs;
use doebench::mpi::{ShardedStorm, Storm, StormConfig};
use doebench::net::{NetStorm, NetStormConfig, ShardedNetStorm};
use doebench::simtime::{QueuePolicy, ShardPolicy, SimTime};

use crate::stats::median;
use crate::{mix, ms_since, probes, Ctx, Outcome, Tally, Tracer};

/// Ranks of the mpisim storm.
pub const MPI_RANKS: usize = 10_000;
/// Ranks of the netsim storm.
pub const NET_RANKS: usize = 1_000;

/// Virtual-time horizons `(mpisim, netsim)` of a seed: about 40k mpisim
/// and 370k netsim round trips. The seed moves each horizon by under
/// 0.5%, so runs of different seeds do nearly the same work.
pub fn horizons(seed: u64) -> (SimTime, SimTime) {
    let h = mix(seed, "storm-horizon", 0);
    let mpi = 1_600_000_000 + h % 8_000_000;
    let net = 2_000_000_000 + (h >> 32) % 10_000_000;
    (SimTime::from_ps(mpi), SimTime::from_ps(net))
}

/// The storms' world seed.
pub fn world_seed(seed: u64) -> u64 {
    mix(seed, "storm-world", 0)
}

/// Check a sharded run against the serial one: same clock digest, same
/// event count.
pub fn check(tally: &mut Tally, which: &str, sharded: (u64, u64), serial: (u64, u64)) -> bool {
    tally.check(sharded == serial, || {
        format!("storm {which}: sharded (digest, events) {sharded:x?} != serial {serial:x?}")
    })
}

/// Serial runs of each storm repeated this often; the median time counts.
const SERIAL_REPS: u64 = 5;

/// Serial reference runs: `(digest, events, median host seconds of the
/// run alone)` per storm.
fn serial(seed: u64, h: (SimTime, SimTime), tr: &mut Tracer) -> [(u64, u64, f64); 2] {
    let ws = world_seed(seed);
    let (mut mpi, mut net) = ((0, 0), (0, 0));
    let (mut mpi_s, mut net_s) = (Vec::new(), Vec::new());
    for rep in 0..SERIAL_REPS {
        let mut s = Storm::new(&StormConfig::with_ranks(MPI_RANKS), QueuePolicy::Auto, ws)
            .expect("serial mpisim storm");
        let t0 = Instant::now();
        let r = tr.span("mpisim.serial_run", rep, || s.run_until(h.0));
        mpi_s.push(t0.elapsed().as_secs_f64());
        r.expect("serial mpisim run");
        let rep_m = s.report();
        mpi = (rep_m.clock_digest, rep_m.events);

        let cfg = NetStormConfig::with_ranks(NET_RANKS);
        let mut s = NetStorm::new(&cfg, QueuePolicy::Auto, ws).expect("serial netsim storm");
        let t0 = Instant::now();
        let r = tr.span("netsim.serial_run", rep, || s.run_until(h.1));
        net_s.push(t0.elapsed().as_secs_f64());
        r.expect("serial netsim run");
        let rep_n = s.report();
        net = (rep_n.clock_digest, rep_n.events);
    }
    [
        (mpi.0, mpi.1, median(&mpi_s)),
        (net.0, net.1, median(&net_s)),
    ]
}

/// Run the workload: build and run both sharded storms until the run's
/// seconds are spent (`min_ops` times at least).
pub fn run(ctx: &Ctx, tr: &mut Tracer, min_ops: usize) -> Outcome {
    let mut out = Outcome::default();
    set_jobs(ctx.jobs);
    let h = horizons(ctx.seed);
    let ws = world_seed(ctx.seed);
    let [mpi_ref, net_ref] = serial(ctx.seed, h, tr);
    let (mpi_cfg, net_cfg) = (
        StormConfig::with_ranks(MPI_RANKS),
        NetStormConfig::with_ranks(NET_RANKS),
    );

    let deadline = ctx.deadline(1.0);
    let (mut mpi_last, mut net_last) = (None, None);
    let mut shards = (0, 0);
    let mut req = 0usize;
    while req < min_ops || Instant::now() < deadline {
        req += 1;
        let t0 = Instant::now();
        let mut mpi = tr.span("storm.mpi_build", req as u64, || {
            ShardedStorm::new(&mpi_cfg, ShardPolicy::Auto, QueuePolicy::Auto, ws)
        });
        let mut net = tr.span("storm.net_build", req as u64, || {
            ShardedNetStorm::new(&net_cfg, ShardPolicy::Auto, QueuePolicy::Auto, ws)
        });
        out.setup_s.push(t0.elapsed().as_secs_f64());
        let (Ok(mpi), Ok(net)) = (mpi.as_mut(), net.as_mut()) else {
            out.tally
                .fail(|| "storm: world construction failed".to_string());
            continue;
        };
        shards = (mpi.shards(), net.shards());

        let t0 = Instant::now();
        let r = tr.span("storm.mpi_run", req as u64, || mpi.run_until(h.0));
        out.op_ms.push(ms_since(t0));
        match r {
            Ok(_) => {
                let rep = mpi.report();
                check(
                    &mut out.tally,
                    "mpisim",
                    (rep.clock_digest, rep.events),
                    (mpi_ref.0, mpi_ref.1),
                );
                mpi_last = Some(rep);
            }
            Err(e) => out.tally.fail(|| format!("storm mpisim: {e:?}")),
        }

        let t0 = Instant::now();
        let r = tr.span("storm.net_run", req as u64, || net.run_until(h.1));
        out.op2_ms.push(ms_since(t0));
        match r {
            Ok(_) => {
                let rep = net.report();
                check(
                    &mut out.tally,
                    "netsim",
                    (rep.clock_digest, rep.events),
                    (net_ref.0, net_ref.1),
                );
                net_last = Some(rep);
            }
            Err(e) => out.tally.fail(|| format!("storm netsim: {e:?}")),
        }
    }

    let mpi_rate = mpi_ref.1 as f64 / (median(&out.op_ms) / 1e3);
    let net_rate = net_ref.1 as f64 / (median(&out.op2_ms) / 1e3);
    let (mpi_serial, net_serial) = (mpi_ref.1 as f64 / mpi_ref.2, net_ref.1 as f64 / net_ref.2);
    out.ops_per_s = mpi_rate;
    out.summary = vec![
        format!(
            "mpi_storm_events_per_s {mpi_rate} 1/s ({} events, {} runs)",
            mpi_ref.1,
            out.op_ms.len()
        ),
        format!(
            "net_storm_events_per_s {net_rate} 1/s ({} events)",
            net_ref.1
        ),
        format!(
            "mpisim_serial_events_per_s {mpi_serial} 1/s (sharded/serial {})",
            mpi_rate / mpi_serial
        ),
        format!(
            "netsim_serial_events_per_s {net_serial} 1/s (sharded/serial {})",
            net_rate / net_serial
        ),
    ];
    out.provenance
        .push(("storm_shards_mpisim".into(), shards.0.to_string()));
    out.provenance
        .push(("storm_shards_netsim".into(), shards.1.to_string()));
    out.provenance.push((
        "storm_horizon_ps".into(),
        format!("{},{}", h.0.as_ps(), h.1.as_ps()),
    ));

    if tr.enabled() {
        let l = &mut out.layers;
        if let (Some(m), Some(n)) = (mpi_last, net_last) {
            let win = |w: u64| w.max(1) as f64;
            l.insert(
                "simtime.shard.windows".into(),
                (m.shards.windows as f64, "count"),
            );
            l.insert(
                "simtime.shard.events_per_window".into(),
                (m.events as f64 / win(m.shards.windows), "count"),
            );
            l.insert(
                "simtime.shard.window_us".into(),
                (median(&out.op_ms) * 1e3 / win(m.shards.windows), "us"),
            );
            l.insert(
                "simtime.shard.cross_events".into(),
                (m.shards.cross_events as f64, "count"),
            );
            l.insert(
                "simtime.shard.net_windows".into(),
                (n.shards.windows as f64, "count"),
            );
            l.insert(
                "simtime.shard.net_events_per_window".into(),
                (n.events as f64 / win(n.shards.windows), "count"),
            );
            l.insert(
                "simtime.shard.net_window_us".into(),
                (median(&out.op2_ms) * 1e3 / win(n.shards.windows), "us"),
            );
        }
        l.insert("mpisim.serial_events_per_s".into(), (mpi_serial, "1/s"));
        l.insert("mpisim.sharded_events_per_s".into(), (mpi_rate, "1/s"));
        l.insert("netsim.serial_events_per_s".into(), (net_serial, "1/s"));
        l.insert("netsim.sharded_events_per_s".into(), (net_rate, "1/s"));
        let q = probes::queue_cycle_ns(tr, ctx.seed);
        l.insert("simtime.queue_cycle_ns".into(), (q, "ns"));
        let f = probes::fanout_us(tr, ctx.jobs);
        l.insert("benchlib.fanout_us".into(), (f, "us"));
    }
    out
}
