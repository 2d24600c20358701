//! Layer probes: fixed loops over one crate's public hot-path calls,
//! timed from outside in batches. Each batch is a span; the metric is
//! the median batch time per call.

use std::time::Instant;

use doebench::benchlib::{parallel_for_each_mut, set_jobs};
use doebench::gpurt::testkit::dual_gpu_runtime;
use doebench::gpurt::Buffer;
use doebench::mpi::{MpiConfig, MpiSim};
use doebench::simtime::{EventQueue, QueuePolicy, SimDuration, SimRng, SimTime};
use doebench::topo::{CoreId, DeviceId, NumaId};

use crate::stats::median;
use crate::trace::Tracer;

const BATCHES: u64 = 9;

/// Run `batch` `BATCHES` times inside spans named `name`; median
/// nanoseconds per call over batches of `per_batch` calls.
fn batched(tr: &mut Tracer, name: &'static str, per_batch: u64, mut batch: impl FnMut()) -> f64 {
    let mut per_call = Vec::new();
    for b in 0..BATCHES {
        let t0 = Instant::now();
        tr.span(name, b, &mut batch);
        per_call.push(t0.elapsed().as_nanos() as f64 / per_batch as f64);
    }
    median(&per_call)
}

/// `EventQueue` schedule + pop with 10 000 events in flight and
/// storm-like ~1 µs reschedule gaps, under the default queue policy.
pub fn queue_cycle_ns(tr: &mut Tracer, seed: u64) -> f64 {
    const CYCLES: u64 = 100_000;
    const DEPTH: u64 = 10_000;
    let mut q = EventQueue::with_policy_and_capacity(QueuePolicy::Auto, DEPTH as usize);
    let mut rng = SimRng::from_seed(seed);
    for i in 0..DEPTH {
        q.schedule(
            SimTime::from_ps(1_000_000 + rng.next_u64() % 1_000_000),
            i as u32,
        );
    }
    batched(tr, "simtime.queue_cycle", CYCLES, || {
        for _ in 0..CYCLES {
            let ev = q.pop().expect("depth stays at 10k");
            let gap = 800_000 + rng.next_u64() % 400_000;
            q.schedule(ev.at + SimDuration::from_ps(gap), ev.payload);
        }
        std::hint::black_box(q.len());
    })
}

/// One `parallel_for_each_mut` over `jobs` no-op items: the fan-out and
/// join a sharded window pays once per window.
pub fn fanout_us(tr: &mut Tracer, jobs: usize) -> f64 {
    const CALLS: u64 = 200;
    set_jobs(jobs);
    let mut items = vec![0u64; jobs.max(1)];
    batched(tr, "benchlib.fanout", CALLS, || {
        for _ in 0..CALLS {
            parallel_for_each_mut(&mut items, |i, x| *x = x.wrapping_add(i as u64));
        }
        std::hint::black_box(&items);
    }) / 1e3
}

/// One MPI pingpong round trip (two sends, two receives) between two
/// cores of the first registry machine.
pub fn pingpong_ns(tr: &mut Tracer) -> f64 {
    const ROUNDTRIPS: u64 = 20_000;
    let machine = doebench::machines::all_machines()
        .into_iter()
        .next()
        .expect("machine registry is not empty");
    let mut w = MpiSim::new(machine.topo.clone(), MpiConfig::default_host(), 7);
    let a = w.add_host_rank(CoreId(0)).expect("core 0");
    let b = w.add_host_rank(CoreId(1)).expect("core 1");
    batched(tr, "mpisim.pingpong", ROUNDTRIPS, || {
        for _ in 0..ROUNDTRIPS {
            w.send(a, b, 8).expect("send");
            w.recv(b, a, 8).expect("recv");
            w.send(b, a, 8).expect("send");
            w.recv(a, b, 8).expect("recv");
        }
    })
}

/// One host→device→peer→host memcpy chain plus a stream synchronize on
/// the dual-GPU test runtime.
pub fn memcpy_iter_ns(tr: &mut Tracer) -> f64 {
    const ITERS: u64 = 20_000;
    let mut rt = dual_gpu_runtime();
    let s = rt.create_stream(DeviceId(0)).expect("stream");
    let host = Buffer::pinned_host(NumaId(0), 1 << 20);
    let dev = Buffer::device(DeviceId(0), 1 << 20);
    let peer = Buffer::device(DeviceId(1), 1 << 20);
    batched(tr, "gpurt.memcpy_iter", ITERS, || {
        for _ in 0..ITERS {
            rt.memcpy_async(&dev, &host, 4096, &s).expect("h2d");
            rt.memcpy_async(&peer, &dev, 4096, &s).expect("d2d");
            rt.memcpy_async(&host, &peer, 4096, &s).expect("d2h");
            rt.stream_synchronize(&s).expect("sync");
        }
    })
}
