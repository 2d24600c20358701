//! The allocation-free hot-path contract.
//!
//! The substrate's arenas, pools, and dense tables exist so that a
//! steady-state repetition loop — schedule/pop events, send/recv messages,
//! enqueue copies — touches the allocator zero times once warm. This test
//! pins that down with a counting global allocator: warm each world up,
//! snapshot the allocation counter, run the steady-state loop, and assert
//! the counter did not move.
//!
//! Kept as a single `#[test]` in its own binary: the counter is
//! process-global, and a concurrently running test would perturb it.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

/// Counts allocation events (alloc/realloc/alloc_zeroed); frees are not
/// interesting here — a hot path that only frees still shrinks arenas.
struct CountingAlloc;

static ALLOC_EVENTS: AtomicU64 = AtomicU64::new(0);

// SAFETY: defers entirely to the system allocator; the counter is a
// side-channel with relaxed ordering and does not affect allocation.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOC_EVENTS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOC_EVENTS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOC_EVENTS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc_zeroed(layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Allocation events that happened while `f` ran.
fn alloc_delta(f: impl FnOnce()) -> u64 {
    let before = ALLOC_EVENTS.load(Ordering::Relaxed);
    f();
    ALLOC_EVENTS.load(Ordering::Relaxed) - before
}

use std::sync::Arc;

use doebench::benchlib::set_jobs;
use doebench::gpurt::testkit::dual_gpu_runtime;
use doebench::gpurt::Buffer;
use doebench::mpi::{MpiConfig, MpiSim, ShardedStorm, Storm, StormConfig};
use doebench::net::{
    Fabric, FabricConfig, NetStorm, NetStormConfig, NetWorld, NicConfig, NodeId, ShardedNetStorm,
};
use doebench::simtime::{EventQueue, QueuePolicy, ShardPolicy, SimDuration, SimRng, SimTime};
use doebench::topo::{CoreId, DeviceId, LinkKind, NodeBuilder, NumaId, SocketId, Vertex};

fn two_numa_topo() -> Arc<doebench::topo::NodeTopology> {
    Arc::new(
        NodeBuilder::new("alloc-test")
            .socket("A")
            .socket("B")
            .numa(SocketId(0))
            .numa(SocketId(1))
            .cores(NumaId(0), 4, 1)
            .cores(NumaId(1), 4, 1)
            .devices("G", NumaId(0), 1)
            .link(
                Vertex::Numa(NumaId(0)),
                Vertex::Numa(NumaId(1)),
                LinkKind::Upi,
                SimDuration::from_ns(200.0),
                40.0,
            )
            .link(
                Vertex::Numa(NumaId(0)),
                Vertex::Device(DeviceId(0)),
                LinkKind::Pcie { gen: 4, lanes: 16 },
                SimDuration::from_ns(500.0),
                25.0,
            )
            .build()
            .expect("valid topology"),
    )
}

fn event_queue_phase() -> u64 {
    let mut q = EventQueue::with_capacity(64);
    // Warm to a depth of 32 in-flight events.
    for i in 0..32u64 {
        q.schedule(SimTime::from_ps(i * 100), i);
    }
    let mut t = 32u64;
    alloc_delta(|| {
        // Steady state: one pop, one schedule, 100k times.
        for _ in 0..100_000 {
            let ev = q.pop().expect("queue stays at depth 32");
            t += 1;
            q.schedule(SimTime::from_ps(t * 100), ev.payload);
        }
    })
}

fn mpisim_phase(checks: bool) -> u64 {
    let mut w = MpiSim::new(two_numa_topo(), MpiConfig::default_host(), 7);
    // One rank per NUMA domain so every message crosses the socket link
    // (dense ports + route cache + rank-pair path memo all in play).
    let a = w.add_host_rank(CoreId(0)).expect("core 0");
    let b = w.add_host_rank(CoreId(4)).expect("core 4");
    if checks {
        w.enable_checks();
    }
    // Warm-up: fill the path memo, route cache, message queue capacity,
    // and (under --check) the vector-clock snapshot pool.
    for _ in 0..8 {
        w.send(a, b, 8).expect("send");
        w.recv(b, a, 8).expect("recv");
        w.send(b, a, 8).expect("send");
        w.recv(a, b, 8).expect("recv");
    }
    let delta = alloc_delta(|| {
        // Steady state: an eager pingpong, 10k round trips.
        for _ in 0..10_000 {
            w.send(a, b, 8).expect("send");
            w.recv(b, a, 8).expect("recv");
            w.send(b, a, 8).expect("send");
            w.recv(a, b, 8).expect("recv");
        }
    });
    assert!(w.check_findings().is_empty(), "pingpong must be clean");
    delta
}

fn netsim_phase(checks: bool) -> u64 {
    let mut w = NetWorld::new(
        Fabric::new(FabricConfig::slingshot_like()),
        NicConfig::default_hpc(),
        11,
    );
    let a = w.add_rank(NodeId(0)).expect("node 0");
    let b = w.add_rank(NodeId(1)).expect("node 1");
    if checks {
        w.enable_checks();
    }
    for _ in 0..8 {
        w.send(a, b, 8).expect("send");
        w.recv(b, a, 8).expect("recv");
        w.send(b, a, 8).expect("send");
        w.recv(a, b, 8).expect("recv");
    }
    let delta = alloc_delta(|| {
        for _ in 0..10_000 {
            w.send(a, b, 8).expect("send");
            w.recv(b, a, 8).expect("recv");
            w.send(b, a, 8).expect("send");
            w.recv(a, b, 8).expect("recv");
        }
    });
    assert!(w.check_findings().is_empty(), "pingpong must be clean");
    delta
}

/// A 1000-rank storm (500 pairs, calendar scheduler): the O(ranks)
/// event-engine workload must hold the allocator still once the worlds,
/// mailboxes, batch buffer, and calendar arena are warm.
fn mpisim_storm_phase(checks: bool) -> u64 {
    let cfg = StormConfig {
        checks,
        ..StormConfig::with_ranks(1_000)
    };
    let mut storm = Storm::new(&cfg, QueuePolicy::Calendar, 21).expect("storm world");
    // Warm: ten full rounds, so every per-rank mailbox, copy port, the
    // batch scratch, and (under --check) the clock pools hit capacity.
    storm.run(5_000).expect("warm-up");
    let delta = alloc_delta(|| {
        storm.run(30_000).expect("steady state");
    });
    assert!(
        storm.world().check_findings().is_empty(),
        "storm must be clean"
    );
    delta
}

/// The fabric flavor: zero stagger keeps pairs in lock-step, so the
/// steady state drains wide same-timestamp batches through `pop_batch`.
fn netsim_storm_phase() -> u64 {
    let cfg = NetStormConfig::with_ranks(1_000);
    let mut storm = NetStorm::new(&cfg, QueuePolicy::Calendar, 23).expect("fabric storm");
    storm.run(5_000).expect("warm-up");
    alloc_delta(|| {
        storm.run(30_000).expect("steady state");
    })
}

/// The sharded conservative-window driver on the same 1000-rank storm:
/// four lanes, run at `jobs` workers. At `--jobs 1` the executor takes
/// its serial path (a plain loop); at `--jobs 2` every lock-step window
/// fork-joins on `benchlib`'s persistent worker team, which warm-up has
/// already grown, so a window's fan-out and join allocate nothing either.
/// Pins that the engine's window loop is allocation-free per worker once
/// warm — lane batch buffers, outboxes, and the barrier-merge scratch are
/// pooled, and the window error slot lives on the stack — and that the
/// threaded executor adds no per-window allocation of its own.
fn mpisim_sharded_storm_phase(checks: bool, jobs: usize) -> u64 {
    set_jobs(jobs);
    let cfg = StormConfig {
        checks,
        ..StormConfig::with_ranks(1_000)
    };
    // Horizons from a serial probe: warm to ~10 rounds, steady ~60 more.
    let (h_warm, h_end) = {
        let mut probe = Storm::new(&cfg, QueuePolicy::Calendar, 21).expect("probe");
        probe.run(5_000).expect("probe warm");
        let w = probe.report().final_time;
        probe.run(35_000).expect("probe run");
        (w, probe.report().final_time)
    };
    let mut storm = ShardedStorm::new(&cfg, ShardPolicy::Sharded(4), QueuePolicy::Calendar, 21)
        .expect("sharded storm");
    storm.run_until(h_warm).expect("warm-up");
    let delta = alloc_delta(|| {
        storm.run_until(h_end).expect("steady state");
    });
    assert!(storm.check_findings().is_empty(), "storm must be clean");
    delta
}

/// Sharded twin of [`netsim_storm_phase`], at `jobs` workers.
fn netsim_sharded_storm_phase(jobs: usize) -> u64 {
    set_jobs(jobs);
    let cfg = NetStormConfig::with_ranks(1_000);
    let (h_warm, h_end) = {
        let mut probe = NetStorm::new(&cfg, QueuePolicy::Calendar, 23).expect("probe");
        probe.run(5_000).expect("probe warm");
        let w = probe.report().final_time;
        probe.run(35_000).expect("probe run");
        (w, probe.report().final_time)
    };
    let mut storm = ShardedNetStorm::new(&cfg, ShardPolicy::Sharded(4), QueuePolicy::Calendar, 23)
        .expect("sharded fabric storm");
    storm.run_until(h_warm).expect("warm-up");
    alloc_delta(|| {
        storm.run_until(h_end).expect("steady state");
    })
}

fn gpurt_phase() -> u64 {
    let mut rt = dual_gpu_runtime();
    let s = rt.create_stream(DeviceId(0)).expect("stream");
    let host = Buffer::pinned_host(NumaId(0), 1 << 20);
    let dev = Buffer::device(DeviceId(0), 1 << 20);
    let peer = Buffer::device(DeviceId(1), 1 << 20);
    // Warm-up: route cache, wire engines, stream state.
    for _ in 0..8 {
        rt.memcpy_async(&dev, &host, 4096, &s).expect("h2d");
        rt.memcpy_async(&peer, &dev, 4096, &s).expect("d2d");
        rt.memcpy_async(&host, &peer, 4096, &s).expect("d2h");
        rt.stream_synchronize(&s).expect("sync");
    }
    alloc_delta(|| {
        // Steady state: the commscope memcpy inner loop shape.
        for _ in 0..10_000 {
            rt.memcpy_async(&dev, &host, 4096, &s).expect("h2d");
            rt.memcpy_async(&peer, &dev, 4096, &s).expect("d2d");
            rt.memcpy_async(&host, &peer, 4096, &s).expect("d2h");
            rt.stream_synchronize(&s).expect("sync");
        }
    })
}

fn noise_phase() -> u64 {
    let mut rng = SimRng::from_seed(3);
    let mut buf = vec![0.0f64; 256];
    // Warm: nothing to warm — the buffer is caller-owned.
    alloc_delta(|| {
        for _ in 0..1_000 {
            rng.fill_gaussian(&mut buf);
        }
    })
}

#[test]
fn steady_state_hot_paths_allocate_nothing() {
    // (phase name, allocation events during steady state)
    let phases = [
        ("event queue schedule/pop", event_queue_phase()),
        ("mpisim pingpong", mpisim_phase(false)),
        ("mpisim pingpong under --check", mpisim_phase(true)),
        ("netsim pingpong", netsim_phase(false)),
        ("netsim pingpong under --check", netsim_phase(true)),
        ("mpisim 1k-rank storm", mpisim_storm_phase(false)),
        (
            "mpisim 1k-rank storm under --check",
            mpisim_storm_phase(true),
        ),
        ("netsim 1k-rank lock-step storm", netsim_storm_phase()),
        (
            "mpisim 1k-rank sharded storm",
            mpisim_sharded_storm_phase(false, 1),
        ),
        (
            "mpisim 1k-rank sharded storm under --check",
            mpisim_sharded_storm_phase(true, 1),
        ),
        (
            "netsim 1k-rank sharded lock-step storm",
            netsim_sharded_storm_phase(1),
        ),
        (
            "mpisim 1k-rank sharded storm at --jobs 2",
            mpisim_sharded_storm_phase(false, 2),
        ),
        (
            "mpisim 1k-rank sharded storm under --check at --jobs 2",
            mpisim_sharded_storm_phase(true, 2),
        ),
        (
            "netsim 1k-rank sharded lock-step storm at --jobs 2",
            netsim_sharded_storm_phase(2),
        ),
        ("gpurt memcpy loop", gpurt_phase()),
        ("batch gaussian fill", noise_phase()),
    ];
    let dirty: Vec<String> = phases
        .iter()
        .filter(|(_, d)| *d > 0)
        .map(|(name, d)| format!("{name}: {d} allocation(s)"))
        .collect();
    assert!(
        dirty.is_empty(),
        "steady-state hot paths must not allocate:\n{}",
        dirty.join("\n")
    );
}
