//! Shard-count A/B: the sharded conservative-window DES driver must be
//! *observationally invisible*. Whatever `DOEBENCH_SHARDS` selects, the
//! engine executes the same `(time, seq)` total order — per-shard queues
//! drain lookahead windows (or, with no cross-shard channel, run free to
//! the horizon) and merge canonically at the barriers — so every
//! downstream consumer (campaign tables, storm clock digests, sanitizer
//! findings) must be byte-identical to serial, and the invariance must
//! compose with the queue-core switch (`DOEBENCH_QUEUE`), with `--check`
//! on or off, and with the worker count.
//!
//! Kept in one `#[test]` because the default shard and queue policies are
//! process-global (`set_default_shard_policy` / `set_default_queue_policy`,
//! the switches the env vars flip for a whole process).

use doebench::benchlib::set_jobs;
use doebench::mpi::{ShardedStorm, Storm, StormConfig, StormReport};
use doebench::net::{NetStorm, NetStormConfig, NetStormReport, ShardedNetStorm};
use doebench::simtime::{
    default_shard_policy, set_default_queue_policy, set_default_shard_policy, QueuePolicy,
    ShardPolicy, SimTime,
};
use doebench::{table4, table5, table6, table7, Campaign};

/// Every rendered table of the quick campaign, concatenated.
fn campaign_output() -> String {
    let c = Campaign::quick();
    let t4 = table4::run(&c);
    let t5 = table5::run(&c);
    let t6 = table6::run(&c);
    let t7 = table7::summarize(&t5, &t6);
    format!(
        "{}\n{}\n{}\n{}\n",
        table4::render(&t4).to_ascii(),
        table5::render(&t5).to_ascii(),
        table6::render(&t6).to_ascii(),
        table7::render(&t7).to_ascii(),
    )
}

/// Sharded mpisim storm run to `horizon` under the *process-default*
/// shard policy (the switch `DOEBENCH_SHARDS` flips): report + findings.
fn mpi_storm(
    cfg: &StormConfig,
    queue: QueuePolicy,
    horizon: SimTime,
) -> (StormReport, Vec<String>) {
    let mut storm =
        ShardedStorm::new(cfg, default_shard_policy(), queue, 41).expect("mpi storm world");
    storm.run_until(horizon).expect("mpi storm run");
    (storm.report(), storm.check_findings())
}

/// Sharded fabric storm twin of [`mpi_storm`].
fn net_storm(
    cfg: &NetStormConfig,
    queue: QueuePolicy,
    horizon: SimTime,
) -> (NetStormReport, Vec<String>) {
    let mut storm =
        ShardedNetStorm::new(cfg, default_shard_policy(), queue, 41).expect("fabric storm world");
    storm.run_until(horizon).expect("fabric storm run");
    (storm.report(), storm.check_findings())
}

#[test]
fn campaign_and_storms_are_byte_identical_across_shard_counts() {
    set_jobs(1);

    // --- Serial oracles: the unsharded drivers, run to a probe-derived
    // virtual-time horizon (horizons select shard-count-invariant event
    // sets; event-count stops do not).
    let mpi_cfg = StormConfig::with_ranks(1_000);
    let net_cfg = NetStormConfig::with_ranks(1_000);
    let mpi_horizon = {
        let mut probe = Storm::new(&mpi_cfg, QueuePolicy::Heap, 41).expect("mpi probe");
        probe.run(4_000).expect("mpi probe run");
        probe.report().final_time
    };
    let net_horizon = {
        let mut probe = NetStorm::new(&net_cfg, QueuePolicy::Heap, 41).expect("net probe");
        probe.run(4_000).expect("net probe run");
        probe.report().final_time
    };
    let mpi_oracle = {
        let mut s = Storm::new(&mpi_cfg, QueuePolicy::Heap, 41).expect("mpi oracle");
        s.run_until(mpi_horizon).expect("mpi oracle run");
        s.report()
    };
    let net_oracle = {
        let mut s = NetStorm::new(&net_cfg, QueuePolicy::Heap, 41).expect("net oracle");
        s.run_until(net_horizon).expect("net oracle run");
        s.report()
    };
    assert!(mpi_oracle.events > 0 && net_oracle.events > 0);

    // --- Storm digests across workers × shards × queue core × sanitizer.
    // Every combination must reproduce the serial oracle's fingerprint
    // exactly; at jobs 2 the shards run free on the worker team.
    let shard_policies = [
        ShardPolicy::Serial,
        ShardPolicy::Sharded(2),
        ShardPolicy::Sharded(8),
    ];
    for (jobs, shards) in [1, 2]
        .into_iter()
        .flat_map(|j| shard_policies.map(|s| (j, s)))
    {
        set_jobs(jobs);
        set_default_shard_policy(shards);
        for queue in [QueuePolicy::Heap, QueuePolicy::Calendar] {
            for checks in [false, true] {
                let label =
                    format!("jobs={jobs} shards={shards:?} queue={queue:?} checks={checks}");
                let m_cfg = StormConfig {
                    checks,
                    ..mpi_cfg.clone()
                };
                let n_cfg = NetStormConfig {
                    checks,
                    ..net_cfg.clone()
                };
                let (m, m_findings) = mpi_storm(&m_cfg, queue, mpi_horizon);
                let (n, n_findings) = net_storm(&n_cfg, queue, net_horizon);
                assert_eq!(m.events, mpi_oracle.events, "{label}");
                assert_eq!(m.final_time, mpi_oracle.final_time, "{label}");
                assert_eq!(m.clock_digest, mpi_oracle.clock_digest, "{label}");
                assert_eq!(n.events, net_oracle.events, "{label}");
                assert_eq!(n.final_time, net_oracle.final_time, "{label}");
                assert_eq!(n.clock_digest, net_oracle.clock_digest, "{label}");
                // Findings identical across every axis — and empty, the
                // storms are race-free by construction.
                assert_eq!(m_findings, Vec::<String>::new(), "{label}");
                assert_eq!(n_findings, Vec::<String>::new(), "{label}");
                // The counters report, but never fingerprint: windows ran
                // whenever events did.
                assert!(m.shards.windows > 0, "{label}");
                assert!(n.shards.windows > 0, "{label}");
            }
        }
    }

    // --- Campaign tables across the process-default switch (what CI's
    // DOEBENCH_SHARDS binary-diff job exercises end to end), composed
    // with the queue-core default.
    set_jobs(1);
    set_default_shard_policy(ShardPolicy::Serial);
    set_default_queue_policy(QueuePolicy::Heap);
    let tables_serial = campaign_output();
    set_default_shard_policy(ShardPolicy::Sharded(2));
    set_default_queue_policy(QueuePolicy::Calendar);
    let tables_two = campaign_output();
    set_default_shard_policy(ShardPolicy::Sharded(8));
    set_default_queue_policy(QueuePolicy::Heap);
    let tables_eight = campaign_output();
    set_default_shard_policy(ShardPolicy::Auto);
    set_default_queue_policy(QueuePolicy::Auto);

    for needle in ["Table 4", "Table 5", "Table 6", "Table 7"] {
        assert!(tables_serial.contains(needle), "missing {needle}");
    }
    assert!(
        tables_serial == tables_two && tables_serial == tables_eight,
        "campaign tables diverged across shard defaults"
    );
}
