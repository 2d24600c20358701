//! The benchmark's own guarantees: inputs follow from the seed alone, and a
//! corrupted output is counted as a failure.
//!
//! Run with `cargo test --manifest-path perfbench/Cargo.toml`.

use std::collections::BTreeMap;
use std::path::PathBuf;

use doebench::{experiments, Campaign};
use doebench_perf::daemon::{check_response, offline_body, Schedule, FORMATS, HOT};
use doebench_perf::{campaign, lint, storm, Tally};

const ROUNDS: u64 = 600;

fn requests(seed: u64) -> Vec<doebench_perf::daemon::Req> {
    let s = Schedule::new(seed);
    (0..2)
        .flat_map(|c| (0..ROUNDS).map(move |r| (c, r)))
        .map(|(c, r)| s.req(c, r))
        .collect()
}

#[test]
fn same_seed_same_daemon_schedule() {
    assert_eq!(requests(7), requests(7));
    assert_ne!(requests(7), requests(8));
}

#[test]
fn every_seed_issues_the_same_mix() {
    let mix = |seed| {
        let mut counts: BTreeMap<String, usize> = BTreeMap::new();
        for r in requests(seed) {
            let class = match r.hot {
                Some(k) => format!("hit {} {}", HOT[k], r.format),
                None => format!("miss {}", r.query.split_whitespace().next().unwrap_or("")),
            };
            *counts.entry(class).or_default() += 1;
        }
        counts
    };
    let a = mix(1);
    assert_eq!(
        a.keys().filter(|k| k.starts_with("hit")).count(),
        HOT.len() * FORMATS.len()
    );
    let hits: usize = a
        .iter()
        .filter(|(k, _)| k.starts_with("hit"))
        .map(|(_, n)| n)
        .sum();
    assert_eq!(
        hits * 10,
        requests(1).len() * 9,
        "nine requests in ten are hits"
    );
    let b = mix(99);
    let hit_counts = |m: &BTreeMap<String, usize>| {
        m.iter()
            .filter(|(k, _)| k.starts_with("hit"))
            .map(|(_, n)| *n)
            .collect::<Vec<_>>()
    };
    let (mut ha, mut hb) = (hit_counts(&a), hit_counts(&b));
    ha.sort();
    hb.sort();
    assert_eq!(ha, hb);
}

#[test]
fn joint_misses_are_shared_by_every_client() {
    let s = Schedule::new(3);
    for round in (0..ROUNDS).filter(|r| r % 30 == 29) {
        let (a, b) = (s.req(0, round), s.req(1, round));
        assert!(a.joint && a.hot.is_none());
        assert_eq!(a, b);
    }
}

#[test]
fn same_seed_same_storm_horizon() {
    assert_eq!(storm::horizons(11), storm::horizons(11));
    assert_ne!(storm::horizons(11), storm::horizons(12));
    assert_eq!(storm::world_seed(11), storm::world_seed(11));
}

#[test]
fn corrupted_body_is_counted() {
    let expected = offline_body("table4 Eagle", "ascii").expect("offline answer");
    let mut t = Tally::default();
    assert!(check_response(
        &mut t,
        "table4 Eagle",
        200,
        expected.as_bytes(),
        &expected
    ));
    let mut corrupted = expected.clone().into_bytes();
    let i = corrupted
        .iter()
        .position(u8::is_ascii_digit)
        .expect("a digit in the table");
    corrupted[i] = if corrupted[i] == b'9' {
        b'0'
    } else {
        corrupted[i] + 1
    };
    assert!(!check_response(
        &mut t,
        "table4 Eagle",
        200,
        &corrupted,
        &expected
    ));
    assert!(!check_response(
        &mut t,
        "table4 Eagle",
        503,
        expected.as_bytes(),
        &expected
    ));
    assert_eq!((t.attempted, t.failed), (3, 2));
    assert!((t.error_rate() - 2.0 / 3.0).abs() < 1e-12);
}

#[test]
fn corrupted_digest_is_counted() {
    let mut t = Tally::default();
    assert!(storm::check(&mut t, "mpisim", (0xabc, 40), (0xabc, 40)));
    assert!(!storm::check(&mut t, "mpisim", (0xabd, 40), (0xabc, 40)));
    assert!(!storm::check(&mut t, "netsim", (0xabc, 41), (0xabc, 40)));
    assert_eq!((t.attempted, t.failed), (3, 2));
}

#[test]
fn corrupted_table_is_counted_and_wall_time_is_not() {
    let r = experiments::run_all(&Campaign::quick());
    let md = experiments::render_markdown(&r);
    let mut t = Tally::default();
    assert!(campaign::check(&mut t, &r, &md, &md), "{:?}", t.notes);

    let retimed: String = md
        .split_inclusive('\n')
        .map(|l| {
            if l.starts_with("* wall time:") {
                "* wall time: table4 9.9s, table5 9.9s, table6 9.9s\n"
            } else {
                l
            }
        })
        .collect();
    assert_ne!(retimed, md);
    assert!(campaign::check(&mut t, &r, &retimed, &md));

    let row = md
        .find("| 1.")
        .or_else(|| md.find("| "))
        .expect("a table row");
    let digit = row
        + md[row..]
            .find(|c: char| c.is_ascii_digit())
            .expect("a digit");
    let mut corrupted = md.clone().into_bytes();
    corrupted[digit] = if corrupted[digit] == b'9' {
        b'0'
    } else {
        corrupted[digit] + 1
    };
    let corrupted = String::from_utf8(corrupted).expect("ascii edit");
    assert!(!campaign::check(&mut t, &r, &corrupted, &md));
    assert_eq!((t.attempted, t.failed), (3, 1));
}

#[test]
fn corrupted_lint_report_is_counted() {
    let mut t = Tally::default();
    assert!(lint::check_report(&mut t, lint::EXPECTED, lint::EXPECTED));
    let extra = format!(
        "{}crates/x/src/lib.rs:1: [wall-clock] Instant::now\n",
        lint::EXPECTED
    );
    assert!(!lint::check_report(&mut t, &extra, lint::EXPECTED));
    assert_eq!((t.attempted, t.failed), (2, 1));
}

#[test]
fn unflagged_fixture_line_is_counted() {
    let root = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("unflagged-fixture");
    let dir = root.join("crates/dessan/tests/fixtures");
    std::fs::create_dir_all(&dir).expect("fixture dir");
    let flagged = "//@ path: crates/foo/src/lib.rs\nfn f() { let t = std::time::Instant::now(); } //~ wall-clock\n";
    let unflagged = "//@ path: crates/foo/src/lib.rs\nfn g() {} //~ wall-clock\n";
    std::fs::write(dir.join("fx_a.rs"), flagged).expect("write fixture");
    std::fs::write(dir.join("fx_b.rs"), unflagged).expect("write fixture");
    let mut t = Tally::default();
    lint::check_fixtures(&mut t, &root).expect("fixtures readable");
    assert_eq!((t.attempted, t.failed), (2, 1), "{:?}", t.notes);
    assert_eq!(
        lint::markers(unflagged),
        vec![(2, "wall-clock".to_string())]
    );
}
