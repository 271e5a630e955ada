//! Tests of the benchmark's statistics, span and operation-accounting
//! helpers.

use hulkv_perfbench::checks::{Checker, Obs};
use hulkv_perfbench::spans::{layer_self_ns, self_times, Span, Spans};
use hulkv_perfbench::stats::{beyond, iqr_share, median, percentile, quartiles, tail};

fn span(
    name: &'static str,
    layer: &'static str,
    parent: Option<usize>,
    start: u64,
    end: u64,
) -> Span {
    Span {
        name,
        layer,
        rep: 0,
        parent,
        start_ns: start,
        end_ns: end,
        work: 0,
    }
}

#[test]
fn median_of_odd_and_even_counts() {
    assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    assert!(median(&[]).is_nan());
}

#[test]
fn quartiles_match_python_exclusive_method() {
    // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
    let xs: Vec<f64> = (1..=10).map(f64::from).collect();
    assert_eq!(quartiles(&xs), Some((2.75, 8.25)));
    // statistics.quantiles([1, 2, 3, 4], n=4) == [1.25, 2.5, 3.75]
    assert_eq!(quartiles(&[4.0, 3.0, 2.0, 1.0]), Some((1.25, 3.75)));
    assert_eq!(quartiles(&[1.0]), None);
    let share = iqr_share(&xs).expect("ten samples");
    assert!((share - 5.5 / 5.5).abs() < 1e-12, "{share}");
}

#[test]
fn nearest_rank_percentile() {
    let xs: Vec<f64> = (1..=100).map(f64::from).collect();
    assert_eq!(percentile(&xs, 50.0), 50.0);
    assert_eq!(percentile(&xs, 90.0), 90.0);
    assert_eq!(percentile(&xs, 99.0), 99.0);
    assert_eq!(beyond(100, 90.0), 10);
    assert_eq!(beyond(100, 95.0), 5);
}

#[test]
fn tail_needs_ten_samples_beyond() {
    // 19 samples: even the median has only 9 beyond it.
    let xs: Vec<f64> = (1..=19).map(f64::from).collect();
    assert_eq!(tail(&xs), None);
    // 20 samples: p50 has exactly 10 beyond, p75 only 5.
    let xs: Vec<f64> = (1..=20).map(f64::from).collect();
    assert_eq!(tail(&xs), Some((50.0, 10.0)));
    // 99 samples: p90 has 9 beyond, so the tail is p75.
    let xs: Vec<f64> = (1..=99).map(f64::from).collect();
    assert_eq!(tail(&xs).map(|t| t.0), Some(75.0));
    // 100 samples: p90 has 10 beyond.
    let xs: Vec<f64> = (1..=100).map(f64::from).collect();
    assert_eq!(tail(&xs), Some((90.0, 90.0)));
    // 1000 samples: p99 has 10 beyond.
    let xs: Vec<f64> = (1..=1000).map(f64::from).collect();
    assert_eq!(tail(&xs), Some((99.0, 990.0)));
}

#[test]
fn self_time_subtracts_children_only() {
    // rep [0, 100) > call [10, 60) > inner [20, 30); second call [70, 90).
    let spans = vec![
        span("rep", "bench", None, 0, 100),
        span("call", "hulkv", Some(0), 10, 60),
        span("inner", "hulkv-sim", Some(1), 20, 30),
        span("call2", "hulkv-host", Some(0), 70, 90),
    ];
    assert_eq!(self_times(&spans), vec![30, 40, 10, 20]);
    let per_layer = &layer_self_ns(&spans)[&0];
    assert_eq!(per_layer["bench"], 30);
    assert_eq!(per_layer["hulkv"], 40);
    assert_eq!(per_layer["hulkv-sim"], 10);
    assert_eq!(per_layer["hulkv-host"], 20);
    // Self times partition the root's interval.
    assert_eq!(per_layer.values().sum::<u64>(), 100);
}

#[test]
fn overlapping_children_are_counted_once() {
    let spans = vec![
        span("rep", "bench", None, 0, 100),
        span("a", "hulkv", Some(0), 10, 50),
        span("b", "hulkv", Some(0), 40, 70),
    ];
    assert_eq!(self_times(&spans)[0], 40);
}

#[test]
fn recorder_nests_and_can_be_disabled() {
    let mut sp = Spans::new(true);
    sp.set_rep(3);
    sp.enter("rep", "bench");
    let v = sp.time("call", "hulkv", || 7);
    sp.annotate(42);
    sp.exit();
    assert_eq!(v, 7);
    let s = sp.spans();
    assert_eq!(s.len(), 2);
    assert_eq!((s[1].parent, s[1].rep, s[1].work), (Some(0), 3, 42));
    assert!(s[0].start_ns <= s[1].start_ns && s[1].end_ns <= s[0].end_ns);
    assert_eq!(sp.to_jsonl().lines().count(), 2);

    sp.set_enabled(false);
    sp.enter("rep", "bench");
    sp.time("call", "hulkv", || ());
    sp.exit();
    assert_eq!(sp.spans().len(), 2, "a disabled recorder records nothing");
}

#[test]
fn failures_count_checks_errors_and_mismatches() {
    let mut ck = Checker::new();
    // First rep: fixes the references; one call's own check fails.
    ck.record(&[
        Obs::new(("host", 0), true, 100),
        Obs::new(("host", 1), false, 200),
        Obs::error(("load", 0)),
    ]);
    assert_eq!((ck.attempted(), ck.failed()), (3, 2));
    // Second rep: same outcomes except one differs from its reference.
    ck.record(&[
        Obs::new(("host", 0), true, 101),
        Obs::new(("host", 1), true, 200),
    ]);
    assert_eq!((ck.attempted(), ck.failed()), (5, 3));
    assert_eq!(ck.first_failures().len(), 3);
    // A failed check is one failed operation, even if the value differs too.
    ck.record(&[Obs::new(("host", 0), false, 999)]);
    assert_eq!((ck.attempted(), ck.failed()), (6, 4));
}

#[test]
fn fingerprint_depends_on_reference_outcomes_only() {
    let mut a = Checker::new();
    let mut b = Checker::new();
    a.record(&[Obs::new(("x", 0), true, 1), Obs::new(("x", 1), true, 2)]);
    b.record(&[Obs::new(("x", 1), true, 2), Obs::new(("x", 0), true, 1)]);
    b.record(&[Obs::new(("x", 0), true, 1)]);
    assert_eq!(a.fingerprint(), b.fingerprint());
    let mut c = Checker::new();
    c.record(&[Obs::new(("x", 0), true, 1), Obs::new(("x", 1), true, 3)]);
    assert_ne!(a.fingerprint(), c.fingerprint());
}
