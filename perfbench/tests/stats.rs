//! The percentile and failure-accounting helpers.

use perfbench::stats::{median, p90, tail, Tally, MIN_TAIL_SAMPLES};

fn ramp(n: usize) -> Vec<f64> {
    // 1..=n in a scrambled order, so the helpers must sort.
    let mut v: Vec<f64> = (1..=n).map(|i| i as f64).collect();
    v.reverse();
    if n > 1 {
        v.swap(0, n / 2);
    }
    v
}

#[test]
fn median_of_odd_and_even_counts() {
    assert_eq!(median(&[]), None);
    assert_eq!(median(&[3.0]), Some(3.0));
    assert_eq!(median(&ramp(5)), Some(3.0));
    assert_eq!(median(&ramp(4)), Some(2.5));
}

#[test]
fn p90_is_refused_below_one_hundred_samples() {
    for n in [0, 1, 10, 50, 99] {
        let err = p90(&ramp(n)).expect_err("too few samples for a p90");
        assert_eq!(err.have, n);
        assert_eq!(err.need, MIN_TAIL_SAMPLES, "{err}");
    }
}

#[test]
fn p90_keeps_ten_samples_beyond_it() {
    // Nearest rank: the 90th of 100, with exactly ten above it.
    assert_eq!(p90(&ramp(100)), Ok(90.0));
    assert_eq!(p90(&ramp(101)), Ok(91.0));
    assert_eq!(p90(&ramp(1000)), Ok(900.0));
    for n in [100usize, 137, 250, 999] {
        let v = p90(&ramp(n)).unwrap();
        let beyond = ramp(n).iter().filter(|&&x| x > v).count();
        assert!(beyond >= 10, "n = {n}: only {beyond} samples beyond p90");
    }
}

#[test]
fn higher_tails_need_more_samples() {
    assert!(tail(&ramp(999), 0.99).is_err());
    assert_eq!(tail(&ramp(1000), 0.99), Ok(990.0));
    assert_eq!(tail(&ramp(20), 0.5), Ok(10.0));
    assert!(tail(&ramp(19), 0.5).is_err());
}

#[test]
fn tally_counts_failures_against_attempts() {
    let mut t = Tally::default();
    assert!(!t.correct(), "a run that attempted nothing is not correct");
    assert!(t.record(true));
    assert!(t.check(true, || unreachable!("message only built on failure")));
    assert_eq!((t.attempted, t.failed), (2, 0));
    assert!(t.correct());
    assert!(!t.check(false, || "wrong answer".into()));
    assert_eq!((t.attempted, t.failed), (3, 1));
    assert!(!t.correct());
    let mut u = Tally::default();
    u.record(true);
    u.merge(t);
    assert_eq!((u.attempted, u.failed), (4, 1));
}
