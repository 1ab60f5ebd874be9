//! The certifier's correctness anchor: on any serial trace of certification
//! requests the [`ShardedCertifier`](tashkent_certifier::ShardedCertifier)
//! must be decision-for-decision identical to the textbook reference
//! certifier in `reference/mod.rs` — same commit/abort decisions and
//! reasons, same commit versions, same remote-writeset version streams
//! (including `conflict_free_to`), same final system version.  With
//! `shards == 1` this is the paper's single certifier; with more shards the
//! ordered two-phase certify must collapse to the same global outcome.

mod reference;

use reference::assert_serial_trace;

#[test]
fn single_shard_is_decision_identical_to_the_certifier() {
    assert_serial_trace(1, 0.0, 0xE1, 400, None);
}

#[test]
fn two_and_four_shards_match_on_a_serial_trace() {
    assert_serial_trace(2, 0.0, 0xE2, 400, None);
    assert_serial_trace(4, 0.0, 0xE3, 400, None);
}

#[test]
fn forced_aborts_stay_in_lockstep() {
    // The forced-abort RNG is drawn once per surviving request in both
    // certifiers, so with identical seeds the draw sequences — and the
    // abort pattern — must coincide.
    assert_serial_trace(1, 0.15, 0xE4, 400, None);
    assert_serial_trace(2, 0.15, 0xE6, 400, None);
    assert_serial_trace(4, 0.15, 0xE5, 400, None);
}

#[test]
fn conflict_abort_reasons_name_the_oldest_conflict() {
    // The response digest carries each abort's reason, so every trace also
    // checks that the reported conflict version is the oldest conflicting
    // entry — what a forward scan of one global log finds — across shards.
    assert_serial_trace(4, 0.0, 0xE7, 200, None);
}
