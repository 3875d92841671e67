//! Shared helpers for the integration-test suites.

use parallel_archetypes::mp::SpmdResult;

/// Run `run` twice and assert the two executions are bit-identical: the
/// per-rank results (which may bundle statistics), every rank's final
/// virtual clock, the elapsed virtual time, and — for traced runs — every
/// rank's logical event stream (wall clocks zeroed). This is the
/// workspace's determinism snapshot, shared by the per-archetype
/// equivalence tests so each crate doesn't grow its own copy.
///
/// Returns the first run for follow-up assertions (e.g. comparing
/// against a sequential oracle).
pub fn assert_bit_identical_runs<R, F>(label: &str, run: F) -> SpmdResult<R>
where
    R: PartialEq + std::fmt::Debug,
    F: Fn() -> SpmdResult<R>,
{
    let a = run();
    let b = run();
    assert_eq!(
        a.results, b.results,
        "{label}: results must be identical across runs"
    );
    for (r, (ta, tb)) in a.rank_times.iter().zip(&b.rank_times).enumerate() {
        assert!(
            ta.to_bits() == tb.to_bits(),
            "{label}: rank {r} clock must be bit-identical ({ta} vs {tb})"
        );
    }
    assert_eq!(
        a.elapsed_virtual.to_bits(),
        b.elapsed_virtual.to_bits(),
        "{label}: elapsed virtual time must be bit-identical"
    );
    if let (Some(ta), Some(tb)) = (&a.trace, &b.trace) {
        assert_eq!(ta.ranks.len(), tb.ranks.len());
        for (ra, rb) in ta.ranks.iter().zip(&tb.ranks) {
            assert_eq!(
                ra.logical_events(),
                rb.logical_events(),
                "{label}: rank {} event stream must be identical across runs",
                ra.rank
            );
        }
    }
    a
}
