//! The uniform job interface every archetype instance presents to the
//! plan algebra.
//!
//! An [`ArchetypeJob`] wraps one archetype run — `run_farm`,
//! `run_pipeline`, `run_spmd_recursive`, a mesh solver — behind typed
//! input/output ([`crate::ComposeData`]), a declared [`ArchetypeInfo`]
//! (whose grammar the composite trace check reuses), and a
//! machine-independent work estimate the model-driven allocator prices
//! branches with. The executor erases the types at plan edges
//! ([`crate::Value`]) and recovers them at each job boundary.

use archetype_core::ArchetypeInfo;
use archetype_mp::Ctx;

use crate::value::{ComposeData, Value};

/// One archetype instance, runnable as an atom of a [`crate::Plan`].
///
/// The executor calls [`ArchetypeJob::run`] **collectively** on every
/// rank of the group the allocator assigned to this atom: the context is
/// already scoped to that group (so `ctx.rank()`/`ctx.nprocs()` describe
/// it, and the job's internal traffic — whatever tags it uses — is
/// isolated from concurrently running sibling atoms), and `input` has
/// been replicated to every member. The returned value is taken from the
/// group's rank 0; other ranks may return any placeholder (conventionally
/// `Default::default()`).
///
/// The skeleton a job runs stamps its phases into a traced run
/// (`Ctx::trace_phase`); the group's rank 0 must record a sentence of
/// [`ArchetypeJob::info`]'s grammar, because that stream is what the
/// plan's derived grammar ([`crate::Plan::grammar`]) checks.
pub trait ArchetypeJob: Send + Sync {
    /// Typed stage input, recovered from the plan edge's [`Value`].
    type In: ComposeData;
    /// Typed stage output, erased back onto the plan edge.
    type Out: ComposeData;

    /// Job name for plan descriptions and diagnostics.
    fn name(&self) -> &'static str;

    /// The archetype this job instantiates; its grammar becomes this
    /// atom's slice of the derived composite grammar.
    fn info(&self) -> &'static ArchetypeInfo;

    /// Machine-independent estimate of the job's **total** work in
    /// flop-equivalents (as if run on one rank). The allocator prices it
    /// with the machine model at hand; because every branch is priced
    /// with the same model, the resulting rank shares — and therefore
    /// the plan's structural statistics — are model-invariant.
    fn estimate_flops(&self, input: &Self::In) -> f64;

    /// Execute the archetype on the current (already scoped) group.
    fn run(&self, ctx: &mut Ctx, input: Self::In) -> Self::Out;

    /// Hash of the job's *configuration* — everything beyond its name
    /// that steers what it computes (problem sizes, policies, scale
    /// factors). Two atoms with equal `(name, fingerprint)` must be
    /// interchangeable, because the plan service's structure cache keys
    /// memoized grammars and cost estimates on it. The default (`0`) is
    /// safe only for jobs whose name fully determines their behaviour.
    fn fingerprint(&self) -> u64 {
        0
    }
}

/// Object-safe erased form of [`ArchetypeJob`], stored in plan atoms.
pub(crate) trait DynJob: Send + Sync {
    fn name(&self) -> &'static str;
    fn info(&self) -> &'static ArchetypeInfo;
    fn estimate_flops(&self, input: &Value) -> f64;
    fn try_estimate_flops(&self, input: &Value) -> Option<f64>;
    fn run(&self, ctx: &mut Ctx, input: Value) -> Value;
    fn fingerprint(&self) -> u64;
}

/// The adapter that erases a typed job.
pub(crate) struct JobAdapter<J>(pub J);

impl<J: ArchetypeJob> DynJob for JobAdapter<J> {
    fn name(&self) -> &'static str {
        self.0.name()
    }

    fn info(&self) -> &'static ArchetypeInfo {
        self.0.info()
    }

    fn estimate_flops(&self, input: &Value) -> f64 {
        // Price by reference when the typed input can be borrowed out of
        // the value; only tuple-typed jobs pay a clone here.
        match J::In::peek(input) {
            Some(borrowed) => self.0.estimate_flops(borrowed),
            None => self.0.estimate_flops(&J::In::from_value(input.clone())),
        }
    }

    fn try_estimate_flops(&self, input: &Value) -> Option<f64> {
        J::In::accepts(input).then(|| self.estimate_flops(input))
    }

    fn run(&self, ctx: &mut Ctx, input: Value) -> Value {
        self.0.run(ctx, J::In::from_value(input)).into_value()
    }

    fn fingerprint(&self) -> u64 {
        self.0.fingerprint()
    }
}
