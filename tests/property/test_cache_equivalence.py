"""Cache-on/cache-off equivalence of the optimizer, property-style.

The shared analysis context (pre-analysis reuse, snapshot reuse,
restore elision, in-place restructuring, scoped re-verification) is a pure
optimization: for any program, per-branch outcomes and the final graph
must be byte-identical to a `--no-analysis-cache` run.  Hypothesis
hammers that over random generated programs — fault-free and under
random fault plans.

Fault-plan scope: raising faults may target any site except
``analysis:pair`` (the cached mode analyzes a budget-truncated
conditional twice, so per-pair hit counts differ *by design*; outcomes
still agree, as the fault-free property shows).  Corruption faults may
target the transform and simplify sites: injected corruption marks the
whole graph dirty, so the cached mode's scoped verification degenerates
to the full check and both modes see the corruption identically.
Corruption at ``pipeline:branch-start`` / ``analysis:pair`` is excluded
for the symmetric reason — the cached mode detects the generation bump
and heals the live graph immediately, while the baseline clones the
corrupted graph and analyzes it, which is a deliberate robustness
improvement, not an equivalence bug.
"""

from hypothesis import given, settings, strategies as st

from repro.analysis import AnalysisConfig
from repro.benchgen import GeneratorOptions, generate_program
from repro.ir import dump_icfg, lower_program, verify_icfg
from repro.robustness import CORRUPTION_ACTIONS, FaultPlan, FaultSpec
from repro.transform import ICBEOptimizer, OptimizerOptions

OPTIONS = GeneratorOptions(procedures=3, statements_per_proc=7)

RAISE_SITES = ("transform:split", "transform:eliminate", "transform:verify",
               "pipeline:branch-start", "pipeline:simplify", "diffcheck:run")
CORRUPT_SITES = ("transform:split", "transform:eliminate",
                 "transform:verify", "pipeline:simplify")

fault_specs = st.one_of(
    st.builds(FaultSpec, site=st.sampled_from(RAISE_SITES),
              hit=st.integers(1, 4), action=st.just("raise")),
    st.builds(FaultSpec, site=st.sampled_from(CORRUPT_SITES),
              hit=st.integers(1, 4),
              action=st.sampled_from(CORRUPTION_ACTIONS),
              seed=st.integers(0, 99)))


def both_modes(icfg, budget, specs=()):
    """One report per mode; each gets its own FaultPlan instance
    because a plan's firing state is mutable."""
    reports = []
    for cache in (True, False):
        plan = FaultPlan(list(specs)) if specs else None
        optimizer = ICBEOptimizer(OptimizerOptions(
            config=AnalysisConfig(budget=budget), diff_check=True,
            fault_plan=plan, analysis_cache=cache))
        reports.append(optimizer.optimize(icfg))
    return reports


def assert_equivalent(icfg, cached, plain):
    assert ([(r.branch_id, r.outcome) for r in cached.records]
            == [(r.branch_id, r.outcome) for r in plain.records])
    assert dump_icfg(cached.optimized) == dump_icfg(plain.optimized)
    verify_icfg(cached.optimized)


@given(seed=st.integers(0, 4_000), budget=st.sampled_from((80, 10_000)))
@settings(max_examples=10, deadline=None)
def test_cache_is_invisible_on_fault_free_runs(seed, budget):
    icfg = lower_program(generate_program(seed, OPTIONS))
    pristine = dump_icfg(icfg)
    cached, plain = both_modes(icfg, budget)
    assert dump_icfg(icfg) == pristine
    assert_equivalent(icfg, cached, plain)


@given(seed=st.integers(0, 4_000),
       specs=st.lists(fault_specs, min_size=1, max_size=3),
       budget=st.sampled_from((80, 10_000)))
@settings(max_examples=10, deadline=None)
def test_cache_is_invisible_under_fault_plans(seed, specs, budget):
    icfg = lower_program(generate_program(seed, OPTIONS))
    pristine = dump_icfg(icfg)
    cached, plain = both_modes(icfg, budget, specs=specs)
    assert dump_icfg(icfg) == pristine
    assert_equivalent(icfg, cached, plain)
