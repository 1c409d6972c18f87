"""The decoded interpreter against an independent oracle.

Every other semantics test compares the interpreter with itself (an
original run against an optimized run), so a bug both runs share passes
them.  Here the oracle is the plain per-node loop in
``tests/interp/reference.py``: on every run the two must report the same
observable, step count and profile, down to the order in which nodes
were first counted.
"""

import dataclasses

import pytest
from hypothesis import given, settings, strategies as st

from tests.helpers import FGETC_LIKE, build
from tests.interp.reference import reference_run

from repro.analysis import AnalysisConfig
from repro.benchgen import GeneratorOptions, generate_program
from repro.interp import DecodedICFG, Profile, Workload, run_icfg
from repro.ir import lower_program
from repro.transform import ICBEOptimizer, OptimizerOptions

OPTIONS = GeneratorOptions(procedures=4, statements_per_proc=7, max_depth=3)
#: Generated programs run 16 to ~1,400 steps, so limits drawn from this
#: range cut some runs short and let others finish.
STEP_LIMITS = st.integers(0, 1_500)
WORKLOADS = st.lists(st.integers(-20, 20), max_size=40)


def assert_same_run(program, icfg, values, step_limit):
    """``program`` (the graph or a table decoded from it) runs exactly
    like the reference on ``icfg``."""
    expected = reference_run(icfg, Workload(values), step_limit)
    got = run_icfg(program, Workload(values), step_limit)
    assert got.observable == expected.observable
    assert got.steps == expected.steps
    for field in dataclasses.fields(Profile):
        want = getattr(expected.profile, field.name)
        have = getattr(got.profile, field.name)
        if isinstance(want, dict):
            assert list(have.items()) == list(want.items()), field.name
        else:
            assert have == want, field.name


@given(st.integers(0, 5_000), st.lists(WORKLOADS, min_size=1, max_size=3),
       STEP_LIMITS)
@settings(max_examples=60, deadline=None)
def test_generated_programs_run_like_the_reference(seed, workloads,
                                                   step_limit):
    icfg = lower_program(generate_program(seed, OPTIONS))
    # One table shared by several runs, as a differential check shares
    # it across its battery.
    table = DecodedICFG(icfg)
    for values in workloads:
        assert_same_run(table, icfg, values, step_limit)


@given(st.integers(5_001, 9_000), WORKLOADS, STEP_LIMITS)
@settings(max_examples=10, deadline=None)
def test_optimized_programs_run_like_the_reference(seed, values, step_limit):
    # Split entries and exits, and calls that return through a return
    # map to one of several call-site exits.
    icfg = lower_program(generate_program(seed, OPTIONS))
    optimized = ICBEOptimizer(OptimizerOptions(
        config=AnalysisConfig(budget=2000),
        duplication_limit=120)).optimize(icfg).optimized
    assert_same_run(optimized, optimized, values, step_limit)


@pytest.mark.parametrize("source", [
    "proc main() { var x = load(0); print x; }",
    "proc main() { store(12345, 1); }",
    "proc main() { print 1; store(0, 2); print 3; }",
    """proc main() {
         var p = alloc(3);
         store(p, 7);
         store(p + 2, 9);
         print load(p) + load(p + 1) + load(p + 2);
         print load(p + 3);
       }""",
    "proc main() { print alloc(0); print alloc(-3); print load(-1); }",
    FGETC_LIKE,
])
def test_heap_faults_and_calls_run_like_the_reference(source):
    icfg = build(source)
    assert_same_run(icfg, icfg, [4, 1, 3, -1, 0], 10_000)
