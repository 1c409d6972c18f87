"""The benchmark's span hook still fits the program it wraps.

``perfbench/hook/perfbench_spans.py`` wraps public functions by module
and attribute path, and drops every attribute of a span whose
attribute function raises.  A refactor that moves a target or a field
it reads would turn the traced benchmark's spans into ``attrs_error``
without failing anything else, so this test reads the hook (unchanged)
and checks both against the program.
"""

import importlib
import importlib.util
import os

import pytest

from tests.helpers import FGETC_LIKE, build

from repro.transform import ICBEOptimizer

HOOK = os.path.join(os.path.dirname(__file__), os.pardir, os.pardir,
                    "perfbench", "hook", "perfbench_spans.py")

#: Targets whose module is gone: transactions roll back the graph's undo
#: log instead of restoring snapshots.
GONE = {"repro.robustness.snapshot"}


def load_hook():
    spec = importlib.util.spec_from_file_location("perfbench_spans", HOOK)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


HOOK_MODULE = load_hook()


@pytest.mark.parametrize(
    "module_name, path",
    [(target[0], target[1]) for target in HOOK_MODULE.TARGETS
     if target[0] not in GONE],
    ids=lambda value: value)
def test_every_target_resolves(module_name, path):
    owner = importlib.import_module(module_name)
    *outer, attribute = path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    assert callable(owner.__dict__[attribute])


def test_only_the_snapshot_targets_are_gone():
    gone = {target[1] for target in HOOK_MODULE.TARGETS
            if target[0] in GONE}
    assert gone <= {"ICFGSnapshot.take", "ICFGSnapshot.restore"}
    with pytest.raises(ImportError):
        importlib.import_module("repro.robustness.snapshot")


def test_optimize_attrs_read_a_real_report():
    report = ICBEOptimizer().optimize(build(FGETC_LIKE))
    attrs = HOOK_MODULE._optimize_attrs((), {}, report)
    assert attrs == {"conditionals": report.conditionals_before,
                     "optimized": report.optimized_count,
                     "nodes_before": report.nodes_before,
                     "nodes_after": report.nodes_after,
                     "summary_hits": 0, "summary_misses": 0,
                     "snapshot_reuses": 0}
    assert attrs["optimized"] > 0
