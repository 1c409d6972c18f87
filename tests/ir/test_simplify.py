from tests.helpers import FGETC_LIKE, build, check_equivalent

from repro.ir import verify_icfg
from repro.ir.nodes import NopNode
from repro.ir.simplify import simplify_nops


def nop_count(icfg):
    return sum(1 for n in icfg.iter_nodes() if isinstance(n, NopNode))


def test_simplify_removes_forwarding_nops_and_preserves_semantics():
    icfg = build(FGETC_LIKE)
    original = icfg.clone()
    removed = simplify_nops(icfg)
    assert removed > 0
    verify_icfg(icfg)
    check_equivalent(original, icfg, [[], [3, 0], [1, 5, 0]])


def test_simplify_is_idempotent():
    icfg = build(FGETC_LIKE)
    simplify_nops(icfg)
    again = simplify_nops(icfg)
    assert again == 0


def test_simplify_keeps_diamond_joins_that_would_duplicate_edges():
    # if/else whose arms are empty: the branch reaches the join nop on
    # both edges.  Bypassing the single arm nops is fine; the graph
    # must stay verifier-clean whatever is removed.
    icfg = build("""
        proc main() {
            var x = input();
            if (x == 1) { } else { }
            print x;
        }
    """)
    original = icfg.clone()
    simplify_nops(icfg)
    verify_icfg(icfg)
    check_equivalent(original, icfg, [[1], [2]])


def test_simplify_handles_loops():
    icfg = build("""
        proc main() {
            var i = 0;
            while (i < 3) {
                i = i + 1;
            }
            print i;
        }
    """)
    original = icfg.clone()
    simplify_nops(icfg)
    verify_icfg(icfg)
    check_equivalent(original, icfg, [[]])
    assert nop_count(icfg) < nop_count(original)


def test_executable_count_unchanged():
    icfg = build(FGETC_LIKE)
    before = icfg.executable_node_count()
    simplify_nops(icfg)
    assert icfg.executable_node_count() == before


def test_optimizer_pipeline_simplifies_by_default():
    from repro.transform import ICBEOptimizer, OptimizerOptions
    icfg = build(FGETC_LIKE)
    optimized = ICBEOptimizer(OptimizerOptions()).optimize(icfg).optimized
    assert optimized.conditional_node_count() < icfg.conditional_node_count()
    # The optimizer's last edit is nop compaction: nothing is left for
    # another round to remove.
    nops = nop_count(optimized)
    assert simplify_nops(optimized) == 0
    assert nop_count(optimized) == nops
