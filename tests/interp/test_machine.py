import time

from tests.helpers import build, run

from repro.interp import Workload, run_icfg


def test_arithmetic_and_print():
    assert run("proc main() { print 2 + 3 * 4; }").output == [14]


def test_exit_value_is_main_return():
    assert run("proc main() { return 41 + 1; }").exit_value == 42


def test_globals_initialized_and_shared_across_calls():
    result = run("""
        global counter = 10;
        proc bump() { counter = counter + 1; return counter; }
        proc main() { bump(); bump(); print counter; }
    """)
    assert result.output == [12]


def test_locals_are_zero_initialized():
    assert run("proc main() { var x; print x; }").output == [0]


def test_parameters_passed_by_value():
    result = run("""
        proc f(x) { x = x + 100; return x; }
        proc main() { var a = 1; var b = f(a); print a; print b; }
    """)
    assert result.output == [1, 101]


def test_recursion_with_separate_frames():
    result = run("""
        proc fact(n) {
            if (n <= 1) { return 1; }
            return n * fact(n - 1);
        }
        proc main() { print fact(6); }
    """)
    assert result.output == [720]


def test_mutual_recursion():
    result = run("""
        proc is_even(n) { if (n == 0) { return 1; } return is_odd(n - 1); }
        proc is_odd(n)  { if (n == 0) { return 0; } return is_even(n - 1); }
        proc main() { print is_even(10); print is_even(7); }
    """)
    assert result.output == [1, 0]


def test_input_consumes_workload_then_defaults_to_zero():
    result = run("""
        proc main() { print input(); print input(); print input(); }
    """, [5, 6])
    assert result.output == [5, 6, 0]


def test_heap_alloc_load_store():
    result = run("""
        proc main() {
            var p = alloc(3);
            store(p, 7);
            store(p + 2, 9);
            print load(p) + load(p + 1) + load(p + 2);
        }
    """)
    assert result.output == [16]


def test_alloc_nonpositive_size_yields_null():
    result = run("proc main() { print alloc(0); print alloc(-3); }")
    assert result.output == [0, 0]


def test_alloc_takes_constant_time_whatever_its_size():
    started = time.perf_counter()
    result = run("""
        proc main() {
            var p = alloc(1000000000000);
            print load(p + 999999999999);
            print load(p + 1000000000000);
        }
    """)
    assert time.perf_counter() - started < 1.0
    # The last cell reads 0 without a store; one past it is wild.
    assert result.output == [0]
    assert result.status == "fault"
    assert result.fault_message == "wild load at address 1000000000001"


def test_null_load_faults():
    result = run("proc main() { var x = load(0); print x; }")
    assert result.status == "fault"
    assert "null" in result.fault_message
    assert result.output == []


def test_wild_store_faults():
    result = run("proc main() { store(12345, 1); }")
    assert result.status == "fault"
    assert "wild" in result.fault_message


def test_output_before_fault_preserved():
    result = run("proc main() { print 1; store(0, 2); print 3; }")
    assert result.output == [1]
    assert result.status == "fault"


def test_step_limit_reported():
    icfg = build("proc main() { var i = 0; while (i >= 0) { i = i + 1; } }")
    result = run_icfg(icfg, Workload([]), step_limit=500)
    assert result.status == "step-limit"
    assert result.steps == 500


def test_profile_counts_branches_and_operations():
    result = run("""
        proc main() {
            var i = 0;
            while (i < 3) { i = i + 1; }
        }
    """)
    profile = result.profile
    assert profile.executed_conditionals == 4  # 3 true + 1 false
    assert sum(profile.branch_true.values()) == 3
    assert sum(profile.branch_false.values()) == 1
    assert profile.executed_operations > 4


def test_observable_excludes_profile():
    first = run("proc main() { print input(); }", [3])
    second = run("proc main() { print input(); }", [3])
    assert first.observable == second.observable


def test_workload_fresh_copies_independent():
    icfg = build("proc main() { print input(); }")
    workload = Workload([9, 8])
    assert run_icfg(icfg, workload).output == [9]
    assert run_icfg(icfg, workload).output == [9]  # fresh() rewinds


def test_unsigned_cast_semantics():
    result = run("proc main() { print (unsigned) -1; print (unsigned) 300; }")
    assert result.output == [255, 44]


def test_eager_logical_in_expression_context():
    # In expression (non-branch) position, && evaluates both sides.
    result = run("proc main() { var x = 1 && 2; var y = 0 || 0; "
                 "print x; print y; }")
    assert result.output == [1, 0]
