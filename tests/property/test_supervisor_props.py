"""The batch supervisor's contract, property-style.

For random generated programs under random strict fault plans, the
supervisor must (a) never lose a job — every input gets exactly one
definite outcome, (b) journal exactly what it reports, and (c) only
claim OK/DEGRADED when the winning tier's output actually passes
structural verification *and* differential validation — which is
re-checked here by replaying the winning attempt through the worker.

Each attempt runs in a forked worker, as under ``icbe batch``; the
process-level chaos (hang/crash/OOM) is exercised in
tests/robustness/test_supervisor.py and benchmarks/bench_supervisor.py.
"""

import os
import tempfile

from hypothesis import given, settings, strategies as st

from repro.benchgen import GeneratorOptions, generate_program
from repro.lang.pretty import pretty_print
from repro.robustness.degrade import STATUS_FAILED
from repro.robustness.journal import Journal
from repro.robustness.supervisor import (BatchSupervisor, JobSpec,
                                         SupervisorOptions)
from repro.robustness.worker import run_attempt

OPTIONS = GeneratorOptions(procedures=3, statements_per_proc=6)

SITES = ("analysis:pair", "transform:split", "transform:eliminate",
         "transform:verify", "pipeline:branch-start", "diffcheck:run")

fault_dicts = st.fixed_dictionaries({
    "site": st.sampled_from(SITES),
    "hit": st.integers(1, 3),
    "action": st.sampled_from(("raise", "raise", "skew-print", "drop-edge")),
    "seed": st.integers(0, 99),
})


@given(program_seed=st.integers(0, 4_000),
       batch_seed=st.integers(0, 99),
       fault_plans=st.lists(st.lists(fault_dicts, max_size=2),
                            min_size=1, max_size=2))
@settings(max_examples=6, deadline=None)
def test_supervisor_never_loses_a_job_and_outputs_stay_valid(
        program_seed, batch_seed, fault_plans):
    with tempfile.TemporaryDirectory(prefix="icbe-props-") as scratch:
        specs = []
        for index, faults in enumerate(fault_plans):
            path = os.path.join(scratch, f"gen{index}.mc")
            with open(path, "w", encoding="utf-8") as handle:
                handle.write(pretty_print(
                    generate_program(program_seed + index, OPTIONS)))
            specs.append(JobSpec(path, faults=tuple(faults),
                                 strict=bool(faults)))
        run_dir = os.path.join(scratch, "run")
        supervisor = BatchSupervisor(
            specs, run_dir,
            options=SupervisorOptions(backoff_base_s=0.0, seed=batch_seed))
        report = supervisor.run()

        # (a) No job is ever lost or left indefinite.
        assert len(report.outcomes) == len(specs)
        assert report.all_definite
        for outcome, spec in zip(report.outcomes, specs):
            assert outcome.job == spec.name
            assert outcome.attempts  # at least one attempt is recorded
            # The ladder descends one tier per failed attempt, from 0.
            assert [a.tier for a in outcome.attempts
                    ] == list(range(len(outcome.attempts)))

        # (b) The journal holds exactly the reported outcomes.
        recovered = Journal.recover(run_dir)
        assert sorted(recovered.completed) == list(range(len(specs)))
        for index, outcome in enumerate(report.outcomes):
            assert recovered.completed[index] == outcome

        # (c) Replaying every non-FAILED job's winning attempt through
        # the worker re-runs verify_icfg and the differential check on
        # that tier's output; it must still pass.
        for state in supervisor._states:
            if state.outcome.status == STATUS_FAILED:
                continue
            replay = run_attempt(supervisor._attempt_spec(state))
            assert replay["ok"], replay
            assert replay["verify_ok"] and replay["diff_ok"]
            assert replay["counts"] == state.outcome.counts
