"""The graceful-degradation ladder: tiers, options, outcomes."""

import pytest

from repro.robustness import degrade
from repro.robustness.degrade import (Attempt, JobOutcome, LADDER,
                                      STATUS_DEGRADED, STATUS_FAILED,
                                      STATUS_OK, tier, tier_names)


def test_ladder_shape():
    assert tier_names() == ("full", "intra", "parse-through")
    assert [t.index for t in LADDER] == [0, 1, 2]
    assert degrade.FLOOR_TIER == 2


def test_ladder_weakens_monotonically():
    # Each descent removes capability, never adds it back.
    assert LADDER[0].optimize and LADDER[0].interprocedural
    assert LADDER[1].optimize and not LADDER[1].interprocedural
    assert not LADDER[2].optimize


def test_tier_lookup_clamps():
    assert tier(-5).name == "full"
    assert tier(99).name == "parse-through"
    assert tier(1).name == "intra"


def test_tier_options_reflect_the_tier():
    full = tier(0).options(budget=123, duplication_limit=7)
    assert full.config.interprocedural
    assert full.config.budget == 123 and full.duplication_limit == 7

    intra = tier(1).options(budget=123)
    assert not intra.config.interprocedural
    assert intra.config.budget == 123


def test_parse_through_tier_has_no_optimizer_options():
    with pytest.raises(ValueError, match="parse-through"):
        tier(2).options()


def test_attempt_json_roundtrip():
    attempt = Attempt(tier=1, tier_name="intra", result="timeout",
                      detail="no result within 2s", backoff_s=0.0625)
    assert Attempt.from_json(attempt.to_json()) == attempt


def test_outcome_json_roundtrip_and_properties():
    outcome = JobOutcome(
        job="gen3.mc", status=STATUS_DEGRADED, tier=1, tier_name="intra",
        reason="timeout: killed",
        attempts=(Attempt(0, "full", "timeout", "killed"),
                  Attempt(1, "intra", "ok")),
        counts={"optimized": 2})
    assert outcome.definite
    assert outcome.retries == 1
    assert outcome.kills == 1
    assert JobOutcome.from_json(outcome.to_json()) == outcome
    assert "DEGRADED" in outcome.describe()
    assert "1 retries" in outcome.describe()


def test_every_status_is_definite():
    for status in (STATUS_OK, STATUS_DEGRADED, STATUS_FAILED):
        assert JobOutcome(job="x", status=status, tier=0,
                          tier_name="full").definite
    assert not JobOutcome(job="x", status="PENDING", tier=0,
                          tier_name="full").definite


def test_hard_results_cover_every_process_death_mode():
    # The supervisor's _collect can only emit these four non-structured
    # verdicts; all must feed the breaker.
    assert {"timeout", "killed", "crash",
            "no-result"} <= degrade.HARD_RESULTS


def test_frontend_errors_are_non_retryable():
    for name in ("LexError", "ParseError", "SemanticError",
                 "FileNotFoundError"):
        assert name in degrade.NON_RETRYABLE_ERRORS
    # But optimizer-stage failures must stay retryable: a lower tier
    # can genuinely fix them.
    for name in ("BudgetExceeded", "TransformError", "VerificationError",
                 "MemoryError", "DifferentialMismatch"):
        assert name not in degrade.NON_RETRYABLE_ERRORS
