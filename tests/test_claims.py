"""The paper's shape claims (``repro.experiments.claims``) at quick scale.

The same list is checked at full scale by ``python -m
repro.experiments.report``.  Here each claim that holds at quick scale is
one test, named by the claim, so a broken claim fails under its own name;
the claims the quick configuration's smaller splits were measured to miss
(``FULL_SCALE_ONLY``) are not collected.
"""

from __future__ import annotations

import pytest

from repro.experiments import HarnessConfig
from repro.experiments.claims import CLAIMS, FULL_SCALE_ONLY, Claim, at_quick_scale, violated_claims
from repro.experiments.report import check_claims


@pytest.mark.parametrize("claim", [claim for claim in CLAIMS if claim.quick], ids=str)
def test_claim_holds_on_the_session_harness(harness, suite, claim):
    assert at_quick_scale(harness.config)
    assert not violated_claims(suite, harness.config, (claim,)), f"violated paper claim: {claim}"


def test_full_scale_only_claims_are_declared_claims():
    names = [str(claim) for claim in CLAIMS]
    assert len(set(names)) == len(names)
    assert FULL_SCALE_ONLY <= set(names)
    assert {name for name, claim in zip(names, CLAIMS) if not claim.quick} == FULL_SCALE_ONLY


def test_scale_is_read_from_the_split_sizes():
    assert not at_quick_scale(HarnessConfig())
    assert at_quick_scale(HarnessConfig.quick())
    assert at_quick_scale(HarnessConfig(train_images=600, test_fraction=0.08, cache_dir="elsewhere", workers=2))


def test_report_check_names_each_violated_claim(harness, suite):
    never = Claim("table III", "a claim no table meets", lambda table: False)
    full_only = Claim("figure 8", "a full-scale-only claim no figure meets", lambda figure: False, quick=False)
    always = Claim("table I", "a claim every table meets", lambda table: True)
    with pytest.raises(SystemExit, match="violated paper claims") as failure:
        check_claims(suite, HarnessConfig(), (always, never, full_only))
    message = str(failure.value)
    assert "table III: a claim no table meets" in message
    assert "figure 8: a full-scale-only claim no figure meets" in message
    assert "every table meets" not in message
    # At quick scale the full-scale-only claim is not evaluated.
    with pytest.raises(SystemExit) as failure:
        check_claims(suite, harness.config, (always, never, full_only))
    assert "full-scale-only" not in str(failure.value)
    check_claims(suite, harness.config, (always, full_only))
