import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from collkit import load_catalog, scenario_verdict
from collkit.hydro import LAMBDA_ENVELOPE, ImplosionScenario, _eval_lambda, critical_gamma

SQRT3 = math.sqrt(3.0)


# ---------------------------------------------------------------------------
# Exponent arithmetic


def unique(lam):
    """A scenario whose one exponent lam is attained."""
    return ImplosionScenario("unique", lam, lam, True, "spherical")


def test_blowup_condition_thresholds():
    # lambda = 8/5: the condition holds iff gamma >= -1/3
    assert scenario_verdict(unique(1.6), -1.0 / 3.0)["verdict"] == "open"
    assert scenario_verdict(unique(1.6), -1.0 / 3.0 - 1e-9)["verdict"] == "excluded"
    # lambda = 3 - sqrt(3): threshold gamma is sqrt(3), above the physical
    # range, so the condition fails for every admitted gamma
    lam = 3.0 - SQRT3
    assert scenario_verdict(unique(lam), 1.0)["verdict"] == "excluded"
    assert critical_gamma(lam) > 1.0
    with pytest.raises(ValueError):
        critical_gamma(1.0)  # no focusing


@pytest.mark.parametrize("call", [
    lambda: critical_gamma(np.nan),
    lambda: critical_gamma(np.inf),
    lambda: scenario_verdict(load_catalog()[0], np.nan),
], ids=["critical-nan", "critical-inf", "verdict-gamma-nan"])
def test_exponent_arithmetic_rejects_non_finite(call):
    # most used to return a boolean, NaN or a verdict instead of raising
    with pytest.raises(ValueError):
        call()


@given(
    lam=st.floats(1.01, 5.0),
    g1=st.floats(-3.0, 1.0),
    g2=st.floats(-3.0, 1.0),
    attained=st.booleans(),
)
@settings(max_examples=100, deadline=None)
def test_blowup_condition_monotone_in_gamma(lam, g1, g2, attained):
    sc = ImplosionScenario("sc", 1.0, lam, attained, "spherical")
    lo, hi = min(g1, g2), max(g1, g2)
    if scenario_verdict(sc, lo)["verdict"] == "open":
        assert scenario_verdict(sc, hi)["verdict"] == "open"


def test_critical_gamma_closed_forms():
    assert critical_gamma(1.6) == pytest.approx(-1.0 / 3.0, abs=1e-12)
    assert critical_gamma(3.0 - SQRT3) == pytest.approx(SQRT3, abs=1e-12)


def test_lambda_envelope():
    assert LAMBDA_ENVELOPE == pytest.approx(1.6, abs=1e-15)
    # at the largest kappa = -3(lambda-1) the bound lambda < (5+kappa)/2 ends here
    assert (5.0 - 3.0 * (LAMBDA_ENVELOPE - 1.0)) / 2.0 == pytest.approx(LAMBDA_ENVELOPE, abs=1e-15)
    # every exponent below the envelope needs gamma above -1/3
    below = ImplosionScenario("below", 1.0, LAMBDA_ENVELOPE, False, "spherical")
    assert critical_gamma(LAMBDA_ENVELOPE) == pytest.approx(-1.0 / 3.0, abs=1e-15)
    assert scenario_verdict(below, -1.0 / 3.0 - 1e-9)["verdict"] == "excluded"
    assert scenario_verdict(below, -1.0 / 3.0 + 1e-9)["verdict"] == "open"


def test_condition_holds_at_its_critical_gamma():
    # the verdict and gamma_c agree to the last bit; the rule's other float
    # form, (3+gamma)(1/lambda-1) <= -1, is False at gamma_c for 4,557 of these
    for lam in np.linspace(1.001, 5.0, 20001):
        gc = critical_gamma(lam)
        if -3.0 <= gc <= 1.0:
            assert scenario_verdict(unique(lam), gc)["verdict"] == "open", lam
            assert scenario_verdict(unique(lam), np.nextafter(gc, -np.inf))["verdict"] == "excluded", lam


# ---------------------------------------------------------------------------
# Catalog verdicts


def test_catalog_contents():
    cat = {sc.name: sc for sc in load_catalog()}
    assert len(cat) == 6
    assert cat["smooth-implosion"].lambda_max == pytest.approx(3.0 - SQRT3, abs=1e-14)
    assert cat["guderley-spherical"].lambda_sup_attained
    assert cat["collapsing-cavity-cylindrical"].symmetry == "cylindrical"


def test_catalog_lambdas_parsed_without_eval():
    # the values the catalog's expressions evaluate to as Python arithmetic
    expected = {
        "smooth-implosion": (1.0, 3 - math.sqrt(3)),
        "finite-regularity": (1.0, 3 - math.sqrt(3)),
        "collapsing-cavity-spherical": (1.0, 3 - math.sqrt(3)),
        "collapsing-cavity-cylindrical": (1.0, (15 - 5 * math.sqrt(2)) / 7),
        "guderley-spherical": (1.45, 1.45),
        "guderley-cylindrical": (1.226, 1.226),
    }
    got = {sc.name: (sc.lambda_min, sc.lambda_max) for sc in load_catalog()}
    assert got == expected  # bit-identical
    assert _eval_lambda(" -(2 + 4) / 3 * sqrt(4) ") == -4.0
    for bad in ("__import__('os')", "2**10", "sqrt", "sqrt(4, 2)", "abs(-1)",
                "True", "'1.0'", "1 +", "x"):
        with pytest.raises(ValueError):
            _eval_lambda(bad)


def test_scenario_verdicts():
    cat = {sc.name: sc for sc in load_catalog()}
    smooth = scenario_verdict(cat["smooth-implosion"], 1.0)
    assert smooth["verdict"] == "excluded"
    assert smooth["critical_gamma"] == pytest.approx(SQRT3, abs=1e-12)
    assert smooth["strict"]

    gud = scenario_verdict(cat["guderley-spherical"], 1.0)
    assert gud["verdict"] == "open"
    assert gud["critical_gamma"] == pytest.approx(1.45 / 0.45 - 3.0, abs=1e-12)

    cav = scenario_verdict(cat["collapsing-cavity-cylindrical"], 0.0)
    assert cav["verdict"] == "excluded"


def test_verdict_boundary_at_critical_gamma():
    # an attained exponent is open from gamma_c on, inclusive
    gud = {sc.name: sc for sc in load_catalog()}["guderley-spherical"]
    gc = critical_gamma(gud.lambda_max)
    assert gc == 0.22222222222222232
    assert scenario_verdict(gud, gc)["verdict"] == "open"
    assert scenario_verdict(gud, np.nextafter(gc, -np.inf))["verdict"] == "excluded"
    # an open window is open only strictly above gamma_c
    window = ImplosionScenario("window", 1.0, 1.45, False, "spherical")
    assert scenario_verdict(window, gc)["verdict"] == "excluded"
    assert scenario_verdict(window, np.nextafter(gc, np.inf))["verdict"] == "open"


def test_coulomb_always_excluded():
    for sc in load_catalog():
        assert scenario_verdict(sc, -3.0)["verdict"] == "excluded"


def test_verdict_monotone_in_gamma():
    for sc in load_catalog():
        verdicts = [scenario_verdict(sc, g)["verdict"]
                    for g in np.linspace(-3.0, 1.0, 17)]
        # once open, stays open as gamma grows
        first_open = next((i for i, v in enumerate(verdicts) if v == "open"),
                          len(verdicts))
        assert all(v == "open" for v in verdicts[first_open:])
