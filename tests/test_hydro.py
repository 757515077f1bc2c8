import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from collkit import (
    ColdGasError,
    EulerState,
    QuadratureScheme,
    admissible_exponent_check,
    blowup_integrability_condition,
    entropy_bound,
    load_catalog,
    maxwellian_field,
    maxwellian_moments,
    maxwellian_weighted_norm,
    scenario_verdict,
)
from collkit.hydro import (
    LAMBDA_ENVELOPE,
    _eval_lambda,
    admissible_lambda_envelope,
    critical_gamma,
    specific_entropy,
)
from collkit.util import splitmix64

SQRT3 = math.sqrt(3.0)


# ---------------------------------------------------------------------------
# States and entropy


def test_state_derived_quantities():
    s = EulerState(rho=2.0, u=(1.0, 0.0, 0.0), theta=0.5)
    assert s.p == pytest.approx(1.0)
    assert s.E == pytest.approx(1.5 * 0.5 + 0.5)


def test_cold_gas_rejected():
    with pytest.raises(ColdGasError):
        EulerState(rho=1.0, u=(0, 0, 0), theta=0.0)
    vacuum = EulerState(rho=0.0, u=(0, 0, 0), theta=0.0, vacuum=True)
    with pytest.raises(ColdGasError):
        maxwellian_field(vacuum)


@pytest.mark.parametrize("kw", [
    {"rho": np.nan}, {"rho": np.inf}, {"theta": np.nan}, {"theta": np.inf},
    {"u": (np.nan, 0.0, 0.0)}, {"u": (0.0, -np.inf, 0.0)},
], ids=["rho-nan", "rho-inf", "theta-nan", "theta-inf", "u-nan", "u-inf"])
def test_state_rejects_non_finite(kw):
    # a NaN state used to be accepted and give a NaN specific entropy
    with pytest.raises(ValueError, match="finite"):
        EulerState(**{"rho": 1.0, "u": (0.0, 0.0, 0.0), "theta": 1.0, **kw})


def test_specific_entropy_value():
    s = EulerState(rho=1.0, u=(0, 0, 0), theta=1.0)
    assert specific_entropy(s) == pytest.approx(math.log(2.0 / 3.0), abs=1e-14)


def test_entropy_bound_isentropic_equality():
    s0 = EulerState(rho=1.0, u=(0, 0, 0), theta=1.0)
    holds, C = entropy_bound([s0], EulerState(rho=8.0, u=(0, 0, 0), theta=4.0))
    assert holds and C == pytest.approx(1.0, abs=1e-14)
    holds_bad, _ = entropy_bound([s0], EulerState(rho=8.0, u=(0, 0, 0), theta=3.9))
    assert not holds_bad
    # heating at fixed density only helps
    holds_hot, _ = entropy_bound([s0], EulerState(rho=1.0, u=(0, 0, 0), theta=2.0))
    assert holds_hot


# ---------------------------------------------------------------------------
# Exponent arithmetic


def test_blowup_condition_thresholds():
    # lambda = 8/5: condition iff gamma >= -1/3
    assert blowup_integrability_condition(1.6, -1.0 / 3.0)
    assert not blowup_integrability_condition(1.6, -1.0 / 3.0 - 1e-9)
    # lambda = 3 - sqrt(3): threshold gamma is sqrt(3), above the physical
    # range, so the condition fails for every admitted gamma
    lam = 3.0 - SQRT3
    assert not blowup_integrability_condition(lam, 1.0)
    assert critical_gamma(lam) > 1.0
    with pytest.raises(ValueError):
        blowup_integrability_condition(1.0, 0.0)


@pytest.mark.parametrize("call", [
    lambda: blowup_integrability_condition(np.nan, 0.0),
    lambda: blowup_integrability_condition(np.inf, 0.0),
    lambda: blowup_integrability_condition(1.6, np.nan),
    lambda: critical_gamma(np.nan),
    lambda: critical_gamma(np.inf),
    lambda: scenario_verdict(load_catalog()[0], np.nan),
], ids=["condition-lambda-nan", "condition-lambda-inf", "condition-gamma-nan",
        "critical-nan", "critical-inf", "verdict-gamma-nan"])
def test_exponent_arithmetic_rejects_non_finite(call):
    # most used to return a boolean, NaN or a verdict instead of raising
    with pytest.raises(ValueError):
        call()


@given(
    lam=st.floats(1.01, 5.0),
    g1=st.floats(-3.0, 1.0),
    g2=st.floats(-3.0, 1.0),
)
@settings(max_examples=100, deadline=None)
def test_blowup_condition_monotone_in_gamma(lam, g1, g2):
    lo, hi = min(g1, g2), max(g1, g2)
    if blowup_integrability_condition(lam, lo):
        assert blowup_integrability_condition(lam, hi)


def test_critical_gamma_closed_forms():
    assert critical_gamma(1.6) == pytest.approx(-1.0 / 3.0, abs=1e-12)
    assert critical_gamma(3.0 - SQRT3) == pytest.approx(SQRT3, abs=1e-12)


def test_admissible_exponent_examples():
    assert not admissible_exponent_check(0.0, 1.3)
    assert admissible_exponent_check(-0.9, 1.3)
    assert not admissible_exponent_check(-3.0, 1.1)  # kappa boundary excluded


def test_lambda_envelope():
    assert LAMBDA_ENVELOPE == pytest.approx(1.6, abs=1e-15)
    swept = admissible_lambda_envelope()
    assert swept <= 1.6
    assert swept == pytest.approx(1.6, abs=1e-4)


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


# ---------------------------------------------------------------------------
# Maxwellian moments and norms


def test_moment_round_trip():
    q = QuadratureScheme()
    u = splitmix64(99, 20 * 5).reshape(20, 5)
    for row in u:
        state = EulerState(
            rho=0.5 + row[0],
            u=tuple(1.0 * (row[1:4] * 2.0 - 1.0)),
            theta=0.3 + 1.2 * row[4],
        )
        back = maxwellian_moments(maxwellian_field(state), q)
        assert back.rho == pytest.approx(state.rho, rel=1e-6)
        assert np.allclose(back.u, state.u, atol=1e-6)
        assert back.theta == pytest.approx(state.theta, rel=1e-6)


def test_moments_vacuum_flag():
    q = QuadratureScheme()
    f = maxwellian_field(EulerState(rho=1e-16, u=(0, 0, 0), theta=1.0))
    out = maxwellian_moments(f, q)
    assert out.vacuum and out.rho < 1e-14


def test_weighted_norm_unweighted_case():
    state = EulerState(rho=2.0, u=(0.4, 0.0, 0.0), theta=0.7)
    norm, bound = maxwellian_weighted_norm(state, -3.0)
    assert norm == pytest.approx(2.0 * (2.0 * np.pi * 0.7) ** -1.5, rel=1e-10)
    assert norm <= bound


def test_weighted_norm_scan_oracle():
    state = EulerState(rho=1.0, u=(0, 0, 0), theta=1.0)
    norm, bound = maxwellian_weighted_norm(state, -1.0)
    t = np.linspace(0.0, 10.0, 2000001)
    oracle = (2.0 * np.pi) ** -1.5 * np.max((1.0 + t * t) * np.exp(-t * t / 2.0))
    assert norm == pytest.approx(oracle, rel=1e-9)
    assert norm <= bound
    # a moving, cold state: the peak is narrow and off the origin
    state = EulerState(rho=1.0, u=(0.6, -0.8, 0.0), theta=0.05)
    norm, _ = maxwellian_weighted_norm(state, 1.0)
    t = np.linspace(-1.0, 3.0, 2000001)
    oracle = (0.1 * np.pi) ** -1.5 * np.max((1.0 + t * t) ** 2 * np.exp(-(t - 1.0) ** 2 / 0.1))
    assert norm == pytest.approx(oracle, rel=1e-9)
    assert oracle <= norm * (1.0 + 1e-15)


def test_weighted_norm_bound_holds():
    # first a cold moving state, whose sup 25.10 exceeds the unscaled
    # prefactor * (1 + theta^p + |u|^{3+gamma}) = 11.37
    u = splitmix64(31, 4 * 500).reshape(500, 4)
    states = [(EulerState(rho=1.0, u=(0.6, -0.8, 0.0), theta=0.05), 1.0)] + [
        (EulerState(rho=1.0, u=tuple(4.0 * row[:3] - 2.0), theta=0.01 + 3.0 * row[3]),
         -3.0 + 4.0 * row[0] * row[3])
        for row in u
    ]
    for state, gamma in states:
        norm, bound = maxwellian_weighted_norm(state, gamma)
        assert norm <= bound, (state, gamma)
    # at gamma = -3 the weight is 1 and the bound is 3 * prefactor
    norm, bound = maxwellian_weighted_norm(EulerState(rho=1.0, u=(1.0, 0, 0), theta=0.5), -3.0)
    assert bound == 3.0 * norm


def test_weighted_norm_monotone_in_u():
    lo = maxwellian_weighted_norm(EulerState(rho=1.0, u=(0.5, 0, 0), theta=1.0), 0.0)[0]
    hi = maxwellian_weighted_norm(EulerState(rho=1.0, u=(1.0, 0, 0), theta=1.0), 0.0)[0]
    assert hi > lo
