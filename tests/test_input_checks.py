"""Argument checks that reject a bad input before any work, one case each.

Each case calls one public entry point with one bad argument and names the
exception it must raise.
"""

import numpy as np
import pytest

from collkit import (
    ConfigurationError,
    ContactConfiguration,
    KernelSpec,
    RunLog,
    UnsupportedParameterError,
    VelocityField,
    boltzmann_hyperplane_integral,
    boltzmann_m0_search,
    crude_bound_check,
    entropy_bound,
    gronwall_check,
    landau_delta_search,
    landau_integrand_sup,
    make_barrier,
    maxwellian_moments,
    riccati_check,
)
from collkit.boltzmann import q_boltzmann_carleman, q_boltzmann_sigma
from collkit.fields import bump_field, gaussian_field, shell_field
from collkit.hydro import ImplosionScenario

from conftest import b_ones

E1 = np.array([1.0, 0.0, 0.0])
LANDAU = KernelSpec(dim=3, gamma=0.0, operator="landau")
BOLTZMANN = KernelSpec(dim=3, gamma=0.0, operator="boltzmann", b=b_ones)
BARRIER = make_barrier(5.0, 1.0)


def contact(field):
    return ContactConfiguration(barrier=BARRIER, field=field, v0=np.array([1.5, 0.0, 0.0]))


def negative_field(v):
    return np.full(np.shape(v)[:-1], -1.0)


def two_row_log():
    log = RunLog()
    for t in (0.0, 1.0):
        log.append(t, 1.0, 1.0, 1.0, (0.0, 0.0, 0.0), 1.0, 0.0)
    return log


def crude(f=None, m=7.0, delta=0.3):
    return lambda q: crude_bound_check(shell_field(7.0, 0.3) if f is None else f,
                                       E1, m, delta, LANDAU, q)


CASES = {
    "contact-negative-field": (
        lambda q: contact(VelocityField(dim=3, eval=negative_field)).validate(q),
        ConfigurationError, "negative"),
    "contact-not-touching": (
        lambda q: contact(make_barrier(5.0, 0.5).as_field()).validate(q),
        ConfigurationError, "does not touch"),
    "landau-sup-d1": (lambda q: landau_integrand_sup(5.0, 1, 0.0, 0.3), ValueError, "d >= 2"),
    # m > d + gamma, yet m is not positive
    "landau-delta-m-zero": (lambda q: landau_delta_search(0.0, 3, -4.0), ValueError,
                            "m must be positive"),
    # A = m(m + 3 - d) overflows; the delta search must not run on with A = inf
    "landau-delta-m-huge": (lambda q: landau_delta_search(1e200, 3, 0.0), ValueError,
                            r"m = 1e\+200"),
    "hyperplane-2d-kernel": (
        lambda q: boltzmann_hyperplane_integral(
            8.0, np.zeros(2), KernelSpec(dim=2, gamma=0.0, operator="boltzmann", b=b_ones), q),
        UnsupportedParameterError, "d = 3"),
    "hyperplane-w-shape": (lambda q: boltzmann_hyperplane_integral(8.0, np.zeros(2), BOLTZMANN, q),
                           ValueError, "shape"),
    "m0-search-landau": (lambda q: boltzmann_m0_search(LANDAU, q), ValueError, "Boltzmann"),
    "crude-f(e)-not-1": (crude(f=gaussian_field()), ConfigurationError, "equal 1"),
    "crude-above-power": (crude(m=8.0), ConfigurationError, "exceeds"),
    "crude-m-nan": (crude(m=np.nan), ValueError, "finite m > 0"),
    "crude-m-inf": (crude(m=np.inf), ValueError, "finite m > 0"),
    "crude-m-zero": (crude(m=0.0), ValueError, "finite m > 0"),
    "crude-delta-zero": (crude(delta=0.0), ValueError, "0 < delta < 1"),
    "crude-delta-one": (crude(delta=1.0), ValueError, "0 < delta < 1"),
    "crude-delta-nan": (crude(delta=np.nan), ValueError, "0 < delta < 1"),
    "sigma-landau": (lambda q: q_boltzmann_sigma(gaussian_field(), E1, LANDAU, q),
                     ValueError, "Boltzmann kernel"),
    "carleman-landau": (lambda q: q_boltzmann_carleman(gaussian_field(), E1, LANDAU, q),
                        ValueError, "Boltzmann kernel"),
    "gaussian-theta": (lambda q: gaussian_field(theta=0.0), ValueError, "theta > 0"),
    "bump-radius": (lambda q: bump_field(radius=0.0), ValueError, "radius > 0"),
    "shell-delta-zero": (lambda q: shell_field(7.0, 0.0), ValueError, "0 < delta < 1"),
    "shell-delta-one": (lambda q: shell_field(7.0, 1.0), ValueError, "0 < delta < 1"),
    "kernel-operator": (lambda q: KernelSpec(dim=3, gamma=0.0, operator="fokker-planck"),
                        ValueError, "unknown operator"),
    "moments-2d": (lambda q: maxwellian_moments(gaussian_field(dim=2), q), ValueError, "3-D"),
    "gronwall-C-nan": (lambda q: gronwall_check(two_row_log(), np.nan), ValueError, "C must"),
    "gronwall-C-inf": (lambda q: gronwall_check(two_row_log(), np.inf), ValueError, "C must"),
    "riccati-C-negative": (lambda q: riccati_check(two_row_log(), -1.0, 1.0), ValueError,
                           "C must"),
    "riccati-C-zero": (lambda q: riccati_check(two_row_log(), 0.0, 1.0), ValueError, "C must"),
    "riccati-C-nan": (lambda q: riccati_check(two_row_log(), np.nan, 1.0), ValueError, "C must"),
    "riccati-T-nan": (lambda q: riccati_check(two_row_log(), 1.0, np.nan), ValueError, "T must"),
    "riccati-T-inf": (lambda q: riccati_check(two_row_log(), 1.0, np.inf), ValueError, "T must"),
    "entropy-empty": (lambda q: entropy_bound([], None), ValueError, "at least one"),
    "scenario-window": (lambda q: ImplosionScenario("w", 0.5, 2.0, False, "spherical"),
                        ValueError, "lambda window"),
    "scenario-symmetry": (lambda q: ImplosionScenario("s", 1.2, 1.5, False, "planar"),
                          ValueError, "unknown symmetry"),
}


@pytest.mark.parametrize("case", CASES)
def test_input_check_rejects(case, q_fast):
    call, exc, match = CASES[case]
    with pytest.raises(exc, match=match):
        call(q_fast)
