"""Acceptance gate: one test (and one pass/fail line) per criterion.

Run with ``pytest -v tests/test_acceptance.py``; each criterion also prints a
single ``criterion N: PASS/FAIL`` line with its measured worst case.
"""

import math

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from collkit import (
    ContactConfiguration,
    InfeasibleError,
    KernelSpec,
    QuadratureScheme,
    bump_suite,
    bump_field,
    boltzmann_m0_search,
    boltzmann_hyperplane_integral,
    contact_estimate_check,
    gronwall_check,
    landau_delta_search,
    make_barrier,
    q_boltzmann_carleman,
    q_boltzmann_sigma,
    q_landau,
    riccati_check,
    weighted_sup_norm,
)
from collkit.boltzmann import collision_frequency_scale
from collkit.fields import gaussian_field
from collkit.hydro import LAMBDA_ENVELOPE, critical_gamma, load_catalog
from collkit.landau import landau_coefficients
from collkit.solver import homog_run, make_gaussian_grid
from collkit.verify import landau_integrand_g

from conftest import b_cos2, b_ones


def report(num, ok, detail):
    print(f"criterion {num}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {num} failed: {detail}"


TEN_POINTS = [
    r * np.array(d) for r, d in zip(
        np.linspace(0.0, 3.0, 10),
        [(1, 0, 0), (0, 1, 0), (0, 0, 1),
         (0.6, 0.8, 0.0), (0.0, 0.6, 0.8), (0.8, 0.0, 0.6),
         (1 / math.sqrt(3),) * 3, (-1, 0, 0), (0, -0.6, 0.8),
         (-1 / math.sqrt(3),) * 3],
    )
]


def test_criterion_1_maxwellian_annihilation():
    q = QuadratureScheme(radial_nodes=8, angular_nodes=8, hyperplane_nodes=10)
    M = gaussian_field()
    worst = 0.0
    for gamma in (-3.0, -1.0, 0.0):
        kl = KernelSpec(dim=3, gamma=gamma, operator="landau")
        kb = KernelSpec(dim=3, gamma=gamma, operator="boltzmann", b=b_ones)
        for v in TEN_POINTS:
            co = landau_coefficients(M, v, kl, q)
            scale_l = (float(np.sum(np.abs(co.a_bar) * np.abs(M.hessian(v))))
                       + abs(co.c_bar) * float(M(v)))
            worst = max(worst, abs(q_landau(M, v, kl, q)) / scale_l)
            scale_b = collision_frequency_scale(M, v, kb, q)
            worst = max(worst, abs(q_boltzmann_sigma(M, v, kb, q)) / scale_b)
    report(1, worst <= 1e-3, f"worst |Q|/scale = {worst:.2e}")


def test_criterion_2_representation_agreement():
    q = QuadratureScheme(radial_nodes=8, angular_nodes=8, hyperplane_nodes=10)
    fields = bump_suite(5)
    points = [weighted_sup_norm(f, 0.0, q, return_argmax=True)[1] for f in fields]
    kernels = [KernelSpec(dim=3, gamma=gamma, operator="boltzmann", b=b)
               for gamma in (-1.0, 0.0, 1.0) for b in (b_ones, b_cos2)]
    worst = 0.0
    # kernels innermost: each route samples a field at a point once for all six
    for f, v in zip(fields, points):
        for k in kernels:
            qs = q_boltzmann_sigma(f, v, k, q)
            qc = q_boltzmann_carleman(f, v, k, q)
            scale = abs(qs) + collision_frequency_scale(f, v, k, q)
            worst = max(worst, abs(qs - qc) / scale)
    report(2, worst <= 1e-3, f"worst sigma/Carleman mismatch = {worst:.2e}")


def test_criterion_3_landau_feasibility_boundary():
    eps = 1e-3
    ok = True
    details = []
    for d, gamma in ((3, -3.0), (3, 0.0), (2, 1.0)):
        m_hi = d + gamma + eps
        rep = landau_delta_search(m_hi, d, gamma)
        ok &= rep.feasible and rep.value > 0.0
        try:
            landau_delta_search(d + gamma - eps, d, gamma)
            ok = False
            details.append(f"(d={d},g={gamma}): below-boundary search succeeded")
        except InfeasibleError:
            pass
        g0 = landau_integrand_g(np.zeros(d), m_hi, d, gamma)
        ok &= abs(g0 - (d - 1.0) * (d + gamma - m_hi)) <= 1e-12
    report(3, ok, "delta* > 0 iff m > d+gamma; G(0) identity to 1e-12"
           + ("; " + "; ".join(details) if details else ""))


def test_criterion_4_m0_closed_form():
    q = QuadratureScheme()
    worst = 0.0
    for gamma in (-2.0, -1.0, 0.0, 1.0):
        k = KernelSpec(dim=3, gamma=gamma, operator="boltzmann", b=b_ones)
        rep = boltzmann_m0_search(k, q)
        worst = max(worst, abs(rep.value - (5.0 + gamma)))
    report(4, worst <= 1e-3, f"worst |m0 - (5+gamma)| = {worst:.2e}")


def test_criterion_5_large_m_negativity():
    q = QuadratureScheme()
    kernels = [
        KernelSpec(dim=3, gamma=0.0, operator="boltzmann", b=b_ones),
        KernelSpec(dim=3, gamma=0.0, operator="boltzmann", b=b_cos2),
        KernelSpec(dim=3, gamma=0.0, operator="boltzmann",
                   b=lambda x: np.asarray(x, dtype=float) ** -1.0),
    ]
    ok = True
    worst = -np.inf
    for k in kernels:
        vals = [boltzmann_hyperplane_integral(m, np.zeros(3), k, q)
                for m in (50.0, 100.0, 200.0)]
        ok &= all(v < 0.0 for v in vals)
        ok &= vals[0] > vals[1] > vals[2]
        worst = max(worst, vals[0])
    report(5, ok, f"all negative and decreasing; largest value at m=50: {worst:.3e}")


def test_criterion_6_hydro_thresholds():
    cat = {sc.name: sc for sc in load_catalog()}
    sqrt3 = math.sqrt(3.0)
    err = 0.0
    for name in ("smooth-implosion", "finite-regularity", "collapsing-cavity-spherical"):
        err = max(err, abs(critical_gamma(cat[name].lambda_max) - sqrt3))
    err = max(err, abs(LAMBDA_ENVELOPE - 8.0 / 5.0))
    err = max(err, abs(critical_gamma(8.0 / 5.0) - (-1.0 / 3.0)))
    report(6, err <= 1e-12, f"worst threshold error = {err:.2e}")


def test_criterion_7_gronwall_experiment():
    k = KernelSpec(dim=3, gamma=-3.0, operator="landau")
    q = QuadratureScheme(radial_nodes=8, angular_nodes=8, hyperplane_nodes=10)

    # measured contact-sweep constant: |Q(b,b)(v0)| / [b(v0)^2 <v0>^{d+gamma}]
    # over a small family of barrier contact points
    ratios = []
    barrier = make_barrier(5.0, 1.0)
    bf = barrier.as_field()
    for v0 in ([1.0, 0.0, 0.0], [0.0, 2.0, 0.0], [1.2, -1.0, 0.8]):
        cfg = ContactConfiguration(barrier=barrier, field=bf, v0=np.array(v0))
        lhs, unit = contact_estimate_check(cfg, k, q)
        ratios.append(abs(lhs) / unit)
    C = max(ratios)

    f0 = make_gaussian_grid(n=32, V=6.0, theta=(0.45, 0.6, 0.75))
    log = homog_run(f0, k, q, t_end=0.015, cfl=0.0024, m=5.0)
    steps = len(log.t) - 1

    holds, margins = gronwall_check(log, C)
    mass_drift = abs(log.mass[-1] - log.mass[0]) / log.mass[0]
    energy_drift = abs(log.energy[-1] - log.energy[0]) / log.energy[0]
    mom_drift = float(np.max(np.abs(np.asarray(log.momentum))))
    ok = (holds and 400 <= steps <= 600
          and mass_drift <= 1e-3 and energy_drift <= 1e-3 and mom_drift <= 1e-3)
    report(7, ok,
           f"{steps} steps, C={C:.3f}, gronwall={holds}, "
           f"drift mass {mass_drift:.1e} / energy {energy_drift:.1e} / "
           f"momentum {mom_drift:.1e}, min margin {np.min(margins):.1e}")


def test_criterion_8_riccati_envelope():
    from collkit.solver import RunLog

    # synthetic exact-Riccati trajectory: equality at 1e-12
    C, y0 = 2.0, 0.4
    T = 1.0 / (C * y0)
    t = np.linspace(0.0, 0.85 * T, 60)
    y = y0 / (1.0 - C * y0 * t)
    log = RunLog()
    for ti, yi in zip(t, y):
        log.append(float(ti), float(yi), 0.0, 1.0, (0, 0, 0), 1.0, 0.0)
    out = riccati_check(log, C, T, rel_tol=1e-12)
    ok = out["pairwise_ok"] and out["blowup_rate_ok"] and not out["envelope_hit"]

    # Coulomb constant on the ODE level: y' = 8 pi y^2 blows up like
    # [8 pi (T - t)]^{-1}
    c8 = 8.0 * math.pi
    y0 = 1.0
    T8 = 1.0 / (c8 * y0)
    sol = solve_ivp(lambda t, y: c8 * y * y, (0.0, 0.9 * T8), [y0],
                    rtol=1e-12, atol=1e-14, dense_output=True)
    ts = np.linspace(0.0, 0.9 * T8, 50)
    exact = 1.0 / (c8 * (T8 - ts))
    ode_err = float(np.max(np.abs(sol.sol(ts)[0] / exact - 1.0)))
    ok &= ode_err <= 1e-8
    report(8, ok, f"synthetic equality ok={out}, ODE envelope error {ode_err:.1e}")


def test_criterion_9_scaling_invariance():
    # the lam = 2 field has support radius 1/2, so the Landau polar rule
    # needs the finer node count; the Boltzmann split is cheaper per node and
    # uses its validated resolution
    ql = QuadratureScheme(radial_nodes=16, angular_nodes=16, rel_tol=1e-4)
    qb = QuadratureScheme(radial_nodes=10, angular_nodes=10, hyperplane_nodes=14,
                          rel_tol=1e-4)
    c, R = np.array([0.3, -0.2, 0.1]), 1.0
    f = bump_field(center=c, radius=R)
    v = np.array([0.5, 0.1, 0.2])
    kl = KernelSpec(dim=3, gamma=-1.0, operator="landau")
    kb = KernelSpec(dim=3, gamma=0.0, operator="boltzmann", b=b_ones)
    worst = 0.0
    for lam in (0.5, 2.0):
        f_lam = bump_field(center=c / lam, radius=R / lam)
        lhs = q_landau(f_lam, v, kl, ql)
        rhs = lam ** (-3.0 + 1.0) * q_landau(f, lam * v, kl, ql)
        worst = max(worst, abs(lhs - rhs) / (abs(rhs) + 1e-30))
        lhs_b = q_boltzmann_carleman(f_lam, v, kb, qb)
        rhs_b = lam ** -3.0 * q_boltzmann_carleman(f, lam * v, kb, qb)
        scale = abs(rhs_b) + collision_frequency_scale(f_lam, v, kb, qb)
        worst = max(worst, abs(lhs_b - rhs_b) / scale)
    report(9, worst <= 2e-4, f"worst scaling mismatch = {worst:.2e} (tol 2e-04)")
