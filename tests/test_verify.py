import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from collkit import (
    ConfigurationError,
    ContactConfiguration,
    EvaluationError,
    InfeasibleError,
    KernelSpec,
    QuadratureScheme,
    ThresholdReport,
    boltzmann_delta_search,
    boltzmann_hyperplane_integral,
    boltzmann_m0_search,
    contact_estimate_check,
    crude_bound_check,
    landau_delta_search,
    landau_integrand_sup,
    make_barrier,
)
from collkit import verify
from collkit.boltzmann import q_boltzmann_carleman
from collkit.fields import shell_field
from collkit.util import circle_rule, geometric_panels, graded_panels, orthonormal_complement
from collkit.verify import landau_integrand_g

from conftest import b_cos2, b_ones


def hyperplane_closed_form(m, gamma):
    """Origin hyperplane integral for b == 1, d = 3: pi * (2/(q-1) - 1)."""
    q = (m + 1.0 - gamma) / 2.0
    return np.pi * (2.0 / (q - 1.0) - 1.0)


# ---------------------------------------------------------------------------
# Landau integrand


@given(
    m=st.floats(0.5, 50.0),
    gamma=st.floats(-3.0, 1.0),
    d=st.sampled_from([2, 3]),
)
@settings(max_examples=100, deadline=None)
def test_integrand_origin_identity(m, gamma, d):
    # G(0) = (d-1)(d+gamma-m) exactly
    assert landau_integrand_g(np.zeros(d), m, d, gamma) == pytest.approx(
        (d - 1.0) * (d + gamma - m), abs=1e-12 * (1.0 + m)
    )


def test_integrand_sup_domain_errors():
    with pytest.raises(ValueError):
        landau_integrand_sup(5.0, 3, 0.0, 1.5)
    with pytest.raises(ValueError):
        landau_integrand_sup(-1.0, 3, 0.0, 0.5)
    with pytest.raises(ValueError, match="d >= 2"):
        landau_integrand_sup(5.0, 1, 0.0, 0.5)
    with pytest.raises(ValueError, match="m must be finite"):
        landau_integrand_sup(np.nan, 3, 0.0, 0.5)
    with pytest.raises(ValueError, match="gamma must be finite"):
        landau_integrand_sup(5.0, 3, np.nan, 0.5)


@pytest.mark.parametrize("d", [2, 3, 4])
def test_integrand_sup_is_max_over_polar_grid(d):
    # the sup works on the 2-D (radius, angle) grid; the same grid as d-vectors
    # through landau_integrand_g gives the same value bit for bit
    n = verify._GRID_N
    for m, gamma, delta in [(10.0, -3.0, 0.3), (d + 0.5 + 1e-3, 0.5, 0.02),
                            (3.1, 0.0, 0.97), (250.0, 1.0, 1e-7)]:
        rho = np.linspace(0.0, delta, n)
        psi = np.linspace(0.0, np.pi, n)
        w_grid = np.zeros((n, n, d))
        w_grid[..., 0] = rho[:, None] * np.cos(psi)[None, :]
        w_grid[..., 1] = rho[:, None] * np.sin(psi)[None, :]
        expected = float(np.max(landau_integrand_g(w_grid, m, d, gamma)))
        assert landau_integrand_sup(m, d, gamma, delta) == expected


def test_delta_search_feasible():
    rep = landau_delta_search(10.0, 3, -3.0)
    assert rep.feasible and rep.value > 0.0
    # certificate shows nonpositive sup at delta* and the grid used
    assert rep.certificate[0]["sup"] <= 0.0
    assert rep.resolution["m"] == 10.0
    # at d + gamma = 0 a small m keeps G <= 0 on every probed ball: no probe
    # fails, so the window is the domain edge with a one-sided certificate
    rep = landau_delta_search(1e-3, 3, -3.0)
    assert rep.value == 0.999
    assert [c["delta"] for c in rep.certificate] == [0.999]
    assert rep.certificate[0]["sup"] <= 0.0


def test_delta_search_infeasible():
    with pytest.raises(InfeasibleError):
        landau_delta_search(2.9, 3, 0.0)  # m < d + gamma


def landau_delta_closed_form(m, d, gamma):
    """Exact Landau window delta* for m > d + gamma.

    sup_{|w| <= delta} G = m(m+3-d)(delta^2 - c) + (d-1)(d+gamma) when
    c = (d-1)/(m+2) <= delta, else (d-1)(d+gamma) - m(d-1)(1-delta)^2.
    """
    c = (d - 1.0) / (m + 2.0)
    delta = 1.0 - np.sqrt((d + gamma) / m)
    if delta <= c:
        return delta
    return np.sqrt(c - (d - 1.0) * (d + gamma) / (m * (m + 3.0 - d)))


@pytest.mark.parametrize("d, gamma", [(3, -3.0), (3, 0.0), (2, 1.0), (3, -2.0), (3, 1.0)])
def test_delta_search_matches_closed_form(d, gamma):
    # measured: at most 5.4e-4 relative, always from below
    for excess in (1e-3, 0.5, 2.0, 7.0, 30.0, 300.0):
        m = d + gamma + excess
        exact = min(landau_delta_closed_form(m, d, gamma), 0.999)
        got = landau_delta_search(m, d, gamma).value
        assert abs(got - exact) <= 1e-3 * exact, (m, got, exact)


def test_delta_search_window_shrinks_toward_boundary():
    d1 = landau_delta_search(3.5, 3, 0.0).value
    d2 = landau_delta_search(3.05, 3, 0.0).value
    assert 0.0 < d2 < d1


# ---------------------------------------------------------------------------
# Boltzmann hyperplane integral


def test_hyperplane_origin_closed_form(q_default, kernel_boltzmann_g0):
    for m in (4.0, 6.0, 9.0):
        got = boltzmann_hyperplane_integral(m, np.zeros(3), kernel_boltzmann_g0, q_default)
        assert got == pytest.approx(hyperplane_closed_form(m, 0.0), rel=1e-5)


def test_hyperplane_rejects_large_w(q_default, kernel_boltzmann_g0):
    with pytest.raises(ValueError):
        boltzmann_hyperplane_integral(6.0, np.array([0.5, 0.0, 0.0]),
                                      kernel_boltzmann_g0, q_default)


def e_aligned_frame(n):
    """(e1, e2) spanning the plane orthogonal to n, e1 along the projection of e."""
    e = np.array([1.0, 0.0, 0.0])
    e1 = e - np.dot(e, n) * n
    e1 /= np.linalg.norm(e1)
    return e1, np.cross(n, e1)


def hyperplane_reference(m, w, k, q, frame=e_aligned_frame):
    """The per-point formula on the full circle, from 3-vectors.

    z = e + u with u = rho ehat a 3-vector, and log|z| = log1p(u.(2e + u))/2:
    log of a norm near 1 would lose the digits the non-cutoff kernel
    amplifies near z = e.
    """
    e = np.array([1.0, 0.0, 0.0])
    ew = e - w
    q_ew = float(np.linalg.norm(ew))
    e1, e2 = frame(ew / q_ew)
    rho_h, w_h = graded_panels(0.0, 1.0, q.hyperplane_nodes, ratio=2.5)
    rho_t, w_t = geometric_panels(1.0, 1e4, 2 * q.hyperplane_nodes)
    rho = np.concatenate([rho_h, rho_t])
    w_rho = np.concatenate([w_h, w_t]) * rho
    n_phi = 2 * q.angular_nodes
    phi = (np.arange(n_phi) + 0.5) * 2.0 * np.pi / n_phi
    ehat = np.cos(phi)[:, None] * np.reshape(e1, 3) + np.sin(phi)[:, None] * np.reshape(e2, 3)
    u = rho[:, None, None] * ehat[None, :, :]
    log_az = 0.5 * np.log1p(np.sum(u * (2.0 * e + u), axis=-1))
    r = np.sqrt(rho[:, None] ** 2 + q_ew**2)
    delta = -m * log_az + (3.0 + k.gamma) * np.log(r / q_ew)
    loss = q_ew ** (k.gamma + 3.0) * r**-4.0 * np.expm1(delta) * k.b(rho[:, None] / r)
    gain = np.exp(-m * log_az) * r ** (k.gamma - 1.0) * k.b(q_ew / r)
    return float(np.sum((loss + gain) * w_rho[:, None]) * (2.0 * np.pi / n_phi))


HYPERPLANE_KERNELS = (b_ones, b_cos2, lambda x: np.asarray(x, dtype=float) ** -1.0)


def assert_matches_reference(m, w, k, q, frame=e_aligned_frame):
    got = boltzmann_hyperplane_integral(m, w, k, q)
    ref = np.array([hyperplane_reference(m, row, k, q, frame) for row in w])
    err = np.abs(got - ref)
    assert np.all((err <= 1e-12 * np.abs(ref)) | (err <= 1e-14)), (m, err)


def test_hyperplane_batch_matches_per_point_formula(q_fast):
    # the reference sums the full circle in the e-aligned frame, node by node,
    # so this also checks the fold onto half the azimuths and the sums over
    # phi taken before the phi-free factors; m runs from gamma + 4 up
    rng = np.random.default_rng(11)
    w = rng.normal(size=(20, 3))
    w *= (0.45 * rng.random(20) / np.linalg.norm(w, axis=-1))[:, None]
    for gamma in (-2.0, 0.0, 1.0, 40.0):
        for b in HYPERPLANE_KERNELS + (lambda x: np.asarray(x, dtype=float) ** -3.0,):
            k = KernelSpec(dim=3, gamma=gamma, operator="boltzmann", b=b)
            for m in (4.0, 8.0, 50.0, 200.0):
                assert_matches_reference(gamma + m, w, k, q_fast)


@pytest.mark.parametrize("gamma", [-2.0, 0.0, 1.0, 40.0, 76.0])
def test_hyperplane_origin_vanishes_at_five_plus_gamma(q_default, gamma):
    # exact oracle: at w = 0, rho -> 1/rho maps the integrand to minus itself
    # at m = 5 + gamma, so I(5 + gamma, 0) = 0; measured against I(gamma + 2, 0)
    k = KernelSpec(dim=3, gamma=gamma, operator="boltzmann", b=b_ones)
    zero = boltzmann_hyperplane_integral(5.0 + gamma, np.zeros(3), k, q_default)
    scale = boltzmann_hyperplane_integral(2.0 + gamma, np.zeros(3), k, q_default)
    assert abs(zero) <= 1e-8 * abs(scale), (zero, scale)


def test_hyperplane_matches_any_frame_on_delta_scan_rows(q_fast):
    # for w in the xy-plane, as the delta search passes it, the frame built
    # from orthonormal_complement is the e-aligned one up to phi -> phi + pi
    angles = np.linspace(0.0, np.pi, 64)
    directions = np.stack([np.cos(angles), np.sin(angles), np.zeros_like(angles)], axis=-1)
    for b in HYPERPLANE_KERNELS:
        k = KernelSpec(dim=3, gamma=0.0, operator="boltzmann", b=b)
        for a in (1e-4, 0.1, 0.3, 0.499):
            for m in (8.0, 50.0):
                assert_matches_reference(m, a * directions, k, q_fast, orthonormal_complement)


def test_hyperplane_converges_in_angular_nodes_on_delta_scan(q_default):
    # the default scheme against 96 angular nodes, on the delta search's scan
    # directions at m0 + 2 and m0 + 4 (m0 = 5 + gamma); the measured worst
    # case is 5.6e-11 of the scan's largest value
    angles = np.linspace(0.0, np.pi, 64)
    directions = np.stack([np.cos(angles), np.sin(angles), np.zeros_like(angles)], axis=-1)
    w = np.array([0.1, 0.3, 0.45, 0.499])[:, None, None] * directions
    q_fine = QuadratureScheme(angular_nodes=96)
    for gamma, b in ((0.0, b_ones), (0.0, b_cos2), (1.0, b_ones), (-1.0, b_ones)):
        k = KernelSpec(dim=3, gamma=gamma, operator="boltzmann", b=b)
        for m in (7.0 + gamma, 9.0 + gamma):
            coarse = boltzmann_hyperplane_integral(m, w, k, q_default)
            fine = boltzmann_hyperplane_integral(m, w, k, q_fine)
            moved = np.max(np.abs(coarse - fine)) / np.max(np.abs(fine))
            assert moved <= 3e-10, (gamma, b, m, moved)


def test_hyperplane_invariant_under_rotation_about_e(q_fast):
    rng = np.random.default_rng(16)
    w = rng.normal(size=(12, 3))
    w *= (0.45 * rng.random(12) / np.linalg.norm(w, axis=-1))[:, None]
    turns = rng.uniform(0.0, 2.0 * np.pi, size=(5, 12))
    c, s = np.cos(turns), np.sin(turns)
    # rotate each row about e = (1, 0, 0) by five angles
    rotated = np.stack([np.broadcast_to(w[:, 0], c.shape), c * w[:, 1] - s * w[:, 2],
                        s * w[:, 1] + c * w[:, 2]], axis=-1)
    for b in HYPERPLANE_KERNELS:
        k = KernelSpec(dim=3, gamma=0.0, operator="boltzmann", b=b)
        for m in (8.0, 50.0, 200.0):
            base = boltzmann_hyperplane_integral(m, w, k, q_fast)
            turned = boltzmann_hyperplane_integral(m, rotated, k, q_fast)
            assert np.all(np.abs(turned - base) <= 1e-13 * np.abs(base)), (m, turned - base)


def test_hyperplane_batch_shapes(q_fast, kernel_boltzmann_g0):
    two_rho_cos = verify._hyperplane_rule(q_fast)[3]
    block = verify._BLOCK_ELEMENTS // two_rho_cos.size
    assert 1 < block < 40
    rng = np.random.default_rng(12)
    w = rng.normal(size=(80, 3))
    w *= (0.49 * rng.random(80) / np.linalg.norm(w, axis=-1))[:, None]
    single = [boltzmann_hyperplane_integral(7.0, row, kernel_boltzmann_g0, q_fast)
              for row in w]
    assert all(type(v) is float for v in single)
    # blocking is invisible: every batch size gives each row's own value, bit for bit
    for n in (1, block, block + 1, 80):
        batch = boltzmann_hyperplane_integral(7.0, w[:n], kernel_boltzmann_g0, q_fast)
        assert batch.shape == (n,)
        assert np.array_equal(batch, single[:n])
    n = block + 1
    grid = boltzmann_hyperplane_integral(7.0, w[:2 * n].reshape(2, n, 3),
                                         kernel_boltzmann_g0, q_fast)
    assert np.array_equal(grid, np.reshape(single[:2 * n], (2, n)))
    # a bad row in the last block raises before any value is returned
    for bad in ([0.0, 0.5, 0.0], [np.nan, 0.0, 0.0]):
        w_bad = w[:block + 1].copy()
        w_bad[-1] = bad
        with pytest.raises(ValueError):
            boltzmann_hyperplane_integral(7.0, w_bad, kernel_boltzmann_g0, q_fast)


def test_hyperplane_rejects_non_finite_input_before_computing(q_fast):
    seen = []

    def b_seen(x):
        seen.append(x)
        return b_ones(x)

    k = KernelSpec(dim=3, gamma=0.0, operator="boltzmann", b=b_seen)
    seen.clear()  # the kernel's own setup evaluates b
    for m in (np.inf, -np.inf, np.nan):
        with pytest.raises(ValueError, match="m must be finite"):
            boltzmann_hyperplane_integral(m, np.zeros(3), k, q_fast)
    w = np.zeros((5, 3))
    w[3, 1] = np.nan
    with pytest.raises(ValueError, match="w must be finite"):
        boltzmann_hyperplane_integral(7.0, w, k, q_fast)
    assert seen == []


def test_hyperplane_rule_built_once_per_scheme(q_default, kernel_boltzmann_g0):
    verify._hyperplane_rule.cache_clear()
    boltzmann_m0_search(kernel_boltzmann_g0, q_default)
    info = verify._hyperplane_rule.cache_info()
    assert info.misses == 1 and info.hits > 10
    rho, w_rho, rho2, two_rho_cos, n_head, w_phi = verify._hyperplane_rule(q_default)
    assert not any(a.flags.writeable for a in (rho, w_rho, rho2, two_rho_cos))
    # the folded rule is the first half of the N-point midpoint circle at
    # weight 2 (2 pi / N): N/2 nodes that sum to the full circle
    n_phi = 2 * q_default.angular_nodes
    phi, w_full = circle_rule(n_phi)
    assert np.array_equal(two_rho_cos, 2.0 * np.cos(phi[:n_phi // 2])[:, None] * rho)
    assert np.array_equal(rho2, rho * rho)
    assert w_phi == 2.0 * w_full
    assert len(two_rho_cos) * w_phi == pytest.approx(2.0 * np.pi, rel=1e-15)
    # the innermost radii are those up to the fixed split radius
    assert 0 < n_head < len(rho)
    assert rho[n_head - 1] <= verify._HEAD_RADIUS < rho[n_head]


def test_m0_search_constant_kernel(q_default, kernel_boltzmann_g0):
    rep = boltzmann_m0_search(kernel_boltzmann_g0, q_default)
    assert rep.feasible
    assert rep.value == pytest.approx(5.0, abs=1e-3)
    # the report records the scheme fields the hyperplane integral reads, only
    assert rep.resolution == {"hyperplane_nodes": 16, "angular_nodes": 12}
    # certificate brackets the sign change
    assert rep.certificate[0]["integral"] >= 0.0 >= rep.certificate[1]["integral"]


@pytest.mark.parametrize("gamma", [-2.0, 0.0, 1.0])
@pytest.mark.parametrize("b", [b_ones, b_cos2, lambda x: np.asarray(x, dtype=float) ** -1.0,
                               lambda x: np.asarray(x, dtype=float) ** -3.0],
                         ids=["constant", "cos2", "x^-1", "x^-3"])
def test_m0_is_five_plus_gamma_for_every_b(q_default, b, gamma):
    # at w = 0 the integrand depends on m - gamma only, and rho -> 1/rho
    # maps it to minus itself at m - gamma = 5, whatever b is (non-cutoff too)
    k = KernelSpec(dim=3, gamma=gamma, operator="boltzmann", b=b)
    rep = boltzmann_m0_search(k, q_default)
    assert rep.feasible
    assert rep.value == pytest.approx(5.0 + gamma, abs=1e-3)


def test_m0_monotone_in_gamma(q_default):
    vals = []
    for gamma in (-2.0, 0.0):
        k = KernelSpec(dim=3, gamma=gamma, operator="boltzmann", b=b_ones)
        vals.append(boltzmann_m0_search(k, q_default).value)
    assert vals[0] < vals[1]


def test_m0_search_rejects_overflowing_integral(q_default):
    # the tail factor r^{2-d+gamma} overflows at rho = 1e4 for gamma >~ 77
    k = KernelSpec(dim=3, gamma=100.0, operator="boltzmann", b=b_ones)
    with pytest.raises(EvaluationError, match="m = 102.0, gamma = 100.0"):
        boltzmann_m0_search(k, q_default)
    k = KernelSpec(dim=3, gamma=76.0, operator="boltzmann", b=b_ones)
    rep = boltzmann_m0_search(k, q_default)
    assert rep.feasible and abs(rep.value - 81.0) <= 1e-4 * rep.value


def test_boltzmann_delta_search(q_fast, kernel_boltzmann_g0):
    rep = boltzmann_delta_search(8.0, kernel_boltzmann_g0, q_fast)
    assert rep.feasible and 0.0 < rep.value < 0.5
    assert rep.resolution == {"hyperplane_nodes": 10, "angular_nodes": 8,
                              "n_angles": 64, "m": 8.0}
    assert rep.certificate[0]["integral"] <= 0.0


def test_searches_evaluate_no_point_twice(monkeypatch, q_default, kernel_boltzmann_g0):
    calls = []

    def counted(m, w, k, q):
        calls.append((m, np.asarray(w, dtype=float).tobytes()))
        return hyperplane(m, w, k, q)

    hyperplane = verify.boltzmann_hyperplane_integral
    monkeypatch.setattr(verify, "boltzmann_hyperplane_integral", counted)
    rep = boltzmann_delta_search(7.5, kernel_boltzmann_g0, q_default)
    assert rep.feasible and len(rep.certificate) == 2
    # 32 batched angle scans and the one origin integral of the m > m0 check
    n_scalar = sum(len(w) == 3 * 8 for _, w in calls)
    assert (len(calls) - n_scalar, n_scalar) == (32, 1)
    assert len(set(calls)) == len(calls)


def test_boltzmann_delta_search_below_threshold(q_fast, kernel_boltzmann_g0):
    with pytest.raises(InfeasibleError):
        boltzmann_delta_search(4.0, kernel_boltzmann_g0, q_fast)
    # m0 = 5 for constant b at gamma = 0: just below it the origin integral is positive
    with pytest.raises(InfeasibleError, match=r"origin integral I\(m, 0\) = 0\.0"):
        boltzmann_delta_search(4.9, kernel_boltzmann_g0, q_fast)


def test_boltzmann_delta_search_rejects_landau_kernel(q_fast):
    with pytest.raises(ValueError, match="requires a Boltzmann kernel"):
        boltzmann_delta_search(8.0, KernelSpec(dim=3, gamma=0.0, operator="landau"), q_fast)


def test_threshold_report_schema():
    rep = ThresholdReport("m0", 5.0, [{"m": 5.0, "integral": -0.1}], {"grid_n": 96})
    doc = json.loads(rep.to_json())
    assert set(doc) == {"parameter", "value", "certificate", "grid", "feasible"}
    assert doc["feasible"] is True
    assert doc["parameter"] == "m0"


# ---------------------------------------------------------------------------
# Contact estimate and crude bound


def test_contact_ratio_quadratic_homogeneity(q_fast):
    k = KernelSpec(dim=3, gamma=-3.0, operator="landau")
    v0 = np.array([2.0, 0.0, 0.0])
    ratios = []
    for alpha in (1.0, 2.0):
        barrier = make_barrier(6.0, alpha)
        cfg = ContactConfiguration(barrier=barrier, field=barrier.as_field(), v0=v0)
        lhs, unit = contact_estimate_check(cfg, k, q_fast)
        ratios.append(lhs / unit)
    assert ratios[1] == pytest.approx(ratios[0], rel=1e-10)


def test_contact_estimate_2d_landau(q_fast):
    barrier = make_barrier(5.0, 1.0)
    for gamma in (-1.5, 0.0, 1.0):
        k = KernelSpec(dim=2, gamma=gamma, operator="landau")
        cfg = ContactConfiguration(barrier=barrier, field=barrier.as_field(dim=2),
                                   v0=np.array([1.2, -0.7]))
        lhs, unit = contact_estimate_check(cfg, k, q_fast)
        assert np.isfinite(lhs) and np.isfinite(unit) and unit > 0.0


def test_contact_validation_rejects_crossing(q_fast):
    barrier = make_barrier(6.0, 1.0)
    taller = make_barrier(6.0, 2.0)
    cfg = ContactConfiguration(barrier=barrier, field=taller.as_field(),
                               v0=np.array([2.0, 0.0, 0.0]))
    with pytest.raises(ConfigurationError):
        cfg.validate(q_fast)


def test_crude_bound_shell(q_fast):
    k = KernelSpec(dim=3, gamma=0.0, operator="landau")
    f = shell_field(m=7.0, delta=0.3)
    e = np.array([1.0, 0.0, 0.0])
    val = crude_bound_check(f, e, 7.0, 0.3, k, q_fast)
    assert np.isfinite(val)


def test_crude_bound_hypothesis_errors(q_fast):
    k = KernelSpec(dim=3, gamma=0.0, operator="landau")
    f = shell_field(m=7.0, delta=0.3)
    with pytest.raises(ConfigurationError):
        crude_bound_check(f, np.array([2.0, 0.0, 0.0]), 7.0, 0.3, k, q_fast)  # not unit


def test_crude_bound_checks_declared_void(q_fast):
    # the shell vanishes only on |v| < 0.3; a stated void of 0.5 is false,
    # and the sample nodes at |v| = 0.38 show it
    k = KernelSpec(dim=3, gamma=0.0, operator="landau")
    f = shell_field(m=7.0, delta=0.3)
    with pytest.raises(ConfigurationError, match="nonzero inside"):
        crude_bound_check(f, np.array([1.0, 0.0, 0.0]), 7.0, 0.5, k, q_fast)


def test_contact_estimate_boltzmann_route(q_fast):
    # q_fast is criterion 2's scheme; a Boltzmann kernel is evaluated by the
    # Carleman split, the route the contact-point estimate rests on
    k = KernelSpec(dim=3, gamma=0.0, operator="boltzmann", b=b_ones)
    barrier = make_barrier(5.0, 1.0)
    cfg = ContactConfiguration(barrier=barrier, field=barrier.as_field(),
                               v0=np.array([1.5, 0.0, 0.0]))
    lhs, _ = contact_estimate_check(cfg, k, q_fast)
    assert lhs == q_boltzmann_carleman(cfg.field, cfg.v0, k, q_fast)


def test_crude_bound_boltzmann_route(q_fast):
    k = KernelSpec(dim=3, gamma=0.0, operator="boltzmann", b=b_ones)
    f = shell_field(m=7.0, delta=0.3)
    e = np.array([1.0, 0.0, 0.0])
    assert crude_bound_check(f, e, 7.0, 0.3, k, q_fast) == q_boltzmann_carleman(f, e, k, q_fast)
