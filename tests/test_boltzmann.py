import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from collkit import (
    CapabilityError,
    KernelSpec,
    QuadratureScheme,
    UnsupportedParameterError,
    VelocityField,
    cb_constant,
    post_collision_map,
    q_boltzmann_carleman,
    q_boltzmann_sigma,
    q_landau,
)
from collkit.boltzmann import collision_frequency_scale, plane_rule
from collkit.fields import bump_field, gaussian_field
from collkit.landau import polar_convolution, polar_nodes
from collkit.util import orthonormal_complement, sphere_antipodes

from conftest import b_cos2, b_ones


# ---------------------------------------------------------------------------
# Collision geometry


coord = st.floats(-5.0, 5.0, allow_nan=False)
vec = st.tuples(coord, coord, coord)


@given(
    pairs=st.lists(st.tuples(vec, vec), min_size=1, max_size=4),
    ang=st.tuples(st.floats(0.0, np.pi), st.floats(0.0, 2.0 * np.pi)),
)
@settings(max_examples=200, deadline=None)
def test_collision_invariants(pairs, ang):
    # one batched call over the drawn pairs, sigma broadcast across the batch
    theta, phi = ang
    sigma = np.array(
        [np.sin(theta) * np.cos(phi), np.sin(theta) * np.sin(phi), np.cos(theta)]
    )
    sigma /= np.linalg.norm(sigma)
    v, vs = np.array(pairs, dtype=float).transpose(1, 0, 2)
    r = np.linalg.norm(v - vs, axis=-1)
    vp, vps = post_collision_map(v, vs, sigma, r)
    scale = 1.0 + np.linalg.norm(v, axis=-1) + np.linalg.norm(vs, axis=-1)
    # momentum
    assert np.all(np.abs(vp + vps - v - vs) <= 1e-12 * scale[:, None])
    # energy
    e_in = np.sum(v * v + vs * vs, axis=-1)
    e_out = np.sum(vp * vp + vps * vps, axis=-1)
    assert np.all(np.abs(e_out - e_in) <= 1e-11 * scale**2)
    # relative speed
    assert np.all(np.abs(np.linalg.norm(vp - vps, axis=-1) - r) <= 1e-12 * scale)
    # the same IEEE operations as the textbook vector form
    mid, half = 0.5 * (v + vs), 0.5 * r[:, None] * sigma
    assert np.array_equal(vp, mid + half) and np.array_equal(vps, mid - half)
    # each row is what the map gives for that pair alone
    for i in range(len(r)):
        one_p, one_ps = post_collision_map(v[i], vs[i], sigma, r[i])
        assert np.array_equal(one_p, vp[i]) and np.array_equal(one_ps, vps[i])


def test_collision_rejects_non_unit_sigma():
    with pytest.raises(ValueError):
        post_collision_map(np.zeros(3), np.ones(3), np.array([0.0, 0.0, 2.0]), np.sqrt(3.0))


# ---------------------------------------------------------------------------
# Kernel constants


def test_cb_closed_forms():
    # cancellation constant for b == 1, d = 3:
    #   gamma = 1:  4 pi
    #   gamma = 0:  4 pi (4 (sqrt 2 - 1) - 1)
    #   gamma = -1: 4 pi (2 ln 2 - 1)
    #   gamma = -3: 0 (the bracket exponent d + gamma vanishes)
    for gamma, expect in (
        (1.0, 4.0 * np.pi),
        (0.0, 4.0 * np.pi * (4.0 * (np.sqrt(2.0) - 1.0) - 1.0)),
        (-1.0, 4.0 * np.pi * (2.0 * np.log(2.0) - 1.0)),
        (-3.0, 0.0),
    ):
        k = KernelSpec(dim=3, gamma=gamma, operator="boltzmann", b=b_ones)
        assert cb_constant(k) == pytest.approx(expect, abs=1e-10)
        assert k.cb == pytest.approx(expect, abs=1e-10)


def test_cb_linearity_in_b():
    k1 = KernelSpec(dim=3, gamma=0.0, operator="boltzmann", b=b_ones)
    k3 = KernelSpec(
        dim=3, gamma=0.0, operator="boltzmann",
        b=lambda x: 3.0 * np.ones_like(np.asarray(x, dtype=float)),
    )
    assert k3.cb == pytest.approx(3.0 * k1.cb, rel=1e-12)


# ---------------------------------------------------------------------------
# Operator evaluations


def test_maxwellian_annihilation_sigma(q_fast, maxwellian, kernel_boltzmann_g0):
    v = np.array([0.8, 0.4, 0.0])
    val = q_boltzmann_sigma(maxwellian, v, kernel_boltzmann_g0, q_fast)
    scale = collision_frequency_scale(maxwellian, v, kernel_boltzmann_g0, q_fast)
    assert abs(val) <= 1e-6 * scale


def test_representation_agreement_single(q_fast):
    k = KernelSpec(dim=3, gamma=-1.0, operator="boltzmann", b=b_cos2)
    f = bump_field(center=[0.3, 0.0, 0.0], radius=1.1)
    v = np.array([0.5, 0.2, 0.0])
    qs = q_boltzmann_sigma(f, v, k, q_fast)
    qc = q_boltzmann_carleman(f, v, k, q_fast)
    scale = abs(qs) + collision_frequency_scale(f, v, k, q_fast)
    assert abs(qs - qc) <= 1e-3 * scale


def test_sigma_rejects_noncutoff(q_fast, maxwellian):
    k = KernelSpec(
        dim=3, gamma=0.0, operator="boltzmann",
        b=lambda x: np.asarray(x, dtype=float) ** -3.0,
    )
    with pytest.raises(CapabilityError):
        q_boltzmann_sigma(maxwellian, np.zeros(3), k, q_fast)


def test_carleman_requires_3d(q_fast):
    k = KernelSpec(dim=2, gamma=0.0, operator="boltzmann", b=b_ones)
    f = gaussian_field(dim=2)
    with pytest.raises(UnsupportedParameterError):
        q_boltzmann_carleman(f, np.zeros(2), k, q_fast)



@pytest.mark.parametrize("field_dim,point_dim", [(2, 3), (3, 2)])
@pytest.mark.parametrize("route", [q_boltzmann_sigma, q_boltzmann_carleman, q_landau],
                         ids=lambda r: r.__name__)
def test_dimension_mismatch_rejected_early(q_fast, route, field_dim, point_dim):
    # named up front, not a numpy broadcasting error from inside the quadrature
    if route is q_landau:
        k = KernelSpec(dim=3, gamma=0.0, operator="landau")
    else:
        k = KernelSpec(dim=3, gamma=0.0, operator="boltzmann", b=b_ones)
    f = gaussian_field(dim=field_dim)
    with pytest.raises(ValueError, match=r"dimension 2 does not match kernel dimension 3"
                                         r"|point v has shape \(2,\), expected \(3,\)"):
        route(f, np.zeros(point_dim), k, q_fast)


def test_noncutoff_carleman_needs_only_eval(q_fast, maxwellian):
    # a field with no derivative data: the non-cutoff route reads f alone
    k = KernelSpec(
        dim=3, gamma=0.0, operator="boltzmann",
        b=lambda x: np.asarray(x, dtype=float) ** -3.0,
    )
    eval_only = VelocityField(dim=3, eval=maxwellian.eval)
    v = np.array([0.7, 0.0, 0.0])
    val = q_boltzmann_carleman(eval_only, v, k, q_fast)
    # b = x^-3 has no finite collision frequency, so the scale is that of b = 1
    k_ones = KernelSpec(dim=3, gamma=0.0, operator="boltzmann", b=b_ones)
    assert abs(val) <= 1e-6 * collision_frequency_scale(eval_only, v, k_ones, q_fast)


def test_collision_frequency_scale_rejects_noncutoff(q_fast, maxwellian):
    # b = x^-3 has no finite angular mass; quad used to return -1.249 here
    k = KernelSpec(
        dim=3, gamma=0.0, operator="boltzmann",
        b=lambda x: np.asarray(x, dtype=float) ** -3.0,
    )
    with pytest.raises(ValueError, match="cutoff"):
        collision_frequency_scale(maxwellian, np.array([0.7, 0.0, 0.0]), k, q_fast)


def test_scaling_law_boltzmann():
    q = QuadratureScheme(radial_nodes=10, angular_nodes=10, hyperplane_nodes=12)
    k = KernelSpec(dim=3, gamma=0.0, operator="boltzmann", b=b_ones)
    c, R = np.array([0.3, -0.2, 0.1]), 1.0
    f = bump_field(center=c, radius=R)
    v = np.array([0.5, 0.1, 0.2])
    for lam in (0.5, 2.0):
        f_lam = bump_field(center=c / lam, radius=R / lam)
        lhs = q_boltzmann_carleman(f_lam, v, k, q)
        rhs = lam ** (-3.0 - 0.0) * q_boltzmann_carleman(f, lam * v, k, q)
        scale = abs(rhs) + collision_frequency_scale(f_lam, v, k, q)
        assert abs(lhs - rhs) <= 2e-4 * scale


def bkw_field(K):
    """The BKW solution f_K of the Maxwell-molecule Boltzmann equation, and d f_K / dK.

    f_K(v) = (2 pi K)^{-3/2} e^{-|v|^2/(2K)} [(5K - 3)/K + (1 - K)|v|^2/K^2] / 2
    has mass 1 and temperature 1, is nonnegative for K >= 3/5, and with
    gamma = 0, b = 1/(4 pi) and K(t) = 1 - e^{-t/6} solves the equation:
    Q(f_K, f_K) = (1 - K)/6 * d f_K / dK at every point (Bobylev 1975;
    Krook-Wu 1976).
    """
    def parts(v):
        s = np.sum(np.asarray(v, dtype=float) ** 2, axis=-1)
        g = (2.0 * np.pi * K) ** -1.5 * np.exp(-s / (2.0 * K))
        return s, g, 0.5 * ((5.0 * K - 3.0) / K + (1.0 - K) * s / K**2)

    def ev(v):
        _, g, h = parts(v)
        return g * h

    def d_dk(v):
        s, g, h = parts(v)
        dh = 0.5 * (3.0 / K**2 - 2.0 * s / K**3 + s / K**2)
        return g * ((s / (2.0 * K * K) - 1.5 / K) * h + dh)

    return VelocityField(dim=3, eval=ev), d_dk


# |v| and the relative error allowed there: 5x the larger of the sigma and
# Carleman errors measured at K = 0.7 and scheme (8, 8, 10), rounded up.
# Measured (sigma, Carleman): 1.9e-8, 1.0e-9 at |v| = 0; 4.3e-8, 6.8e-9 at
# 0.5; 5.2e-6, 6.8e-6 at 1.16; 5.4e-4, 2.8e-4 at 2.  Q changes sign near
# |v| = 1.16, and at |v| = 2 both routes lose accuracy in the radial tail.
BKW_TOLERANCES = [(0.0, 1e-7), (0.5, 3e-7), (1.16, 4e-5), (2.0, 3e-3)]


@pytest.mark.parametrize("route", [q_boltzmann_sigma, q_boltzmann_carleman],
                         ids=lambda r: r.__name__)
def test_bkw_exact_oracle(route):
    K = 0.7
    f, d_dk = bkw_field(K)
    k = KernelSpec(dim=3, gamma=0.0, operator="boltzmann",
                   b=lambda x: np.full(np.shape(x), 1.0 / (4.0 * np.pi)))
    q = QuadratureScheme(radial_nodes=8, angular_nodes=8, hyperplane_nodes=10)
    errors = {}
    for speed, tol in BKW_TOLERANCES:
        v = np.array([speed, 0.0, 0.0])
        exact = (1.0 - K) / 6.0 * float(d_dk(v))
        got = route(f, v, k, q)
        errors[speed] = abs(got - exact)
        assert errors[speed] <= tol * abs(exact), (speed, got, exact)
    # one refinement of every node count cuts the radial-tail error at
    # |v| = 2 at least 1000x: measured 5.4e-4 -> 3.9e-8 relative (sigma) and
    # 2.8e-4 -> 1.0e-8 (Carleman) at (12, 12, 16)
    fine = QuadratureScheme(radial_nodes=12, angular_nodes=12, hyperplane_nodes=16)
    v = np.array([2.0, 0.0, 0.0])
    got = route(f, v, k, fine)
    assert abs(got - (1.0 - K) / 6.0 * float(d_dk(v))) <= 1e-3 * errors[2.0], got


# ---------------------------------------------------------------------------
# Work counts


def counting(f):
    """``f`` with an ``eval`` that records how many points each call asks for."""
    seen = []

    def ev(v):
        seen.append(np.asarray(v).size // f.dim)
        return f.eval(v)

    return dataclasses.replace(f, eval=ev), seen


def test_sigma_evaluates_each_outgoing_point_once(q_fast):
    # f(v'_*) is f(v') at the antipodal sigma, so the route evaluates f(v),
    # the N_r * N_omega points v_* in one call, and per radial node the
    # N_sigma * N_omega points v'
    k = KernelSpec(dim=3, gamma=0.0, operator="boltzmann", b=b_ones)
    f, seen = counting(bump_field(center=[0.3, 0.0, 0.0], radius=1.1))
    v = np.array([0.5, 0.2, 0.0])
    q_boltzmann_sigma(f, v, k, q_fast)
    _, r, _, sigma, _ = polar_nodes(v, 3, q_fast)
    assert len(seen) == 2 + len(r)
    assert sum(seen) == 1 + len(r) * len(sigma) * (len(sigma) + 1)


@pytest.mark.parametrize("make_field", [
    lambda: bump_field(center=[0.3, 0.0, 0.0], radius=1.1),
    gaussian_field,
], ids=["bump", "gaussian"])
def test_carleman_evaluates_only_live_planes(q_fast, make_field):
    # f(v) once, f at every outer point v + u eta (the values of both the
    # plane weights and the Q_ns convolution), and the N_x * N_phi inner
    # points of one plane per antipodal pair (eta, -eta) whose outer value
    # is nonzero at either end
    k = KernelSpec(dim=3, gamma=0.0, operator="boltzmann", b=b_ones)
    base = make_field()
    f, seen = counting(base)
    v = np.array([0.5, 0.2, 0.0])
    q_boltzmann_carleman(f, v, k, q_fast)
    outer, u, _, eta, _ = polar_nodes(v, 3, q_fast)
    anti = sphere_antipodes(3, q_fast.angular_nodes)
    nonzero = base(outer) != 0.0
    pairs = np.arange(len(eta)) < anti
    live = np.count_nonzero((nonzero | nonzero[:, anti])[:, pairs], axis=1)
    if make_field is gaussian_field:
        assert np.all(live == len(eta) // 2)
    else:
        assert np.any(live == 0) and 0 < live.sum() < len(u) * len(eta) // 2
    per_plane = (4 * q_fast.hyperplane_nodes) * (2 * q_fast.angular_nodes)
    assert sum(seen) == 1 + len(u) * len(eta) + per_plane * live.sum()


def carleman_reference(f, v, k, q):
    """(Q_s, Q_ns) with the inner points of every plane with a nonzero outer value, -eta's too."""
    f_v = float(f(v))
    outer, u, wu, eta, w_eta = polar_nodes(v, 3, q)
    f_outer = f(outer)
    e1, e2 = orthonormal_complement(eta)
    x, wx, phi, w_phi = plane_rule(q)
    inner = np.zeros((len(u), len(x)))
    for i in range(len(u)):
        for j in np.flatnonzero(f_outer[i]):
            dirs = np.cos(phi)[:, None] * e1[j] + np.sin(phi)[:, None] * e2[j]
            vp = v + (u[i] * x)[:, None, None] * dirs  # (Nx, Nphi, 3)
            inner[i] += w_eta[j] * f_outer[i, j] * np.sum(f(vp) - f_v, axis=1)
    rho = u[:, None] * x
    rr = np.sqrt(rho * rho + (u * u)[:, None])
    b2 = 4.0 * rr ** (k.gamma - 1.0) * k.b_folded(rho / rr) / u[:, None]
    qs = w_phi * np.sum((wu * u)[:, None] * wx * rho * b2 * inner)
    return qs, k.cb * f_v * polar_convolution(u, wu, w_eta, f_outer, k.gamma)


@pytest.mark.parametrize("make_field, b", [
    (lambda: bump_field(center=[0.3, 0.0, 0.0], radius=1.1), b_ones),
    (gaussian_field, b_ones),
    (gaussian_field, lambda x: np.asarray(x, dtype=float) ** -3.0),
], ids=["bump", "gaussian", "gaussian-noncutoff"])
def test_carleman_pairs_match_plane_by_plane_sum(q_fast, make_field, b):
    # one plane per antipodal pair, weighted by both outer values, is the
    # plane-by-plane sum up to summation order; a Maxwellian's Q_s and Q_ns
    # cancel, so the error is measured against their sizes.  v is off every
    # mirror plane of the rule, where one end of a pair could stand for both
    k = KernelSpec(dim=3, gamma=0.0, operator="boltzmann", b=b)
    f, v = make_field(), np.array([0.5, 0.2, 0.3])
    qs, qns = carleman_reference(f, v, k, q_fast)
    assert abs(q_boltzmann_carleman(f, v, k, q_fast) - (qs + qns)) <= 1e-12 * (abs(qs) + abs(qns))


def test_carleman_rejects_gamma_minus_d(q_fast):
    # the kernel admits gamma = -d (for the sigma-form), but the convolution
    # of Q_ns diverges there; the route rejects it before any sampling
    k = KernelSpec(dim=3, gamma=-3.0, operator="boltzmann", b=b_ones)
    f, seen = counting(gaussian_field())
    with pytest.raises(UnsupportedParameterError):
        q_boltzmann_carleman(f, np.array([0.5, 0.2, 0.0]), k, q_fast)
    assert sum(seen) == 0


# ---------------------------------------------------------------------------
# Samples shared across kernels


SWEEP_KERNELS = [
    KernelSpec(dim=3, gamma=0.0, operator="boltzmann", b=b_ones),
    KernelSpec(dim=3, gamma=-1.0, operator="boltzmann", b=b_cos2),
]


@pytest.mark.parametrize("route", [q_boltzmann_sigma, q_boltzmann_carleman],
                         ids=lambda r: r.__name__)
def test_second_kernel_samples_nothing(q_fast, route):
    # the kernel enters only through weights: a second kernel at the same
    # (f, v, q) evaluates no field point
    f, seen = counting(bump_field(center=[0.3, 0.0, 0.0], radius=1.1))
    v = np.array([0.5, 0.2, 0.0])
    route(f, v, SWEEP_KERNELS[0], q_fast)
    cold = sum(seen)
    route(f, v.copy(), SWEEP_KERNELS[1], q_fast)
    assert cold > 0 and sum(seen) == cold


@pytest.mark.parametrize("route", [q_boltzmann_sigma, q_boltzmann_carleman],
                         ids=lambda r: r.__name__)
def test_new_field_point_or_scheme_samples_again(q_fast, route):
    # only the most recent (f, v, q) is kept: changing f, v or q evaluates
    # the full count of a fresh field, never a stale sample
    k = SWEEP_KERNELS[0]
    base = bump_field(center=[0.3, 0.0, 0.0], radius=1.1)
    v, w = np.array([0.5, 0.2, 0.0]), np.array([0.4, 0.2, 0.0])
    q2 = dataclasses.replace(q_fast, outer_radius=7.0)
    steps = [(v, q_fast), (w, q_fast), (v, q2), (v, q_fast)]
    full = []
    for point, scheme in steps:
        fresh, seen = counting(base)
        route(fresh, point, k, scheme)
        full.append(sum(seen))
    f, seen = counting(base)
    for (point, scheme), expect in zip(steps, full):
        before = sum(seen)
        route(f, point, k, scheme)
        assert sum(seen) - before == expect
    g, seen_g = counting(base)
    route(g, v, k, q_fast)
    assert sum(seen_g) == full[0]


def test_warm_values_equal_cold_values(q_fast):
    # a value read from shared samples is the value of a fresh evaluation,
    # bit for bit, including a non-cutoff Carleman call after a cutoff one
    base = bump_field(center=[0.3, 0.0, 0.0], radius=1.1)
    v = np.array([0.5, 0.2, 0.0])
    noncutoff = KernelSpec(
        dim=3, gamma=0.0, operator="boltzmann",
        b=lambda x: np.asarray(x, dtype=float) ** -3.0,
    )
    cases = [(q_boltzmann_sigma, k) for k in SWEEP_KERNELS]
    cases += [(q_boltzmann_carleman, k) for k in SWEEP_KERNELS + [noncutoff]]
    for route, k in cases:
        cold = route(counting(base)[0], v, k, q_fast)
        f, seen = counting(base)
        route(f, v, SWEEP_KERNELS[0], q_fast)
        sampled = sum(seen)
        assert route(f, v, k, q_fast) == cold
        assert sum(seen) == sampled


def test_unhashable_field_is_sampled_without_memo(q_fast):
    # an evaluator that cannot be hashed makes the field unhashable: the
    # routes then sample on every call and give the same values
    class Eval:
        def __init__(self, fn):
            self.fn = fn

        def __call__(self, v):
            return self.fn(v)

        def __eq__(self, other):  # no __hash__: instances are unhashable
            return self is other

    base = bump_field(center=[0.3, 0.0, 0.0], radius=1.1)
    counted, seen = counting(base)
    f = dataclasses.replace(counted, eval=Eval(counted.eval))
    v = np.array([0.5, 0.2, 0.0])
    for route in (q_boltzmann_sigma, q_boltzmann_carleman):
        expect = [route(base, v, k, q_fast) for k in SWEEP_KERNELS]
        for k, value in zip(SWEEP_KERNELS, expect):
            before = sum(seen)
            assert route(f, v, k, q_fast) == value
            assert sum(seen) > before
