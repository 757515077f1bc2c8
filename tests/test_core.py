import warnings

import numpy as np
import pytest

from collkit import (
    EvaluationError,
    KernelRejectionError,
    KernelSpec,
    QuadratureScheme,
    UnsupportedParameterError,
    VelocityField,
    make_barrier,
    weighted_sup_norm,
)
from collkit.fields import bump_field, gaussian_field
from collkit.util import bracket

from conftest import b_cos2, b_ones


def flat_field(value=0.0, dim=3):
    return VelocityField(dim=dim, eval=lambda v: np.full(np.shape(np.asarray(v))[:-1], value))


# ---------------------------------------------------------------------------
# weighted_sup_norm


def test_sup_norm_zero_field(q_fast):
    assert weighted_sup_norm(flat_field(0.0), 5.0, q_fast) == 0.0


def test_sup_norm_weight_cancellation(q_fast):
    m = 4.0
    f = VelocityField(
        dim=3,
        eval=lambda v: (1.0 + np.sum(np.asarray(v) ** 2, axis=-1)) ** (-m / 2),
    )
    assert weighted_sup_norm(f, m, q_fast) == pytest.approx(1.0, abs=1e-12)


def test_sup_norm_maxwellian_peak(q_fast, maxwellian):
    val, arg = weighted_sup_norm(maxwellian, 0.0, q_fast, return_argmax=True)
    assert val == pytest.approx((2.0 * np.pi) ** -1.5, rel=1e-12)
    assert np.allclose(arg, 0.0)


def test_sup_norm_maxwellian_weighted_oracle(q_fast, maxwellian):
    # independent dense 1-D radial maximization of <r>^2 (2 pi)^{-3/2} e^{-r^2/2}
    r = np.linspace(0.0, 8.0, 400001)
    oracle = np.max((1.0 + r * r) * (2.0 * np.pi) ** -1.5 * np.exp(-r * r / 2.0))
    got = weighted_sup_norm(maxwellian, 2.0, q_fast)
    # the sup is grid-sampled, so allow the sampling offset
    assert got == pytest.approx(oracle, rel=5e-3)
    assert got <= oracle * (1.0 + 1e-12)


def test_sup_norm_scaling(q_fast, maxwellian):
    base = weighted_sup_norm(maxwellian, 3.0, q_fast)
    scaled = VelocityField(dim=3, eval=lambda v: 7.0 * maxwellian.eval(v))
    assert weighted_sup_norm(scaled, 3.0, q_fast) == pytest.approx(7.0 * base, rel=1e-14)


def test_sup_norm_rejects_non_finite(q_fast):
    bad = VelocityField(
        dim=3,
        eval=lambda v: np.where(
            np.sum(np.asarray(v) ** 2, axis=-1) > 4.0, np.nan, 1.0
        ),
    )
    with pytest.raises(EvaluationError):
        weighted_sup_norm(bad, 0.0, q_fast)


@pytest.mark.parametrize("m", [np.nan, np.inf, -1.0])
def test_sup_norm_rejects_bad_weight_exponent(q_fast, maxwellian, m):
    # nan and inf used to come back as the norm itself
    with pytest.raises(ValueError, match="weight exponent"):
        weighted_sup_norm(maxwellian, m, q_fast)


# ---------------------------------------------------------------------------
# Barrier


def test_barrier_outer_value():
    b = make_barrier(5.0, 1.0)
    assert float(b.value(np.array([2.0, 0.0, 0.0]))) == pytest.approx(2.0**-5)


def test_barrier_hessian_spectrum_at_unit_vector():
    # at |v| = 1 the radial eigenvalue is m(m+2) - m = 30 and the two
    # transverse eigenvalues are -m = -5 (for m = 5, alpha = 1)
    b = make_barrier(5.0, 1.0)
    H = b.hessian(np.array([1.0, 0.0, 0.0]))
    eigs = np.sort(np.linalg.eigvalsh(H))
    assert np.allclose(eigs, [-5.0, -5.0, 30.0], atol=1e-12)


def test_barrier_alpha_linearity():
    b1 = make_barrier(5.0, 1.0)
    b2 = make_barrier(5.0, 2.0)
    v = np.array([0.3, 0.2, -0.1])
    assert b2.value(v) == pytest.approx(2.0 * b1.value(v))
    assert np.allclose(b2.hessian(v), 2.0 * b1.hessian(v))


def test_barrier_alpha_below_one():
    # the construction checks b1 itself against |v|^-m, so alpha < 1 is
    # accepted like any other positive scale
    half = make_barrier(5.0, 0.5)
    v = np.array([0.3, 0.2, -0.1])
    assert half.value(v) == pytest.approx(0.5 * make_barrier(5.0, 1.0).value(v))


def test_barrier_dominance_inside():
    b = make_barrier(5.0, 1.0)
    assert b.value(np.array([0.4, 0.0, 0.0])) <= 0.4**-5


def test_barrier_monotone_along_rays():
    b = make_barrier(6.0, 1.0)
    r = np.linspace(1e-3, 4.0, 4001)
    prof = b.value(r[:, None] * np.array([1.0, 0.0, 0.0])[None, :])
    assert np.all(np.diff(prof) <= 1e-12 * prof[0])


def test_barrier_c2_gluing():
    # value, first and second radial differences continuous across |v| = 1/2
    b = make_barrier(5.0, 1.0)
    h = 1e-5
    for r0 in (0.5,):
        f = lambda r: b._b1_radial(np.asarray(r))
        left = (f(r0 - h) - 2 * f(r0 - 2 * h) + f(r0 - 3 * h)) / h**2
        right = (f(r0 + 3 * h) - 2 * f(r0 + 2 * h) + f(r0 + h)) / h**2
        assert abs(left - right) <= 1e-2 * abs(right)


def test_barrier_hessian_matches_finite_differences():
    # step-halving order of the FD-vs-analytic error should be >= 1.9
    b = make_barrier(5.0, 1.0)
    v = np.array([1.1, -0.4, 0.7])
    H = b.hessian(v)

    def fd_hessian(h):
        out = np.empty((3, 3))
        for i in range(3):
            for j in range(3):
                ei = np.zeros(3)
                ej = np.zeros(3)
                ei[i] = h
                ej[j] = h
                out[i, j] = (
                    b.value(v + ei + ej)
                    - b.value(v + ei - ej)
                    - b.value(v - ei + ej)
                    + b.value(v - ei - ej)
                ) / (4 * h * h)
        return out

    e1 = np.max(np.abs(fd_hessian(1e-2) - H))
    e2 = np.max(np.abs(fd_hessian(5e-3) - H))
    order = np.log2(e1 / e2)
    assert order >= 1.9


def test_make_barrier_argument_errors():
    with pytest.raises(ValueError):
        make_barrier(0.0, 1.0)
    with pytest.raises(ValueError):
        make_barrier(5.0, -1.0)


# ---------------------------------------------------------------------------
# KernelSpec / QuadratureScheme


def test_landau_gamma_ranges():
    KernelSpec(dim=3, gamma=-3.0, operator="landau")
    KernelSpec(dim=3, gamma=1.0, operator="landau")
    with pytest.raises(ValueError):
        KernelSpec(dim=3, gamma=1.5, operator="landau")
    with pytest.raises(UnsupportedParameterError):
        KernelSpec(dim=2, gamma=-2.0, operator="landau")
    KernelSpec(dim=2, gamma=1.0, operator="landau")


def test_boltzmann_kernel_validation():
    with pytest.raises(ValueError):
        KernelSpec(dim=3, gamma=0.0, operator="boltzmann")  # missing b
    with pytest.raises(ValueError):
        KernelSpec(dim=3, gamma=-3.5, operator="boltzmann", b=b_ones)
    for negative_b in (lambda x: -np.ones_like(np.asarray(x, dtype=float)),
                       lambda x: np.asarray(x, dtype=float) - 0.5):
        with pytest.raises(KernelRejectionError):
            KernelSpec(dim=3, gamma=0.0, operator="boltzmann", b=negative_b)


@pytest.mark.parametrize("b", [
    lambda x: np.full_like(np.asarray(x, dtype=float), np.inf),
    lambda x: np.where((np.asarray(x) > 0.25) & (np.asarray(x) < 0.35), np.nan, 1.0),
    lambda x: np.where(np.asarray(x) < 1e-3, np.nan, 1.0),
], ids=["inf", "nan-band", "nan-grazing"])
def test_boltzmann_non_finite_b_rejected(b):
    # rejected by the probe, before a NaN reaches the power estimate or quad
    with pytest.raises(KernelRejectionError, match="not finite"):
        KernelSpec(dim=3, gamma=0.0, operator="boltzmann", b=b)


def test_boltzmann_angular_integrability_rejection():
    # b ~ x^{-4} corresponds to the excluded endpoint s = 1
    with pytest.raises(KernelRejectionError):
        KernelSpec(
            dim=3,
            gamma=0.0,
            operator="boltzmann",
            b=lambda x: np.asarray(x, dtype=float) ** -4.0,
        )


def test_noncutoff_half_accepted():
    k = KernelSpec(
        dim=3,
        gamma=0.0,
        operator="boltzmann",
        b=lambda x: np.asarray(x, dtype=float) ** -3.0,
    )
    assert not k.is_cutoff
    assert np.isfinite(k.cb)


@pytest.mark.parametrize("b, cutoff", [
    (b_ones, True),
    (b_cos2, True),
    (lambda x: np.asarray(x, dtype=float) ** -1.9, True),
    (lambda x: np.asarray(x, dtype=float) ** -2.0, False),
    (lambda x: np.asarray(x, dtype=float) ** -3.0, False),
    # zero at both grazing probe points: no singularity to measure
    (lambda x: np.clip(np.asarray(x, dtype=float) - 0.1, 0.0, None) ** 2, True),
])
def test_is_cutoff_derived_from_b(b, cutoff):
    # cutoff means b itself is integrable on S^2: b ~ x^p with p > -2
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        k = KernelSpec(dim=3, gamma=0.0, operator="boltzmann", b=b)
    assert k.is_cutoff is cutoff
    assert np.isfinite(k.cb) and k.cb > 0.0


@pytest.mark.parametrize("b, mass", [
    (b_ones, 4.0 * np.pi),
    (b_cos2, 2.0 * np.pi),
    (lambda x: np.asarray(x, dtype=float) ** -1.0, 8.0 * np.pi),
    (lambda x: np.asarray(x, dtype=float) ** -3.0, None),
], ids=["ones", "cos2", "x^-1", "x^-3"])
def test_angular_mass_closed_forms(b, mass):
    # 2 pi int_0^pi sin(theta) b(sin(theta/2)) dtheta; b = x^-3 is not cutoff
    k = KernelSpec(dim=3, gamma=0.0, operator="boltzmann", b=b)
    if mass is None:
        assert k.angular_mass is None
    else:
        assert k.angular_mass == pytest.approx(mass, rel=1e-13)


def test_landau_kernel_has_no_angular_mass():
    assert KernelSpec(dim=3, gamma=0.0, operator="landau").angular_mass is None


def test_b_folded_convention(kernel_boltzmann_g0):
    x = np.array([0.0, 0.3, 0.7071067811865476])
    assert np.allclose(kernel_boltzmann_g0.b_folded(x), 2.0)


def test_quadrature_invariants():
    for bad in ({"outer_radius": 0.5}, {"outer_radius": np.inf}, {"outer_radius": np.nan},
                {"radial_nodes": 1},
                {"rel_tol": -1.0}, {"rel_tol": 0.0}, {"rel_tol": 1.0}, {"rel_tol": np.nan}):
        with pytest.raises(ValueError):
            QuadratureScheme(**bad)


# ---------------------------------------------------------------------------
# VelocityField


def test_field_hessian_matches_analytic():
    g = gaussian_field()
    v = np.array([0.4, 0.5, -0.6])
    fd = VelocityField(dim=3, eval=g.eval)
    assert np.allclose(fd.hessian(v, rel_tol=1e-10), g.hessian(v), atol=1e-5)


def _loop_hessian(f, v, rel_tol):
    # reference: one field call per stencil point
    step = rel_tol ** (1.0 / 3.0) * bracket(v)
    d = len(v)
    e = step * np.eye(d)
    H = np.empty((d, d))
    for i in range(d):
        H[i, i] = (f(v + e[i]) - 2.0 * f(v) + f(v - e[i])) / step**2
        for j in range(i + 1, d):
            H[i, j] = H[j, i] = (f(v + e[i] + e[j]) - f(v + e[i] - e[j])
                                 - f(v - e[i] + e[j]) + f(v - e[i] - e[j])) / (4.0 * step**2)
    return H


@pytest.mark.parametrize("dim,points", [(2, 9), (3, 19)])
def test_field_hessian_one_call(dim, points):
    # all 1 + 2d + 2d(d-1) stencil points go to the evaluator in one batch,
    # and the differences are those of one call per point, bit for bit
    g = gaussian_field(dim=dim, theta=0.7)
    shapes = []

    def counted(v):
        shapes.append(v.shape)
        return g.eval(v)

    fd = VelocityField(dim=dim, eval=counted)
    rng = np.random.default_rng(11)
    for rel_tol in (1e-4, 1e-6, 1e-10):
        for v in rng.uniform(-2.5, 2.5, size=(20, dim)):
            shapes.clear()
            H = fd.hessian(v, rel_tol=rel_tol)
            assert shapes == [(points, dim)]
            assert np.array_equal(H, _loop_hessian(g, v, rel_tol))


@pytest.mark.parametrize("dim", [2, 3])
def test_bump_field_equals_closed_form(dim):
    # evaluated only inside the support, yet bit-identical to the closed form
    # evaluated everywhere and masked, for batches and single points
    c, R, A = np.linspace(-0.4, 0.5, dim), 1.3, 0.8
    f = bump_field(center=c, radius=R, amplitude=A, dim=dim)
    rng = np.random.default_rng(3)
    for v in (rng.normal(size=(400, dim)), rng.normal(size=(6, 5, dim)),
              c + 0.3, c + 2.0 * R):
        s = np.sum(((v - c) / R) ** 2, axis=-1)
        ref = np.where(s < 1.0, A * np.exp(1.0 - 1.0 / (1.0 - np.where(s < 1.0, s, 0.0))), 0.0)
        out = f(v)
        assert out.shape == ref.shape and np.array_equal(out, ref)
