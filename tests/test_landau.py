import numpy as np
import pytest
from scipy.special import erf

from collkit import KernelSpec, QuadratureScheme, UnsupportedParameterError, q_landau
from collkit.fields import bump_field, gaussian_field
from collkit.landau import landau_coefficients, polar_nodes, singular_convolution

from conftest import landau_a_bar_g0


@pytest.fixture(scope="module")
def k_g0():
    return KernelSpec(dim=3, gamma=0.0, operator="landau")


@pytest.fixture(scope="module")
def k_gm3():
    return KernelSpec(dim=3, gamma=-3.0, operator="landau")


def test_polar_nodes_ball_volume(q_fast):
    # integrating 1 over the ball of radius outer_radius + |v|
    v = np.array([1.0, 0.0, 0.0])
    _, _, wr, _, ws = polar_nodes(v, 3, q_fast)
    vol = np.sum(wr) * np.sum(ws) / (4.0 * np.pi) * (4.0 * np.pi)
    r_max = q_fast.outer_radius + 1.0
    assert vol == pytest.approx(4.0 / 3.0 * np.pi * r_max**3, rel=1e-10)


def test_singular_convolution_mass(q_fast, maxwellian):
    # power 0 recovers the total mass
    assert singular_convolution(maxwellian, np.zeros(3), 0.0, q_fast) == pytest.approx(
        1.0, rel=1e-8
    )


def test_singular_convolution_second_moment(q_fast, maxwellian):
    # (M * |.|^2)(v) = |v|^2 + 3 theta for a unit-mass centered Maxwellian
    v = np.array([0.5, -1.0, 0.25])
    expect = float(v @ v) + 3.0
    got = singular_convolution(maxwellian, v, 2.0, q_fast)
    assert got == pytest.approx(expect, rel=1e-6)


def test_singular_convolution_negative_power(q_fast, maxwellian):
    # |.|^{-1} against the Maxwellian: closed form erf(r/sqrt(2))/r
    v = np.array([1.2, 0.0, 0.0])
    expect = erf(1.2 / np.sqrt(2.0)) / 1.2
    got = singular_convolution(maxwellian, v, -1.0, q_fast)
    assert got == pytest.approx(expect, rel=1e-6)


def test_singular_convolution_rejects_borderline_power(q_fast, maxwellian):
    with pytest.raises(UnsupportedParameterError):
        singular_convolution(maxwellian, np.zeros(3), -3.0, q_fast)


def test_coefficients_trace_oracle(q_fast, maxwellian, k_g0):
    # trace a_bar = (d-1) * (M * |.|^2)(v) = 2 (|v|^2 + 3) for gamma = 0
    v = np.array([0.3, 0.7, -0.2])
    co = landau_coefficients(maxwellian, v, k_g0, q_fast)
    assert np.trace(co.a_bar) == pytest.approx(2.0 * (float(v @ v) + 3.0), rel=1e-6)


def test_coefficients_reaction_oracle(q_fast, maxwellian, k_g0):
    # c_bar = (d-1)(d+gamma) * mass for gamma = 0
    co = landau_coefficients(maxwellian, np.zeros(3), k_g0, q_fast)
    assert co.c_bar == pytest.approx(6.0, rel=1e-8)


def test_coefficients_coulomb_reaction(q_fast, maxwellian, k_gm3):
    # gamma = -d: c_bar = (d-1)|S^2| f(v) = 8 pi f(v)
    v = np.array([0.4, 0.0, 0.0])
    co = landau_coefficients(maxwellian, v, k_gm3, q_fast)
    assert co.c_bar == pytest.approx(8.0 * np.pi * float(maxwellian(v)), rel=1e-13)


def maxwellian_a_bar_coulomb(v):
    """Exact Landau gamma = -3 diffusion matrix for the standard Maxwellian M; v != 0.

    |z|^-1 Pi(z) is the Hessian of |z|, so a_bar = D^2 phi for the radial
    phi(r) = (|.| * M)(r) = sqrt(2/pi) e^{-r^2/2} + (r + 1/r) erf(r/sqrt 2).
    """
    r = float(np.linalg.norm(v))
    e = np.outer(v, v) / r**2
    g, E = np.sqrt(2.0 / np.pi) * np.exp(-0.5 * r * r), erf(r / np.sqrt(2.0))
    d1 = (1.0 - 1.0 / r**2) * E + g / r
    d2 = 2.0 * E / r**3 - 2.0 * g / r**2
    return d2 * e + d1 / r * (np.eye(3) - e)


def test_coefficients_gaussian_closed_form():
    # max relative a_bar error measured at radial = angular nodes n, and the
    # tolerance allowed, 5x that rounded up:
    # - moving Gaussian, gamma = 0: 1.9e-6, 7.2e-11 and 3.5e-12 (roundoff)
    #   at n = 8, 12 and 16, over all three points;
    # - standard Maxwellian, gamma = -3, at |v| = 0.5, 1.04 and 2: 3.5e-10,
    #   2.5e-10 and 1.2e-6 at n = 8, and 2.3e-11, 2.9e-11 and 6.5e-11 at n = 12
    u, theta, rho = np.array([0.6, -0.8, 0.0]), 0.5, 1.3
    moving, maxwellian = gaussian_field(rho=rho, u=u, theta=theta), gaussian_field()
    g0 = (0.0, moving, lambda v: landau_a_bar_g0(v, u, theta * np.eye(3), rho),
          lambda v: 6.0 * rho)
    coulomb = (-3.0, maxwellian, maxwellian_a_bar_coulomb,
               lambda v: 8.0 * np.pi * float(maxwellian(v)))
    cases = [(g0, n, v, tol) for n, tol in ((8, 5e-6), (12, 3e-10), (16, 2e-11))
             for v in ([0.5, 0.4, -0.3], [1.5, 0.0, 0.7], [0.0, 0.0, 0.0])]
    cases += [(coulomb, n, v, tol)
              for n, tols in ((8, (1.8e-9, 1.3e-9, 6e-6)), (12, (1.2e-10, 1.5e-10, 3.3e-10)))
              for v, tol in zip(([0.5, 0.0, 0.0], [0.6, 0.6, 0.6], [2.0, 0.0, 0.0]), tols)]
    for (gamma, f, a_exact, c_exact), n, v, tol in cases:
        k = KernelSpec(dim=3, gamma=gamma, operator="landau")
        co = landau_coefficients(f, v, k, QuadratureScheme(radial_nodes=n, angular_nodes=n))
        exact = a_exact(np.array(v))
        assert np.max(np.abs(co.a_bar - exact)) <= tol * np.max(np.abs(exact)), (gamma, n, v)
        assert co.c_bar == pytest.approx(c_exact(np.array(v)), rel=tol)


def test_coefficients_positive_semidefinite(q_fast, k_g0):
    f = bump_field(center=[0.5, 0.0, 0.0], radius=1.2)
    co = landau_coefficients(f, np.array([1.0, 1.0, 0.0]), k_g0, q_fast)
    eigs = np.linalg.eigvalsh(co.a_bar)
    assert eigs[0] >= -1e-10 * np.trace(co.a_bar)


def test_coefficients_kernel_mismatch(q_fast, maxwellian, kernel_boltzmann_g0):
    with pytest.raises(ValueError):
        landau_coefficients(maxwellian, np.zeros(3), kernel_boltzmann_g0, q_fast)


def test_maxwellian_annihilation_pointwise(q_fast, maxwellian):
    # equilibrium: |Q(M,M)(v)| small against the local coefficient scale
    k = KernelSpec(dim=3, gamma=-1.0, operator="landau")
    v = np.array([1.0, 0.5, 0.0])
    co = landau_coefficients(maxwellian, v, k, q_fast)
    hess = maxwellian.hessian(v)
    scale = float(np.sum(np.abs(co.a_bar) * np.abs(hess))) + abs(
        co.c_bar * float(maxwellian(v))
    )
    assert abs(q_landau(maxwellian, v, k, q_fast)) <= 1e-6 * scale


def test_translation_equivariance(q_fast, k_g0):
    shift = np.array([0.6, -0.4, 0.2])
    f0 = bump_field(center=[0.2, 0.1, 0.0], radius=1.0)
    f1 = bump_field(center=shift + np.array([0.2, 0.1, 0.0]), radius=1.0)
    v = np.array([0.5, 0.3, -0.1])
    a = q_landau(f0, v, k_g0, q_fast)
    b = q_landau(f1, v + shift, k_g0, q_fast)
    # the polar rule's tail panels depend on |v|, so equivariance holds only
    # to quadrature accuracy
    assert b == pytest.approx(a, rel=1e-4)


def test_scaling_law_landau():
    # q(f_lam, v) = lam^{-d-gamma} q(f, lam v) with f_lam(w) = f(lam w);
    # the lam = 2 field has support radius 1/2 and needs the finer rule
    q = QuadratureScheme(radial_nodes=16, angular_nodes=16)
    k = KernelSpec(dim=3, gamma=-1.0, operator="landau")
    c, R = np.array([0.3, -0.2, 0.1]), 1.0
    f = bump_field(center=c, radius=R)
    v = np.array([0.5, 0.1, 0.2])
    for lam in (0.5, 2.0):
        f_lam = bump_field(center=c / lam, radius=R / lam)
        lhs = q_landau(f_lam, v, k, q)
        rhs = lam ** (-3.0 + 1.0) * q_landau(f, lam * v, k, q)
        assert lhs == pytest.approx(rhs, rel=2e-4, abs=1e-10)


def test_projection_trace_identity():
    rng = np.random.default_rng(11)
    for z in rng.normal(size=(20, 3)):
        proj = np.eye(3) - np.outer(z, z) / (z @ z)
        assert np.trace(proj) == pytest.approx(2.0, abs=1e-13)
