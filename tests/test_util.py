import numpy as np
import pytest

from collkit.util import (
    bracket,
    gauss_panel,
    geometric_panels,
    graded_panels,
    legendre_rule,
    orthonormal_complement,
    sphere_area,
    sphere_antipodes,
    sphere_rule,
    splitmix64,
)


def test_splitmix_deterministic():
    a = splitmix64(2024, 16)
    b = splitmix64(2024, 16)
    assert np.array_equal(a, b)
    assert np.all((a >= 0.0) & (a < 1.0))
    assert not np.array_equal(a, splitmix64(2025, 16))


def test_gauss_panel_exactness():
    x, w = gauss_panel(-1.0, 3.0, 6)
    # exact for polynomials up to degree 11
    assert np.dot(w, x**10) == pytest.approx((3.0**11 + 1.0) / 11.0, rel=1e-13)


def test_graded_panels_weight_sum():
    x, w = graded_panels(0.0, 2.0, 10, ratio=3.0)
    assert np.sum(w) == pytest.approx(2.0, rel=1e-14)
    assert np.all((x > 0.0) & (x < 2.0))


def test_graded_panels_singular_integrand():
    # integral of x^{-1/2} over [0, 1] = 2; the panels must both resolve the
    # endpoint singularity and converge under refinement
    x8, w8 = graded_panels(0.0, 1.0, 8, ratio=3.0)
    x32, w32 = graded_panels(0.0, 1.0, 32, ratio=3.0)
    e8 = abs(np.dot(w8, x8**-0.5) - 2.0)
    e32 = abs(np.dot(w32, x32**-0.5) - 2.0)
    assert e32 < 5e-3
    assert e32 < e8 / 3.0


def test_graded_panels_smooth_convergence():
    # refinement must also shrink the error for a smooth integrand with mass
    # away from the graded endpoint
    f = lambda x: np.cos(3.0 * x)
    exact = np.sin(3.0) / 3.0
    errs = []
    for n in (4, 8, 16):
        x, w = graded_panels(0.0, 1.0, n, ratio=3.0)
        errs.append(abs(np.dot(w, f(x)) - exact))
    assert errs[2] < 1e-10
    assert errs[2] < errs[0]


def test_geometric_panels_log_integrand():
    x, w = geometric_panels(1.0, np.e**4, 16)
    assert np.dot(w, 1.0 / x) == pytest.approx(4.0, rel=1e-8)


def test_legendre_rule_cached_read_only():
    for n in (2, 4, 8, 12):
        x, w = legendre_rule(n)
        ref_x, ref_w = np.polynomial.legendre.leggauss(n)
        assert np.array_equal(x, ref_x) and np.array_equal(w, ref_w)
        assert legendre_rule(n)[0] is x
        for arr in (x, w):
            with pytest.raises(ValueError):
                arr[0] = 0.0


def test_panel_rules_equal_per_panel_gauss():
    # the vectorized composite rule does the per-panel arithmetic of a freshly
    # solved Gauss-Legendre rule, so the two agree bit for bit
    def fresh_panel(lo, hi, n):
        x, w = np.polynomial.legendre.leggauss(n)
        return 0.5 * (hi - lo) * (x + 1.0) + lo, 0.5 * (hi - lo) * w

    cases = [
        (graded_panels(0.0, 1.0, 12, ratio=2.0),
         (np.arange(13) / 12.0) ** 2.0),
        (graded_panels(0.0, 1.0, 16, ratio=2.5),
         (np.arange(17) / 16.0) ** 2.5),
        (geometric_panels(1.0, 9.0, 7), np.geomspace(1.0, 9.0, 8)),
        (geometric_panels(1.0, 1e4, 32), np.geomspace(1.0, 1e4, 33)),
    ]
    for (x, w), edges in cases:
        assert len(x) == 4 * (len(edges) - 1)
        for build in (gauss_panel, fresh_panel):
            rules = [build(lo, hi, 4) for lo, hi in zip(edges[:-1], edges[1:])]
            assert np.array_equal(x, np.concatenate([r[0] for r in rules]))
            assert np.array_equal(w, np.concatenate([r[1] for r in rules]))


def test_sphere_rule_equals_fresh_gauss():
    # the reference takes a freshly solved Gauss rule, and cos/sin of the
    # second half of the azimuths negated from the first half
    for n_polar in (8, 12):
        n_azim = 2 * n_polar
        pts, w = sphere_rule(3, n_polar)
        ct, wct = np.polynomial.legendre.leggauss(n_polar)
        phi = (np.arange(n_azim // 2) + 0.5) * 2.0 * np.pi / n_azim
        cos_phi = np.concatenate([np.cos(phi), -np.cos(phi)])
        sin_phi = np.concatenate([np.sin(phi), -np.sin(phi)])
        st = np.sqrt(1.0 - ct**2)
        ref = np.stack([st[:, None] * cos_phi, st[:, None] * sin_phi,
                        np.broadcast_to(ct[:, None], (n_polar, n_azim))], axis=-1)
        assert np.array_equal(pts, ref.reshape(-1, 3))
        assert np.array_equal(w, (wct[:, None] * (2.0 * np.pi / n_azim)
                                  * np.ones(n_azim)).reshape(-1))


@pytest.mark.parametrize("dim,n_polar", [(3, 8), (3, 5), (2, 1), (2, 8)])
def test_sphere_rule_antipodal_bit_for_bit(dim, n_polar):
    # each point's exact antipode has the same weight
    pts, w = sphere_rule(dim, n_polar)
    antipode = sphere_antipodes(dim, n_polar)
    assert np.array_equal(np.sort(antipode), np.arange(len(pts)))
    assert np.array_equal(pts[antipode], -pts)
    assert np.array_equal(w[antipode], w)


def test_panel_interval_validation():
    with pytest.raises(ValueError):
        graded_panels(1.0, 1.0, 4, ratio=3.0)
    with pytest.raises(ValueError):
        geometric_panels(0.0, 1.0, 4)
    # every panel rule is 4-point Gauss: a stale points-per-panel argument
    # cannot be taken for the grading ratio
    with pytest.raises(TypeError):
        graded_panels(0.0, 1.0, 8, 4)


def test_sphere_rule_weight_sum():
    for dim in (2, 3):
        pts, w = sphere_rule(dim, 8)
        assert np.sum(w) == pytest.approx(sphere_area(dim), rel=1e-12)
        assert np.allclose(np.linalg.norm(pts, axis=-1), 1.0)


def test_sphere_rule_second_moment():
    # integral of x^2 over S^2 is |S^2|/3
    pts, w = sphere_rule(3, 8)
    assert np.dot(w, pts[:, 0] ** 2) == pytest.approx(4.0 * np.pi / 3.0, rel=1e-12)
    # odd moments vanish
    assert abs(np.dot(w, pts[:, 2])) < 1e-13


def test_orthonormal_complement_frames():
    rng = np.random.default_rng(7)
    n = rng.normal(size=(50, 3))
    n /= np.linalg.norm(n, axis=-1, keepdims=True)
    e1, e2 = orthonormal_complement(n)
    assert np.allclose(np.sum(e1 * n, axis=-1), 0.0, atol=1e-12)
    assert np.allclose(np.sum(e2 * n, axis=-1), 0.0, atol=1e-12)
    assert np.allclose(np.sum(e1 * e2, axis=-1), 0.0, atol=1e-12)
    assert np.allclose(np.linalg.norm(e1, axis=-1), 1.0)
    assert np.allclose(np.linalg.norm(e2, axis=-1), 1.0)


def test_bracket_values():
    assert bracket(0.0) == 1.0
    assert bracket(np.array([3.0, 0.0, 4.0])) == pytest.approx(np.sqrt(26.0))


def test_sphere_area_values():
    assert sphere_area(2) == pytest.approx(2.0 * np.pi)
    assert sphere_area(3) == pytest.approx(4.0 * np.pi)
