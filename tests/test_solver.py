import csv

import numpy as np
import pytest

from collkit import (
    GridField,
    KernelSpec,
    QuadratureScheme,
    RunAbortedError,
    RunLog,
    UnsupportedParameterError,
    gronwall_check,
    homog_run,
    riccati_check,
)
from collkit import solver
from collkit.solver import PAIRS, _CoefficientEngine, _kernel_arrays, make_gaussian_grid

from conftest import landau_a_bar_g0


@pytest.fixture(scope="module")
def k_coulomb():
    return KernelSpec(dim=3, gamma=-3.0, operator="landau")


def grid_moments(gf):
    ax = gf.axes()
    X, Y, Z = np.meshgrid(ax, ax, ax, indexing="ij")
    h3 = gf.h**3
    mass = float(np.sum(gf.values)) * h3
    mom = np.array([float(np.sum(c * gf.values)) * h3 for c in (X, Y, Z)])
    energy = float(np.sum((X**2 + Y**2 + Z**2) * gf.values)) * h3
    return mass, mom, energy


# ---------------------------------------------------------------------------
# GridField


def test_gridfield_shape_validation():
    with pytest.raises(ValueError):
        GridField(n=8, V=4.0, values=np.zeros((8, 8, 7)))
    with pytest.raises(ValueError):
        GridField(n=3, V=4.0, values=np.zeros((3, 3, 3)))


def test_check_validity_negativity():
    vals = np.zeros((8, 8, 8))
    vals[4, 4, 4] = 1.0
    vals[3, 3, 3] = -1e-6
    gf = GridField(n=8, V=4.0, values=vals)
    with pytest.raises(RunAbortedError):
        gf.check_validity()


def test_check_validity_containment():
    vals = np.zeros((8, 8, 8))
    vals[4, 4, 4] = 1.0
    vals[0, 2, 2] = 1e-4  # boundary plane
    gf = GridField(n=8, V=4.0, values=vals)
    with pytest.raises(RunAbortedError):
        gf.check_validity()


def test_make_gaussian_grid_moments():
    gf = make_gaussian_grid(n=24, V=6.0, rho=2.0, theta=0.5)
    mass, mom, energy = grid_moments(gf)
    assert mass == pytest.approx(2.0, rel=1e-6)
    assert np.allclose(mom, 0.0, atol=1e-12)
    assert energy == pytest.approx(2.0 * 3.0 * 0.5, rel=1e-6)


def test_make_gaussian_grid_anisotropic():
    gf = make_gaussian_grid(n=24, V=6.0, theta=(0.3, 0.5, 0.7))
    ax = gf.axes()
    X = np.meshgrid(ax, ax, ax, indexing="ij")[0]
    h3 = gf.h**3
    # per-axis second moment recovers the per-axis temperature
    t0 = float(np.sum(X**2 * gf.values)) * h3
    assert t0 == pytest.approx(0.3, rel=1e-6)


def test_make_gaussian_grid_rejects_leaky_box():
    # temperature too large for the box: boundary ring visibly nonzero
    with pytest.raises(RunAbortedError):
        make_gaussian_grid(n=16, V=3.0, theta=2.0)


# ---------------------------------------------------------------------------
# RunLog


def test_runlog_monotone_times():
    log = RunLog()
    log.append(0.0, 1.0, 1.0, 1.0, (0, 0, 0), 1.0, 0.0)
    with pytest.raises(ValueError):
        log.append(0.0, 1.0, 1.0, 1.0, (0, 0, 0), 1.0, 0.0)


def test_runlog_csv_roundtrip(tmp_path):
    log = RunLog()
    log.append(0.0, 0.59, 0.61, 1.0, (1e-16, 0.0, -2e-16), 1.5, 0.0)
    log.append(0.01, 0.58, 0.60, 1.0001, (0.0, 0.0, 0.0), 1.4999, 1e-13)
    path = tmp_path / "runlog.csv"
    log.write_csv(path)
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert [r["t"] for r in rows] == ["0.0", "0.01"]
    # repr round-trips floats exactly
    assert float(rows[0]["px"]) == 1e-16
    assert float(rows[1]["negmax"]) == 1e-13


# ---------------------------------------------------------------------------
# Gronwall / Riccati checks


def synthetic_log(t, y, g):
    log = RunLog()
    for ti, yi, gi in zip(t, y, g):
        log.append(float(ti), float(yi), float(gi), 1.0, (0, 0, 0), 1.0, 0.0)
    return log


def test_gronwall_exact_exponential():
    C, g0 = 2.0, 0.7
    t = np.linspace(0.0, 1.0, 50)
    y = 1.3 * np.exp(C * g0 * t)
    log = synthetic_log(t, y, np.full_like(t, g0))
    holds, margins = gronwall_check(log, C)
    assert holds
    assert np.max(np.abs(margins)) < 1e-4  # trapezoid is exact for constant g
    holds_small, margins_small = gronwall_check(log, 0.9 * C)
    assert not holds_small
    assert margins_small[-1] < 0.0


def test_gronwall_rejects_bad_constant():
    log = synthetic_log([0.0, 1.0], [1.0, 1.0], [0.0, 0.0])
    with pytest.raises(ValueError):
        gronwall_check(log, 0.0)


def test_riccati_exact_trajectory():
    C, y0 = 3.0, 0.5
    T = 1.0 / (C * y0)
    t = np.linspace(0.0, 0.8 * T, 40)
    y = y0 / (1.0 - C * y0 * t)
    log = synthetic_log(t, y, np.zeros_like(t))
    out = riccati_check(log, C, T, rel_tol=1e-12)
    assert out["pairwise_ok"]
    assert out["blowup_rate_ok"]
    assert not out["envelope_hit"]


def test_riccati_detects_super_riccati_growth():
    # growth faster than the C-envelope must fail the pairwise check
    C, y0 = 1.0, 0.5
    t = np.linspace(0.0, 0.8, 20)
    y = y0 / (1.0 - 2.0 * y0 * t)  # true constant 2C
    log = synthetic_log(t, y, np.zeros_like(t))
    out = riccati_check(log, C, T=10.0)
    assert not out["pairwise_ok"]


# ---------------------------------------------------------------------------
# Time stepping


def test_homog_run_argument_validation(q_fast, k_coulomb):
    gf = make_gaussian_grid(n=8, V=4.0, theta=0.3)
    with pytest.raises(ValueError):
        homog_run(gf, k_coulomb, q_fast, t_end=0.01, cfl=1.5)
    k_b = KernelSpec(dim=3, gamma=0.0, operator="boltzmann",
                     b=lambda x: np.ones_like(np.asarray(x, dtype=float)))
    with pytest.raises(UnsupportedParameterError):
        homog_run(gf, k_b, q_fast, t_end=0.01, cfl=0.1)


def _run_from(t_end=0.01, m=5.0):
    gf = make_gaussian_grid(n=8, V=4.0, theta=0.3)
    k = KernelSpec(dim=3, gamma=-3.0, operator="landau")
    return homog_run(gf, k, QuadratureScheme(), t_end=t_end, cfl=0.1, m=m)


@pytest.mark.parametrize("build", [
    lambda: GridField(n=8, V=np.nan, values=np.zeros((8, 8, 8))),
    lambda: GridField(n=8, V=np.inf, values=np.zeros((8, 8, 8))),
    lambda: GridField(n=8, V=4.0, values=np.full((8, 8, 8), np.nan)),
    lambda: make_gaussian_grid(n=8, V=np.nan),
    lambda: make_gaussian_grid(n=8, V=np.inf),
    lambda: make_gaussian_grid(n=8, V=4.0, rho=np.nan),
    lambda: make_gaussian_grid(n=8, V=4.0, rho=-1.0),
    lambda: make_gaussian_grid(n=8, V=4.0, theta=np.nan),
    lambda: make_gaussian_grid(n=8, V=4.0, theta=-1.0),
    lambda: make_gaussian_grid(n=8, V=4.0, theta=(0.3, 0.0, 0.3)),
    lambda: _run_from(t_end=np.nan),
    lambda: _run_from(t_end=np.inf),
    lambda: _run_from(t_end=0.0),
    lambda: _run_from(m=np.nan),
    lambda: _run_from(m=-1.0),
], ids=["V-nan", "V-inf", "values-nan", "grid-V-nan", "grid-V-inf", "rho-nan", "rho-negative",
        "theta-nan", "theta-negative", "theta-zero-axis", "t_end-nan", "t_end-inf",
        "t_end-start", "m-nan", "m-negative"])
def test_nonfinite_or_nonphysical_run_input_rejected(build):
    # rejected before any step, instead of running on into NaN values,
    # a NaN or zero-step log, or a RuntimeWarning
    with pytest.raises(ValueError):
        build()


def test_homog_run_conservation_and_positivity(q_fast, k_coulomb):
    gf = make_gaussian_grid(n=16, V=5.0, theta=(0.3, 0.45, 0.6))
    log = homog_run(gf, k_coulomb, q_fast, t_end=0.002, cfl=0.02, m=5.0)
    assert len(log.t) >= 3
    assert log.t[-1] == pytest.approx(0.002, abs=1e-12)
    # moments drift only at the truncation level
    assert abs(log.mass[-1] - log.mass[0]) <= 1e-3 * log.mass[0]
    assert np.max(np.abs(np.asarray(log.momentum))) <= 1e-10
    assert abs(log.energy[-1] - log.energy[0]) <= 1e-3 * log.energy[0]
    # positivity preserved up to the clip threshold
    peak = float(np.max(gf.values))
    assert max(log.negmax) <= 1e-12 * peak


def test_homog_run_zero_field_is_stationary(q_fast, k_coulomb):
    gf = GridField(n=8, V=4.0, values=np.zeros((8, 8, 8)))
    log = homog_run(gf, k_coulomb, q_fast, t_end=0.01, cfl=0.1)
    assert log.norm_m == [0.0]


def test_rejected_initial_field_aborts_without_log(q_fast, k_coulomb):
    vals = np.zeros((8, 8, 8))
    vals[4, 4, 4], vals[3, 3, 3] = 1.0, -1e-6
    with pytest.raises(RunAbortedError, match="negativity") as info:
        homog_run(GridField(n=8, V=4.0, values=vals), k_coulomb, q_fast, t_end=0.01, cfl=0.1)
    assert info.value.log is None


def _second_check_fails(self):
    self.checks = getattr(self, "checks", 0) + 1
    if self.checks > 1:
        raise RunAbortedError("negativity 1.000e-13 exceeds limit")
    return 0.0


@pytest.mark.parametrize("target, patch, reason", [
    ("_rhs", lambda values, engine, h: (values, 0.0, 0.0), "diffusion coefficient vanished"),
    ("_rhs", lambda values, engine, h: (values, 1e30, 0.0), "time step underflow"),
    ("_rhs", lambda values, engine, h: (values, 1.0, 0.0), "maximum grew faster"),
    ("check_validity", _second_check_fails, "negativity"),
], ids=["a-vanished", "dt-underflow", "max-growth", "validity"])
def test_every_in_loop_abort_carries_the_partial_log(monkeypatch, q_fast, k_coulomb,
                                                     target, patch, reason):
    monkeypatch.setattr(GridField if target == "check_validity" else solver, target, patch)
    gf = make_gaussian_grid(n=8, V=4.0, theta=0.3)
    with pytest.raises(RunAbortedError, match=reason) as info:
        homog_run(gf, k_coulomb, q_fast, t_end=0.01, cfl=0.1)
    assert info.value.log.t == [0.0]


# ---------------------------------------------------------------------------
# Second-derivative stencil


def test_stencil_exact_on_quadratics():
    # both corner stencils are exact on quadratics, so a : D^2 f is exact
    # away from the zero-extended boundary whatever the signs of a_ij
    rng = np.random.default_rng(11)
    n, h = 9, 0.3
    X = np.stack(np.meshgrid(*[np.arange(n) * h] * 3, indexing="ij"), axis=-1)
    for _ in range(20):
        B = rng.normal(size=(3, 3))
        B = B + B.T
        values = np.einsum("...i,ij,...j->...", X, B, X) + X @ rng.normal(size=3) + 1.0
        a = [rng.normal(size=(n, n, n)) for _ in PAIRS]
        exact = sum((1.0 if i == j else 2.0) * a_ij * 2.0 * B[i, j]
                    for (i, j), a_ij in zip(PAIRS, a))
        got = solver._second_derivatives(values, h, a)
        inner = (slice(1, -1),) * 3
        scale = sum(np.abs(a_ij) * 2.0 * abs(B[i, j]) for (i, j), a_ij in zip(PAIRS, a))
        assert np.max(np.abs(got - exact)[inner] / scale[inner]) <= 1e-10


def test_stencil_monotone_under_diagonal_dominance():
    # every off-center weight is nonnegative when a is diagonally dominant,
    # so a : D^2 f >= 0 at a zero of a nonnegative f
    rng = np.random.default_rng(12)
    h = 0.5
    for _ in range(200):
        off = rng.normal(size=3)  # a_xy, a_xz, a_yz
        diag = [abs(off[0]) + abs(off[1]), abs(off[0]) + abs(off[2]),
                abs(off[1]) + abs(off[2])] + rng.random(3)
        a = [np.full((3, 3, 3), c) for c in [*diag, *off]]
        # sparse, so that lone corners (where a wrong stencil weighs
        # negatively) are drawn often
        values = rng.random((3, 3, 3)) * (rng.random((3, 3, 3)) < 0.3)
        values[1, 1, 1] = 0.0
        assert solver._second_derivatives(values, h, a)[1, 1, 1] >= 0.0


def test_stencil_not_monotone_without_diagonal_dominance():
    # the known failure: a_xx = 4.2, a_xy = -5.5, a_yy = 7.5 is not
    # diagonally dominant, and two x-face neighbours equal to 1 around a
    # zero give a : D^2 f = (2 * 4.2 - 2 * 5.5) / h^2 = -2.6 / h^2
    h = 0.5
    a = [np.full((3, 3, 3), c) for c in [4.2, 7.5, 1.0, -5.5, 0.0, 0.0]]
    values = np.zeros((3, 3, 3))
    values[0, 1, 1] = values[2, 1, 1] = 1.0
    assert solver._second_derivatives(values, h, a)[1, 1, 1] == pytest.approx(-2.6 / h**2, rel=1e-12)


# ---------------------------------------------------------------------------
# Coefficient engine against a direct sum


def direct_coefficients(values, h, gamma):
    """a_bar and c_bar by the O(n^6) sum over all pairs of grid points.

    K_ij(z) = |z|^{2+gamma} (delta_ij - z_i z_j / |z|^2) and |z|^gamma from
    the closed form; at z = 0 the angular average of the projection is 2/3 Id
    and |z|^p is replaced by its average 3 a^p / (3 + p) over the ball of
    volume h^3.
    """
    n = values.shape[0]
    idx = np.arange(n) * h
    pts = np.stack(np.meshgrid(idx, idx, idx, indexing="ij"), axis=-1).reshape(-1, 3)
    z = pts[:, None, :] - pts[None, :, :]            # (output, source, 3)
    r2 = np.sum(z * z, axis=-1)
    origin = r2 == 0.0
    r2_safe = np.where(origin, 1.0, r2)
    a_ball = h * (3.0 / (4.0 * np.pi)) ** (1.0 / 3.0)

    def radial(p):
        return np.where(origin, 3.0 * a_ball**p / (3.0 + p), r2_safe ** (p / 2.0))

    f = values.reshape(-1)
    a = []
    for i, j in PAIRS:
        delta = 1.0 if i == j else 0.0
        proj = np.where(origin, 2.0 / 3.0 * delta, delta - z[..., i] * z[..., j] / r2_safe)
        a.append((h**3 * (radial(2.0 + gamma) * proj) @ f).reshape(values.shape))
    if gamma == -3.0:
        c = 8.0 * np.pi * values
    else:
        c = (2.0 * (3.0 + gamma) * h**3 * radial(gamma) @ f).reshape(values.shape)
    return a, c


def test_coefficient_engine_gaussian_closed_form_order():
    # anisotropic Gaussian, gamma = 0, V = 5, over |v| <= 2: measured max
    # relative a_bar error 5.44e-4, 7.70e-5 and 1.88e-5 at n = 16, 24, 32
    # (observed order 4.82 and 4.90, set by the cell-averaged origin term)
    theta = np.diag([0.35, 0.5, 0.65])
    errs = []
    for n, tol in ((16, 1e-3), (24, 1.5e-4), (32, 4e-5)):
        gf = make_gaussian_grid(n=n, V=5.0, theta=np.diag(theta))
        a, c = _CoefficientEngine(n, gf.h, 0.0).coefficients(gf.values)
        grid = np.stack(np.meshgrid(*(gf.axes(),) * 3, indexing="ij"), axis=-1)
        inner = np.linalg.norm(grid, axis=-1) <= 2.0
        exact = landau_a_bar_g0(grid[inner], np.zeros(3), theta, 1.0)
        err = max(np.max(np.abs(a_ij[inner] - exact[:, i, j])) for (i, j), a_ij in zip(PAIRS, a))
        errs.append(err / np.max(np.abs(exact)))
        assert errs[-1] <= tol, n
        assert np.max(np.abs(c[inner] - 6.0)) <= 1e-6 * 6.0
    orders = np.log(np.array(errs[:-1]) / errs[1:]) / np.log([24 / 16, 32 / 24])
    assert np.all(orders >= 4.0), orders


@pytest.mark.parametrize("n, fft_len", [(6, 11), (7, 14)])
@pytest.mark.parametrize("gamma", [-3.0, -2.0, 0.0])
def test_coefficient_engine_matches_direct_sum(n, fft_len, gamma):
    # n = 6 gives the odd circular length 2n - 1 itself, n = 7 an even
    # length padded past 2n - 1
    values = np.random.default_rng(1000 * n + int(-gamma)).random((n, n, n))
    h = 0.7
    engine = _CoefficientEngine(n, h, gamma)
    assert engine.size == fft_len
    a, c = engine.coefficients(values)
    a_ref, c_ref = direct_coefficients(values, h, gamma)
    for pair, a_ij, ref in zip(PAIRS, a, a_ref):
        err = np.max(np.abs(a_ij - ref)) / np.max(np.abs(ref))
        assert err <= 1e-12, pair
    assert np.max(np.abs(c - c_ref)) / np.max(np.abs(c_ref)) <= 1e-12


@pytest.mark.parametrize("gamma", [-3.0, -2.0])
def test_coefficient_engine_leaves_inputs_and_spectra_intact(gamma):
    # the inverse transforms overwrite their inputs; a refresh must still
    # leave the field and the cached kernel spectra as they were
    n = 8
    values = np.random.default_rng(7).random((n, n, n))
    values_before = values.copy()
    engine = _CoefficientEngine(n, 0.7, gamma)
    hats_before = [kh.copy() for kh in engine.kernel_hats]
    c_hat_before = None if engine.c_hat is None else engine.c_hat.copy()
    a1, c1 = engine.coefficients(values)
    a2, c2 = engine.coefficients(values)
    assert all(np.array_equal(x, y) for x, y in zip(a1, a2))
    assert np.array_equal(c1, c2)
    assert np.array_equal(values, values_before)
    assert all(np.array_equal(kh, before) for kh, before in zip(engine.kernel_hats, hats_before))
    if c_hat_before is None:
        assert engine.c_hat is None
    else:
        assert np.array_equal(engine.c_hat, c_hat_before)


# ---------------------------------------------------------------------------
# Engine reuse across runs


@pytest.fixture
def engine_builds(monkeypatch):
    """Empty engine cache; counts the engines built while the test runs."""
    built = []
    init = _CoefficientEngine.__init__

    def counting_init(self, n, h, gamma):
        built.append((n, h, gamma))
        init(self, n, h, gamma)

    monkeypatch.setattr(_CoefficientEngine, "__init__", counting_init)
    solver._engine.cache_clear()
    yield built
    solver._engine.cache_clear()


def _short_run(gamma, n=16, V=5.0):
    gf = make_gaussian_grid(n=n, V=V, theta=(0.3, 0.45, 0.6))
    k = KernelSpec(dim=3, gamma=gamma, operator="landau")
    return homog_run(gf, k, QuadratureScheme(), t_end=1e-3, cfl=0.02)


def test_homog_runs_share_one_engine_per_grid_and_gamma(engine_builds):
    cold = _short_run(-2.0)
    warm = _short_run(-2.0)
    assert len(engine_builds) == 1
    assert len(cold.t) >= 3
    for name in ("t", "norm_m", "norm_dpg", "mass", "momentum", "energy", "negmax"):
        assert getattr(warm, name) == getattr(cold, name), name


def test_new_gamma_or_grid_builds_new_engine(engine_builds):
    _short_run(-2.0)
    _short_run(-3.0)
    _short_run(-3.0, n=17)
    _short_run(-3.0, V=5.5)
    h = 2.0 * 5.0 / 15
    assert engine_builds == [(16, h, -2.0), (16, h, -3.0), (17, 10.0 / 16, -3.0),
                             (16, 11.0 / 15, -3.0)]


def test_cached_kernel_spectra_are_read_only(engine_builds):
    _short_run(-2.0)
    engine = solver._engine(16, 2.0 * 5.0 / 15, -2.0)
    assert len(engine_builds) == 1
    for hat in (*engine.kernel_hats, engine.c_hat):
        with pytest.raises(ValueError):
            hat[0, 0, 0] = 1.0


@pytest.mark.parametrize("gamma", [-3.0, -2.0, 1.0])
def test_kernel_arrays_match_dense_construction(gamma):
    # the kernels built on sparse offset grids against the same expressions
    # on dense ones
    L, h = 11, 0.7
    k = ((np.arange(L) + L // 2) % L - L // 2) * h
    X, Y, Z = axes = np.meshgrid(k, k, k, indexing="ij")
    r2 = X * X + Y * Y + Z * Z
    r2[0, 0, 0] = 1.0
    r = np.sqrt(r2)
    rad = r ** (2.0 + gamma)
    a_eq = h * (3.0 / (4.0 * np.pi)) ** (1.0 / 3.0)
    dense = []
    for i, j in PAIRS:
        K = rad * ((1.0 if i == j else 0.0) - axes[i] * axes[j] / r2)
        K[0, 0, 0] = 3.0 * a_eq ** (2.0 + gamma) / (5.0 + gamma) * (2.0 / 3.0 if i == j else 0.0)
        dense.append(K)
    comps, radc = _kernel_arrays(L, h, gamma)
    assert len(comps) == len(dense)
    for pair, K, K_dense in zip(PAIRS, comps, dense):
        assert np.array_equal(K, K_dense), pair
    if gamma > -3.0:
        dense_c = r**gamma
        dense_c[0, 0, 0] = 3.0 * a_eq**gamma / (3.0 + gamma)
        assert np.array_equal(radc, dense_c)
    else:
        assert radc is None
