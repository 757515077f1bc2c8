"""Explicit time-stepper for the space-homogeneous Landau equation.

The field lives on a uniform tensor grid on [-V, V]^3; the equation is
advanced in non-divergence form d_t f = a_bar_ij d_ij f + c_bar f with the
convolution coefficients evaluated spectrally and second derivatives by
central differences.  The FFT convolution is circular with the smallest
length free of wraparound, L = next_fast_len(2n - 1) per axis: the singular
kernels are sampled on the wrapped offset grid (origin at index 0,
cell-averaged there) and the kept output is the first n entries per axis.
The kernels are even in z, so only the real part of each kernel transform
is stored; it is the transform of the kernel's even part, which equals the
kernel at every offset within +-(n-1) h that the kept output reads.
The kernel spectra depend only on (n, h, gamma), so runs share them: the
engines of the two most recent (n, h, gamma) are kept, about 13 MB of
read-only spectra at n = 32, and a repeated run builds none.  Field
transforms, forward and inverse, are pruned to the lines that carry data.

Time stepping is explicit midpoint with the parabolic step restriction
Delta t = cfl * h^2 / (6 max tr a_bar) refreshed every step.

The run log records weighted sup norms and the conserved moments each step;
these logs feed the Gronwall-bound and Riccati-envelope checks.
"""

import csv
import functools
from dataclasses import dataclass, field as dc_field
from typing import List

import numpy as np
import scipy.fft

from .exceptions import RunAbortedError, UnsupportedParameterError
from .util import read_only, sphere_area

# (i, j) of each stored entry of the symmetric diffusion matrix a_bar, diagonal first
PAIRS = ((0, 0), (1, 1), (2, 2), (0, 1), (0, 2), (1, 2))

NEGATIVITY_LIMIT = 1e-12   # relative to max; larger dips abort the run
CONTAINMENT_LIMIT = 1e-8   # boundary-ring mass relative to max


def _check_grid(n, V):
    """Reject a grid too small for the stencil or a box that is not finite and positive."""
    if not (n >= 4 and 0.0 < V < np.inf):
        raise ValueError(f"need n >= 4 and a finite V > 0, got n = {n}, V = {V}")


@dataclass
class GridField:
    """Finite, nonnegative values on the uniform grid v_i = -V + i*h, h = 2V/(n-1)."""

    n: int
    V: float
    values: np.ndarray
    time: float = 0.0

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape != (self.n,) * 3:
            raise ValueError("values must be an n^3 array")
        _check_grid(self.n, self.V)
        if not np.all(np.isfinite(self.values)):
            raise ValueError("grid values must be finite")

    @property
    def h(self):
        return 2.0 * self.V / (self.n - 1)

    def axes(self):
        return np.linspace(-self.V, self.V, self.n)

    def check_validity(self):
        mx = float(np.max(self.values))
        neg = float(-min(np.min(self.values), 0.0))
        if mx > 0 and neg > NEGATIVITY_LIMIT * mx:
            raise RunAbortedError(f"negativity {neg:.3e} exceeds limit")
        b = self.values
        ring = max(
            float(np.max(np.abs(b[0]))), float(np.max(np.abs(b[-1]))),
            float(np.max(np.abs(b[:, 0]))), float(np.max(np.abs(b[:, -1]))),
            float(np.max(np.abs(b[:, :, 0]))), float(np.max(np.abs(b[:, :, -1]))),
        )
        if mx > 0 and ring > CONTAINMENT_LIMIT * mx:
            raise RunAbortedError(f"boundary ring value {ring:.3e} breaks containment")
        return neg


@dataclass
class RunLog:
    """Per-step record of time, weighted sup norms, moments, and negativity."""

    t: List[float] = dc_field(default_factory=list)
    norm_m: List[float] = dc_field(default_factory=list)
    norm_dpg: List[float] = dc_field(default_factory=list)
    mass: List[float] = dc_field(default_factory=list)
    momentum: List[tuple] = dc_field(default_factory=list)
    energy: List[float] = dc_field(default_factory=list)
    negmax: List[float] = dc_field(default_factory=list)

    def append(self, t, nm, ndpg, mass, mom, energy, neg):
        if self.t and t <= self.t[-1]:
            raise ValueError("log times must be strictly increasing")
        self.t.append(t)
        self.norm_m.append(nm)
        self.norm_dpg.append(ndpg)
        self.mass.append(mass)
        self.momentum.append(tuple(mom))
        self.energy.append(energy)
        self.negmax.append(neg)

    def write_csv(self, path):
        with open(path, "w", newline="\n") as fh:
            wr = csv.writer(fh, lineterminator="\n")
            wr.writerow(["t", "norm_m", "norm_dpg", "mass", "px", "py", "pz",
                         "energy", "negmax"])
            for i in range(len(self.t)):
                px, py, pz = self.momentum[i]
                wr.writerow([repr(self.t[i]), repr(self.norm_m[i]),
                             repr(self.norm_dpg[i]), repr(self.mass[i]),
                             repr(px), repr(py), repr(pz),
                             repr(self.energy[i]), repr(self.negmax[i])])


# ---------------------------------------------------------------------------
# Coefficients on the grid


def _kernel_arrays(L, h, gamma):
    """Cell-averaged convolution kernels for a_bar (one per PAIRS entry) and c_bar.

    K_ij(z) = |z|^{2+gamma} (delta_ij - z_i z_j / |z|^2), sampled on the
    wrapped offset grid z = h * L * fftfreq(L) per axis (offset 0 at index 0,
    negative offsets in the upper half).  At z = 0 the angular average of the
    projection is (d-1)/d * Id and the radial factor is averaged over the
    equal-volume ball of radius a = h (3/(4 pi))^{1/3}.

    The offset axes stay sparse (broadcast, never expanded); each kernel is
    a full L^3 array.
    """
    k = ((np.arange(L) + L // 2) % L - L // 2) * h  # integer offsets times h
    X, Y, Z = axes = np.meshgrid(k, k, k, indexing="ij", sparse=True)
    r2 = X * X + Y * Y + Z * Z
    r2[0, 0, 0] = 1.0  # placeholder at the origin, overwritten below
    r = np.sqrt(r2)
    rad = r ** (2.0 + gamma)
    a_eq = h * (3.0 / (4.0 * np.pi)) ** (1.0 / 3.0)
    rad0 = 3.0 * a_eq ** (2.0 + gamma) / (5.0 + gamma)  # ball average of |z|^{2+gamma}

    kernels = []
    for i, j in PAIRS:
        K = rad * ((1.0 if i == j else 0.0) - axes[i] * axes[j] / r2)
        K[0, 0, 0] = rad0 * (2.0 / 3.0 if i == j else 0.0)
        kernels.append(K)

    if gamma > -3.0:
        radc = r**gamma
        radc[0, 0, 0] = 3.0 * a_eq**gamma / (3.0 + gamma)
    else:
        radc = None
    return kernels, radc


class _CoefficientEngine:
    """FFT convolutions of the grid field with the Landau kernels.

    The convolution is circular with length L = next_fast_len(2n - 1) per
    axis.  Output i reads the kernel at offsets (i - j) h with i, j in
    [0, n), that is within +-(n-1) h, and a circular length of at least
    2n - 1 keeps those offsets from wrapping onto each other.  So the field
    is zero-padded to L^3, the kernels are sampled on the wrapped offset
    grid (origin at index 0), and the kept output is [0:n]^3.

    Only the real part of each kernel transform is stored.  The real part
    is the transform of the even part (K(p) + K(-p mod L)) / 2.  K is even
    in z, so the even part equals K at every offset within +-(n-1) h, the
    only offsets a kept output reads; this holds for odd and even L, and
    keeping the real part is exact up to roundoff.

    Kernel transforms are computed once, on numpy.fft, and stored
    read-only: an engine is shared by every run on its grid and gamma (see
    :func:`_engine`).  All kernels are built before any is transformed.
    Transforming each as it is built lowers the build's peak by about 4 MB,
    but then no freed block is left below the spectra, so the allocator
    trims and re-faults the top of the heap on every solver step: 28 times
    the page faults, and long runs about 20% slower, at n = 32.  Each
    coefficient refresh costs one forward transform of the field plus one
    inverse transform per component, both on scipy.fft and both pruned one
    axis at a time to the lines that carry data: the forward transform
    skips the all-zero lines of the padding, the inverse the rows no kept
    output needs.  A step whose input is a fresh intermediate overwrites it
    (overwrite_x), which skips a copy per axis; the field and the cached
    spectra are never overwritten.  The pruned forward transform is
    bit-identical to numpy's rfftn of the padded field.
    """

    def __init__(self, n, h, gamma):
        self.n, self.h, self.gamma = n, h, gamma
        self.size = scipy.fft.next_fast_len(2 * n - 1)
        kernels, c_kernel = _kernel_arrays(self.size, h, gamma)
        self.kernel_hats = tuple(self._real_hat(K) for K in kernels)
        self.c_hat = self._real_hat(c_kernel) if c_kernel is not None else None

    @staticmethod
    def _real_hat(kernel):
        return read_only(np.fft.rfftn(kernel).real.copy())[0]

    def _conv(self, val_hat, kern_hat):
        # irfftn one axis at a time, dropping the rows no kept output needs
        # before the next axis: the same 1-D transforms as irfftn(...)[:n]^3.
        # Each transform overwrites its input, which is always the fresh
        # product or a slice of the previous transform's output, never a
        # cached spectrum.
        n, L = self.n, self.size
        out = scipy.fft.ifft(val_hat * kern_hat, axis=0, overwrite_x=True)[:n]
        out = scipy.fft.ifft(out, axis=1, overwrite_x=True)[:, :n]
        out = scipy.fft.irfft(out, L, axis=2, overwrite_x=True)
        return out[:, :, :n] * self.h**3

    def coefficients(self, values):
        # rfftn of the field zero-padded to L^3, one axis at a time: the
        # last axis transforms the n^2 nonzero lines, the middle one the
        # n (L/2 + 1) lines that are then nonzero, the first one all lines
        L = self.size
        val_hat = scipy.fft.rfft(values, L, axis=2)
        val_hat = scipy.fft.fft(val_hat, L, axis=1, overwrite_x=True)
        val_hat = scipy.fft.fft(val_hat, L, axis=0, overwrite_x=True)
        a = [self._conv(val_hat, kh) for kh in self.kernel_hats]
        if self.gamma == -3.0:
            c = 2.0 * sphere_area(3) * values  # (d-1)|S^2| f = 8 pi f
        else:
            c = 2.0 * (3.0 + self.gamma) * self._conv(val_hat, self.c_hat)
        return a, c


@functools.lru_cache(maxsize=2)
def _engine(n, h, gamma):
    """The coefficient engine of grid (n, h) and gamma, shared across runs.

    The two most recently used engines are kept, enough for runs that
    alternate between two kernels on one grid, such as Coulomb and
    gamma = -2.  They hold 2 x (6-7) x L^2 (L/2 + 1) x 8 B of read-only
    kernel spectra, about 13 MB at n = 32 (L = 63).
    """
    return _CoefficientEngine(n, h, gamma)


def _second_derivatives(values, h, a):
    """a : D^2 f by second differences, with zero extension outside the box.

    a is a symmetric matrix field in PAIRS order.  Pure derivatives are
    central three-point.  Mixed derivatives use the sign-adapted corner
    stencils weighted by |a_ij| (for a_ij >= 0 the (+,+)/(-,-) corners,
    otherwise (+,-)/(-,+)); both are O(h^2) consistent, and the choice makes
    the off-center weights of a : D^2 nonnegative wherever the diffusion
    matrix is diagonally dominant.  The usual four-corner average has O(1)
    negative corner weights and drives steep tails negative.
    """
    p = np.pad(values, 1)
    end = p.shape[0] - 1
    e = np.eye(3, dtype=int)

    def at(step):
        # f at every grid point offset by h * step
        return p[tuple(slice(1 + s, end + s) for s in step)]

    h2 = h**2
    faces = [at(e[i]) + at(-e[i]) for i in range(3)]
    terms = []
    for (i, j), a_ij in zip(PAIRS, a):
        if i == j:
            terms.append(a_ij * ((at(e[i]) - 2 * values + at(-e[i])) / h2))
        else:
            up = a_ij >= 0.0
            corners = np.where(up, at(e[i] + e[j]) + at(-e[i] - e[j]),
                               at(e[i] - e[j]) + at(e[j] - e[i]))
            # not np.abs, which would turn the product's -0.0 at a_ij = -0.0 into +0.0
            a_abs = np.where(up, a_ij, -a_ij)
            terms.append(a_abs * ((2 * values + corners - (faces[i] + faces[j])) / (2 * h2)))
    return terms[0] + terms[1] + terms[2] + 2.0 * (terms[3] + terms[4] + terms[5])


def _rhs(values, engine, h):
    a, c = engine.coefficients(values)
    return (_second_derivatives(values, h, a) + c * values,
            float(np.max(a[0] + a[1] + a[2])), float(np.max(c)))


def _record(log, field, weights_m, weights_dpg, coords, h, neg):
    vals = field.values
    h3 = h**3
    mass = float(np.sum(vals)) * h3
    mom = [float(np.sum(coords[i] * vals)) * h3 for i in range(3)]
    en = float(np.sum((coords[0] ** 2 + coords[1] ** 2 + coords[2] ** 2) * vals)) * h3
    log.append(field.time, float(np.max(weights_m * vals)),
               float(np.max(weights_dpg * vals)), mass, mom, en, neg)


def homog_run(f0, k, q, t_end, cfl, m=5.0):
    """Advance the homogeneous Landau equation from f0 to t_end.

    Returns the RunLog; raises RunAbortedError on negativity, containment,
    or step-size failure, with the partial log attached unless f0 itself
    is rejected (then ``log`` is None: there is no row to report).
    """
    if k.operator != "landau" or k.dim != 3:
        raise UnsupportedParameterError("solver supports the 3-D Landau operator only")
    if not 0.0 < cfl < 1.0:
        raise ValueError("cfl must lie in (0, 1)")
    if not f0.time < t_end < np.inf:
        raise ValueError(f"t_end must be finite and exceed the start time {f0.time}, "
                         f"got {t_end}")
    if not 0.0 <= m < np.inf:
        raise ValueError(f"weight exponent m must be finite and >= 0, got {m}")
    n, h, V = f0.n, f0.h, f0.V
    ax = f0.axes()
    coords = np.meshgrid(ax, ax, ax, indexing="ij")
    brk = np.sqrt(1.0 + coords[0] ** 2 + coords[1] ** 2 + coords[2] ** 2)
    weights_m = brk**m
    weights_dpg = brk ** (3.0 + k.gamma)
    engine = _engine(n, h, k.gamma)

    log = RunLog()
    field = GridField(n=n, V=V, values=f0.values.copy(), time=f0.time)
    neg = field.check_validity()
    field.values = np.maximum(field.values, 0.0)
    _record(log, field, weights_m, weights_dpg, coords, h, neg)

    if np.max(field.values) == 0.0:
        return log

    try:
        while field.time < t_end - 1e-15:
            rhs0, a_max, c_max = _rhs(field.values, engine, h)
            if a_max <= 0.0:
                raise RunAbortedError("diffusion coefficient vanished")
            dt = cfl * h * h / (6.0 * a_max)
            if dt < 1e-15:
                raise RunAbortedError("time step underflow")
            dt = min(dt, t_end - field.time)
            mid = field.values + 0.5 * dt * rhs0
            rhs1, _, _ = _rhs(mid, engine, h)
            new_vals = field.values + dt * rhs1

            old_max = float(np.max(field.values))
            field.values = new_vals
            field.time += dt
            neg = field.check_validity()
            field.values = np.maximum(field.values, 0.0)
            # maximum-principle surrogate: growth of the max is reaction-limited
            new_max = float(np.max(field.values))
            slack = 10.0 * (dt * c_max) ** 2 * old_max + 1e-12
            if new_max > (1.0 + dt * c_max) * old_max + slack:
                raise RunAbortedError("maximum grew faster than the reaction bound")
            _record(log, field, weights_m, weights_dpg, coords, h, neg)
    except RunAbortedError as exc:
        exc.log = log
        raise
    return log


# ---------------------------------------------------------------------------
# A priori bound checks


def gronwall_check(log, C):
    """Exponential a priori bound along a run log.

    Checks norm_m(t) <= norm_m(0) * exp(C * int_0^t norm_dpg ds) at every
    logged time (trapezoidal time integral).  Returns (holds, margins) where
    margins[i] = bound_i - norm_m_i.
    """
    if not 0.0 < C < np.inf:
        raise ValueError(f"C must be finite and positive, got {C}")
    t = np.asarray(log.t)
    y = np.asarray(log.norm_m)
    g = np.asarray(log.norm_dpg)
    integral = np.concatenate([[0.0], np.cumsum(0.5 * (g[1:] + g[:-1]) * np.diff(t))])
    bound = y[0] * np.exp(C * integral)
    margins = bound - y
    return bool(np.all(margins >= -1e-12 * np.maximum(bound, 1.0))), margins


def riccati_check(log, C, T, rel_tol=1e-9):
    """Pairwise Riccati envelope along the log, plus the blowup lower bound.

    Pairwise: y(t) <= y(s) / (1 - C y(s)(t-s)) for all s < t where the
    denominator is positive (the integrated form of y' <= C y^2).  If the
    denominator hits zero inside the log, the discrete envelope itself blew
    up; this is reported, not an error.  Given a hypothesized blowup time
    T beyond the log, also checks y(s) >= 1/(C(T-s)).

    Returns a dict with keys pairwise_ok, envelope_hit, blowup_rate_ok.
    """
    if not 0.0 < C < np.inf:
        raise ValueError(f"C must be finite and positive, got {C}")
    if not np.isfinite(T):
        raise ValueError(f"T must be finite, got {T}")
    t = np.asarray(log.t)
    y = np.asarray(log.norm_m)
    dt = t[None, :] - t[:, None]          # (s, t) pairs, positive above diagonal
    denom = 1.0 - C * y[:, None] * dt
    upper = np.triu(np.ones_like(dt, dtype=bool), 1)
    valid = upper & (denom > 0.0)
    env = np.where(valid, y[:, None] / np.where(denom > 0, denom, 1.0), np.inf)
    y_later = np.broadcast_to(y[None, :], dt.shape)
    pairwise_ok = bool(
        np.all(y_later[valid] <= env[valid] * (1.0 + rel_tol) + 1e-300)
    )
    envelope_hit = bool(np.any(upper & (denom <= 0.0)))
    if T > t[-1]:
        lower = 1.0 / (C * (T - t))
        blowup_rate_ok = bool(np.all(y >= lower * (1.0 - rel_tol)))
    else:
        blowup_rate_ok = False
    return {
        "pairwise_ok": pairwise_ok,
        "envelope_hit": envelope_hit,
        "blowup_rate_ok": blowup_rate_ok,
    }


def make_gaussian_grid(n, V, rho=1.0, theta=1.0):
    """Sampled centred Gaussian initial data on the solver grid.

    theta may be a scalar or a 3-vector of per-axis temperatures; the
    anisotropic case gives a non-equilibrium state that relaxes toward the
    Maxwellian with the mean temperature.  rho = 0 gives the zero field.
    """
    _check_grid(n, V)
    if not 0.0 <= rho < np.inf:
        raise ValueError(f"rho must be finite and >= 0, got {rho}")
    th = np.broadcast_to(np.asarray(theta, dtype=float), (3,))
    if not np.all((0.0 < th) & (th < np.inf)):
        raise ValueError(f"theta must be finite and > 0 on every axis, got {th.tolist()}")
    ax = np.linspace(-V, V, n)
    X, Y, Z = np.meshgrid(ax, ax, ax, indexing="ij")
    expo = X**2 / th[0] + Y**2 / th[1] + Z**2 / th[2]
    vals = rho * ((2.0 * np.pi) ** 3 * np.prod(th)) ** -0.5 * np.exp(-0.5 * expo)
    gf = GridField(n=n, V=V, values=vals)
    gf.check_validity()  # box must be large enough for the declared temperature
    return gf
