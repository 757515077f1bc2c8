"""Domain types shared by every operator module.

Velocity fields are black-box evaluators.
Kernel constants derived from the angular cross-section b (the cutoff flag, the
Carleman prefactor C_b, the angular mass) are computed here, and only here.
The comparison barrier equals ``alpha * |v|**-m`` outside the half ball and
is glued with a C^2 radial polynomial inside.  The weight bracket is always
``<v> = sqrt(1 + |v|^2)``; no alternative weight family is configurable.
"""

from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .exceptions import EvaluationError, KernelRejectionError, UnsupportedParameterError
from .util import bracket, sphere_area, sphere_rule


@dataclass(frozen=True)
class VelocityField:
    """A nonnegative function on d-dimensional velocity space.

    ``eval`` maps an array of shape (..., dim) to values of shape (...);
    ``dim`` and ``eval`` are a complete field.  ``hess_eval`` is optional:
    without it, :meth:`hessian` uses central differences.  A field declares
    nothing about itself; a check that needs a hypothesis (the crude
    bound's decay and void) takes it as an argument and samples it.

    Instances are immutable; all evaluations must be pure.  Equal fields
    therefore share samples: the Boltzmann routes reuse the values of
    their most recent call at the same field, point and scheme.
    """

    dim: int
    eval: Callable[[np.ndarray], np.ndarray]
    hess_eval: Optional[Callable[[np.ndarray], np.ndarray]] = None

    def __post_init__(self):
        if self.dim < 2:
            raise ValueError(f"dim must be >= 2, got {self.dim}")

    def __call__(self, v):
        vals = np.asarray(self.eval(np.asarray(v, dtype=float)), dtype=float)
        if not np.all(np.isfinite(vals)):
            bad = np.asarray(v, dtype=float).reshape(-1, self.dim)[
                ~np.isfinite(vals).reshape(-1)
            ][0]
            raise EvaluationError(f"non-finite field value at v = {bad.tolist()}")
        return vals

    def hessian(self, v, rel_tol=1e-6):
        """Hessian at a single point; central differences unless ``hess_eval`` is set.

        The step ``rel_tol**(1/3) * <v>`` balances truncation against
        roundoff for a second difference.
        """
        v = np.asarray(v, dtype=float)
        if self.hess_eval is not None:
            return np.asarray(self.hess_eval(v), dtype=float)
        step = rel_tol ** (1.0 / 3.0) * bracket(v)
        d = self.dim
        e = step * np.eye(d)
        i, j = np.triu_indices(d, 1)
        # one call at v, v +- e_k and v +- e_i +- e_j (i < j)
        mixed = [si * e[i] + sj * e[j] for si, sj in ((1, 1), (1, -1), (-1, 1), (-1, -1))]
        vals = self(v + np.concatenate([np.zeros((1, d)), e, -e, *mixed]))
        f0, fp, fm = vals[0], vals[1:d + 1], vals[d + 1:2 * d + 1]
        pp, pm, mp, mm = vals[2 * d + 1:].reshape(4, -1)
        H = np.empty((d, d))
        H[np.diag_indices(d)] = (fp - 2.0 * f0 + fm) / step**2
        H[i, j] = H[j, i] = (pp - pm - mp + mm) / (4.0 * step**2)
        return H


@dataclass(frozen=True)
class QuadratureScheme:
    """Node counts and radii controlling every integral in the library.

    outer_radius:  velocity integrals truncated to |w| <= outer_radius (> landau.POLAR_RADIUS).
    radial_nodes:  panels in each graded radial rule (4-point Gauss per panel).
    angular_nodes: polar resolution of sphere rules (azimuthal is twice this).
    hyperplane_nodes: panels in hyperplane radial rules.
    rel_tol:       target relative tolerance, also sets finite-difference steps.
    """

    outer_radius: float = 8.0
    radial_nodes: int = 12
    angular_nodes: int = 12
    hyperplane_nodes: int = 16
    rel_tol: float = 1e-6

    def __post_init__(self):
        if not 1.0 < self.outer_radius < np.inf:
            raise ValueError(f"outer_radius must be finite and exceed 1, got {self.outer_radius}")
        if not 0.0 < self.rel_tol < 1.0:
            raise ValueError(f"need 0 < rel_tol < 1, got {self.rel_tol}")
        for name in ("radial_nodes", "angular_nodes", "hyperplane_nodes"):
            if getattr(self, name) < 2:
                raise ValueError(f"{name} must be >= 2")


def _grazing_probe(integrand, upper):
    """Local power p at 0 of a weight times b, after checking its integral on [0, upper].

    The integrand must be nonnegative, like b.  p is measured at two probe
    points before any quadrature, so that p <= -1 (divergence) is rejected
    rather than returned as a large number; an integrand that vanishes at
    both probe points has no grazing singularity (p = inf).  A negative value,
    NaN or infinity at any probed point is rejected first; quad catches the rest.
    """
    t1, t2 = 1e-6, 1e-5
    y1, y2 = integrand(t1), integrand(t2)
    probed = np.append(integrand(upper * np.linspace(0.0, 1.0, 65)[1:]), (y1, y2))
    if not np.all((probed >= 0.0) & np.isfinite(probed)):
        raise KernelRejectionError("angular cross-section b is negative or not finite somewhere")
    p = np.inf if y1 == y2 == 0.0 else np.log(y2 / y1) / np.log(t2 / t1)
    if p <= -1.0 + 1e-6:
        raise KernelRejectionError(
            f"angular integrability fails: integrand ~ t^{p:.3f} near grazing"
        )
    _angular_quad(integrand, upper)
    return p


def _angular_quad(integrand, upper):
    """Integral over deviation angles [0, upper] of a weight times b, rejected unless finite.

    scipy.integrate is imported here, the only ``quad`` call, so that Landau
    kernels and the solver never load it.
    """
    from scipy.integrate import quad

    val, _ = quad(integrand, 0.0, upper, limit=200, points=[1e-4, 1e-2])
    if not np.isfinite(val):
        raise KernelRejectionError("angular integral of b is not finite")
    return val


def cb_constant(k):
    """Prefactor C_b of the nonsingular Carleman term Q_ns = C_b f (f * |.|^gamma).

    Obtained from the exact angular cancellation identity

        int_{theta<=pi/2} b_folded(sin(theta/2)) [f(v'_*) - f(v_*)] B dsigma dv_*
            = C_b (f * |.|^gamma)(v),

    whose right-hand constant reduces to the 1-D integral below.  Finite even
    for non-cutoff kernels because the bracket vanishes quadratically at
    theta = 0.
    """
    d, g = k.dim, k.gamma

    def integrand(theta):
        beff = k.b_folded(np.sin(theta / 2.0))
        return np.sin(theta) ** (d - 2) * beff * (np.cos(theta / 2.0) ** (-(d + g)) - 1.0)

    return float(sphere_area(d - 1) * _angular_quad(integrand, np.pi / 2.0))


@dataclass(frozen=True)
class KernelSpec:
    """Collision kernel parameters for either operator.

    For Boltzmann, ``b`` is the angular cross-section as a function of
    sin(theta/2), vectorized over arrays.  Nothing else about b is declared:
    on construction its grazing behaviour is measured (:func:`_grazing_probe`
    on the angular integrability integral of sin(theta/2)^2 b), and three
    results are stored, not set.  ``is_cutoff`` says whether b itself is
    integrable on the sphere (the probed integrand's power exceeds 1);
    ``cb`` is the prefactor of the nonsingular Carleman term, computed from
    the cancellation integral (see :func:`cb_constant`); ``angular_mass`` is
    |S^{d-2}| int_0^pi sin^{d-2} b(sin(theta/2)) dtheta if cutoff, else None.
    Cross-sections whose integrability integral diverges are rejected.
    """

    dim: int
    gamma: float
    operator: str  # "landau" | "boltzmann"
    b: Optional[Callable[[np.ndarray], np.ndarray]] = None
    is_cutoff: Optional[bool] = field(default=None, init=False, compare=False)
    cb: Optional[float] = field(default=None, init=False, compare=False)
    angular_mass: Optional[float] = field(default=None, init=False, compare=False)

    def __post_init__(self):
        if self.operator not in ("landau", "boltzmann"):
            raise ValueError(f"unknown operator {self.operator!r}")
        if self.dim < 2:
            raise ValueError("dim must be >= 2")
        if self.operator == "landau":
            if self.dim == 2:
                if not -2.0 < self.gamma <= 1.0:
                    raise UnsupportedParameterError(
                        "Landau in 2D requires gamma in (-2, 1]"
                    )
            elif not -self.dim <= self.gamma <= 1.0:
                raise ValueError(f"Landau gamma out of range: {self.gamma}")
        else:
            # gamma = -dim is admitted for the sigma-form: the collision
            # difference vanishes linearly at v_* = v, which restores
            # integrability of the borderline kernel
            if not self.gamma >= -self.dim:
                raise ValueError(f"Boltzmann requires gamma >= -dim, got {self.gamma}")
            if self.b is None:
                raise ValueError("Boltzmann kernel needs an angular cross-section b")

            def integrand(theta):
                s = np.sin(theta / 2.0)
                return np.sin(theta) ** (self.dim - 2) * s * s * self.b(s)

            # b alone weighs theta^(dim-2) b = integrand / s^2 on the sphere, so
            # b itself is integrable (a cutoff kernel) iff p > 1
            p = _grazing_probe(integrand, np.pi)
            object.__setattr__(self, "is_cutoff", bool(p > 1.0 + 1e-6))
            object.__setattr__(self, "cb", cb_constant(self))
            if self.is_cutoff:
                mass = _angular_quad(lambda t: np.sin(t) ** (self.dim - 2) * self.b(np.sin(t / 2)),
                                     np.pi)
                object.__setattr__(self, "angular_mass", float(sphere_area(self.dim - 1) * mass))

    def b_folded(self, x):
        """Cross-section folded onto deviation angles <= pi/2.

        b_folded(sin(theta/2)) = b(sin(theta/2)) + b(cos(theta/2)); the total
        collision operator is unchanged by this reduction, and it is what
        makes the singular/nonsingular split finite term by term.
        """
        x = np.asarray(x, dtype=float)
        return self.b(x) + self.b(np.sqrt(np.maximum(1.0 - x * x, 0.0)))

    def checked_point(self, f, v, route):
        """``v`` as a float array, once f and v are known to have this kernel's dimension.

        A mismatch is rejected here, naming ``route``, instead of reaching
        numpy as a broadcasting error deep inside the quadrature.
        """
        v = np.asarray(v, dtype=float)
        if f.dim != self.dim:
            raise ValueError(
                f"{route}: field dimension {f.dim} does not match kernel dimension {self.dim}"
            )
        if v.shape != (self.dim,):
            raise ValueError(
                f"{route}: point v has shape {v.shape}, expected ({self.dim},)"
            )
        return v


# ---------------------------------------------------------------------------
# Barrier


@dataclass(frozen=True)
class Barrier:
    """Comparison function alpha * b1(v), with b1 = |v|^-m outside B_{1/2}.

    Inside |v| < 1/2, b1 is the second-order Taylor polynomial of s^{-m/2}
    in s = |v|^2 about s = 1/4.  This is the minimal member of the
    polynomial-in-|v|^2 gluing family: it is C^2 across |v| = 1/2, has zero
    radial derivative at the origin, and (verified at construction) is
    radially non-increasing with b1(v) <= |v|^-m everywhere.
    """

    m: float
    alpha: float
    inner_coeffs: tuple  # coefficients of the inner polynomial in s = |v|^2

    def _b1_radial(self, r):
        r = np.asarray(r, dtype=float)
        s = r * r
        c0, c1, c2 = self.inner_coeffs
        inner = c0 + c1 * s + c2 * s * s
        with np.errstate(divide="ignore"):
            outer = np.where(r > 0, r, 1.0) ** (-self.m)
        return np.where(r >= 0.5, outer, inner)

    def value(self, v):
        v = np.asarray(v, dtype=float)
        return self.alpha * self._b1_radial(np.linalg.norm(v, axis=-1))

    def hessian(self, v):
        v = np.asarray(v, dtype=float)
        d = v.shape[-1]
        r = float(np.linalg.norm(v))
        if r >= 0.5:
            # exact formula: (m a r^-m / r^2) [ (m+2) vv^T/r^2 - Id ]
            pref = self.m * self.alpha * r ** (-self.m) / r**2
            return pref * ((self.m + 2.0) * np.outer(v, v) / r**2 - np.eye(d))
        c0, c1, c2 = self.inner_coeffs
        s = r * r
        return self.alpha * (
            2.0 * (c1 + 2.0 * c2 * s) * np.eye(d) + 4.0 * c2 * np.outer(v, v)
        )

    def as_field(self, dim=3):
        """The barrier as a ``dim``-dimensional VelocityField with its exact Hessian."""
        return VelocityField(dim=dim, eval=lambda v: self.value(v), hess_eval=self.hessian)


def make_barrier(m, alpha):
    """Construct the barrier alpha * b1 for exponent ``m`` and scale ``alpha``.

    Raises ValueError for non-finite or non-positive arguments and for an m
    so large that the inner coefficients overflow, and RuntimeError if the
    constructed inner profile fails monotonicity or dominance (which would
    indicate a bug, not a user error: the Taylor gluing satisfies both for
    every m > 0, and the check keeps that claim honest).
    """
    if not (np.isfinite(m) and np.isfinite(alpha) and m > 0 and alpha > 0):
        raise ValueError(f"make_barrier requires finite m > 0 and alpha > 0, "
                         f"got m = {m}, alpha = {alpha}")
    s0 = np.float64(0.25)
    with np.errstate(over="ignore", invalid="ignore"):
        g = s0 ** (-m / 2.0)
        g1 = -(m / 2.0) * s0 ** (-m / 2.0 - 1.0)
        g2 = (m / 2.0) * (m / 2.0 + 1.0) * s0 ** (-m / 2.0 - 2.0)
        coeffs = (g - g1 * s0 + 0.5 * g2 * s0 * s0, g1 - g2 * s0, 0.5 * g2)
    if not np.all(np.isfinite(coeffs)):
        raise ValueError(f"m = {m} is too large: the barrier's inner coefficients overflow")
    barrier = Barrier(m=float(m), alpha=float(alpha), inner_coeffs=tuple(map(float, coeffs)))

    r = np.linspace(1e-6, 0.5, 2001)
    prof = barrier._b1_radial(r)
    if np.any(np.diff(prof) > 1e-12 * prof[0]):
        raise RuntimeError("barrier inner profile is not non-increasing")
    if np.any(prof > r ** (-m) * (1.0 + 1e-12)):
        raise RuntimeError("barrier inner profile violates |v|^-m dominance")
    return barrier


# ---------------------------------------------------------------------------
# Weighted sup norm


def _norm_sample_points(dim, grid):
    """Deterministic sample set: dense radial profiles along many rays.

    Rays are the coordinate axes plus a product sphere rule; radii reach the
    truncation radius.  The point list is what the reported maximizer ranges
    over.
    """
    dirs, _ = sphere_rule(dim, grid.angular_nodes)
    axes = np.concatenate([np.eye(dim), -np.eye(dim)])
    dirs = np.concatenate([axes, dirs])
    n_r = max(64, 8 * grid.radial_nodes)
    radii = np.linspace(0.0, grid.outer_radius, n_r)
    pts = radii[None, :, None] * dirs[:, None, :]
    return pts.reshape(-1, dim)


def weighted_sup_norm(f, m, grid, return_argmax=False):
    """Grid-sampled sup of <v>^m f(v).

    The sup is taken over a deterministic radial-profile sample out to the
    scheme's outer radius.  The returned argmax is the lexicographically
    smallest sample node among those within a relative 1e-15 of the sup.
    Refinement is the caller's responsibility via the QuadratureScheme.
    """
    if not 0.0 <= m < np.inf:
        raise ValueError(f"weight exponent m must be finite and >= 0, got {m}")
    pts = _norm_sample_points(f.dim, grid)
    vals = f(pts) * bracket(pts) ** m
    best = np.max(vals)
    if not return_argmax:
        return float(best)
    ties = np.nonzero(vals >= best * (1.0 - 1e-15) - 1e-300)[0]
    order = np.lexsort(pts[ties].T[::-1])
    return float(best), pts[ties[order[0]]]
