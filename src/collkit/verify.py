"""Numerical certification of the barrier comparison estimates.

The Landau delta window is exact up to roundoff: G is a quadratic in w, so
its sup over a ball and the window have closed forms.  The two Boltzmann
searches produce *certificates at a resolution*, not proofs: each reports
the sampled extremal values and the grid that produced them, and claims
nothing beyond that resolution.  They share one bracket-then-bisect loop,
:func:`_sign_search`, which memoizes what it evaluates, so each certificate
reuses the search's own values.

Contents:

* contact-point estimate: measure Q(f,f)(v0) / [b(v0)^2 <v0>^{d+gamma}] at
  barrier contact points;
* the small-velocity Landau integrand G(w), its closed-form sup on B_delta
  and its window in delta, with the exact boundary m > d + gamma;
* the Boltzmann hyperplane integral (the inner integral the contact
  argument reduces to), the decay threshold m0 where it turns negative at
  w = 0, and the delta window in |w|, whose precondition m > m0 is the one
  integral I(m, 0) < 0.  The integral takes a batch of w of shape (..., 3)
  and returns one value per row, so the delta search scans all its angles
  in one call.  On the plane z = e + rho*ehat, log|z| = log1p(rho*(2 e.ehat
  + rho))/2, so |z|^{-m} keeps full precision near z = e.  With phi measured
  from the projection of e, e.ehat = A cos(phi), A = |(w_y, w_z)| / |e - w|,
  so the integrand is even in phi and half the midpoint azimuths, at doubled
  weight, give the full circle.  Only |z| depends on phi: each node takes
  one exponential of -m log|z| (expm1 for rho <= 0.05, exp beyond), summed
  over phi before the phi-free factors are applied.  The rule is built once
  per scheme (:func:`_hyperplane_rule`), and the arithmetic runs in
  cache-sized blocks.

Search resolutions are fixed, and each report records the ones it used.
Boltzmann m0: probes double up to m = 200, stop at hi - lo <= 1e-4 max(1, lo).
Boltzmann delta: worst of 64 angles in [0, pi], stop at hi - lo <= 1e-3 hi.
Being sampled, it can miss a positive value between angles: a 2,049-angle
scan at the certified |w| found one in 2 of 48 cases (ROADMAP item 1).
The hyperplane integral's azimuthal resolution suffices at the m the
searches meet: over the delta scan at |w| <= 0.499 and m <= m0 + 4, raising
``angular_nodes`` to 96 moves it by at most 6e-11 of its largest value.  The
|z|^{-m} peak sharpens with m, so at m = 50 the same refinement moves the
default scheme by 8.4e-6 and the coarse (8, 8, 10) scheme by 3e-3.
"""

import functools
import json
from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from .boltzmann import plane_rule, q_boltzmann_carleman
from .core import _norm_sample_points
from .exceptions import ConfigurationError, EvaluationError, InfeasibleError, UnsupportedParameterError
from .landau import q_landau
from .util import bracket, geometric_panels, read_only

_M0_CEILING = 200.0  # largest m the m0 search probes
_BLOCK_ELEMENTS = 2**15  # doubles per hyperplane-integral block; see its docstring
_HEAD_RADIUS = 0.05      # hyperplane radii summed as expm1(lz) rather than exp(lz)
_E3 = read_only(np.array([1.0, 0.0, 0.0]))[0]


@dataclass(frozen=True)
class ContactConfiguration:
    """A field touching the barrier from below at the point v0."""

    barrier: object
    field: object
    v0: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "v0", np.asarray(self.v0, dtype=float))

    def validate(self, grid):
        pts = _norm_sample_points(self.field.dim, grid)
        fv = self.field(pts)
        bv = self.barrier.value(pts)
        if np.any(fv < -1e-14):
            raise ConfigurationError("field is negative at a sample node")
        if np.any(fv > bv * (1.0 + 1e-9) + 1e-14):
            raise ConfigurationError("field exceeds the barrier at a sample node")
        b0 = float(self.barrier.value(self.v0))
        if abs(float(self.field(self.v0)) - b0) > 1e-12 * b0:
            raise ConfigurationError("field does not touch the barrier at v0")


@dataclass(frozen=True)
class ThresholdReport:
    """A computed threshold with its supporting evidence.

    ``certificate`` holds the values establishing the sign on each side of
    the threshold; ``resolution`` records the grid or closed form behind
    them.  Every search raises :class:`InfeasibleError` instead of setting
    ``feasible`` False; the benchmark still reads it, until ROADMAP item 10.
    """

    parameter_name: str
    value: Optional[float]
    certificate: List[dict]
    resolution: dict
    feasible: bool = True

    def to_json(self):
        doc = {
            "parameter": self.parameter_name,
            "value": self.value,
            "certificate": self.certificate,
            "grid": self.resolution,
            "feasible": self.feasible,
        }
        return json.dumps(doc, sort_keys=True, indent=2)


# ---------------------------------------------------------------------------
# Sign-change search


def _sign_search(fn, probes, mid, converged, ok):
    """Bracket, then bisect, the point where ``ok(fn(x))`` stops holding.

    Scans ``probes`` in order until ``ok(fn(x))`` fails, then bisects the
    bracket with ``mid`` until ``converged(lo, hi)``.  Returns
    ``(lo, hi, at)``: ``lo`` is the last point where ``ok`` held (None when
    the first probe already fails), ``hi`` the first where it failed (None
    when no probe fails), and ``at`` is ``fn`` memoized over every point the
    search evaluated, so certificates reuse the search's own values.
    """
    seen = {}

    def at(x):
        if x not in seen:
            seen[x] = fn(x)
        return seen[x]

    lo = hi = None
    for x in probes:
        if not ok(at(x)):
            hi = x
            break
        lo = x
    while lo is not None and hi is not None and not converged(lo, hi):
        x = mid(lo, hi)
        if ok(at(x)):
            lo = x
        else:
            hi = x
    return lo, hi, at


# ---------------------------------------------------------------------------
# Contact-point estimate


def contact_estimate_check(cfg, k, q):
    """Q(f,f)(v0) and the bound unit b(v0)^2 <v0>^{d+gamma}.

    The ratio lhs/bound_unit is the empirical contact constant; aggregating
    it over a configuration sweep gives a measured C for the contact-point
    estimate (whose analytic constant is non-explicit).
    """
    cfg.validate(q)
    # Q(f,f)(v0) by the kernel's operator: Landau, or Boltzmann in Carleman form
    evaluate = q_landau if k.operator == "landau" else q_boltzmann_carleman
    lhs = evaluate(cfg.field, cfg.v0, k, q)
    b0 = float(cfg.barrier.value(cfg.v0))
    bound_unit = b0 * b0 * float(bracket(cfg.v0)) ** (k.dim + k.gamma)
    return lhs, bound_unit


# ---------------------------------------------------------------------------
# Landau small-velocity integrand


def _require_finite(**values):
    """Raise ValueError naming the first argument that is, or holds, a NaN or an infinity."""
    for name, value in values.items():
        if not np.isfinite(value).all():
            shown = f", got {value}" if np.ndim(value) == 0 else " in every entry"
            raise ValueError(f"{name} must be finite{shown}")


def landau_integrand_g(w, m, d, gamma):
    """G(w) = m|e-w|^2 [(m+2) Pi(e-w)e.e - (d-1)] + (d-1)(d+gamma).

    e is the first coordinate direction; w has shape (..., d).  Negativity of
    G on B_delta is what makes the small-velocity contact contribution
    sign-definite.  With z = e - w = (z0, z_perp) it is evaluated as
    m [(m+3-d)|z_perp|^2 - (d-1) z0^2] + (d-1)(d+gamma), without division.
    """
    w = np.asarray(w, dtype=float)
    z0 = 1.0 - w[..., 0]
    zp2 = np.sum(w[..., 1:] * w[..., 1:], axis=-1)
    # |z|^2 Pi(z)e.e = |z|^2 - (z.e)^2 = zp2, so no division by |z|^2
    return m * ((m + 3.0 - d) * zp2 - (d - 1.0) * (z0 * z0)) + (d - 1.0) * (d + gamma)


def _landau_quadratic(m, d, gamma):
    """(A, B, c, E) of G = A|w_perp|^2 - B(1 - w.e)^2 + B - E, with c = B/(A + B).

    E = (d-1)(m-d-gamma) = -G(0) does not cancel near m = d + gamma.
    Rejects a non-finite m or gamma, d < 2 and an m so large that A overflows.
    """
    _require_finite(m=m, gamma=gamma)
    if d < 2:
        raise ValueError(f"the Landau integrand needs d >= 2, got d = {d}")
    a = m * (m + 3.0 - d)
    if not a < np.inf:
        raise ValueError(f"m = {m} is too large: A = m(m + 3 - d) overflows")
    return a, m * (d - 1.0), (d - 1.0) / (m + 2.0), (d - 1.0) * (m - d - gamma)


def landau_integrand_sup(m, d, gamma, delta):
    """Sup of G over the ball |w| <= delta, in closed form.

    For A > 0 and c <= delta it is A(delta^2 - c) + C = A delta^2 + Bc - E,
    on the sphere at w.e = c; otherwise it is the value at w = delta e,
    C - B(1 - delta)^2 = B delta (2 - delta) - E.
    """
    a, b, c, e = _landau_quadratic(m, d, gamma)
    if not 0.0 < delta < 1.0:
        raise ValueError("delta must lie in (0, 1)")
    if m <= 0:
        raise ValueError("m must be positive")
    if a > 0.0 and c <= delta:
        return a * delta * delta + b * c - e
    return b * delta * (2.0 - delta) - e


def landau_delta_search(m, d, gamma):
    """Largest delta <= 0.999 with sup_{B_delta} G <= 0, in closed form.

    Requires m > d + gamma, as G(0) = -E.  The edge branch of
    :func:`landau_integrand_sup` vanishes where delta (2 - delta) = r = E/B,
    at r / (1 + sqrt(1 - r)), or nowhere below 1 if r >= 1 (d + gamma <= 0);
    above c the interior root sqrt((E - Bc)/A) holds instead.  The root,
    capped at 0.999, is stepped down by ulps until the computed sup is <= 0.
    The certificate adds the sup at min(1.05 delta, 0.999) unless delta is
    the cap.
    """
    a, b, c, e = _landau_quadratic(m, d, gamma)
    if e <= 0.0:
        raise InfeasibleError(
            f"no negativity window: G(0) = (d-1)(d+gamma-m) = "
            f"{(d - 1) * (d + gamma - m):.3g} >= 0 requires m > d + gamma"
        )
    if m <= 0:
        raise ValueError("m must be positive")
    r = e / b
    delta = r / (1.0 + np.sqrt(1.0 - r)) if r < 1.0 else 1.0
    if a > 0.0 and delta > c:
        delta = np.sqrt((e - b * c) / a)
    delta = min(float(delta), 0.999)
    while landau_integrand_sup(m, d, gamma, delta) > 0.0:
        delta = float(np.nextafter(delta, 0.0))
    cert = [{"delta": x, "sup": landau_integrand_sup(m, d, gamma, x)}
            for x in ([delta] if delta == 0.999 else [delta, min(1.05 * delta, 0.999)])]
    return ThresholdReport("delta", delta, cert, {"d": d, "gamma": gamma, "m": m})


# ---------------------------------------------------------------------------
# Boltzmann hyperplane integral


@functools.lru_cache(maxsize=1)
def _hyperplane_rule(q):
    """(rho, w_rho, rho2, two_rho_cos, n_head, w_phi) of the hyperplane integral, once per scheme.

    The graded head of :func:`collkit.boltzmann.plane_rule` on [0, 1] and a
    geometric tail on [1, 1e4]: the Nr radii rho, their weights w_rho (which
    carry the plane's measure rho) and rho**2.  two_rho_cos, of shape
    (Nphi, Nr), is 2 rho cos(phi) over the first half of the circle, whose
    weight w_phi is doubled.  The first n_head radii, rho <= _HEAD_RADIUS,
    are the innermost nodes.  Read-only, since every call shares them.
    """
    rho_h, w_h, phi, w_phi = plane_rule(q)
    rho_t, w_t = geometric_panels(1.0, 1e4, 2 * q.hyperplane_nodes)
    rho = np.concatenate([rho_h, rho_t])
    w_rho = np.concatenate([w_h, w_t]) * rho
    two_rho_cos = np.multiply.outer(2.0 * np.cos(phi[:len(phi) // 2]), rho)
    n_head = int(np.searchsorted(rho, _HEAD_RADIUS, side="right"))
    return read_only(rho, w_rho, rho * rho, two_rho_cos) + (n_head, 2.0 * w_phi)


def boltzmann_hyperplane_integral(m, w, k, q):
    """Inner hyperplane integral of the Boltzmann contact argument.

    Integrates, over the plane through the unit vector e orthogonal to
    (w - e), with r = |z - w|:

        [ (|z|^{-m} r^{2-d+gamma} - |e-w|^{gamma+d} r^{-2(d-1)}) b(|e-z|/r)
          + |z|^{-m} r^{2-d+gamma} b(|e-w|/r) ] dz.

    ``w`` has shape (..., 3) with every row finite and |w| < 1/2; the result
    has shape ``w.shape[:-1]``, one integral per row, and a single point of
    shape (3,) gives a float.  Scans over many w (the delta search) should
    pass them in one call: the rule comes from :func:`_hyperplane_rule`,
    built once per scheme, and b is evaluated once for all rows.

    The plane is parametrised as z = e + rho*ehat, ehat a unit vector
    orthogonal to (e - w) at azimuth phi from the projection of e onto the
    plane.  Then e.ehat = A cos(phi) with A = |(w_y, w_z)| / |e - w| (0 when
    w is parallel to e), |z|^2 = 1 + A 2rho cos(phi) + rho^2, and
    lz = -m log|z| = -(m/2) log1p(A 2rho cos(phi) + rho^2) without forming z.
    Nothing else depends on phi, so the integrand is even in phi: the
    midpoint azimuths pair up as phi <-> 2 pi - phi, and only the first half
    is summed, at weight 2 w_phi.  The value does not change when w rotates
    about e.

    With L = |e-w|^{gamma+d} r^{-2(d-1)} b(rho/r) w_rho, G = r^{2-d+gamma}
    b(|e-w|/r) w_rho and s = (d+gamma) log(r/|e-w|), the node's bracket is
    L expm1(lz + s) + G e^{lz}, which vanishes as z -> e.  Only lz depends on
    phi, so each node takes one transcendental of lz, summed over phi into a
    (rows, Nr) array, and the phi-free factors are applied to those sums.
    L e^s = r^{2-d+gamma} b(rho/r) w_rho is formed as written, so no large
    intermediate factor appears:

    * the innermost radii, rho <= _HEAD_RADIUS = 0.05: U = sum of expm1(lz),
      and the node sum is (L e^s + G) U + Nphi (L expm1(s) + G).  This keeps
      full precision near z = e, where the non-cutoff kernel is largest.
    * all other radii: P = sum of exp(lz), and the node sum is
      (L e^s + G) P - Nphi L.  U here would cancel large r^{gamma-1} terms
      where e^{lz} << 1: with U up to rho = 1, I(5 + gamma, 0), which is
      exactly 0, reads 7e-6 of I(gamma + 2, 0) at gamma = 76, against the
      rule's own 3.4e-9 at every gamma.

    lz is laid out as (rows, Nphi, Nr), so the phi-sum adds contiguous rows
    of Nr.  The rule caches 2 rho cos(phi) and rho^2, so lz is one scaled
    copy and one add before its log1p.  It is computed over blocks of at
    most ``_BLOCK_ELEMENTS`` = 2**15 doubles (256 KB; 14 rows of (12, 192) at
    the default scheme) in one buffer reused by every block, which stays in
    L2 cache through its passes; a whole delta scan, (64, 12, 192), would
    take 1.2 MB.  Each row is summed on its own over the same layout, so the
    values do not depend on the block size.  Every check runs before any
    block: a bad row raises before a value is computed, and a non-finite
    result raises after the last.
    """
    d = k.dim
    if d != 3:
        raise UnsupportedParameterError("the hyperplane integral is implemented for d = 3")
    w = np.asarray(w, dtype=float)
    if w.shape[-1:] != (d,):
        raise ValueError(f"w must have shape (..., {d}), got {w.shape}")
    _require_finite(m=m, w=w)
    batch = w.shape[:-1]
    w = w.reshape(-1, d)
    if (np.linalg.norm(w, axis=-1) >= 0.5).any():
        raise ValueError("|w| must be < 1/2 (hyperplane domain constraint)")
    q_ew = np.linalg.norm(_E3 - w, axis=-1)[:, None]              # |e - w|
    a = np.hypot(w[:, 1], w[:, 2])[:, None, None] / q_ew[:, :, None]  # e.ehat = a cos(phi)

    rho, w_rho, rho2, two_rho_cos, n_head, w_phi = _hyperplane_rule(q)
    n_phi = len(two_rho_cos)
    rows = max(1, _BLOCK_ELEMENTS // two_rho_cos.size)
    lz = np.empty((min(rows, len(w)), n_phi, len(rho)))
    sums = np.empty((len(w), len(rho)))  # U on the innermost radii, P on the rest
    for start in range(0, len(w), rows):
        blk = slice(start, start + rows)
        t = lz[:len(sums[blk])]
        t[...] = two_rho_cos
        t *= a[blk]
        t += rho2
        np.log1p(t, out=t)
        t *= -0.5 * m
        np.expm1(t[..., :n_head], out=t[..., :n_head])
        np.exp(t[..., n_head:], out=t[..., n_head:])
        t.sum(axis=1, out=sums[blk])

    with np.errstate(over="ignore", invalid="ignore"):
        # phi-free factors, shape (rows, Nr), in as few buffers as possible
        r2 = rho2 + q_ew * q_ew
        r = np.sqrt(r2)
        head = slice(0, n_head)
        shift = np.expm1((d + k.gamma) * np.log(r[:, head] / q_ew))  # expm1(s)
        b_loss = np.divide(rho, r)
        np.multiply(k.b(b_loss), w_rho, out=b_loss)
        gain = np.divide(q_ew, r, out=r)
        np.multiply(k.b(gain), w_rho, out=gain)
        big = np.log(r2)
        big *= 0.5 * (k.gamma + 2.0 - d)
        np.exp(big, out=big)                                      # r^{2-d+gamma}
        loss = np.multiply(r2, r2, out=r2)
        np.divide(b_loss, loss, out=loss)
        loss *= n_phi * q_ew ** (k.gamma + d)                     # Nphi L
        gain *= big                                               # G
        big *= b_loss
        big += gain                                               # L e^s + G
        sums *= big
        loss[:, head] *= -shift
        loss[:, head] -= n_phi * gain[:, head]
        sums -= loss
        out = sums.sum(axis=1) * w_phi
    if not np.isfinite(out).all():
        # the tail factor r^{2-d+gamma} overflows at rho = 1e4 once gamma >~ 77;
        # this check reports it, so numpy does not warn of it above
        raise EvaluationError(f"hyperplane integral is not finite at m = {m}, "
                              f"gamma = {k.gamma}")
    return float(out[0]) if not batch else out.reshape(batch)


def boltzmann_m0_search(k, q):
    """Smallest m at which the origin hyperplane integral turns negative.

    The integral is monotone decreasing in m (|z| >= 1 on the plane), so
    :func:`_sign_search` probes m = gamma + 2, then doubles from
    max(2|gamma + 2|, 8) up to m = 200 and bisects arithmetically; the
    certificate reuses its evaluations.  If no sign change occurs below the
    ceiling, it raises :class:`InfeasibleError` rather than report a fake
    threshold.
    """
    if k.operator != "boltzmann":
        raise ValueError("boltzmann_m0_search requires a Boltzmann kernel")
    w0 = np.zeros(k.dim)
    m_min = k.gamma + 2.0  # below this the tail of the integral diverges
    probes = [m_min, max(2.0 * abs(m_min), 8.0)]
    while 2.0 * probes[-1] <= _M0_CEILING:
        probes.append(2.0 * probes[-1])
    lo, hi, val = _sign_search(
        lambda m: boltzmann_hyperplane_integral(m, w0, k, q), probes,
        mid=lambda lo, hi: 0.5 * (lo + hi),
        converged=lambda lo, hi: hi - lo <= 1e-4 * max(1.0, lo),
        ok=lambda v: v >= 0.0,
    )
    if lo is None:
        return ThresholdReport("m0", m_min, [{"m": m_min, "integral": val(m_min)}],
                               _grid_meta(q))
    if hi is None:
        raise InfeasibleError(f"origin integral I(m, 0) = {val(_M0_CEILING):.6g} is still "
                              f"nonnegative at the ceiling m = {_M0_CEILING}")
    cert = [{"m": lo, "integral": val(lo)}, {"m": hi, "integral": val(hi)}]
    return ThresholdReport("m0", 0.5 * (lo + hi), cert, _grid_meta(q))


def boltzmann_delta_search(m, k, q):
    """Largest |w| window on which the hyperplane integral stays nonpositive.

    Only the angle between w and e matters; each |w| is scored by the worst
    of 64 angles over [0, pi], scanned in one batched call.
    :func:`_sign_search` probes 24 geometric |w| up to 0.499 and bisects
    arithmetically; the certificate reuses its scans.  Requires m > m0,
    which is I(m, 0) < 0 since the origin integral decreases in m.
    """
    if k.operator != "boltzmann":
        raise ValueError("boltzmann_delta_search requires a Boltzmann kernel")
    origin = boltzmann_hyperplane_integral(m, np.zeros(k.dim), k, q)
    if origin >= 0.0:
        raise InfeasibleError(f"m = {m} is not above m0: origin integral I(m, 0) = "
                              f"{origin:.6g} is not negative")
    angles = np.linspace(0.0, np.pi, 64)
    directions = np.stack([np.cos(angles), np.sin(angles), np.zeros_like(angles)], axis=-1)

    def worst(a):
        vals = boltzmann_hyperplane_integral(m, a * directions, k, q)
        i = int(np.argmax(vals))
        return float(vals[i]), angles[i]

    lo, hi, scan = _sign_search(
        worst, np.geomspace(1e-4, 0.499, 24),
        mid=lambda lo, hi: 0.5 * (lo + hi),
        converged=lambda lo, hi: hi - lo <= 1e-3 * hi,
        ok=lambda vs: vs[0] <= 0.0,
    )
    if lo is None:
        raise InfeasibleError("integral positive at every probed |w|")
    cert = [{"abs_w": a, "worst_angle": scan(a)[1], "integral": scan(a)[0]}
            for a in ([lo] if hi is None else [lo, hi])]
    return ThresholdReport("delta", lo, cert,
                           {**_grid_meta(q), "n_angles": len(angles), "m": m})


def _grid_meta(q):
    # the two fields of the scheme the hyperplane integral reads
    return {"hyperplane_nodes": q.hyperplane_nodes, "angular_nodes": q.angular_nodes}
