"""Numerical certification of the barrier comparison estimates.

Everything here produces *certificates at a resolution*, not proofs: each
threshold search reports the sampled extremal values and the grid that
produced them, and claims nothing beyond that resolution.  The three
searches (Landau delta, Boltzmann m0, Boltzmann delta) share one
bracket-then-bisect loop, :func:`_sign_search`, which memoizes what it
evaluates, so each certificate reuses the search's own values.

Contents:

* contact-point estimate: measure Q(f,f)(v0) / [b(v0)^2 <v0>^{d+gamma}] at
  barrier contact points;
* the small-velocity Landau integrand G(w) and its feasibility window in
  delta, with the exact boundary m > d + gamma;
* the Boltzmann hyperplane integral (the inner integral the contact
  argument reduces to), the decay threshold m0 where it turns negative at
  w = 0, and the delta window in |w|, whose precondition m > m0 is the one
  integral I(m, 0) < 0.  The integral takes a batch of w of shape (..., 3)
  and returns one value per row, so the delta search scans all its angles
  in one call.  On the plane z = e + rho*ehat, log|z| = log1p(rho*(2 e.ehat
  + rho))/2, so |z|^{-m} keeps full precision near z = e.  With phi measured
  from the projection of e, e.ehat = A cos(phi), A = |(w_y, w_z)| / |e - w|,
  so the integrand is even in phi and half the midpoint azimuths, at doubled
  weight, give the full circle.  The rule is built once per scheme
  (:func:`_hyperplane_rule`), and the arithmetic runs in cache-sized blocks;
* the crude large-velocity bound Q(f,f)(e) for shell-type fields.

Search resolutions are fixed, and each report records the ones it used.
Landau delta: sup of G on a 96 x 96 polar grid, stop at hi/lo <= 1 + 1e-3.
Boltzmann m0: probes double up to m = 200, stop at hi - lo <= 1e-4 max(1, lo).
Boltzmann delta: worst of 64 angles in [0, pi], stop at hi - lo <= 1e-3 hi.
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

_GRID_N = 96         # Landau integrand sup: radius and angle nodes
_M0_CEILING = 200.0  # largest m the m0 search probes
_BLOCK_ELEMENTS = 2**15  # doubles per hyperplane-integral block; see its docstring

# the Landau sup's angle grid does not depend on delta
_COS_PSI, _SIN_PSI = read_only(np.cos(np.linspace(0.0, np.pi, _GRID_N)),
                               np.sin(np.linspace(0.0, np.pi, _GRID_N)))


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

    ``certificate`` holds the sampled values establishing the sign on each
    side of the threshold; ``resolution`` records the grid that produced
    them.  ``feasible`` is False for honest search failures.
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


def _q_point(f, v, k, q):
    """Q(f,f)(v) by the kernel's operator: Landau, or Boltzmann in Carleman form."""
    if k.operator == "landau":
        return q_landau(f, v, k, q)
    return q_boltzmann_carleman(f, v, k, q)


def contact_estimate_check(cfg, k, q):
    """Q(f,f)(v0) and the bound unit b(v0)^2 <v0>^{d+gamma}.

    The ratio lhs/bound_unit is the empirical contact constant; aggregating
    it over a configuration sweep gives a measured C for the contact-point
    estimate (whose analytic constant is non-explicit).
    """
    cfg.validate(q)
    lhs = _q_point(cfg.field, cfg.v0, k, q)
    b0 = float(cfg.barrier.value(cfg.v0))
    bound_unit = b0 * b0 * float(bracket(cfg.v0)) ** (k.dim + k.gamma)
    return lhs, bound_unit


# ---------------------------------------------------------------------------
# Landau small-velocity integrand


def _require_finite(**values):
    """Raise ValueError naming the first argument that is, or holds, a NaN or an infinity."""
    for name, value in values.items():
        if not np.all(np.isfinite(value)):
            shown = f", got {value}" if np.ndim(value) == 0 else " in every entry"
            raise ValueError(f"{name} must be finite{shown}")


def _landau_g(z0, z2, m, d, gamma):
    """G from z = e - w: its first coordinate z0 and its squared norm z2."""
    # Pi(z)e.e = 1 - (z.e)^2/|z|^2
    pi_ee = 1.0 - z0**2 / z2
    return m * z2 * ((m + 2.0) * pi_ee - (d - 1.0)) + (d - 1.0) * (d + gamma)


def landau_integrand_g(w, m, d, gamma):
    """G(w) = m|e-w|^2 [(m+2) Pi(e-w)e.e - (d-1)] + (d-1)(d+gamma).

    e is the first coordinate direction; w has shape (..., d).  Negativity of
    G on B_delta is what makes the small-velocity contact contribution
    sign-definite.
    """
    w = np.asarray(w, dtype=float)
    e = np.zeros(d)
    e[0] = 1.0
    z = e - w
    return _landau_g(z[..., 0], np.sum(z * z, axis=-1), m, d, gamma)


def landau_integrand_sup(m, d, gamma, delta):
    """Sup of G over the ball |w| <= delta, on a polar (radius, angle) grid.

    By rotational symmetry about e the domain is two-dimensional: on the
    (96, 96) grid w = rho (cos psi, sin psi, 0, ...), z = e - w has
    z0 = 1 - rho cos psi and squared norm z0^2 + (rho sin psi)^2, so no
    d-vector is formed.
    """
    _require_finite(m=m, gamma=gamma)
    if d < 2:
        raise ValueError(f"the Landau integrand needs d >= 2, got d = {d}")
    if not 0.0 < delta < 1.0:
        raise ValueError("delta must lie in (0, 1)")
    if m <= 0:
        raise ValueError("m must be positive")
    rho = np.linspace(0.0, delta, _GRID_N)[:, None]
    z0 = 1.0 - rho * _COS_PSI
    z1 = rho * _SIN_PSI
    return float(np.max(_landau_g(z0, z0 * z0 + z1 * z1, m, d, gamma)))


def landau_delta_search(m, d, gamma):
    """Largest delta with sup_{B_delta} G <= 0, by log-scale bracket + bisection.

    Requires m > d + gamma; at m = d + gamma the value at w = 0 is already 0
    and no ball works.  The search is :func:`_sign_search` with probes
    10^-14 ... 10^0 (capped at 0.999) and geometric midpoints; the
    certificate reuses its evaluations.
    """
    _require_finite(m=m, gamma=gamma)
    if d < 2:
        raise ValueError(f"the Landau integrand needs d >= 2, got d = {d}")
    if m <= d + gamma:
        raise InfeasibleError(
            f"no negativity window: G(0) = (d-1)(d+gamma-m) = "
            f"{(d - 1) * (d + gamma - m):.3g} >= 0 requires m > d + gamma"
        )
    # bracket on a log scale: near the feasibility boundary the window
    # shrinks like (m - d - gamma), so start from far below machine-threshold
    lo, hi, sup = _sign_search(
        lambda delta: landau_integrand_sup(m, d, gamma, delta),
        [min(10.0**e, 0.999) for e in np.append(np.arange(-14.0, 0.0, 0.5), 0.0)],
        mid=lambda lo, hi: float(np.sqrt(lo * hi)),
        converged=lambda lo, hi: hi / lo <= 1.0 + 1e-3,
        ok=lambda s: s <= 0.0,
    )
    if lo is None:
        raise InfeasibleError("integrand positive at every probed delta")
    # hi is None: negative all the way up to the domain edge
    points = [lo] if hi is None else [lo, min(1.05 * lo, 0.999)]
    return ThresholdReport("delta", lo, [{"delta": x, "sup": sup(x)} for x in points],
                           {"grid_n": _GRID_N, "d": d, "gamma": gamma, "m": m})


# ---------------------------------------------------------------------------
# Boltzmann hyperplane integral


@functools.lru_cache(maxsize=1)
def _hyperplane_rule(q):
    """(rho, w_rho, cos_phi, w_phi) of the hyperplane integral, once per scheme.

    The graded head of :func:`collkit.boltzmann.plane_rule` on [0, 1] and a
    geometric tail on [1, 1e4]; rho and w_rho (which carries the plane's
    measure rho) have shape (Nr, 1); cos_phi and w_phi are the first half of
    the circle at doubled weight.  Read-only, since every call shares them.
    """
    rho_h, w_h, phi, w_phi = plane_rule(q)
    rho_t, w_t = geometric_panels(1.0, 1e4, 2 * q.hyperplane_nodes)
    rho = np.concatenate([rho_h, rho_t])[:, None]
    w_rho = np.concatenate([w_h, w_t])[:, None] * rho
    return read_only(rho, w_rho, np.cos(phi[:len(phi) // 2])) + (2.0 * w_phi,)


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
    w is parallel to e), |z|^2 = 1 + rho*(2 e.ehat + rho), and
    log|z| = log1p(rho*(2 e.ehat + rho))/2 without forming z.  Nothing else
    depends on phi, so the integrand is even in phi: the midpoint azimuths
    pair up as phi <-> 2 pi - phi, and only the first half is summed, at
    weight 2 w_phi.  The value does not change when w rotates about e.  The
    bracket vanishes as z -> e; it is evaluated as L*expm1(Delta) with
    L = |e-w|^{gamma+d} r^{-2(d-1)} and
    Delta = -m log|z| + (d+gamma) log(r/|e-w|), which is exact and keeps
    full precision where the non-cutoff kernel is largest.

    The (rows, Nr, Nphi) arithmetic runs over blocks of at most
    ``_BLOCK_ELEMENTS`` = 2**15 doubles (256 KB; 14 rows of (192, 12) at the
    default scheme) in two buffers reused by every block, which stay in L2
    cache through the ~11 elementwise passes; a whole delta scan,
    (64, 192, 12), would take 1.2 MB per buffer.  Each row is still summed on
    its own over the same layout, so the values do not depend on the block size.
    Every check runs before any block: a bad row raises before a value is
    computed, and a non-finite result raises after the last.
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
    if np.any(np.linalg.norm(w, axis=-1) >= 0.5):
        raise ValueError("|w| must be < 1/2 (hyperplane domain constraint)")
    q_ew = np.linalg.norm(np.array([1.0, 0.0, 0.0]) - w, axis=-1)[:, None, None]  # |e - w|
    a = np.hypot(w[:, 1], w[:, 2])[:, None, None] / q_ew           # e.ehat = a cos(phi)

    rho, w_rho, cos_phi, w_phi = _hyperplane_rule(q)
    two_e_ehat = 2.0 * a * cos_phi
    rows = max(1, _BLOCK_ELEMENTS // (len(rho) * len(cos_phi)))
    log_z = np.empty((min(rows, len(w)), len(rho), len(cos_phi)))
    term = np.empty_like(log_z)
    out = np.empty(len(w))

    with np.errstate(over="ignore", invalid="ignore"):
        # phi-free factors, shape (B, Nr, 1)
        r = np.sqrt(rho**2 + q_ew**2)
        shift = (d + k.gamma) * np.log(r / q_ew)
        loss = q_ew ** (k.gamma + d) * r ** (-2.0 * (d - 1.0)) * k.b(rho / r) * w_rho
        gain = r ** (2.0 - d + k.gamma) * k.b(q_ew / r) * w_rho

        for start in range(0, len(w), rows):
            blk = slice(start, start + rows)
            lz, t = log_z[:len(out[blk])], term[:len(out[blk])]
            # -m log|z| in lz, then the two terms summed in t
            np.add(two_e_ehat[blk], rho, out=lz)
            lz *= rho
            np.log1p(lz, out=lz)
            lz *= -0.5 * m
            np.add(lz, shift[blk], out=t)
            np.expm1(t, out=t)
            t *= loss[blk]
            np.exp(lz, out=lz)
            lz *= gain[blk]
            t += lz
            out[blk] = np.sum(t, axis=(1, 2)) * w_phi
    if not np.all(np.isfinite(out)):
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
    ceiling, an infeasible report is returned rather than a fake threshold.
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
        cert = [{"m": _M0_CEILING, "integral": val(_M0_CEILING)}]
        return ThresholdReport("m0", None, cert, _grid_meta(q), feasible=False)
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


# ---------------------------------------------------------------------------
# Crude large-velocity bound


def crude_bound_check(f, e, k, q):
    """Q(f,f)(e) for a field satisfying the crude-bound hypotheses.

    The field declares m (``decay_exponent``) and delta
    (``inner_void_radius``); both are required.  Checked at the nodes of
    the weighted-sup-norm sample and at e: f <= |v|^{-m}, f == 0 inside
    |v| < delta, and f(e) = 1 at the given unit vector.
    """
    e = np.asarray(e, dtype=float)
    if abs(np.linalg.norm(e) - 1.0) > 1e-9:
        raise ConfigurationError("e must be a unit vector")
    m, delta = f.decay_exponent, f.inner_void_radius
    if m is None:
        raise ConfigurationError("field must declare its decay exponent (decay_exponent unset)")
    if delta is None:
        raise ConfigurationError("field must vanish on an inner ball (void radius unset)")
    if abs(float(f(e)) - 1.0) > 1e-6:
        raise ConfigurationError("field must equal 1 at e")
    pts = _norm_sample_points(f.dim, q)
    rr = np.linalg.norm(pts, axis=-1)
    vals = f(pts)
    if np.any(vals[rr < delta] != 0.0):
        raise ConfigurationError(f"field is nonzero inside its declared void radius {delta}")
    mask = rr > 1e-12
    with np.errstate(divide="ignore"):
        cap = rr[mask] ** (-m)
    if np.any(vals[mask] > cap * (1.0 + 1e-9)):
        raise ConfigurationError("field exceeds |v|^{-m} at a sample node")
    return _q_point(f, e, k, q)
