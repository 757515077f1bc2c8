"""Numerical certification of the barrier comparison estimates.

Everything here produces *certificates at a resolution*, not proofs: each
threshold search reports the sampled extremal values and the grid that
produced them, and claims nothing beyond that resolution.

Contents:

* contact-point estimate: measure Q(f,f)(v0) / [b(v0)^2 <v0>^{d+gamma}] at
  barrier contact points;
* the small-velocity Landau integrand G(w) and its feasibility window in
  delta, with the exact boundary m > d + gamma;
* the Boltzmann hyperplane integral (the inner integral the contact
  argument reduces to), the decay threshold m0 where it turns negative at
  w = 0, and the delta window in |w|.  The integral takes a batch of w of
  shape (..., 3) and returns one value per row, so the delta search scans
  all its angles in one call.  On the plane z = e + rho*ehat it uses
  |z|^2 = 1 + rho*(2 e.ehat + rho), i.e. log|z| = log1p(...)/2, so |z| is
  never formed and |z|^{-m} = exp(-m log|z|) keeps full precision near
  z = e;
* the crude large-velocity bound Q(f,f)(e) for shell-type fields.
"""

import json
from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from .boltzmann import q_boltzmann_carleman
from .core import _norm_sample_points
from .exceptions import ConfigurationError, InfeasibleError
from .landau import q_landau
from .util import bracket, geometric_panels, graded_panels, orthonormal_complement


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
# Contact-point estimate


def contact_estimate_check(cfg, k, q):
    """Q(f,f)(v0) and the bound unit b(v0)^2 <v0>^{d+gamma}.

    The ratio lhs/bound_unit is the empirical contact constant; aggregating
    it over a configuration sweep gives a measured C for the contact-point
    estimate (whose analytic constant is non-explicit).
    """
    cfg.validate(q)
    if k.operator == "landau":
        lhs = q_landau(cfg.field, cfg.v0, k, q)
    else:
        lhs = q_boltzmann_carleman(cfg.field, cfg.v0, k, q)
    b0 = float(cfg.barrier.value(cfg.v0))
    bound_unit = b0 * b0 * float(bracket(cfg.v0)) ** (k.dim + k.gamma)
    return lhs, bound_unit


# ---------------------------------------------------------------------------
# Landau small-velocity integrand


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
    z2 = np.sum(z * z, axis=-1)
    # Pi(z)e.e = 1 - (z.e)^2/|z|^2
    pi_ee = 1.0 - z[..., 0] ** 2 / z2
    return m * z2 * ((m + 2.0) * pi_ee - (d - 1.0)) + (d - 1.0) * (d + gamma)


def landau_integrand_sup(m, d, gamma, delta, grid_n=96):
    """Sup of G over the ball |w| <= delta, on a polar (radius, angle) grid.

    By rotational symmetry about e the domain is two-dimensional.
    """
    if not 0.0 < delta < 1.0:
        raise ValueError("delta must lie in (0, 1)")
    if m <= 0:
        raise ValueError("m must be positive")
    rho = np.linspace(0.0, delta, grid_n)
    psi = np.linspace(0.0, np.pi, grid_n)
    w = np.zeros((grid_n, grid_n, d))
    w[..., 0] = rho[:, None] * np.cos(psi)[None, :]
    w[..., 1] = rho[:, None] * np.sin(psi)[None, :]
    return float(np.max(landau_integrand_g(w, m, d, gamma)))


def landau_delta_search(m, d, gamma, rel_tol=1e-3, grid_n=96):
    """Largest delta with sup_{B_delta} G <= 0, by log-scale bracket + bisection.

    Requires m > d + gamma; at m = d + gamma the value at w = 0 is already 0
    and no ball works.
    """
    if m <= d + gamma:
        raise InfeasibleError(
            f"no negativity window: G(0) = (d-1)(d+gamma-m) = "
            f"{(d - 1) * (d + gamma - m):.3g} >= 0 requires m > d + gamma"
        )
    # bracket on a log scale: near the feasibility boundary the window
    # shrinks like (m - d - gamma), so start from far below machine-threshold
    lo, hi = None, None
    for exp in np.append(np.arange(-14.0, 0.0, 0.5), 0.0):
        delta = min(10.0**exp, 0.999)
        s = landau_integrand_sup(m, d, gamma, delta, grid_n)
        if s <= 0.0:
            lo = delta
        else:
            hi = delta
            break
    if lo is None:
        raise InfeasibleError("integrand positive at every probed delta")
    if hi is None:
        # negative all the way up to the domain edge
        delta_star = 0.999
        cert = [{"delta": delta_star,
                 "sup": landau_integrand_sup(m, d, gamma, delta_star, grid_n)}]
        return ThresholdReport("delta", delta_star, cert,
                               {"grid_n": grid_n, "d": d, "gamma": gamma, "m": m})
    while hi / lo > 1.0 + rel_tol:
        mid = float(np.sqrt(lo * hi))
        if landau_integrand_sup(m, d, gamma, mid, grid_n) <= 0.0:
            lo = mid
        else:
            hi = mid
    delta_star = lo
    cert = [
        {"delta": delta_star, "sup": landau_integrand_sup(m, d, gamma, delta_star, grid_n)},
        {"delta": min(1.05 * delta_star, 0.999),
         "sup": landau_integrand_sup(m, d, gamma, min(1.05 * delta_star, 0.999), grid_n)},
    ]
    return ThresholdReport("delta", delta_star, cert,
                           {"grid_n": grid_n, "d": d, "gamma": gamma, "m": m})


# ---------------------------------------------------------------------------
# Boltzmann hyperplane integral


def boltzmann_hyperplane_integral(m, w, k, q):
    """Inner hyperplane integral of the Boltzmann contact argument.

    Integrates, over the plane through the unit vector e orthogonal to
    (w - e), with r = |z - w|:

        [ (|z|^{-m} r^{2-d+gamma} - |e-w|^{gamma+d} r^{-2(d-1)}) b(|e-z|/r)
          + |z|^{-m} r^{2-d+gamma} b(|e-w|/r) ] dz.

    ``w`` has shape (..., 3) with every row |w| < 1/2; the result has shape
    ``w.shape[:-1]``, one integral per row, and a single point of shape (3,)
    gives a float.  Scans over many w (the delta search) should pass them in
    one call: the radial rule is built once and the arithmetic runs over all
    rows together.

    The plane is parametrised as z = e + rho*ehat with ehat a unit vector
    orthogonal to (e - w), so |z|^2 = 1 + rho*(2 e.ehat + rho) and
    log|z| = log1p(rho*(2 e.ehat + rho))/2 without forming z.  The bracket
    vanishes as z -> e; it is evaluated as A*expm1(Delta) with
    A = |e-w|^{gamma+d} r^{-2(d-1)} and
    Delta = -m log|z| + (d+gamma) log(r/|e-w|), which is exact and keeps
    full precision where the non-cutoff kernel is largest.
    """
    d = k.dim
    if d != 3:
        raise NotImplementedError("hyperplane integral implemented for d = 3")
    w = np.asarray(w, dtype=float)
    if w.shape[-1:] != (d,):
        raise ValueError(f"w must have shape (..., {d}), got {w.shape}")
    batch = w.shape[:-1]
    w = w.reshape(-1, d)
    if np.any(np.linalg.norm(w, axis=-1) >= 0.5):
        raise ValueError("|w| must be < 1/2 (hyperplane domain constraint)")
    ew = np.array([1.0, 0.0, 0.0]) - w
    q_ew = np.linalg.norm(ew, axis=-1)[:, None, None]              # |e - w|, (B, 1, 1)
    e1, e2 = orthonormal_complement(ew / q_ew[:, :, 0])

    rho_h, w_h = graded_panels(0.0, 1.0, q.hyperplane_nodes, 4, ratio=2.5)
    rho_t, w_t = geometric_panels(1.0, 1e4, 2 * q.hyperplane_nodes, 4)
    rho = np.concatenate([rho_h, rho_t])[:, None]                 # (Nr, 1)
    w_rho = np.concatenate([w_h, w_t])[:, None] * rho

    n_phi = 2 * q.angular_nodes
    phi = (np.arange(n_phi) + 0.5) * 2.0 * np.pi / n_phi
    e_ehat = (np.cos(phi) * e1[:, :1] + np.sin(phi) * e2[:, :1])[:, None, :]

    # phi-free factors, shape (B, Nr, 1)
    r = np.sqrt(rho**2 + q_ew**2)
    shift = (d + k.gamma) * np.log(r / q_ew)
    loss = q_ew ** (k.gamma + d) * r ** (-2.0 * (d - 1.0)) * k.b(rho / r) * w_rho
    gain = r ** (2.0 - d + k.gamma) * k.b(q_ew / r) * w_rho

    # two full-size (B, Nr, Nphi) buffers: -m log|z|, then the two terms
    log_z = np.add(2.0 * e_ehat, rho)
    log_z *= rho
    np.log1p(log_z, out=log_z)
    log_z *= -0.5 * m
    term = np.add(log_z, shift)
    np.expm1(term, out=term)
    term *= loss
    np.exp(log_z, out=log_z)
    log_z *= gain
    term += log_z
    out = np.sum(term, axis=(1, 2)) * (2.0 * np.pi / n_phi)
    return float(out[0]) if not batch else out.reshape(batch)


def boltzmann_m0_search(k, q, ceiling=200.0, rel_tol=1e-4):
    """Smallest m at which the origin hyperplane integral turns negative.

    The integral is monotone decreasing in m (|z| >= 1 on the plane), so a
    doubling bracket plus bisection finds the sign change.  If no sign change
    occurs below the ceiling, an infeasible report is returned rather than a
    fake threshold.
    """
    if k.operator != "boltzmann":
        raise ValueError("boltzmann_m0_search requires a Boltzmann kernel")
    w0 = np.zeros(k.dim)

    def val(m):
        return boltzmann_hyperplane_integral(m, w0, k, q)

    m_lo = k.gamma + 2.0  # below this the tail of the integral diverges
    v_lo = val(m_lo)
    if v_lo < 0.0:
        cert = [{"m": m_lo, "integral": v_lo}]
        return ThresholdReport("m0", m_lo, cert, _grid_meta(q))
    m_hi = max(2.0 * abs(m_lo), 8.0)
    while val(m_hi) >= 0.0:
        m_hi *= 2.0
        if m_hi > ceiling:
            cert = [{"m": ceiling, "integral": val(ceiling)}]
            return ThresholdReport("m0", None, cert, _grid_meta(q), feasible=False)
    while m_hi - m_lo > rel_tol * max(1.0, m_lo):
        mid = 0.5 * (m_lo + m_hi)
        if val(mid) >= 0.0:
            m_lo = mid
        else:
            m_hi = mid
    cert = [
        {"m": m_lo, "integral": val(m_lo)},
        {"m": m_hi, "integral": val(m_hi)},
    ]
    return ThresholdReport("m0", 0.5 * (m_lo + m_hi), cert, _grid_meta(q))


def boltzmann_delta_search(m, k, q, n_angles=64, rel_tol=1e-3):
    """Largest |w| window on which the hyperplane integral stays nonpositive.

    Only the angle between w and e matters; it is scanned over [0, pi]
    before bisecting in |w|.  Requires m above the kernel's m0 threshold.
    """
    m0 = boltzmann_m0_search(k, q)
    if not m0.feasible or m <= m0.value:
        raise InfeasibleError(
            f"m = {m} is not above the origin threshold m0 = {m0.value}"
        )
    angles = np.linspace(0.0, np.pi, n_angles)
    directions = np.stack([np.cos(angles), np.sin(angles), np.zeros(n_angles)], axis=-1)

    def worst(a):
        vals = boltzmann_hyperplane_integral(m, a * directions, k, q)
        i = int(np.argmax(vals))
        return float(vals[i]), angles[i]

    lo, hi = None, None
    for a in np.geomspace(1e-4, 0.499, 24):
        v, _ = worst(a)
        if v <= 0.0:
            lo = a
        else:
            hi = a
            break
    if lo is None:
        raise InfeasibleError("integral positive at every probed |w|")
    if hi is None:
        v, psi = worst(0.499)
        return ThresholdReport(
            "delta", 0.499,
            [{"abs_w": 0.499, "worst_angle": psi, "integral": v}],
            {**_grid_meta(q), "n_angles": n_angles, "m": m},
        )
    while hi - lo > rel_tol * hi:
        mid = 0.5 * (lo + hi)
        v, _ = worst(mid)
        if v <= 0.0:
            lo = mid
        else:
            hi = mid
    v_lo, psi_lo = worst(lo)
    v_hi, psi_hi = worst(hi)
    cert = [
        {"abs_w": lo, "worst_angle": psi_lo, "integral": v_lo},
        {"abs_w": hi, "worst_angle": psi_hi, "integral": v_hi},
    ]
    return ThresholdReport("delta", lo, cert,
                           {**_grid_meta(q), "n_angles": n_angles, "m": m})


def _grid_meta(q):
    return {
        "hyperplane_nodes": q.hyperplane_nodes,
        "angular_nodes": q.angular_nodes,
        "radial_nodes": q.radial_nodes,
        "outer_radius": q.outer_radius,
    }


# ---------------------------------------------------------------------------
# Crude large-velocity bound


def crude_bound_check(f, e, k, q):
    """Q(f,f)(e) for a field satisfying the crude-bound hypotheses.

    Hypotheses checked on a sample grid: f <= |v|^{-m} with m the field's
    declared decay exponent, f vanishes on an inner ball (inner_void_radius
    set), and f(e) = 1 at the given unit vector.
    """
    e = np.asarray(e, dtype=float)
    if abs(np.linalg.norm(e) - 1.0) > 1e-9:
        raise ConfigurationError("e must be a unit vector")
    if f.inner_void_radius is None:
        raise ConfigurationError("field must vanish on an inner ball (void radius unset)")
    if abs(float(f(e)) - 1.0) > 1e-6:
        raise ConfigurationError("field must equal 1 at e")
    m = f.decay_exponent
    pts = _norm_sample_points(f.dim, q)
    rr = np.linalg.norm(pts, axis=-1)
    mask = rr > 1e-12
    with np.errstate(divide="ignore"):
        cap = rr[mask] ** (-m)
    if np.any(f(pts[mask]) > cap * (1.0 + 1e-9)):
        raise ConfigurationError("field exceeds |v|^{-m} at a sample node")
    if k.operator == "landau":
        return q_landau(f, e, k, q)
    return q_boltzmann_carleman(f, e, k, q)
