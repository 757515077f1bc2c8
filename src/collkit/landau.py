"""Landau collision operator in non-divergence form.

Q(f,f)(v) = a_bar_ij(v) d_ij f(v) + c_bar(v) f(v), with

    a_bar_ij(v) = integral |v-w|^{2+gamma} Pi_ij(v-w) f(w) dw,
    c_bar(v)    = (d-1)(d+gamma) integral |v-w|^gamma f(w) dw   (gamma > -d)
    c_bar(v)    = (d-1) |S^{d-1}| f(v)                          (gamma = -d),

where Pi(z) is the projection onto the plane orthogonal to z.  All integrals
use polar coordinates centered at v so the radial measure r^{d-1} absorbs the
kernel singularity (integrand ~ r^{d-1+gamma}, integrable for gamma > -d).
"""

from dataclasses import dataclass

import numpy as np

from .exceptions import UnsupportedParameterError
from .util import geometric_panels, graded_panels, sphere_area, sphere_rule


@dataclass(frozen=True)
class LandauCoefficients:
    """Diffusion matrix and reaction coefficient of the operator at one point.

    ``truncation_error`` is the a priori tail estimate
    A * V^{d - m_f + 2 + gamma} from the field's declared decay; it is a
    reported diagnostic, not an enforced bound.
    """

    a_bar: np.ndarray
    c_bar: float
    truncation_error: float


def polar_nodes(v, dim, q):
    """Quadrature nodes w = v + r*sigma covering the ball |w - v| <= V + |v|.

    Returns (points (Nr, Ns, dim), r (Nr,), radial weights including r^{d-1},
    sigma (Ns, dim), angular weights).  Graded panels toward r = 0 resolve
    the kernel singularity; log-spaced panels cover the tail.
    """
    v = np.asarray(v, dtype=float)
    r_max = q.outer_radius + float(np.linalg.norm(v))
    r_head, w_head = graded_panels(0.0, q.polar_radius, q.radial_nodes, ratio=2.0)
    r_tail, w_tail = geometric_panels(q.polar_radius, r_max, q.radial_nodes)
    r = np.concatenate([r_head, r_tail])
    wr = np.concatenate([w_head, w_tail]) * r ** (dim - 1)
    sigma, ws = sphere_rule(dim, q.angular_nodes)
    pts = v[None, None, :] + r[:, None, None] * sigma[None, :, :]
    return pts, r, wr, sigma, ws


def polar_convolution(r, wr, ws, vals, power, dim):
    """(f * |.|^power)(v) from vals = f at the :func:`polar_nodes` points; needs power > -dim."""
    if power <= -dim:
        raise UnsupportedParameterError(
            f"convolution power {power} not integrable in dimension {dim}")
    return float(np.einsum("i,j,ij->", wr * r**power, ws, vals))


def singular_convolution(f, v, power, q):
    """(f * |.|^power)(v) by the polar rule above; requires power > -dim."""
    pts, r, wr, _, ws = polar_nodes(v, f.dim, q)
    return polar_convolution(r, wr, ws, f(pts), power, f.dim)


def landau_coefficients(f, v, k, q):
    """Evaluate (a_bar, c_bar) at v for the Landau kernel k."""
    if k.operator != "landau":
        raise ValueError("landau_coefficients requires a Landau kernel")
    d = k.dim
    v = k.checked_point(f, v, "landau_coefficients")

    pts, r, wr, sigma, ws = polar_nodes(v, d, q)
    vals = f(pts)
    # Pi(v - w) = Pi(-r sigma) = Id - sigma sigma^T
    proj = np.eye(d)[None, :, :] - sigma[:, :, None] * sigma[:, None, :]
    radial_a = wr * r ** (2.0 + k.gamma)
    # exactly symmetric: proj is, and every entry sums in the same order
    a_bar = np.einsum("i,j,ij,jkl->kl", radial_a, ws, vals, proj)

    if k.gamma == -d:
        c_bar = (d - 1) * sphere_area(d) * float(f(v))
    else:
        c_bar = (d - 1) * (d + k.gamma) * polar_convolution(r, wr, ws, vals, k.gamma, d)

    eigs = np.linalg.eigvalsh(a_bar)
    trace = float(np.trace(a_bar))
    if trace > 0 and eigs[0] < -q.rel_tol * trace:
        raise RuntimeError(
            f"diffusion matrix lost positive semidefiniteness: min eig {eigs[0]:.3e}"
        )

    trunc = f.amplitude * q.outer_radius ** (d - f.decay_exponent + 2.0 + k.gamma)
    return LandauCoefficients(a_bar=a_bar, c_bar=c_bar, truncation_error=float(trunc))


def q_landau(f, v, k, q):
    """Landau operator value a_bar : D^2 f + c_bar f at the point v."""
    coeffs = landau_coefficients(f, v, k, q)
    hess = f.hessian(v, rel_tol=q.rel_tol)
    return float(np.sum(coeffs.a_bar * hess) + coeffs.c_bar * f(np.asarray(v, float)))
