"""Boltzmann collision operator: sigma-representation and Carleman split.

Two evaluation routes are provided and cross-validated:

* ``q_boltzmann_sigma``: the textbook double integral over (v_*, sigma),
  usable only for angularly integrable (cutoff) cross-sections; its
  outgoing pairs come from the vectorized :func:`post_collision_map`.
* ``q_boltzmann_carleman``: the singular/nonsingular split Q = Q_s + Q_ns,
  valid for cutoff and non-cutoff kernels alike.

Convention for the split: deviation angles are folded onto theta <= pi/2 by
replacing b with b_folded(x) = b(x) + b(sqrt(1-x^2)).  The total operator is
unchanged (the sigma integral is symmetric under sigma -> -sigma after
swapping the outgoing pair), but the fold is essential: with the full
angular range the split's gain and loss pieces diverge separately whenever
gamma >= -1.  Then

    Q_s(f,f)(v)  = int_{theta<=pi/2} b_folded [f(v') - f(v)] f(v'_*) |v-v_*|^gamma
    Q_ns(f,f)(v) = C_b f(v) (f * |.|^gamma)(v),

with Q_s evaluated in Carleman coordinates (outer point v'_* = v + u*eta,
inner point v' on the plane through v orthogonal to eta, restricted to
|v'-v| <= u, kernel B2 = 2^{d-1} r^{2-d+gamma} b_folded(rho/r) / u where
r^2 = rho^2 + u^2) and C_b = ``KernelSpec.cb``, computed once per kernel
by the cancellation integral in :func:`collkit.core.cb_constant`.

Samples and weights.  The kernel (gamma, b) enters either route only through
weights, so each route is split into a sample build, which does every field
evaluation and depends on (f, v, q) alone, and a reduction, which applies
one kernel's weights and evaluates no field point.  Each route memoizes its
sample build for the most recent (f, v, q) only, so a kernel sweep at one
point samples f once, and a call at any other point builds afresh.  This
relies on the purity contract of :class:`collkit.core.VelocityField`: fields
that compare equal (the same evaluators and metadata) give the same values.
A field that cannot be hashed is sampled without the memo.

* sigma samples: f(v), f(v_*) in one call, and f(v') in one call per radial
  node.  v'_*(sigma) = v'(-sigma), and the sphere rule is antipodal bit for
  bit, so one :func:`post_collision_map` call on half the sigma rows gives
  every v' row, and f(v'_*) is a row permutation of f(v').  The products
  f(v')f(v'_*) - f(v)f(v_*) are summed at once over the (sigma, omega) pairs
  that share a deviation angle and a weight
  (:func:`collkit.util.sphere_pair_classes`); the reduction evaluates b once
  per class and r^gamma once per radial node.
* Carleman samples: f(v), the outer values f(v + u*eta), and per radial
  node u the plane sums of w_eta f(v + u*eta) [f(v') - f(v)] over eta and
  the inner azimuths, on the inner radii rho = u*x.  The reduction forms B2
  on the (u, x) grid, contracts it with those sums, and takes Q_ns from the
  outer values.  A plane whose outer value is exactly 0 adds 0 * inner, so
  its inner points are neither built nor evaluated; a radial node with no
  such plane left is skipped.  This keys on exact zeros the route computes
  anyway (compactly supported fields), so results move at most by summation
  order.  Scope of the finiteness check: ``VelocityField`` rejects a
  non-finite value only at points it is asked for, so inner points on a
  zero-weight plane are not checked; every value that enters the sum is.

Why Q_s needs no regularization for a non-cutoff kernel.  Near rho = 0 the
bracket is f(v') - f(v) = rho dir . grad f(v) + O(rho^2), and for
b ~ x^{-2-2s} (0 < s < 1) the plane measure times B2 is ~ rho^{-1-2s}, so
only the first-order term can make the plane integral diverge.  That term
is odd in dir.  The inner azimuths are an even midpoint rule
(:func:`collkit.util.circle_rule` with 2 * angular_nodes points), whose
points come in antipodal pairs, so the term cancels on every circle
rho = const and only the integrable O(rho^2) remainder is summed.  This
rests on the azimuth count being even, which the code does not show.

:func:`collision_frequency_scale` is the size of the gain and loss terms
separately, against which the error of a point value is measured.

Both routes reject a field or point whose dimension is not the kernel's
before any quadrature (:meth:`collkit.core.KernelSpec.checked_point`).  The
Carleman route also rejects gamma <= -d before any sampling.
"""

import functools
import math

import numpy as np
from scipy.integrate import quad

from .exceptions import CapabilityError, UnsupportedParameterError
from .landau import polar_convolution, polar_nodes
from .util import (
    circle_rule, graded_panels, orthonormal_complement, read_only, sphere_antipodes,
    sphere_area, sphere_pair_classes,
)


def post_collision_map(v, v_star, sigma, r):
    """Outgoing pair (v', v'_*) for the incoming pair (v, v_*) and unit sigma.

    v'   = (v + v_*)/2 + r sigma / 2
    v'_* = (v + v_*)/2 - r sigma / 2,    r = |v - v_*|

    Arguments broadcast over leading axes (r has no trailing vector axis).
    r is passed in because the sigma route already has it as its radial node.
    """
    sigma = np.asarray(sigma, dtype=float)
    if np.any(np.abs(np.linalg.norm(sigma, axis=-1) - 1.0) > 1e-12):
        raise ValueError("sigma must be a unit vector")
    mid = 0.5 * (np.asarray(v, dtype=float) + v_star)
    half = 0.5 * np.asarray(r, dtype=float)[..., None] * sigma
    return mid + half, mid - half


# ---------------------------------------------------------------------------
# Samples, memoized for the most recent (f, v, q)


def _memo_last(build):
    """``build`` memoized for its most recent arguments only; unhashable ones bypass the memo."""
    memo = functools.lru_cache(maxsize=1)(build)

    @functools.wraps(build)
    def call(*key):
        try:
            hash(key)
        except TypeError:
            return build(*key)
        return memo(*key)

    return call


# ---------------------------------------------------------------------------
# sigma-representation


@_memo_last
def _sigma_samples(f, v, q):
    """Field samples of the sigma route at the point ``v`` (a tuple).

    Returns (r, wr, sums, cos_t, w_pair): the radial nodes and weights, and
    per radial node i and deviation class c, sums[i, c] = the sum of
    f(v')f(v'_*) - f(v)f(v_*) over the (sigma, omega) pairs of class c;
    cos_t[c] = -sigma . omega and w_pair[c] = w_sigma * w_omega on that class.
    """
    v = np.array(v)
    dim, n_polar = len(v), q.angular_nodes
    pts, r, wr, omega, w_om = polar_nodes(v, dim, q)
    sigma, w_sg = omega, w_om  # the same sphere rule serves both angles
    # the rule is antipodal bit for bit: row antipode[s] is -sigma[s]
    antipode = sphere_antipodes(dim, n_polar)
    half = np.flatnonzero(np.arange(len(sigma)) < antipode)
    classes, (rep_s, rep_o) = sphere_pair_classes(dim, n_polar)
    classes = classes.reshape(len(sigma), len(omega))
    # a pair (sigma, omega) and its antipodal pair (-sigma, omega) have the
    # same value, so each value is binned into both of their classes
    pair_classes = np.concatenate([classes[half], classes[antipode[half]]]).ravel()
    f_v = float(f(v))
    f_star = f(pts)                               # (Nr, Nom): f(v_*) = f(v + r omega)
    sums = np.empty((len(r), len(rep_s)))
    for i in range(len(r)):
        # v'_*(sigma) = v'(-sigma) exactly, so the map's two outputs on half
        # the rows are v' and v'_* there, and the rows of -sigma swap them
        vp = post_collision_map(v, pts[i][None], sigma[half, None], r[i])
        f_vp, f_vps = f(np.concatenate(vp)).reshape(2, len(half), len(omega))
        vals = (f_vp * f_vps - f_v * f_star[i]).ravel()
        sums[i] = np.bincount(pair_classes, weights=np.concatenate([vals, vals]),
                              minlength=len(rep_s))
    # cos(theta) = sigma . (v - v_*)/|v - v_*| = -sigma . omega
    cos_t = -np.einsum("ck,ck->c", sigma[rep_s], omega[rep_o])
    return read_only(r, wr, sums, cos_t, w_sg[rep_s] * w_om[rep_o])


def q_boltzmann_sigma(f, v, k, q):
    """Collision operator by direct (v_*, sigma) quadrature; cutoff kernels only."""
    if k.operator != "boltzmann":
        raise ValueError("q_boltzmann_sigma requires a Boltzmann kernel")
    if not k.is_cutoff:
        raise CapabilityError(
            "sigma-representation diverges for non-cutoff kernels; "
            "use q_boltzmann_carleman"
        )
    v = k.checked_point(f, v, "q_boltzmann_sigma")
    r, wr, sums, cos_t, w_pair = _sigma_samples(f, tuple(v), q)
    sin_half = np.sqrt(np.clip(0.5 * (1.0 - cos_t), 0.0, 1.0))
    return float((wr * r**k.gamma) @ sums @ (w_pair * k.b(sin_half)))


# ---------------------------------------------------------------------------
# Carleman representation


def plane_rule(q):
    """(x, wx, phi, w_phi): graded radii on [0, 1] and the azimuths of a Carleman plane."""
    x, wx = graded_panels(0.0, 1.0, q.hyperplane_nodes, ratio=2.5)
    phi, w_phi = circle_rule(2 * q.angular_nodes)
    return x, wx, phi, w_phi


@_memo_last
def _carleman_samples(f, v, q):
    """Field samples of the Carleman route at the point ``v`` (a tuple; d = 3).

    Returns (f_v, outer, f_outer, plane, inner): f(v); the outer rule
    (u, wu, w_eta) and the values f(v + u eta) on it; the plane rule
    (x, wx, w_phi); and per radial node i and inner radius rho = u_i x_j,
    inner[i, j] = the sum over eta and the inner azimuths of
    w_eta f(v + u_i eta) [f(v') - f(v)].  The inner azimuth count is even,
    so the first-order term of f(v') - f(v) cancels in each such sum.
    """
    v = np.array(v)
    f_v = float(f(v))
    outer, u, wu, eta, w_eta = polar_nodes(v, len(v), q)
    f_outer = f(outer)                         # (Nu, Neta)
    plane_w = w_eta * f_outer
    # fixed unit inner radial grid; per-outer-node scaling rho = u * x makes
    # the angular restriction rho <= u exact
    e1, e2 = orthonormal_complement(eta)
    x, wx, phi, w_phi = plane_rule(q)
    dirs = (np.cos(phi)[None, :, None] * e1[:, None, :]
            + np.sin(phi)[None, :, None] * e2[:, None, :])  # (Neta, Nphi, 3)
    inner = np.zeros((len(u), len(x)))
    for i in range(len(u)):
        # a plane whose outer value is exactly 0 adds 0 * inner: skip it
        live = np.flatnonzero(f_outer[i])
        if live.size == 0:
            continue
        vp = v + (u[i] * x)[:, None, None, None] * dirs[None, live]  # (Nx, Nlive, Nphi, 3)
        inner[i] = np.sum(f(vp) - f_v, axis=2) @ plane_w[i, live]
    read_only(u, wu, w_eta, f_outer, x, wx, inner)
    return f_v, (u, wu, w_eta), f_outer, (x, wx, w_phi), inner


def q_boltzmann_carleman(f, v, k, q):
    """Collision operator as Q_s + Q_ns in Carleman coordinates.

    Works for cutoff and non-cutoff kernels alike, with no regularization:
    the inner azimuth count is even, so the odd first-order term of
    f(v') - f(v), the one term that is not integrable against a non-cutoff
    B2, cancels on every circle of the plane rule.
    """
    if k.operator != "boltzmann":
        raise ValueError("q_boltzmann_carleman requires a Boltzmann kernel")
    v = k.checked_point(f, v, "q_boltzmann_carleman")
    d = k.dim
    if d != 3:
        raise UnsupportedParameterError("Carleman evaluation is implemented for d = 3")
    if k.gamma <= -d:
        raise UnsupportedParameterError(
            f"Carleman evaluation needs gamma > -{d}: the convolution of Q_ns diverges")
    f_v, (u, wu, w_eta), f_outer, (x, wx, w_phi), inner = _carleman_samples(f, tuple(v), q)
    qns = k.cb * f_v * polar_convolution(u, wu, w_eta, f_outer, k.gamma)
    rho = u[:, None] * x[None, :]
    rr = np.sqrt(rho * rho + (u * u)[:, None])
    b2 = 2.0 ** (d - 1) * rr ** (k.gamma + 2.0 - d) * k.b_folded(rho / rr) / u[:, None]
    # wu already carries the radial measure u^{d-1}; the plane's is rho d rho
    qs = w_phi * np.sum((wu * u)[:, None] * wx * rho * b2 * inner)
    return float(qs + qns)


# ---------------------------------------------------------------------------
# Error scale


def collision_frequency_scale(f, v, k, q):
    """f(v) * (angular mass of b) * (f * |.|^gamma)(v), valid down to gamma = -d.

    The size of the gain and loss terms separately: the scale against which a
    Boltzmann point value's error is measured.  The convolution is the polar
    rule's sum (:func:`collkit.landau.polar_convolution`), which is finite
    for any power, so at gamma = -d it is still a finite scale.
    A non-cutoff b has no finite angular mass, so it is rejected.
    """
    if not k.is_cutoff:
        raise ValueError("collision_frequency_scale needs a cutoff Boltzmann kernel; "
                         "the angular mass of b diverges otherwise")
    pts, r, wr, _, ws = polar_nodes(v, k.dim, q)
    conv = polar_convolution(r, wr, ws, f(pts), k.gamma)
    ang, _ = quad(lambda t: math.sin(t) ** (k.dim - 2) * float(k.b(math.sin(t / 2.0))),
                  0.0, math.pi)
    return float(f(v)) * sphere_area(k.dim - 1) * ang * conv
