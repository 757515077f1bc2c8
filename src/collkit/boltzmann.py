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

Both routes evaluate the field only where they read a value they do not
already have, and only where it can change the sum:

* sigma route: v'_*(sigma) = v'(-sigma), and the sphere rule is antipodal
  bit for bit, so f(v'_*) is a fixed row permutation of f(v') and only v'
  is evaluated (one field evaluation per radial node instead of two).
* Carleman route: a plane whose outer value f(v + u*eta) is exactly 0 adds
  0 * inner, so its inner points are neither built nor evaluated; a radial
  node with no such plane left is skipped.  This keys on exact zeros the
  route computes anyway (compactly supported fields), so results move at
  most by summation order.  Scope of the finiteness check: ``VelocityField``
  rejects a non-finite value only at points it is asked for, so inner
  points on a zero-weight plane are no longer checked; every value that
  enters the sum still is.

Both routes reject a field or point whose dimension is not the kernel's
before any quadrature (:meth:`collkit.core.KernelSpec.checked_point`).
"""

import numpy as np

from .exceptions import CapabilityError, UnsupportedParameterError
from .landau import polar_nodes, singular_convolution
from .util import circle_rule, graded_panels, orthonormal_complement


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
# sigma-representation


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
    pts, r, wr, omega, w_om = polar_nodes(v, k.dim, q)
    sigma, w_sg = omega, w_om  # the same sphere rule serves both angles
    # the rule is antipodal bit for bit (util.sphere_rule): row antipode[s]
    # is -sigma[s], found by reversing the polar index and shifting the
    # azimuth by half a turn
    n_azim = 2 * q.angular_nodes
    rows = np.arange(len(sigma)).reshape(-1, n_azim)
    antipode = np.roll(rows[::-1], n_azim // 2, axis=1).ravel()
    f_v = float(f(v))
    # cos(theta) = sigma . (v - v_*)/|v - v_*| = -sigma . omega
    cos_t = -sigma @ omega.T                      # (Nsig, Nom)
    sin_half = np.sqrt(np.clip(0.5 * (1.0 - cos_t), 0.0, 1.0))
    b_vals = k.b(sin_half)
    total = 0.0
    for i in range(len(r)):
        vs = pts[i]                               # (Nom, d) = v + r_i omega
        f_vs = f(vs)
        vp, _ = post_collision_map(v, vs[None], sigma[:, None], r[i])
        f_vp = f(vp)                              # (Nsig, Nom)
        # v'_*(sigma) = v'(-sigma) exactly, so f(v'_*) is a row permutation
        vals = f_vp * f_vp[antipode] - f_v * f_vs[None, :]
        total += wr[i] * r[i] ** k.gamma * np.einsum(
            "s,so,so,o->", w_sg, b_vals, vals, w_om
        )
    return float(total)


# ---------------------------------------------------------------------------
# Carleman representation


def _carleman_qs(f, v, f_v, k, q):
    d = k.dim
    if d != 3:
        raise UnsupportedParameterError("Carleman evaluation is implemented for d = 3")
    use_taylor = not k.is_cutoff
    if use_taylor:
        if f.grad_eval is None:
            raise CapabilityError(
                "non-cutoff Carleman evaluation needs an exact gradient"
            )
        grad_v = np.asarray(f.grad_eval(v), dtype=float)

    # outer radial nodes for u = |v'_* - v|
    _, u, wu, eta, w_eta = polar_nodes(v, d, q)
    e1, e2 = orthonormal_complement(eta)

    # fixed unit inner radial grid; per-outer-node scaling rho = u * x makes
    # the angular restriction rho <= u exact
    x, wx = graded_panels(0.0, 1.0, q.hyperplane_nodes, 4, ratio=2.5)
    phi, w_phi = circle_rule(2 * q.angular_nodes)
    dirs = (np.cos(phi)[None, :, None] * e1[:, None, :]
            + np.sin(phi)[None, :, None] * e2[:, None, :])  # (Neta, Nphi, 3)

    total = 0.0
    for i in range(len(u)):
        ui = u[i]
        vps = v + ui * eta                     # (Neta, 3)
        f_vps = f(vps)
        # a plane whose outer value is exactly 0 adds 0 * inner: skip it
        live = np.flatnonzero(f_vps)
        if live.size == 0:
            continue
        rho = ui * x
        w_rho = ui * wx
        rr = np.sqrt(rho * rho + ui * ui)
        b2 = 2.0 ** (d - 1) * rr ** (k.gamma + 2.0 - d) * k.b_folded(rho / rr) / ui
        vp = v + rho[:, None, None, None] * dirs[None, live]  # (Nx, Nlive, Nphi, 3)
        diff = f(vp) - f_v
        if use_taylor:
            lin = np.einsum("xnpc,c->xnp", vp - v, grad_v)
            taylor_zone = rho < q.regularization_radius
            diff = diff - np.where(taylor_zone[:, None, None], lin, 0.0)
        inner = np.einsum("x,xnp->n", w_rho * rho * b2, diff) * w_phi
        # wu already carries the radial measure u^{d-1}
        total += wu[i] * float(np.dot(w_eta[live], f_vps[live] * inner))
    return total


def q_boltzmann_carleman(f, v, k, q):
    """Collision operator as Q_s + Q_ns in Carleman coordinates.

    Works for cutoff and non-cutoff kernels; for the latter the inner
    integrand is Taylor-regularized inside |v' - v| < h0 (the odd first-order
    term integrates to zero over the hyperplane).
    """
    if k.operator != "boltzmann":
        raise ValueError("q_boltzmann_carleman requires a Boltzmann kernel")
    v = k.checked_point(f, v, "q_boltzmann_carleman")
    f_v = float(f(v))
    qs = _carleman_qs(f, v, f_v, k, q)
    qns = k.cb * f_v * singular_convolution(f, v, k.gamma, q)
    return float(qs + qns)
