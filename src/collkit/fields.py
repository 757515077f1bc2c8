"""Ready-made velocity fields: Gaussians, compact bumps, and shell profiles.

These are the standard inputs of the test and verification workflows.
Each constructor returns a :class:`collkit.core.VelocityField`; the Gaussian
and the bump also carry analytic Hessians.
"""

import numpy as np

from .core import VelocityField
from .util import splitmix64


def gaussian_field(rho=1.0, u=None, theta=1.0, dim=3):
    """Maxwellian rho * (2 pi theta)^{-d/2} exp(-|v-u|^2 / (2 theta))."""
    if theta <= 0:
        raise ValueError("gaussian_field requires theta > 0")
    u = np.zeros(dim) if u is None else np.asarray(u, dtype=float)
    norm = rho * (2.0 * np.pi * theta) ** (-dim / 2.0)

    def ev(v):
        # offset and summed by component, as in bump_field
        s = 0.0
        for i in range(dim):
            dv = v[..., i] - u[i]
            s += dv * dv
        return norm * np.exp(-s / (2.0 * theta))

    def he(v):
        dv = np.asarray(v, dtype=float) - u
        return ev(v) / theta * (np.outer(dv, dv) / theta - np.eye(dim))

    return VelocityField(dim=dim, eval=ev, hess_eval=he)


def bump_field(center=None, radius=1.0, amplitude=1.0, dim=3):
    """Smooth compactly supported bump: A * exp(1 - 1/(1 - |v-c|^2/R^2)).

    C^infinity, equal to A at the center, identically zero outside |v-c| >= R.
    """
    if radius <= 0:
        raise ValueError("bump_field requires radius > 0")
    c = np.zeros(dim) if center is None else np.asarray(center, dtype=float)

    def ev(v):
        # offset and summed by component: bit-identical to np.sum(dv * dv,
        # axis=-1) with dv = (v - c) / radius, and several times faster.
        # dv * dv, not dv ** 2: a numpy scalar's power is C pow, which can
        # differ from the product in the last bit
        s = 0.0
        for i in range(dim):
            dv = (v[..., i] - c[i]) / radius
            s += dv * dv
        s = np.asarray(s)
        inside = s < 1.0
        out = np.zeros(s.shape)
        out[inside] = amplitude * np.exp(1.0 - 1.0 / (1.0 - s[inside]))
        return out

    def he(v):
        v = np.asarray(v, dtype=float)
        dv = (v - c) / radius
        s = float(np.sum(dv * dv))
        if s >= 1.0:
            return np.zeros((dim, dim))
        val = amplitude * np.exp(1.0 - 1.0 / (1.0 - s))
        g1 = -1.0 / (1.0 - s) ** 2
        g2 = -2.0 / (1.0 - s) ** 3
        return (val / radius**2) * (
            (g2 + g1 * g1) * 4.0 * np.outer(dv, dv) + 2.0 * g1 * np.eye(dim)
        )

    return VelocityField(dim=dim, eval=ev, hess_eval=he)


def shell_field(m, delta, dim=3):
    """Smoothed |v|^{-m} cut off to zero inside |v| < delta.

    The crude-bound hypotheses for the same m and delta: f <= |v|^{-m} everywhere,
    f == 0 on B_delta, f(e) = 1 for any unit vector e outside the taper zone.
    The taper is a smoothstep over [delta, 1.02 delta].
    """
    if not 0.0 < delta < 1.0:
        raise ValueError("shell_field requires 0 < delta < 1")
    lo, hi = delta, delta * 1.02

    def ev(v):
        rr = np.linalg.norm(np.asarray(v, dtype=float), axis=-1)
        t = np.clip((rr - lo) / (hi - lo), 0.0, 1.0)
        chi = t * t * (3.0 - 2.0 * t)
        with np.errstate(divide="ignore"):
            pw = np.where(rr > 0, rr, 1.0) ** (-m)
        return chi * np.minimum(pw, lo ** (-m))

    return VelocityField(dim=dim, eval=ev)


def bump_suite(n, dim=3):
    """Deterministic family of n bump fields for sweep experiments.

    Centers, radii, and amplitudes derive from the fixed 64-bit seed 2024
    through the splitmix generator, so the family is identical across
    platforms.
    """
    u = splitmix64(2024, n * (dim + 2)).reshape(n, dim + 2)
    out = []
    for row in u:
        center = 1.5 * (row[:dim] * 2.0 - 1.0)
        radius = 0.6 + 0.9 * row[dim]
        amplitude = 0.5 + row[dim + 1]
        out.append(bump_field(center=center, radius=radius, amplitude=amplitude, dim=dim))
    return out
