"""Quadrature building blocks and reproducibility helpers.

All node/weight constructors here are deterministic: identical arguments
produce bit-identical arrays, which is what makes downstream artifacts
byte-reproducible.  The Gauss-Legendre base rule is solved once per order
(:func:`legendre_rule`) and shared by every constructor.  Panel rules are
4-point Gauss; sphere rules have 2 * n_polar azimuths and are antipodal.
"""

import functools

import numpy as np

_SPLITMIX_GAMMA = 0x9E3779B97F4A7C15
_MASK64 = 0xFFFFFFFFFFFFFFFF


def splitmix64(seed, n):
    """Generate ``n`` uniform floats in [0, 1) from a 64-bit seed.

    Splitmix-style generator; the recurrence is fixed so that sweeps are
    reproducible across implementations and platforms.
    """
    state = seed & _MASK64
    out = np.empty(n, dtype=float)
    for i in range(n):
        state = (state + _SPLITMIX_GAMMA) & _MASK64
        z = state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        z = z ^ (z >> 31)
        out[i] = (z >> 11) / float(1 << 53)
    return out


def read_only(*arrays):
    """``arrays``, made read-only: cached arrays are shared by every later call."""
    for a in arrays:
        a.flags.writeable = False
    return arrays


@functools.cache
def legendre_rule(n):
    """Gauss-Legendre nodes/weights on [-1, 1], solved once per order ``n``.

    The arrays are shared between callers and therefore read-only.
    """
    return read_only(*np.polynomial.legendre.leggauss(n))


def gauss_panel(a, b, n):
    """Gauss-Legendre nodes/weights on [a, b]."""
    x, w = legendre_rule(n)
    return 0.5 * (b - a) * (x + 1.0) + a, 0.5 * (b - a) * w


def _composite_gauss(edges):
    """Flat nodes/weights of a 4-point Gauss rule on each panel."""
    gx, gw = legendre_rule(4)
    lo = edges[:-1, None]
    half = 0.5 * (edges[1:, None] - lo)
    return (half * (gx + 1.0) + lo).ravel(), (half * gw).ravel()


def graded_panels(a, b, n_panels, *, ratio):
    """Composite 4-point Gauss rule on [a, b] with power-graded panels toward ``a``.

    Panel edges a + (b-a) * (k/n)^ratio accumulate at ``a`` to resolve a
    power singularity there, while every panel still shrinks as n_panels
    grows, so the rule converges on the whole interval under refinement.
    """
    if not (b > a >= 0.0):
        raise ValueError(f"bad panel interval [{a}, {b}]")
    k = np.arange(n_panels + 1, dtype=float)
    edges = a + (b - a) * (k / n_panels) ** ratio
    return _composite_gauss(edges)


def geometric_panels(a, b, n_panels):
    """Composite 4-point Gauss rule on [a, b] > 0 with logarithmically spaced panel edges.

    Used for long algebraic tails: each panel covers a constant factor in radius.
    """
    if not (b > a > 0.0):
        raise ValueError(f"geometric panels need 0 < a < b, got [{a}, {b}]")
    edges = np.geomspace(a, b, n_panels + 1)
    return _composite_gauss(edges)


def circle_rule(n):
    """Midpoint rule on the circle: ``n`` angles and their common weight 2 pi / n."""
    return (np.arange(n) + 0.5) * 2.0 * np.pi / n, 2.0 * np.pi / n


def sphere_rule(dim, n_polar):
    """Product quadrature on the unit sphere S^{dim-1} with 2 * n_polar azimuths.

    For dim == 3: Gauss-Legendre in cos(theta) times the midpoint azimuth
    rule :func:`circle_rule`; exact for spherical harmonics up to high degree.
    For dim == 2: the circle rule alone.

    The rule is antipodal bit for bit: the second half of the azimuths takes
    the negated cos/sin of the first half (phi + pi), and the Gauss-Legendre
    rule is exactly symmetric, so :func:`sphere_antipodes` maps each point to
    exactly minus itself, with the same weight.

    Returns (points, weights) with points of shape (N, dim), polar index
    major, and sum(weights) == |S^{dim-1}|.
    """
    if dim not in (2, 3):
        raise ValueError(f"sphere_rule supports dim 2 or 3, got {dim}")
    n_azim = 2 * n_polar
    phi, w_phi = circle_rule(n_azim)
    cos_phi, sin_phi = np.cos(phi), np.sin(phi)
    cos_phi[n_polar:], sin_phi[n_polar:] = -cos_phi[:n_polar], -sin_phi[:n_polar]
    if dim == 2:
        return np.stack([cos_phi, sin_phi], axis=-1), np.full(n_azim, w_phi)
    ct, wct = legendre_rule(n_polar)
    st = np.sqrt(1.0 - ct**2)
    pts = np.stack(
        [
            st[:, None] * cos_phi[None, :],
            st[:, None] * sin_phi[None, :],
            np.broadcast_to(ct[:, None], (n_polar, n_azim)),
        ],
        axis=-1,
    ).reshape(-1, 3)
    w = (wct[:, None] * w_phi * np.ones(n_azim)).reshape(-1)
    return pts, w


def sphere_antipodes(dim, n_polar):
    """Rows of ``sphere_rule(dim, n_polar)`` at minus each point: polar index reversed, phi + pi."""
    n_azim = 2 * n_polar
    rows = np.arange(n_azim * (n_polar if dim == 3 else 1)).reshape(-1, n_azim)
    return np.roll(rows[::-1], n_polar, axis=1).ravel()


def sphere_pair_classes(dim, n_polar):
    """Classes of point pairs (s, o) of ``sphere_rule(dim, n_polar)`` with equal s . o and w_s * w_o.

    Both depend only on the polar rows of s and o and on the difference of
    their azimuth indices (mod 2 * n_polar), which number the class.  Returns
    (classes, (rep_s, rep_o)): ``classes`` holds the class of every pair,
    flattened with s major; pair (rep_s[c], rep_o[c]) is one member of class c.
    """
    n_azim = 2 * n_polar
    n_rows = n_polar if dim == 3 else 1
    row, azim = np.divmod(np.arange(n_rows * n_azim), n_azim)
    classes = (row[:, None] * n_rows + row[None, :]) * n_azim + (azim[:, None] - azim[None, :]) % n_azim
    row_s, rest = np.divmod(np.arange(n_rows * n_rows * n_azim), n_rows * n_azim)
    row_o, shift = np.divmod(rest, n_azim)
    return classes.ravel(), (row_s * n_azim + shift, row_o * n_azim)


def orthonormal_complement(normals):
    """Per-row orthonormal pairs (e1, e2) spanning the plane orthogonal to each normal.

    ``normals`` has shape (N, 3), rows unit length.  Deterministic choice of frame.
    """
    normals = np.atleast_2d(normals)
    helper = np.where(
        np.abs(normals[:, 2:3]) < 0.9,
        np.array([0.0, 0.0, 1.0]),
        np.array([1.0, 0.0, 0.0]),
    )
    e1 = np.cross(normals, helper)
    e1 /= np.linalg.norm(e1, axis=-1, keepdims=True)
    e2 = np.cross(normals, e1)
    return e1, e2


def bracket(v):
    """<v> = sqrt(1 + |v|^2), with v of shape (..., d) or scalar radius."""
    v = np.asarray(v, dtype=float)
    if v.ndim == 0:
        return float(np.sqrt(1.0 + v * v))
    return np.sqrt(1.0 + np.sum(v * v, axis=-1))


def weighted_gaussian_peak(k, a, theta):
    """Max over t of (1 + t^2)^{k/2} exp(-(t - a)^2 / (2 theta)): sup of <v>^k times a Gaussian.

    Taken at the real roots of the stationarity cubic t^3 - a t^2 + (1 - k theta) t - a;
    the real parts of complex roots are harmless extra candidates.
    """
    t = np.roots([1.0, -a, 1.0 - k * theta, -a]).real
    return float(np.max((1.0 + t * t) ** (k / 2.0) * np.exp(-((t - a) ** 2) / (2.0 * theta))))


def sphere_area(dim):
    """Surface measure |S^{dim-1}|."""
    from scipy.special import gamma as _g

    return 2.0 * np.pi ** (dim / 2.0) / _g(dim / 2.0)
