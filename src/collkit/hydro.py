"""Hydrodynamic-compatibility arithmetic for self-similar Euler implosions.

Encodes the macroscopic side of the kinetic/fluid correspondence: local
Maxwellians and their moments, the specific-entropy maximum principle, the
integrability condition a self-similar implosion must satisfy to force
kinetic blowup, and per-scenario verdicts for the shipped implosion catalog.
All in d = 3 with Boltzmann constant 1 and monatomic internal energy 3*theta/2.
"""

import ast
import csv
import math
import operator
from dataclasses import dataclass
from importlib import resources
from typing import Tuple

import numpy as np

from .exceptions import ColdGasError
from .fields import gaussian_field
from .util import gauss_panel, weighted_gaussian_peak

# Envelope on the similarity exponent lambda from entropy decay plus
# mass/energy conservation.
LAMBDA_ENVELOPE = 8.0 / 5.0

VACUUM_DENSITY = 1e-14


@dataclass(frozen=True)
class EulerState:
    """Macroscopic state (rho, u, theta); pressure and energy are derived.

    All three must be finite.  theta == 0 is a cold gas, whose Maxwellian
    degenerates to a Dirac mass, and is rejected.
    """

    rho: float
    u: Tuple[float, float, float]
    theta: float

    def __post_init__(self):
        if not 0.0 <= self.rho < math.inf:
            raise ValueError(f"rho must be finite and nonnegative, got {self.rho}")
        if not 0.0 <= self.theta < math.inf:
            raise ValueError(f"theta must be finite and nonnegative, got {self.theta}")
        if not np.all(np.isfinite(self.u)):
            raise ValueError(f"u must be finite, got {self.u}")
        if self.theta == 0:
            raise ColdGasError(
                "theta = 0 is a cold-gas state; the Maxwellian degenerates to "
                "a Dirac mass, which this library does not model"
            )

    @property
    def p(self):
        return self.rho * self.theta

    @property
    def E(self):
        u = np.asarray(self.u, dtype=float)
        return 1.5 * self.theta + 0.5 * float(u @ u)


@dataclass(frozen=True)
class ImplosionScenario:
    """A self-similar Euler implosion family: name, lambda window, symmetry.

    ``lambda_sup_attained`` distinguishes one-parameter families with an open
    exponent window from scenarios with a unique exponent (where the window
    degenerates and its endpoint is attained).
    """

    name: str
    lambda_min: float
    lambda_max: float
    lambda_sup_attained: bool
    symmetry: str

    def __post_init__(self):
        if not (self.lambda_min >= 1.0 and self.lambda_max >= self.lambda_min):
            raise ValueError("lambda window must lie in (1, inf)")
        if self.symmetry not in ("spherical", "cylindrical"):
            raise ValueError(f"unknown symmetry {self.symmetry!r}")


_BINARY_OPS = {ast.Add: operator.add, ast.Sub: operator.sub,
               ast.Mult: operator.mul, ast.Div: operator.truediv}


def _eval_lambda(expr):
    """Value of a catalog lambda: number literals, unary -, + - * /,
    parentheses and sqrt(...).  Anything else raises ValueError."""

    def walk(node):
        if isinstance(node, ast.Constant) and type(node.value) in (int, float):
            return node.value
        if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
            return -walk(node.operand)
        if isinstance(node, ast.BinOp) and type(node.op) in _BINARY_OPS:
            return _BINARY_OPS[type(node.op)](walk(node.left), walk(node.right))
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id == "sqrt" and len(node.args) == 1 and not node.keywords):
            return math.sqrt(walk(node.args[0]))
        raise ValueError(f"unsupported term in catalog expression {expr!r}")

    try:
        tree = ast.parse(expr.strip(), mode="eval")
    except SyntaxError:
        raise ValueError(f"cannot parse catalog expression {expr!r}") from None
    return float(walk(tree.body))


def load_catalog():
    """Load the shipped implosion catalog."""
    text = resources.files("collkit").joinpath("data/implosion_catalog.csv").read_text()
    out = []
    for row in csv.DictReader(text.splitlines()):
        out.append(
            ImplosionScenario(
                name=row["name"],
                lambda_min=_eval_lambda(row["lambda_min"]),
                lambda_max=_eval_lambda(row["lambda_max"]),
                lambda_sup_attained=row["lambda_sup_attained"] == "yes",
                symmetry=row["symmetry"],
            )
        )
    return out


# ---------------------------------------------------------------------------
# Maxwellians and moments


def maxwellian_field(state):
    """Local Maxwellian rho (2 pi theta)^{-3/2} exp(-|v-u|^2/(2 theta))."""
    return gaussian_field(rho=state.rho, u=state.u, theta=state.theta, dim=3)


def maxwellian_moments(f, q):
    """Recover (rho, u, theta) as velocity moments of f by quadrature.

    rho = integral f, rho u = integral v f, rho theta = (1/3) integral
    |v-u|^2 f.  Mass below VACUUM_DENSITY is a vacuum, which has no
    temperature, and raises ColdGasError instead of dividing by zero.
    """
    if f.dim != 3:
        raise ValueError("moments are defined for 3-D fields")
    # tensor Gauss grid on [-V, V]^3
    n = max(24, 4 * q.radial_nodes)
    x, w = gauss_panel(-q.outer_radius, q.outer_radius, n)
    X, Y, Z = np.meshgrid(x, x, x, indexing="ij")
    W = w[:, None, None] * w[None, :, None] * w[None, None, :]
    pts = np.stack([X, Y, Z], axis=-1)
    vals = f(pts)
    rho = float(np.sum(vals * W))
    if rho < VACUUM_DENSITY:
        raise ColdGasError(f"vacuum: mass {rho:.3g} is below {VACUUM_DENSITY:g}, "
                           "so the state has no temperature")
    u = np.array(
        [float(np.sum(pts[..., i] * vals * W)) for i in range(3)]
    ) / rho
    dv = pts - u
    theta = float(np.sum(np.sum(dv * dv, axis=-1) * vals * W)) / (3.0 * rho)
    return EulerState(rho=rho, u=tuple(u), theta=theta)


def maxwellian_weighted_norm(state, gamma):
    """Exact sup over v of <v>^{3+gamma} M(v), plus an analytic upper bound.

    The maximizer lies on the axis through u, so the sup is
    :func:`collkit.util.weighted_gaussian_peak`.  Returns (norm, bound) with
    bound = prefactor * c_p * (1 + (4p/e)^p theta^p + 2^p |u|^{3+gamma}),
    p = (3+gamma)/2 and c_p = max(1, 3^{p-1}), from <v>^2 <= 1 + 2|v-u|^2 +
    2|u|^2, (a+b+c)^p <= c_p (a^p + b^p + c^p) and, with s = |v-u|,
    sup_s s^{2p} exp(-s^2/(2 theta)) = (2p theta/e)^p.
    """
    _check_gamma(gamma)
    mw = 3.0 + gamma
    p = mw / 2.0
    pref = state.rho * (2.0 * np.pi * state.theta) ** -1.5
    umag = float(np.linalg.norm(state.u))
    norm = pref * weighted_gaussian_peak(mw, umag, state.theta)
    bound = pref * max(1.0, 3.0 ** (p - 1.0)) * (
        1.0 + (4.0 * p / math.e) ** p * state.theta**p + 2.0**p * umag**mw)
    return float(norm), float(bound)


# ---------------------------------------------------------------------------
# Entropy and exponent arithmetic


def specific_entropy(state):
    """S-bar = log(2 rho^{2/3} / (3 theta))."""
    if state.rho <= 0:
        raise ColdGasError("specific entropy needs rho > 0")
    return math.log(2.0 * state.rho ** (2.0 / 3.0) / (3.0 * state.theta))


def entropy_bound(states0, state_t):
    """Maximum-principle consequence of entropy transport.

    From the initial states, C = (3/2) exp(max S-bar); later states must
    satisfy rho^{2/3} <= C theta.  Returns (holds, C).
    """
    if not states0:
        raise ValueError("need at least one initial state")
    s_max = max(specific_entropy(s) for s in states0)
    C = 1.5 * math.exp(s_max)
    holds = state_t.rho ** (2.0 / 3.0) <= C * state_t.theta * (1.0 + 1e-12)
    return holds, C


def _check_gamma(gamma):
    if not -3.0 <= gamma <= 1.0:
        raise ValueError(f"gamma must lie in [-3, 1], got {gamma}")


def critical_gamma(lam):
    """Smallest gamma for which the integrability condition holds at lambda.

    The condition and every verdict are decided by this closed form alone.
    """
    if not 1.0 < lam < math.inf:
        raise ValueError(f"similarity exponent lambda must be finite and exceed 1 "
                         f"(no focusing), got {lam}")
    return lam / (lam - 1.0) - 3.0


def blowup_integrability_condition(lam, gamma):
    """Whether (3+gamma)(1/lambda - 1) <= -1, i.e. gamma >= critical_gamma(lambda).

    This is the necessary condition for the time integral of
    ||u||^{3+gamma} + ||theta||^{(3+gamma)/2} to diverge under the
    self-similar scaling with exponent lambda.
    """
    _check_gamma(gamma)
    return gamma >= critical_gamma(lam)


def admissible_exponent_check(kappa, lam):
    """Finite mass/energy + entropy admissibility: -3 < kappa <= -3(lambda-1), 1 < lambda < (5+kappa)/2.

    The non-strict comparison carries a 1e-12 rounding slack so boundary
    pairs like (kappa, lambda) = (-0.9, 1.3) are classified by the exact
    arithmetic rather than by float representation error.
    """
    slack = 1e-12 * max(1.0, abs(kappa))
    return (-3.0 < kappa <= -3.0 * (lam - 1.0) + slack) and (
        1.0 < lam < (5.0 + kappa) / 2.0
    )


def scenario_verdict(sc, gamma):
    """Verdict ('excluded' or 'open') plus the scenario's critical gamma.

    Open means the integrability condition holds for some lambda in the
    scenario's window; since critical_gamma decreases in lambda it is
    decided at the window's supremum: gamma >= gc when that exponent is
    attained, gamma > gc for an open window (metadata field 'strict').
    """
    _check_gamma(gamma)
    gc = critical_gamma(sc.lambda_max)
    open_ = gamma >= gc if sc.lambda_sup_attained else gamma > gc
    return {
        "scenario": sc.name,
        "gamma": gamma,
        "verdict": "open" if open_ else "excluded",
        "critical_gamma": gc,
        "strict": not sc.lambda_sup_attained,
    }
