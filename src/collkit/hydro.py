"""Hydrodynamic-compatibility arithmetic for self-similar Euler implosions.

Encodes the macroscopic side of the kinetic/fluid correspondence: the
integrability rule an implosion with similarity exponent lambda must satisfy
to force kinetic blowup, gamma >= critical_gamma(lambda) = lambda/(lambda-1) - 3,
and per-scenario verdicts for the shipped implosion catalog.  All in d = 3.
"""

import ast
import csv
import math
import operator
from dataclasses import dataclass
from importlib import resources

# Envelope on the similarity exponent lambda from entropy decay plus
# mass/energy conservation: finite mass and energy with entropy admissibility
# need kappa <= -3(lambda-1) and lambda < (5+kappa)/2, so at the largest kappa
# lambda < (5 - 3(lambda-1))/2, i.e. 5 lambda < 8 and lambda < 8/5.
LAMBDA_ENVELOPE = 8.0 / 5.0


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
        # critical_gamma needs a finite lambda_max > 1, so every verdict can be made
        if not (1.0 <= self.lambda_min <= self.lambda_max and 1.0 < self.lambda_max < math.inf):
            raise ValueError(f"lambda window must lie in (1, inf), "
                             f"got [{self.lambda_min}, {self.lambda_max}]")
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
    """Load the shipped implosion catalog.

    The file's ``kappa`` and ``source_quote`` columns are provenance: they
    record where each row comes from, and no code reads them.
    """
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
# Exponent arithmetic and verdicts


def _check_gamma(gamma):
    if not -3.0 <= gamma <= 1.0:
        raise ValueError(f"gamma must lie in [-3, 1], got {gamma}")


def critical_gamma(lam):
    """Smallest gamma for which the integrability condition holds at lambda.

    The condition, (3+gamma)(1/lambda - 1) <= -1, is necessary for the time
    integral of ||u||^{3+gamma} + ||theta||^{(3+gamma)/2} to diverge under
    the self-similar scaling with exponent lambda.  Every verdict is decided
    by this closed form alone.
    """
    if not 1.0 < lam < math.inf:
        raise ValueError(f"similarity exponent lambda must be finite and exceed 1 "
                         f"(no focusing), got {lam}")
    return lam / (lam - 1.0) - 3.0


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
