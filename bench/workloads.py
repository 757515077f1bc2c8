"""Benchmark workloads: seeded inputs, one timed round of calls, accuracy gates.

A workload builds its inputs from the seed alone (``build``), runs one round
of calls into collkit (``run_round``) and afterwards, untimed, checks every
call against the acceptance tolerance it reuses (``check``).  Every round of a
workload does the same amount of work, so round times are comparable and a
run reports their median; rounds are a few seconds long so that the median
outlasts slow phases of a shared machine.  Calls go through module
attributes looked up at call time, so spans installed by ``spans.Tracer``
see them.  A call that raises is recorded, not propagated.

Why these three workloads: each loads a different part of the package.

* ``homog`` steps the homogeneous Landau equation (solver layer: the FFT
  coefficient refresh is ~90% of a step); it does no quadrature and no
  pointwise field evaluation.
* ``boltzmann-sweep`` evaluates Q(f,f) pointwise by the sigma, Carleman and
  Landau routes (core field evaluation is most of the time; rule building
  is under 1%), so culling and batching show here and node caching should not.
* ``certify`` runs thousands of small hyperplane integrals in threshold
  searches (rebuilding the same panel rules is more than half the time), so
  rule and node caching show here; it does no solver work.
"""

import math
import random
from dataclasses import dataclass
from typing import Any, Optional

import numpy as np

import collkit
from collkit import boltzmann, core, fields, landau, solver, verify
from collkit.exceptions import InfeasibleError, RunAbortedError
from collkit.util import sphere_area

GATE_TOL = 1e-3          # criteria 2, 4 and 7 all use 1e-3
CRITERION2_SCHEME = dict(radial_nodes=8, angular_nodes=8, hyperplane_nodes=10)


def b_constant(x):
    return np.ones_like(np.asarray(x, dtype=float))


def b_cos2(x):
    return 1.0 - np.asarray(x, dtype=float) ** 2


B_FUNCS = {"constant": b_constant, "cos2": b_cos2}


@dataclass
class Call:
    """One gated call: what was asked, what came back, and the verdict."""

    kind: str
    case: Any
    value: Any = None
    error: Optional[str] = None
    passed: Optional[bool] = None
    ops: int = 0
    detail: str = ""


def attempt(kind, case, fn, *args, **kwargs):
    """Run one call; any exception becomes a recorded failure."""
    try:
        return Call(kind, case, value=fn(*args, **kwargs))
    except Exception as exc:  # a failed call is counted, never fatal
        return Call(kind, case, error=f"{type(exc).__name__}: {exc}", value=exc)


def _boltzmann_kernel(gamma, b):
    return collkit.KernelSpec(dim=3, gamma=gamma, operator="boltzmann", b=B_FUNCS[b])


def _landau_kernel(gamma):
    return collkit.KernelSpec(dim=3, gamma=gamma, operator="landau")


# ---------------------------------------------------------------------------
# homog


class Homog:
    """Truncated criterion 7: Coulomb and gamma = -2 runs from anisotropic data."""

    name = "homog"
    gammas = (-3.0, -2.0)
    theta = (0.45, 0.6, 0.75)
    # 5.5 initial steps of criterion 7's dt (3.0e-5): every seed's jitter of
    # theta keeps the count at exactly 6 steps per run
    t_end = 1.65e-4
    cfl = 0.0024
    probe_gammas = (-1.0, 0.0)

    def build(self, seed):
        rng = random.Random(seed)
        theta = tuple(t * (1.0 + 0.01 * (2.0 * rng.random() - 1.0)) for t in self.theta)
        return {
            "theta": theta,
            "f0": solver.make_gaussian_grid(n=32, V=6.0, theta=theta),
            "kernels": [_landau_kernel(g) for g in self.gammas],
            "q": collkit.QuadratureScheme(**CRITERION2_SCHEME),
        }

    def describe(self, inputs):
        return {"theta": list(inputs["theta"]), "gammas": list(self.gammas),
                "t_end": self.t_end, "n": inputs["f0"].n}

    def run_round(self, inputs, index):
        """Both solver runs."""
        return [attempt("homog", k.gamma, solver.homog_run, inputs["f0"], k,
                        inputs["q"], t_end=self.t_end, cfl=self.cfl, m=5.0)
                for k in inputs["kernels"]]

    def prepare_gates(self, inputs):
        return None

    def check(self, inputs, refs, call):
        if call.error:
            return False, 0, call.error
        return check_homog_log(call.value)

    def probe(self):
        """The CLI's default homog-run data at gamma in {-1, 0} on a 24^3 grid.

        These runs abort on negativity (the mixed-derivative stencil loses
        monotonicity where a_bar is not diagonally dominant); the outcome is
        reported beside the results, not counted as a failed call.
        """
        out = []
        for gamma in self.probe_gammas:
            f0 = solver.make_gaussian_grid(n=24, V=6.0, theta=0.5)
            call = attempt("probe", gamma, solver.homog_run, f0,
                           _landau_kernel(gamma), collkit.QuadratureScheme(),
                           t_end=0.1, cfl=0.5, m=5.0)
            log = call.value.log if isinstance(call.value, RunAbortedError) else call.value
            steps = len(log.t) - 1 if log is not None and hasattr(log, "t") else 0
            out.append({"gamma": gamma, "aborted": call.error is not None,
                        "reason": call.error, "steps": steps})
        return out


def check_homog_log(log):
    """Criterion 7's conservation gate on a completed run log."""
    mass = abs(log.mass[-1] - log.mass[0]) / log.mass[0]
    energy = abs(log.energy[-1] - log.energy[0]) / log.energy[0]
    momentum = float(np.max(np.abs(np.asarray(log.momentum))))
    ok = mass <= GATE_TOL and energy <= GATE_TOL and momentum <= GATE_TOL
    detail = f"drift mass {mass:.1e} energy {energy:.1e} momentum {momentum:.1e}"
    return ok, len(log.t) - 1, detail


# ---------------------------------------------------------------------------
# boltzmann-sweep


class BoltzmannSweep:
    """Subset of criterion 2 on a seed-drawn bump family, plus Landau values."""

    name = "boltzmann-sweep"
    n_fields = 5
    boltzmann_kernels = ((0.0, "constant"), (-1.0, "cos2"), (1.0, "constant"))
    landau_gammas = (-3.0, -1.0)

    def build(self, seed):
        rng = random.Random(seed)
        q = collkit.QuadratureScheme(**CRITERION2_SCHEME)
        bumps = []
        for _ in range(self.n_fields):
            # the ranges of collkit.fields.bump_suite, drawn here from the seed
            center = [1.5 * (2.0 * rng.random() - 1.0) for _ in range(3)]
            bumps.append({"center": center, "radius": 0.6 + 0.9 * rng.random(),
                          "amplitude": 0.5 + rng.random()})
        funcs = [fields.bump_field(center=np.array(p["center"]), radius=p["radius"],
                                   amplitude=p["amplitude"]) for p in bumps]
        points = [core.weighted_sup_norm(f, 0.0, q, return_argmax=True)[1] for f in funcs]
        return {
            "bumps": bumps,
            "fields": funcs,
            "points": points,
            "q": q,
            "kernels": [_boltzmann_kernel(g, b) for g, b in self.boltzmann_kernels],
            "landau_kernels": [_landau_kernel(g) for g in self.landau_gammas],
        }

    def describe(self, inputs):
        return {"bumps": inputs["bumps"],
                "points": [np.asarray(p).tolist() for p in inputs["points"]]}

    def _point(self, inputs, i):
        f, v, q = inputs["fields"][i], inputs["points"][i], inputs["q"]
        out = {"boltzmann": [], "landau": []}
        for k in inputs["kernels"]:
            out["boltzmann"].append((boltzmann.q_boltzmann_sigma(f, v, k, q),
                                     boltzmann.q_boltzmann_carleman(f, v, k, q)))
        for k in inputs["landau_kernels"]:
            out["landau"].append(landau.q_landau(f, v, k, q))
        return out

    def run_round(self, inputs, index):
        """One point by every route; rounds cycle through the points.

        The node counts are fixed by the scheme, so every point costs the same.
        """
        i = index % len(inputs["fields"])
        return [attempt("point", i, self._point, inputs, i)]

    def prepare_gates(self, inputs):
        """Criterion 2's scale f(v) * |b| * (f * |.|^gamma)(v) per point and kernel."""
        scales = {}
        for i, (f, v) in enumerate(zip(inputs["fields"], inputs["points"])):
            for j, k in enumerate(inputs["kernels"]):
                conv = landau.singular_convolution(f, v, k.gamma, inputs["q"])
                scales[i, j] = float(f(v)) * angular_mass(k) * conv
        return scales

    def check(self, inputs, refs, call):
        if call.error:
            return False, 0, call.error
        i = call.case
        worst = max((representation_mismatch(qs, qc, refs[i, j])
                     for j, (qs, qc) in enumerate(call.value["boltzmann"])), default=0.0)
        landau_ok = all(math.isfinite(x) for x in call.value["landau"])
        ok = worst <= GATE_TOL and landau_ok
        return ok, int(ok), f"sigma/Carleman mismatch {worst:.2e}, landau finite {landau_ok}"


def angular_mass(k):
    """|S^{d-2}| * integral of sin^{d-2} b(sin(theta/2)) over [0, pi]."""
    from scipy.integrate import quad

    val, _ = quad(lambda t: math.sin(t) ** (k.dim - 2) * float(k.b(math.sin(t / 2.0))),
                  0.0, math.pi)
    return sphere_area(k.dim - 1) * val


def representation_mismatch(q_sigma, q_carleman, scale):
    """Criterion 2's relative sigma/Carleman disagreement."""
    return abs(q_sigma - q_carleman) / (abs(q_sigma) + scale)


# ---------------------------------------------------------------------------
# certify


class Certify:
    """Threshold searches and contact checks from criteria 3, 4 and 7."""

    name = "certify"
    m0_gammas = (-2.0, -1.0, 0.0, 1.0)
    delta_kernels = ((0.0, "constant"), (0.0, "cos2"), (1.0, "constant"))
    landau_pairs = ((3, -3.0), (3, 0.0), (2, 1.0))
    n_contacts = 3

    def build(self, seed):
        rng = random.Random(seed)
        kernels = {}

        def kernel(gamma, b):
            if (gamma, b) not in kernels:
                kernels[gamma, b] = _boltzmann_kernel(gamma, b)
            return kernels[gamma, b]

        m0 = [kernel(g, "constant") for g in self.m0_gammas]
        # m between m0 + 2 and m0 + 4, with m0 = 5 + gamma (criterion 4)
        delta = [(kernel(g, b), 7.0 + g + 2.0 * rng.random()) for g, b in self.delta_kernels]
        landau_cases = []
        for d, g in self.landau_pairs:
            eps = 1e-3 * (0.5 + rng.random())
            landau_cases += [(d + g + eps, d, g), (d + g - eps, d, g)]
        barrier = core.make_barrier(5.0, 1.0)
        contacts = []
        for _ in range(self.n_contacts):
            direction = np.array([rng.gauss(0.0, 1.0) for _ in range(3)])
            radius = 1.0 + rng.random()
            contacts.append(radius * direction / np.linalg.norm(direction))
        return {
            "q": collkit.QuadratureScheme(),
            "q_contact": collkit.QuadratureScheme(**CRITERION2_SCHEME),
            "m0": m0,
            "delta": delta,
            "landau": landau_cases,
            "barrier": barrier,
            "contacts": [verify.ContactConfiguration(barrier=barrier, field=barrier.as_field(),
                                                     v0=v0) for v0 in contacts],
            "contact_kernel": _landau_kernel(-3.0),
        }

    def describe(self, inputs):
        return {"delta_m": [m for _, m in inputs["delta"]],
                "landau": [list(c) for c in inputs["landau"]],
                "contacts": [c.v0.tolist() for c in inputs["contacts"]]}

    def run_round(self, inputs, index):
        """Every m0, Landau delta and contact certificate, and one Boltzmann
        delta search; rounds cycle through the delta kernels."""
        q = inputs["q"]
        calls = [attempt("m0", k.gamma, verify.boltzmann_m0_search, k, q)
                 for k in inputs["m0"]]
        delta = inputs["delta"]
        calls += [attempt("delta", (k.gamma, m), verify.boltzmann_delta_search, m, k, q)
                  for k, m in ([delta[index % len(delta)]] if delta else [])]
        calls += [attempt("landau-delta", (m, d, g),
                          verify.landau_delta_search, m, d, g)
                  for m, d, g in inputs["landau"]]
        calls += [attempt("contact", cfg.v0.tolist(), verify.contact_estimate_check,
                          cfg, inputs["contact_kernel"], inputs["q_contact"])
                  for cfg in inputs["contacts"]]
        return calls

    def prepare_gates(self, inputs):
        return None

    def check(self, inputs, refs, call):
        if call.kind == "landau-delta":
            ok, detail = check_landau_delta(*call.case, call.value)
        elif call.error:
            return False, 0, call.error
        elif call.kind == "m0":
            ok, detail = check_m0(call.case, call.value)
        elif call.kind == "delta":
            ok, detail = check_delta_certificate(call.value)
        else:
            lhs, unit = call.value
            ok = math.isfinite(lhs) and math.isfinite(unit) and unit > 0.0
            detail = f"ratio {abs(lhs) / unit:.3e}" if ok else f"lhs {lhs!r}, unit {unit!r}"
        return ok, int(ok), detail


def check_m0(gamma, report):
    """Criterion 4: m0 = 5 + gamma for constant b in 3-D."""
    if not report.feasible:
        return False, "m0 search infeasible"
    err = abs(report.value - (5.0 + gamma))
    return err <= GATE_TOL, f"|m0 - (5+gamma)| = {err:.2e}"


def check_delta_certificate(report):
    """The sampled integral is <= 0 at ``lo`` and > 0 at ``hi``."""
    cert = report.certificate
    if not report.feasible or not cert or cert[0]["integral"] > 0.0:
        return False, f"no nonpositive certificate: {cert}"
    if len(cert) > 1 and not cert[1]["integral"] > 0.0:
        return False, f"upper certificate not positive: {cert}"
    return True, f"delta {report.value:.6f}"


def check_landau_delta(m, d, gamma, outcome):
    """Criterion 3: a window exists exactly when m > d + gamma."""
    if m > d + gamma:
        ok = (not isinstance(outcome, Exception) and outcome.feasible
              and outcome.value > 0.0)
        got = outcome if isinstance(outcome, Exception) else f"delta {outcome.value}"
        return ok, f"expected feasible, got {got!r}"
    ok = isinstance(outcome, InfeasibleError)
    return ok, f"expected infeasible, got {type(outcome).__name__}"


WORKLOADS = {w.name: w for w in (Homog(), BoltzmannSweep(), Certify())}
