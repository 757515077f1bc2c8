"""Command-line entry point.

One command per process, configured by an INI file::

    [run]
    command = m0-search

    [kernel]
    gamma = 0
    b = constant

    [quadrature]
    hyperplane_nodes = 16

:data:`COMMANDS` is the whole whitelist: each row names a command's handler
and, per section, the keys it reads.  Besides ``[run] command``, every other
section or key is rejected, and so is a value that cannot be read.  The
commands are ``landau-eval``, ``boltzmann-eval``, ``barrier-check``,
``landau-delta-search``, ``boltzmann-delta-search``, ``m0-search``,
``homog-run`` and ``hydro-verdict``.  Each fixes its operator, Boltzmann
for the three with ``boltzmann`` or ``m0`` in the name, so ``[kernel]`` has
no ``operator`` key; ``b`` alone decides whether a Boltzmann kernel is
cutoff.  ``[kernel]`` defaults to dim = 3 and gamma = 0, except gamma = -3
for ``landau-delta-search`` and gamma = 1 for ``hydro-verdict``.
Every invocation writes its result artifacts (JSON/CSV) into the output
directory, and once the config has parsed, a ``manifest.json`` (echoed
config, package version, wall time) on every exit.  Identical config produces byte-identical result
artifacts; the manifest carries the only non-deterministic field (wall
time).

Exit codes: 0 success, 2 infeasible search result, 1 any other error.  A
``homog-run`` that aborts still writes its partial ``runlog.csv`` and a
``result.json`` with ``"aborted": true`` and the reason before exiting 1.
"""

import argparse
import configparser
import dataclasses
import json
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__, fields, hydro, solver, verify
from .boltzmann import q_boltzmann_carleman, q_boltzmann_sigma
from .core import KernelSpec, QuadratureScheme, make_barrier
from .exceptions import CollkitError, InfeasibleError, RunAbortedError
from .landau import q_landau

_QUADRATURE_TYPES = {f.name: f.type for f in dataclasses.fields(QuadratureScheme)}

_REPRESENTATIONS = {"sigma": q_boltzmann_sigma, "carleman": q_boltzmann_carleman}


class ConfigError(CollkitError):
    pass


def _parse_config(path):
    cp = configparser.ConfigParser()
    try:
        with open(path) as fh:
            cp.read_file(fh)
    except configparser.Error as exc:
        line = getattr(exc, "lineno", "?")
        raise ConfigError(f"{path}: parse error at line {line}: {exc}") from None
    if "run" not in cp or "command" not in cp["run"]:
        raise ConfigError(f"{path}: missing [run] command")
    cmd = cp["run"]["command"]
    if cmd not in COMMANDS:
        raise ConfigError(f"{path}: unknown command {cmd!r}")
    allowed = {"run": {"command"}, **COMMANDS[cmd][1]}
    for section in cp.sections():
        extra = sorted(set(cp[section]) - allowed.get(section, set()))
        if extra or section not in allowed:
            raise ConfigError(
                f"{path}: unknown key(s) for {cmd}: [{section}] {', '.join(extra)}".rstrip())
    return cp


def _make_b(name):
    if name == "constant":
        return lambda x: np.ones_like(np.asarray(x, dtype=float))
    if name == "cos2":
        return lambda x: 1.0 - np.asarray(x, dtype=float) ** 2
    if name.startswith("power:"):
        p = float(name.split(":", 1)[1])
        return lambda x: np.asarray(x, dtype=float) ** p
    raise ConfigError(f"unknown cross-section {name!r} (use constant, cos2, power:<p>)")


def _kernel_from(cp, operator, gamma=0.0):
    """The [kernel] section for a command of the given operator and default gamma."""
    sec = cp["kernel"] if "kernel" in cp else {}
    b = _make_b(sec.get("b", "constant")) if operator == "boltzmann" else None
    return KernelSpec(dim=int(sec.get("dim", 3)), gamma=float(sec.get("gamma", gamma)),
                      operator=operator, b=b)


def _quadrature_from(cp):
    sec = cp["quadrature"] if "quadrature" in cp else {}
    return QuadratureScheme(**{key: _QUADRATURE_TYPES[key](sec[key]) for key in sec})


def _field_from(spec, dim):
    if spec == "maxwellian":
        return fields.gaussian_field(dim=dim)
    if spec == "bump":
        return fields.bump_field(dim=dim)
    raise ConfigError(f"unknown field {spec!r} (use maxwellian or bump)")


def _write_json(path, payload):
    path.write_text(json.dumps(payload, sort_keys=True, indent=2) + "\n")


def _write_report(out_dir, report):
    (out_dir / "result.json").write_text(report.to_json() + "\n")
    return 0 if report.feasible else 2


def _point_eval(cp, sec, q, out_dir):
    cmd = cp["run"]["command"]
    evaluate, operator = q_landau, "landau"
    if cmd == "boltzmann-eval":
        rep = sec.get("representation", "carleman")
        if rep not in _REPRESENTATIONS:
            raise ConfigError(f"unknown representation {rep!r} (use sigma or carleman)")
        evaluate, operator = _REPRESENTATIONS[rep], "boltzmann"
    k = _kernel_from(cp, operator)
    f = _field_from(sec.get("field", "maxwellian"), k.dim)
    point = np.array([float(x) for x in sec["point"].split()] if "point" in sec
                     else np.zeros(k.dim))
    if point.shape != (k.dim,):
        raise ConfigError(f"point has {point.size} coordinates, the kernel has dim = {k.dim}")
    _write_json(out_dir / "result.json",
                {"command": cmd, "point": point.tolist(), "value": evaluate(f, point, k, q)})
    return 0


def _barrier_check(cp, sec, q, out_dir):
    m = float(sec.get("m", 5.0))
    alpha = float(sec.get("alpha", 1.0))
    barrier = make_barrier(m, alpha)
    r = np.linspace(1e-3, 4.0, 2001)
    prof = barrier._b1_radial(r)
    _write_json(out_dir / "result.json", {
        "command": "barrier-check", "m": m, "alpha": alpha,
        "monotone": bool(np.all(np.diff(prof) <= 1e-12 * prof[0])),
        "dominated": bool(np.all(alpha * prof <= alpha * r ** (-m) * (1 + 1e-12))),
        "value_at_2": float(barrier.value(np.array([2.0, 0.0, 0.0]))),
    })
    return 0


def _landau_delta_search(cp, sec, q, out_dir):
    k = _kernel_from(cp, "landau", gamma=-3.0)
    return _write_report(out_dir, verify.landau_delta_search(float(sec.get("m", 5.0)),
                                                            k.dim, k.gamma))


def _boltzmann_delta_search(cp, sec, q, out_dir):
    return _write_report(out_dir, verify.boltzmann_delta_search(
        float(sec.get("m", 8.0)), _kernel_from(cp, "boltzmann"), q))


def _m0_search(cp, sec, q, out_dir):
    return _write_report(out_dir, verify.boltzmann_m0_search(_kernel_from(cp, "boltzmann"), q))


def _homog_run(cp, sec, q, out_dir):
    k = _kernel_from(cp, "landau")
    f0 = solver.make_gaussian_grid(
        n=int(sec.get("n", 32)), V=float(sec.get("box_radius", 6.0)),
        rho=float(sec.get("rho", 1.0)), theta=float(sec.get("theta", 0.5)),
    )
    try:
        log = solver.homog_run(f0, k, q, t_end=float(sec.get("t_end", 0.1)),
                               cfl=float(sec.get("cfl", 0.5)),
                               m=float(sec.get("m", 5.0)))
    except RunAbortedError as exc:
        # leave the partial log and the reason on disk; main reports the error
        result = {"command": "homog-run", "aborted": True, "reason": str(exc),
                  "steps": None, "final_time": None}
        if exc.log is not None:
            exc.log.write_csv(out_dir / "runlog.csv")
            result.update(steps=len(exc.log.t) - 1, final_time=exc.log.t[-1])
        _write_json(out_dir / "result.json", result)
        raise
    log.write_csv(out_dir / "runlog.csv")
    _write_json(out_dir / "result.json",
                {"command": "homog-run", "steps": len(log.t) - 1,
                 "final_time": log.t[-1]})
    return 0


def _hydro_verdict(cp, sec, q, out_dir):
    gamma = _kernel_from(cp, "landau", gamma=1.0).gamma
    rows = [hydro.scenario_verdict(sc, gamma) for sc in hydro.load_catalog()]
    lines = ["scenario,gamma,verdict,critical_gamma"]
    for r in rows:
        lines.append(f"{r['scenario']},{r['gamma']:.7g},{r['verdict']},"
                     f"{r['critical_gamma']:.7f}")
    (out_dir / "verdicts.csv").write_text("\n".join(lines) + "\n")
    return 0


_POINT = {"outer_radius", "radial_nodes", "angular_nodes"}
_PLANE = {"hyperplane_nodes", "angular_nodes"}

# command name -> (handler, {section: keys the command reads}); besides
# [run] command, nothing else is accepted
COMMANDS = {
    "landau-eval": (_point_eval, {"kernel": {"dim", "gamma"}, "quadrature": _POINT | {"rel_tol"},
                                  "landau-eval": {"field", "point"}}),
    "boltzmann-eval": (_point_eval, {
        "kernel": {"dim", "gamma", "b"}, "quadrature": _POINT | {"hyperplane_nodes"},
        "boltzmann-eval": {"field", "point", "representation"}}),
    "barrier-check": (_barrier_check, {"barrier-check": {"m", "alpha"}}),
    "landau-delta-search": (_landau_delta_search, {"kernel": {"dim", "gamma"},
                                                   "landau-delta-search": {"m"}}),
    "boltzmann-delta-search": (_boltzmann_delta_search, {
        "kernel": {"gamma", "b"}, "quadrature": _PLANE, "boltzmann-delta-search": {"m"}}),
    "m0-search": (_m0_search, {"kernel": {"gamma", "b"}, "quadrature": _PLANE}),
    "homog-run": (_homog_run, {
        "kernel": {"gamma"},
        "homog-run": {"n", "box_radius", "t_end", "cfl", "m", "rho", "theta"}}),
    "hydro-verdict": (_hydro_verdict, {"kernel": {"gamma"}}),
}


def run_command(cp, out_dir):
    """Dispatch a parsed config; returns the process exit code.

    An infeasible search leaves ``result.json`` with the reason and exits 2.
    """
    cmd = cp["run"]["command"]
    out_dir.mkdir(parents=True, exist_ok=True)
    handler, _ = COMMANDS[cmd]
    try:
        return handler(cp, cp[cmd] if cmd in cp else {}, _quadrature_from(cp), out_dir)
    except InfeasibleError as exc:
        _write_json(out_dir / "result.json",
                    {"command": cmd, "infeasible": True, "reason": str(exc)})
        return 2


def main(argv=None):
    ap = argparse.ArgumentParser(prog="collkit",
                                 description="collision-operator toolkit")
    ap.add_argument("--config", required=True, help="INI configuration file")
    ap.add_argument("--out", default="out", help="output directory")
    args = ap.parse_args(argv)

    start = time.time()
    out_dir = Path(args.out)
    try:
        cp = _parse_config(args.config)
    except (CollkitError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    try:
        status = run_command(cp, out_dir)
    except (CollkitError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        status = 1
    # a parsed config leaves a manifest on every exit, if its directory was made
    if out_dir.is_dir():
        manifest = {
            "config": {s: dict(cp[s]) for s in cp.sections()},
            "version": __version__,
            "wall_time_s": round(time.time() - start, 3),
        }
        (out_dir / "manifest.json").write_text(
            json.dumps(manifest, sort_keys=True, indent=2) + "\n"
        )
    return status


if __name__ == "__main__":
    sys.exit(main())
