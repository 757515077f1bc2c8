"""Command-line entry point.

One command per process, configured by an INI file::

    [run]
    command = m0-search

    [kernel]
    dim = 3
    gamma = 0
    operator = boltzmann
    b = constant

    [quadrature]
    hyperplane_nodes = 16

Besides ``[run]``, ``[kernel]`` and ``[quadrature]``, only the chosen
command's own section is accepted; unknown sections or keys are rejected.
``[kernel] operator`` defaults to the command's own operator: ``boltzmann``
for ``boltzmann-eval``, ``m0-search`` and a Boltzmann ``delta-search``,
``landau`` otherwise.  The cross-section ``b`` alone decides whether a
Boltzmann kernel is cutoff.
Every invocation writes its result artifacts (JSON/CSV) plus a
``manifest.json`` (echoed config, package version, wall time) into the
output directory.  Identical config produces byte-identical result
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
from importlib.metadata import version as _pkg_version
from pathlib import Path

import numpy as np

from . import fields, hydro, solver, verify
from .boltzmann import q_boltzmann_carleman, q_boltzmann_sigma
from .core import KernelSpec, QuadratureScheme, make_barrier
from .exceptions import CollkitError, InfeasibleError, RunAbortedError
from .landau import q_landau

_QUADRATURE_TYPES = {f.name: f.type for f in dataclasses.fields(QuadratureScheme)}

_SHARED_KEYS = {
    "run": {"command"},
    "kernel": {"dim", "gamma", "operator", "b"},
    "quadrature": set(_QUADRATURE_TYPES),
}

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
    allowed = {**_SHARED_KEYS, cmd: COMMANDS[cmd][1]}
    for section in cp.sections():
        if section not in allowed:
            raise ConfigError(f"{path}: section [{section}] is not used by {cmd}")
        extra = set(cp[section]) - allowed[section]
        if extra:
            raise ConfigError(
                f"{path}: unknown key(s) in [{section}]: {', '.join(sorted(extra))}"
            )
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


def _kernel_from(cp, operator="landau"):
    """The [kernel] section; ``operator`` is the default of the command using it."""
    sec = cp["kernel"] if "kernel" in cp else {}
    operator = sec.get("operator", operator)
    b = _make_b(sec.get("b", "constant")) if operator == "boltzmann" else None
    return KernelSpec(dim=int(sec.get("dim", 3)), gamma=float(sec.get("gamma", 0.0)),
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


def _delta_search(cp, sec, q, out_dir):
    target = sec.get("target", "landau")
    try:
        if target == "landau":
            report = verify.landau_delta_search(
                m=float(sec.get("m", 5.0)), d=int(sec.get("d", 3)),
                gamma=float(sec.get("gamma", -3.0)),
            )
        elif target == "boltzmann":
            report = verify.boltzmann_delta_search(float(sec.get("m", 8.0)),
                                                  _kernel_from(cp, "boltzmann"), q)
        else:
            raise ConfigError(f"unknown delta-search target {target!r}")
    except InfeasibleError as exc:
        _write_json(out_dir / "result.json",
                    {"command": "delta-search", "infeasible": True, "reason": str(exc)})
        return 2
    (out_dir / "result.json").write_text(report.to_json() + "\n")
    return 0


def _m0_search(cp, sec, q, out_dir):
    report = verify.boltzmann_m0_search(_kernel_from(cp, "boltzmann"), q)
    (out_dir / "result.json").write_text(report.to_json() + "\n")
    return 0 if report.feasible else 2


def _homog_run(cp, sec, q, out_dir):
    k = _kernel_from(cp)
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
    gamma = float(sec.get("gamma", 1.0))
    rows = [hydro.scenario_verdict(sc, gamma) for sc in hydro.load_catalog()]
    lines = ["scenario,gamma,verdict,critical_gamma"]
    for r in rows:
        lines.append(f"{r['scenario']},{r['gamma']:.7g},{r['verdict']},"
                     f"{r['critical_gamma']:.7f}")
    (out_dir / "verdicts.csv").write_text("\n".join(lines) + "\n")
    return 0


# command name -> (handler, keys of the command's own section)
COMMANDS = {
    "landau-eval": (_point_eval, {"field", "point"}),
    "boltzmann-eval": (_point_eval, {"field", "point", "representation"}),
    "barrier-check": (_barrier_check, {"m", "alpha"}),
    "delta-search": (_delta_search, {"target", "m", "d", "gamma"}),
    "m0-search": (_m0_search, set()),
    "homog-run": (_homog_run, {"n", "box_radius", "t_end", "cfl", "m", "rho", "theta"}),
    "hydro-verdict": (_hydro_verdict, {"gamma"}),
}


def run_command(cp, out_dir):
    """Dispatch a parsed config; returns the process exit code."""
    cmd = cp["run"]["command"]
    out_dir.mkdir(parents=True, exist_ok=True)
    handler, _ = COMMANDS[cmd]
    return handler(cp, cp[cmd] if cmd in cp else {}, _quadrature_from(cp), out_dir)


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
        status = run_command(cp, out_dir)
    except InfeasibleError as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return 2
    except (CollkitError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    echo = {s: dict(cp[s]) for s in cp.sections()}
    try:
        ver = _pkg_version("collkit")
    except Exception:
        ver = "unknown"
    manifest = {
        "config": echo,
        "version": ver,
        "wall_time_s": round(time.time() - start, 3),
    }
    (out_dir / "manifest.json").write_text(
        json.dumps(manifest, sort_keys=True, indent=2) + "\n"
    )
    return status


if __name__ == "__main__":
    sys.exit(main())
