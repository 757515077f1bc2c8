"""collkit benchmark: end-to-end metrics untraced, per-layer metrics traced.

Run from the repository root:

    python3 bench/run.py --workload homog --seed 1 --seconds 30 --trace 0

Workloads are ``homog``, ``boltzmann-sweep`` and ``certify`` (see
``workloads.py`` for what each exercises and why).  A run builds its inputs
from ``--seed``, then repeats a round of calls of fixed work for about
``--seconds`` seconds, at least twice, and checks every call against its
accuracy gate.  The package is imported from ``src/`` next to this
directory; the run fails if it is not there.

``--trace 0`` reports the end-to-end metrics:

* ``setup_s``: median over fresh processes of the time from process start,
  including ``import collkit``, until the workload's inputs are built;
* ``wall_s``: median time of one round (time to solution at fixed work:
  two solver runs, one point by every route, or one set of certificates);
* ``ops_per_s``: median over rounds of gated ops that passed per second;
* ``peak_rss_mb``: peak resident memory of this process.

``--trace 1`` alternates untraced and traced rounds and reports the per-layer
metrics of ``spans.PER_LAYER``, ``solver.probe_aborts`` and
``trace_overhead_frac`` (median traced round time over median untraced round
time, minus one).

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
records the machine, the per-round times and every gate that failed.  The
same record, with all spans when traced, is written to
``bench/results/<workload>-seed<seed>-trace<t>.json``.
"""

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
RESULTS = BENCH_DIR / "results"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
SETUP_SAMPLES = 5
MIN_ROUNDS = 2


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=("homog", "boltzmann-sweep", "certify"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help="build the inputs and exit (one setup_s sample)")
    return ap.parse_args(argv)


def load_collkit():
    """Import collkit from this checkout's src/, never from elsewhere."""
    if not (SRC / "collkit" / "__init__.py").is_file():
        raise SystemExit(f"bench: collkit sources not found under {SRC}")
    sys.path.insert(0, str(SRC))
    import collkit

    if Path(collkit.__file__).resolve().parent != SRC / "collkit":
        raise SystemExit(f"bench: imported collkit from {collkit.__file__}, not {SRC}")


def measure_setup(args):
    """Median wall time of fresh processes that import collkit and build the inputs."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only"]
    samples = []
    for _ in range(SETUP_SAMPLES):
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=60)
        samples.append(time.perf_counter() - t0)
        if proc.returncode != 0:
            raise SystemExit(f"bench: setup process failed:\n{proc.stderr}")
    return statistics.median(samples), samples


def run_rounds(workload, inputs, seconds, tracer):
    """Repeat the round while time remains; with a tracer, every second round is traced."""
    rounds = []
    start = time.perf_counter()
    while True:
        traced = tracer is not None and len(rounds) % 2 == 1
        if traced:
            tracer.install()
            root = tracer.open("bench.round")
        t0 = time.perf_counter()
        calls = workload.run_round(inputs, len(rounds))
        elapsed = time.perf_counter() - t0
        if traced:
            tracer.close(root)
            tracer.uninstall()
        rounds.append({"traced": traced, "seconds": elapsed, "calls": calls})
        spent = time.perf_counter() - start
        if len(rounds) >= MIN_ROUNDS and spent + 0.5 * elapsed > seconds:
            return rounds


def check_rounds(workload, inputs, rounds):
    """Gate every call; a check that raises counts as a failed call."""
    refs = workload.prepare_gates(inputs)
    for rnd in rounds:
        for call in rnd["calls"]:
            try:
                call.passed, call.ops, call.detail = workload.check(inputs, refs, call)
            except Exception as exc:  # a broken result must not stop the benchmark
                call.passed, call.ops, call.detail = False, 0, f"check raised {exc!r}"
        rnd["ops"] = sum(c.ops for c in rnd["calls"] if c.passed)


def machine_record():
    import numpy
    import scipy

    caches = {}
    for name in ("SC_LEVEL1_DCACHE_SIZE", "SC_LEVEL2_CACHE_SIZE", "SC_LEVEL3_CACHE_SIZE"):
        if name in os.sysconf_names:
            caches[name] = os.sysconf(name)
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "cache_bytes": caches,
        "thread_env": {var: os.environ.get(var) for var in THREAD_VARS},
        "commit": git_commit(),
    }


def cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_commit():
    """HEAD of the checkout, read from .git without running git; None if absent."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def end_to_end(rounds, setup_s, peak_rss_mb):
    return {
        "setup_s": (setup_s, "s"),
        "wall_s": (statistics.median(r["seconds"] for r in rounds), "s"),
        "ops_per_s": (statistics.median(r["ops"] / r["seconds"] for r in rounds), "1/s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }


def per_layer(spans_mod, tracer, rounds, probes):
    values, unmeasured = spans_mod.layer_metrics(tracer.spans, tracer.missing)
    plain = statistics.median(r["seconds"] for r in rounds if not r["traced"])
    traced = statistics.median(r["seconds"] for r in rounds if r["traced"])
    values["trace_overhead_frac"] = (traced / plain - 1.0, "frac")
    values["solver.probe_aborts"] = (float(sum(p["aborted"] for p in probes)), "count")
    if not probes:
        unmeasured["solver.probe_aborts"] = "this workload runs no solver probe"
    return values, unmeasured


def main(argv=None):
    args = parse_args(argv)
    for var in THREAD_VARS:
        os.environ[var] = "1"  # before numpy loads its BLAS
    load_collkit()
    sys.path.insert(0, str(BENCH_DIR))
    import spans as spans_mod
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    if args.setup_only:
        workload.build(args.seed)
        return 0

    tracer = spans_mod.Tracer() if args.trace else None
    setup_s, setup_samples = (None, []) if tracer else measure_setup(args)
    if tracer:
        tracer.install()
        root = tracer.open("bench.setup")
        inputs = workload.build(args.seed)
        tracer.close(root)
        tracer.uninstall()
    else:
        inputs = workload.build(args.seed)

    rounds = run_rounds(workload, inputs, args.seconds, tracer)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    check_rounds(workload, inputs, rounds)
    probes = workload.probe() if hasattr(workload, "probe") else []

    calls = [c for r in rounds for c in r["calls"]]
    failed = [c for c in calls if not c.passed]
    unmeasured = {}
    if tracer:
        metrics, unmeasured = per_layer(spans_mod, tracer, rounds, probes)
    else:
        metrics = end_to_end(rounds, setup_s, peak_rss_mb)

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": machine_record(),
        "inputs": workload.describe(inputs),
        "setup_samples_s": setup_samples,
        "rounds": [{"traced": r["traced"], "seconds": r["seconds"], "ops": r["ops"],
                    "calls": len(r["calls"])} for r in rounds],
        "failed_calls": [{"kind": c.kind, "case": repr(c.case), "detail": c.detail}
                         for c in failed],
        "gates": sorted({f"{c.kind}: {c.detail}" for c in calls if c.passed}),
        "probes": probes,
        "unmeasured": unmeasured,
    }
    RESULTS.mkdir(exist_ok=True)
    out = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(out, "w") as fh:
        json.dump({**record, "metrics": metrics,
                   "spans": tracer.spans if tracer else None}, fh, default=str)
    print(json.dumps(record, default=str))
    print(json.dumps({
        "correct": not failed,
        "attempted": len(calls),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
