"""Tests of the benchmark's own code: seeding, gates, span arithmetic.

Run from the repository root with ``python -m pytest bench/tests -q``.
"""

import json
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from collkit import landau  # noqa: E402
from collkit.exceptions import InfeasibleError  # noqa: E402


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_same_seed_gives_identical_inputs(name):
    w = workloads.WORKLOADS[name]
    assert w.describe(w.build(7)) == w.describe(w.build(7))
    assert w.describe(w.build(7)) != w.describe(w.build(8))


def _gated_ops_and_points(w, inputs):
    tracer = spans.Tracer()
    tracer.install()
    root = tracer.open("bench.round")
    try:
        calls = w.run_round(inputs, 0)
    finally:
        tracer.close(root)
        tracer.uninstall()
    refs = w.prepare_gates(inputs)
    ops = [w.check(inputs, refs, c) for c in calls]
    stats = spans.LayerStats(tracer.spans, "bench.round")
    return ([(c.kind, c.case) for c in calls], [o[:2] for o in ops],
            stats.count_sum("core.field_eval", "points"))


def _cheap_certify(seed):
    w = workloads.WORKLOADS["certify"]
    inputs = w.build(seed)
    inputs.update(m0=[], delta=[])  # keep the Landau delta and contact calls
    return w, inputs


def _cheap_sweep(seed):
    w = workloads.WORKLOADS["boltzmann-sweep"]
    inputs = w.build(seed)
    inputs.update(fields=inputs["fields"][:1], points=inputs["points"][:1], kernels=[])
    return w, inputs


@pytest.mark.parametrize("make", [_cheap_certify, _cheap_sweep])
def test_same_seed_gives_identical_op_and_point_counts(make):
    first = _gated_ops_and_points(*make(11))
    second = _gated_ops_and_points(*make(11))
    assert first == second
    assert all(ok for ok, _ in first[1])
    assert first[2] > 0


def test_sweep_gate_flags_wrong_value():
    w = workloads.WORKLOADS["boltzmann-sweep"]
    inputs = {"kernels": [None]}
    refs = {(0, 0): 1.0}
    good = workloads.Call("point", 0, value={"boltzmann": [(2.0, 2.0 + 1e-5)], "landau": [0.1]})
    bad = workloads.Call("point", 0, value={"boltzmann": [(2.0, 2.1)], "landau": [0.1]})
    nan = workloads.Call("point", 0, value={"boltzmann": [(2.0, 2.0)], "landau": [float("nan")]})
    assert w.check(inputs, refs, good)[:2] == (True, 1)
    assert w.check(inputs, refs, bad)[:2] == (False, 0)
    assert w.check(inputs, refs, nan)[:2] == (False, 0)


def test_certificate_gates_flag_wrong_values():
    report = SimpleNamespace(feasible=True, value=5.0 + 0.01, certificate=[])
    assert not workloads.check_m0(0.0, report)[0]
    report.value = 5.0 + 1e-4
    assert workloads.check_m0(0.0, report)[0]

    cert = [{"abs_w": 0.2, "integral": -1e-4}, {"abs_w": 0.21, "integral": 2e-4}]
    good = SimpleNamespace(feasible=True, value=0.2, certificate=cert)
    assert workloads.check_delta_certificate(good)[0]
    flipped = SimpleNamespace(feasible=True, value=0.2, certificate=cert[::-1])
    assert not workloads.check_delta_certificate(flipped)[0]

    feasible = SimpleNamespace(feasible=True, value=1e-3)
    assert workloads.check_landau_delta(3.001, 3, 0.0, feasible)[0]
    assert not workloads.check_landau_delta(2.999, 3, 0.0, feasible)[0]
    assert workloads.check_landau_delta(2.999, 3, 0.0, InfeasibleError("no"))[0]
    assert not workloads.check_landau_delta(3.001, 3, 0.0, InfeasibleError("no"))[0]


def test_homog_gate_flags_drift():
    log = SimpleNamespace(t=[0.0, 1.0], mass=[1.0, 1.0 + 1e-5], energy=[3.0, 3.0],
                          momentum=[(0.0, 0.0, 0.0)] * 2)
    assert workloads.check_homog_log(log)[:2] == (True, 1)
    log.mass[-1] = 1.01
    assert workloads.check_homog_log(log)[:2] == (False, 1)


def test_self_time_on_hand_built_tree():
    tree = [
        ["root", 0.0, 10.0, None, None],
        ["a", 1.0, 3.0, 0, None],
        ["b", 2.0, 5.0, 0, None],   # overlaps a: [1, 5] is covered once
        ["c", 8.0, 12.0, 0, None],  # clipped to the parent's end
        ["a1", 1.5, 2.5, 1, None],  # grandchild: covered by a, not by root
    ]
    assert spans.self_times(tree) == pytest.approx([4.0, 1.0, 3.0, 4.0, 1.0])
    assert spans.roots(tree) == [0, 0, 0, 0, 0]
    stats = spans.LayerStats(tree + [["other", 20.0, 21.0, None, None]], "root")
    assert stats.n_roots == 1
    assert stats.median("a", use_self=True) == pytest.approx(1.0)
    assert stats.median("b") == pytest.approx(3.0)
    assert "other" not in stats.total


def test_tracer_wraps_every_binding_and_restores():
    original = landau.polar_nodes
    tracer = spans.Tracer()
    tracer.install()
    try:
        import collkit.boltzmann as boltzmann

        assert landau.polar_nodes is not original
        assert boltzmann.polar_nodes is landau.polar_nodes
        root = tracer.open("bench.round")
        landau.polar_nodes(np.zeros(3), 3, workloads.collkit.QuadratureScheme())
        tracer.close(root)
    finally:
        tracer.uninstall()
    assert landau.polar_nodes is original
    names = [s[0] for s in tracer.spans]
    assert names.count("landau.polar_nodes") == 1
    assert names.count("util.rule_build") == 3  # graded, geometric, sphere rule
    assert not tracer.missing


def test_missing_target_is_reported_unmeasured():
    tracer = spans.Tracer()
    gone = [("solver.refresh", "collkit.solver", "_CoefficientEngine.renamed", None),
            ("verify.contact", "collkit.not_a_module", "f", None)]
    tracer.install(gone)
    assert not tracer._restore
    values, unmeasured = spans.layer_metrics(tracer.spans, tracer.missing)
    assert values["solver.refresh_s"] == (0.0, "s")
    assert "renamed" in unmeasured["solver.refresh_s"]
    assert "not loaded" in unmeasured["verify.contact_s"]


def test_benchmark_json_names_every_reported_metric():
    doc = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    per_layer = {m["name"]: m["unit"] for m in doc["per_layer"]}
    tracer = SimpleNamespace(spans=[], missing={})
    rounds = [{"traced": False, "seconds": 1.0}, {"traced": True, "seconds": 1.1}]
    values, _ = run.per_layer(spans, tracer, rounds, [])
    assert {k: u for k, (_, u) in values.items()} == per_layer
    end_to_end = run.end_to_end([{"seconds": 2.0, "ops": 4}], 0.5, 100.0)
    assert {k: u for k, (_, u) in end_to_end.items()} == {
        m["name"]: m["unit"] for m in doc["end_to_end"]}
    assert {w["name"] for w in doc["workloads"]} == set(workloads.WORKLOADS)
