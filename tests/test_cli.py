import dataclasses
import json

import numpy as np
import pytest

import collkit
from collkit import KernelSpec, QuadratureScheme, RunAbortedError, solver
from collkit.boltzmann import q_boltzmann_sigma
from collkit.cli import COMMANDS, main
from collkit.fields import bump_field

from conftest import b_cos2


def run_cli(tmp_path, config_text, name="cfg.ini", out="out"):
    cfg = tmp_path / name
    cfg.write_text(config_text)
    out_dir = tmp_path / out
    code = main(["--config", str(cfg), "--out", str(out_dir)])
    return code, out_dir


M0_CONFIG = """\
[run]
command = m0-search

[kernel]
gamma = 0
b = constant

[quadrature]
hyperplane_nodes = 12
angular_nodes = 10
"""


def test_m0_search_command(tmp_path):
    code, out_dir = run_cli(tmp_path, M0_CONFIG)
    assert code == 0
    doc = json.loads((out_dir / "result.json").read_text())
    assert doc["parameter"] == "m0"
    assert abs(doc["value"] - 5.0) < 1e-2
    manifest = json.loads((out_dir / "manifest.json").read_text())
    assert manifest["config"]["run"]["command"] == "m0-search"
    assert sorted(manifest) == ["config", "version", "wall_time_s"]
    # read from the package, so a source tree that is not installed has it too
    assert manifest["version"] == collkit.__version__


def test_boltzmann_commands_default_to_boltzmann_kernel(tmp_path):
    # without a [kernel] section, a Boltzmann command gets the constant-b
    # Boltzmann kernel at gamma = 0, whose m0 is 5
    code, out_dir = run_cli(tmp_path, "[run]\ncommand = m0-search\n", out="m0")
    assert code == 0
    doc = json.loads((out_dir / "result.json").read_text())
    assert doc["parameter"] == "m0" and abs(doc["value"] - 5.0) < 1e-3
    code, out_dir = run_cli(
        tmp_path, "[run]\ncommand = boltzmann-delta-search\n", out="delta",
    )
    assert code == 0
    doc = json.loads((out_dir / "result.json").read_text())
    assert doc["parameter"] == "delta" and 0.0 < doc["value"] < 0.5
    assert doc["certificate"][0]["integral"] <= 0.0 < doc["certificate"][1]["integral"]


def test_artifacts_are_deterministic(tmp_path):
    _, out1 = run_cli(tmp_path, M0_CONFIG, out="out1")
    _, out2 = run_cli(tmp_path, M0_CONFIG, out="out2")
    assert (out1 / "result.json").read_bytes() == (out2 / "result.json").read_bytes()


def test_hydro_verdict_command(tmp_path):
    code, out_dir = run_cli(
        tmp_path,
        "[run]\ncommand = hydro-verdict\n\n[kernel]\ngamma = 1\n",
    )
    assert code == 0
    text = (out_dir / "verdicts.csv").read_text()
    assert text.splitlines()[0] == "scenario,gamma,verdict,critical_gamma"
    assert "smooth-implosion,1,excluded,1.7320508" in text
    assert "guderley-spherical,1,open," in text
    # the kernel's gamma decides the verdicts: Coulomb excludes every scenario
    code, out_dir = run_cli(
        tmp_path, "[run]\ncommand = hydro-verdict\n\n[kernel]\ngamma = -3\n", out="coulomb",
    )
    assert code == 0
    rows = (out_dir / "verdicts.csv").read_text().splitlines()[1:]
    assert "guderley-spherical,-3,excluded,0.2222222" in rows
    assert all(row.split(",")[2] == "excluded" for row in rows)


def test_landau_eval_command(tmp_path):
    code, out_dir = run_cli(
        tmp_path,
        "[run]\ncommand = landau-eval\n\n"
        "[kernel]\ngamma = -1\n\n"
        "[quadrature]\nradial_nodes = 6\nangular_nodes = 6\n\n"
        "[landau-eval]\nfield = maxwellian\npoint = 0.5 0 0\n",
    )
    assert code == 0
    doc = json.loads((out_dir / "result.json").read_text())
    assert doc["point"] == [0.5, 0.0, 0.0]
    assert abs(doc["value"]) < 1e-4  # Maxwellian equilibrium


def test_landau_eval_point_matches_dim(tmp_path, capsys):
    # the default point is the origin in the kernel's dimension
    code, out_dir = run_cli(
        tmp_path,
        "[run]\ncommand = landau-eval\n\n[kernel]\ndim = 2\n\n"
        "[quadrature]\nradial_nodes = 6\nangular_nodes = 6\n",
        out="dim2",
    )
    assert code == 0
    assert json.loads((out_dir / "result.json").read_text())["point"] == [0.0, 0.0]
    code, out_dir = run_cli(
        tmp_path, "[run]\ncommand = landau-eval\n\n[landau-eval]\npoint = 1 2\n", out="short",
    )
    assert code == 1
    assert capsys.readouterr().err == "error: point has 2 coordinates, the kernel has dim = 3\n"
    assert not (out_dir / "result.json").exists()


def test_barrier_check_command(tmp_path):
    code, out_dir = run_cli(
        tmp_path,
        "[run]\ncommand = barrier-check\n\n[barrier-check]\nm = 6\nalpha = 1\n",
    )
    assert code == 0
    doc = json.loads((out_dir / "result.json").read_text())
    assert doc["monotone"] and doc["dominated"]
    assert abs(doc["value_at_2"] - 2.0**-6) < 1e-14


def test_delta_search_infeasible_exit_code(tmp_path):
    code, out_dir = run_cli(
        tmp_path,
        "[run]\ncommand = landau-delta-search\n\n"
        "[kernel]\ndim = 3\ngamma = 0\n\n[landau-delta-search]\nm = 2.5\n",
    )
    assert code == 2
    doc = json.loads((out_dir / "result.json").read_text())
    assert doc["infeasible"] is True and doc["command"] == "landau-delta-search"
    assert doc["reason"].startswith("no negativity window")


def test_homog_run_command(tmp_path):
    code, out_dir = run_cli(
        tmp_path,
        "[run]\ncommand = homog-run\n\n"
        "[kernel]\ngamma = -3\n\n"
        "[homog-run]\nn = 12\nbox_radius = 5\ntheta = 0.5\nt_end = 0.002\ncfl = 0.05\n",
    )
    assert code == 0
    doc = json.loads((out_dir / "result.json").read_text())
    assert doc["steps"] >= 1
    lines = (out_dir / "runlog.csv").read_text().splitlines()
    assert lines[0] == "t,norm_m,norm_dpg,mass,px,py,pz,energy,negmax"
    assert len(lines) == doc["steps"] + 2


def test_homog_run_abort_leaves_log(tmp_path, capsys, monkeypatch):
    def aborting_run(f0, k, q, t_end, cfl, m):
        log = solver.RunLog()
        log.append(0.0, 1.0, 1.0, 1.0, (0.0, 0.0, 0.0), 1.5, 0.0)
        log.append(0.25, 1.1, 1.0, 1.0, (0.0, 0.0, 0.0), 1.5, 2e-13)
        raise RunAbortedError("negativity 2.000e-13 exceeds limit", log=log)

    monkeypatch.setattr(solver, "homog_run", aborting_run)
    code, out_dir = run_cli(tmp_path, "[run]\ncommand = homog-run\n\n[homog-run]\nn = 12\n")
    assert code == 1
    assert capsys.readouterr().err == "error: negativity 2.000e-13 exceeds limit\n"
    doc = json.loads((out_dir / "result.json").read_text())
    assert doc == {"command": "homog-run", "aborted": True,
                   "reason": "negativity 2.000e-13 exceeds limit",
                   "steps": 1, "final_time": 0.25}
    lines = (out_dir / "runlog.csv").read_text().splitlines()
    assert len(lines) == 3 and lines[2].startswith("0.25,1.1,")
    assert (out_dir / "manifest.json").exists()

    def aborting_without_log(f0, k, q, t_end, cfl, m):
        raise RunAbortedError("time step underflow")

    monkeypatch.setattr(solver, "homog_run", aborting_without_log)
    code, out_dir = run_cli(tmp_path, "[run]\ncommand = homog-run\n\n[homog-run]\nn = 12\n",
                            out="out_nolog")
    assert code == 1
    doc = json.loads((out_dir / "result.json").read_text())
    assert doc["aborted"] and doc["steps"] is None and doc["final_time"] is None
    assert not (out_dir / "runlog.csv").exists()


def test_failed_run_leaves_manifest(tmp_path, capsys):
    # once the config has parsed, exit 1 writes the same manifest as exit 0;
    # here the box is too small to contain the initial Gaussian
    code, out_dir = run_cli(tmp_path, "[run]\ncommand = homog-run\n\n"
                                      "[homog-run]\nn = 8\nbox_radius = 2\ntheta = 1\n")
    assert code == 1 and "breaks containment" in capsys.readouterr().err
    manifest = json.loads((out_dir / "manifest.json").read_text())
    assert sorted(manifest) == ["config", "version", "wall_time_s"]
    assert manifest["config"]["homog-run"] == {"n": "8", "box_radius": "2", "theta": "1"}


def test_empty_config_rejected(tmp_path):
    code, _ = run_cli(tmp_path, "")
    assert code == 1


def test_unknown_key_rejected(tmp_path, capsys):
    bad_configs = [
        "[run]\ncommand = m0-search\nspeed = fast\n",
        "[run]\ncommand = m0-search\nseed = 3\n",
        "[run]\ncommand = m0-search\n\n[kernel]\nnoncutoff_s = 0.5\n",
        "[run]\ncommand = boltzmann-eval\n\n[quadrature]\nregularization_radius = 0.05\n",
        # a section that belongs to another command, with or without keys
        "[run]\ncommand = m0-search\n\n[homog-run]\nn = 12\n",
        "[run]\ncommand = m0-search\n\n[homog-run]\n",
        # values that cannot be read
        "[run]\ncommand = landau-eval\n\n[kernel]\ngamma = abc\n",
        "[run]\ncommand = landau-eval\n\n[quadrature]\nradial_nodes = 12.0\n",
        # an unknown representation
        "[run]\ncommand = boltzmann-eval\n\n[boltzmann-eval]\nrepresentation = direct\n",
        # b alone makes this kernel non-cutoff, which the sigma route refuses
        "[run]\ncommand = boltzmann-eval\n\n[kernel]\nb = power:-3\n\n"
        "[boltzmann-eval]\nrepresentation = sigma\n",
        # parameters a search cannot certify: a NaN m or gamma, d < 2, a gamma
        # outside the Landau range
        "[run]\ncommand = landau-delta-search\n\n[landau-delta-search]\nm = nan\n",
        "[run]\ncommand = landau-delta-search\n\n[kernel]\ngamma = nan\n",
        "[run]\ncommand = boltzmann-delta-search\n\n[boltzmann-delta-search]\nm = nan\n",
        "[run]\ncommand = landau-delta-search\n\n[kernel]\ndim = 1\ngamma = 0\n",
        "[run]\ncommand = landau-delta-search\n\n[kernel]\ngamma = 2\n",
        # a hyperplane integral that overflows (gamma >~ 77) is not a threshold
        "[run]\ncommand = m0-search\n\n[kernel]\ngamma = 100\n",
        "[run]\ncommand = m0-search\n\n[kernel]\ngamma = 78\n",
        "[run]\ncommand = boltzmann-delta-search\n\n[kernel]\ngamma = 100\n\n"
        "[boltzmann-delta-search]\nm = 120\n",
        # a barrier needs finite m and alpha, and inner coefficients that fit
        "[run]\ncommand = barrier-check\n\n[barrier-check]\nm = nan\n",
        "[run]\ncommand = barrier-check\n\n[barrier-check]\nalpha = inf\n",
        "[run]\ncommand = barrier-check\n\n[barrier-check]\nm = inf\n",
        "[run]\ncommand = barrier-check\n\n[barrier-check]\nm = 1100\n",
        # a tolerance outside (0, 1), and initial data that is not finite or
        # not physical, are rejected before any work
        "[run]\ncommand = landau-eval\n\n[quadrature]\nrel_tol = -1\n",
        "[run]\ncommand = homog-run\n\n[homog-run]\nbox_radius = nan\n",
        "[run]\ncommand = homog-run\n\n[homog-run]\ntheta = -1\n",
    ]
    for i, text in enumerate(bad_configs):
        code, out_dir = run_cli(tmp_path, text, out=f"out{i}")
        assert code == 1, text
        assert capsys.readouterr().err.startswith("error: "), text
        assert not (out_dir / "result.json").exists(), text
    for flag in ("--seed", "--threads"):
        with pytest.raises(SystemExit):
            main(["--config", str(tmp_path / "cfg.ini"), flag, "1"])


def test_command_table_is_the_whitelist(tmp_path, capsys):
    # every key a command reads fails on an unreadable value, and every other
    # [kernel] or [quadrature] key, including the former operator and
    # polar_radius, is unknown
    shared = {"kernel": {"dim", "gamma", "b", "operator"},
              "quadrature": {f.name for f in dataclasses.fields(QuadratureScheme)}
              | {"polar_radius"}}
    assert sum(len(keys) for _, row in COMMANDS.values() for keys in row.values()) == 41
    for cmd, (_, row) in COMMANDS.items():
        for section, keys in row.items():
            for key in sorted(keys):
                code, out_dir = run_cli(tmp_path, f"[run]\ncommand = {cmd}\n\n"
                                        f"[{section}]\n{key} = abc\n", out="bad")
                assert code == 1, (cmd, section, key)
                assert capsys.readouterr().err.startswith("error: "), (cmd, section, key)
                assert not (out_dir / "result.json").exists(), (cmd, section, key)
        unread = [(section, key) for section, keys in shared.items()
                  for key in sorted(keys - row.get(section, set()))] + [(cmd, "frobnicate")]
        for section, key in unread:
            code, _ = run_cli(tmp_path, f"[run]\ncommand = {cmd}\n\n[{section}]\n{key} = 1\n",
                              out="unread")
            assert code == 1, (cmd, section, key)
            assert "unknown key" in capsys.readouterr().err, (cmd, section, key)


@pytest.mark.parametrize("text, line", [
    ("command = m0-search\n", 1),
    ("[run]\ncommand = m0-search\ncommand = homog-run\n", 3),
    ("[run]\ncommand m0-search\n", 2),
], ids=["no-section-header", "duplicate-option", "no-equals"])
def test_malformed_config_names_its_line(tmp_path, capsys, text, line):
    code, out_dir = run_cli(tmp_path, text)
    assert code == 1
    assert f"parse error at line {line}:" in capsys.readouterr().err
    assert not out_dir.exists()


def test_boltzmann_eval_cos2_bump_sigma(tmp_path):
    # the CLI's b = cos2 and field = bump are the library's cos^2 kernel and
    # default bump, to the last bit
    code, out_dir = run_cli(
        tmp_path,
        "[run]\ncommand = boltzmann-eval\n\n[kernel]\nb = cos2\n\n"
        "[quadrature]\nradial_nodes = 8\nangular_nodes = 8\nhyperplane_nodes = 10\n\n"
        "[boltzmann-eval]\nfield = bump\npoint = 0.3 -0.2 0.1\nrepresentation = sigma\n",
    )
    assert code == 0
    k = KernelSpec(dim=3, gamma=0.0, operator="boltzmann", b=b_cos2)
    q = QuadratureScheme(radial_nodes=8, angular_nodes=8, hyperplane_nodes=10)
    expected = q_boltzmann_sigma(bump_field(dim=3), np.array([0.3, -0.2, 0.1]), k, q)
    assert json.loads((out_dir / "result.json").read_text())["value"] == expected


def test_unknown_command_rejected(tmp_path):
    code, _ = run_cli(tmp_path, "[run]\ncommand = frobnicate\n")
    assert code == 1


def test_missing_config_file(tmp_path):
    code = main(["--config", str(tmp_path / "nope.ini"), "--out", str(tmp_path / "o")])
    assert code == 1
