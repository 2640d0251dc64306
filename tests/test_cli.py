import csv
import importlib
import io
import json
import os
import re
import shlex
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import flowgames
from flowgames.cli import main


def run_cli(argv, capsys):
    rc = main(argv)
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def test_we_elfarol_report(capsys):
    rc, out, err = run_cli(["we", "--game", "elfarol", "--resolution", "64"], capsys)
    assert rc == 0
    assert err == ""
    assert "equilibria = 3" in out
    assert out.count("social-cost = 1\n") == 3
    assert "flow = (1, 0)" in out


def test_documented_negative_objective_runs(capsys):
    # the README's --objective example starts with "-": it must reach the
    # designer as a value, not be read as an option
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    example = re.search(r"`(--objective\S*-y\[a\]\S*)`", readme).group(1)
    rc, out, err = run_cli(["design", "--game", "elfarol", *shlex.split(example)], capsys)
    assert (rc, err) == (0, "")
    assert "objective = -y[a]\n" in out
    assert "value = -1\n" in out


def test_outputs_are_deterministic(capsys):
    argv = ["we", "--game", "elfarol", "--resolution", "64"]
    first = run_cli(argv, capsys)
    second = run_cli(argv, capsys)
    assert first == second


def test_check_bcwe_pigou_outcome(capsys):
    rc, out, _ = run_cli(
        ["check", "--game", "pigou_info", "--outcome", "pigou_bcwe", "--concept", "bcwe"],
        capsys,
    )
    assert rc == 0
    assert "violation = 0" in out
    assert "ok = true" in out
    assert "witness-population = traffic" in out
    assert "witness-recommended = a" in out
    assert "witness-deviation = b" in out


CHECK_GOLDEN = json.loads((Path(__file__).parent / "golden" / "check_stdout.json").read_text())


@pytest.mark.parametrize("case", sorted(CHECK_GOLDEN))
def test_check_stdout_matches_golden(case, capsys):
    # exit status and stdout of `check` on both bundled (game, outcome) pairs
    # under all five concepts; sbcwe rejects both outcomes (exit 1, no stdout)
    game, outcome, concept = case.split()
    rc, out, _ = run_cli(
        ["check", "--game", game, "--outcome", outcome, "--concept", concept], capsys
    )
    assert (rc, out) == (CHECK_GOLDEN[case]["exit"], CHECK_GOLDEN[case]["stdout"])


SOLVER_GOLDEN = json.loads((Path(__file__).parent / "golden" / "solver_stdout.json").read_text())


@pytest.mark.parametrize("argv", sorted(SOLVER_GOLDEN))
def test_solver_stdout_matches_golden(argv, capsys):
    # `we` and `design` runs whose reports come from the equilibrium solvers:
    # the potential solve on congestion games, best response on elfarol
    rc, out, err = run_cli(argv.split(), capsys)
    want = SOLVER_GOLDEN[argv]
    assert (rc, out, err) == (want["exit"], want["stdout"], want["stderr"])


def test_check_cwe_reports_state(capsys):
    rc, out, _ = run_cli(
        ["check", "--game", "elfarol", "--outcome", "elfarol_cwe", "--concept", "cwe"],
        capsys,
    )
    assert rc == 0
    assert "state = 0" in out
    assert "violation = 0" in out


def test_check_sbcwe_needs_single_atoms(capsys):
    rc, _, err = run_cli(
        ["check", "--game", "pigou_info", "--outcome", "pigou_bcwe", "--concept", "sbcwe"],
        capsys,
    )
    assert rc == 1
    assert err != ""


def test_check_sbcwe_constant_map(tmp_path, capsys):
    outcome = tmp_path / "constant.outcome"
    outcome.write_text("[outcome.0]\n(1, 0) = 1\n\n[outcome.1]\n(1, 0) = 1\n")
    rc, out, _ = run_cli(
        ["check", "--game", "pigou_info", "--outcome", str(outcome), "--concept", "sbcwe"],
        capsys,
    )
    assert rc == 0
    assert "violation = 1/2" in out
    assert "ok = false" in out


def test_design_elfarol_report(capsys):
    rc, out, _ = run_cli(
        ["design", "--game", "elfarol", "--objective", "social", "--resolution", "4"],
        capsys,
    )
    assert rc == 0
    assert "value = 2/3" in out
    assert "within-bounds = true" in out
    assert "(1/2, 1/2) = 2/3" in out
    assert "(1, 0) = 1/3" in out


def test_design_csv_support_table(tmp_path, capsys):
    csv_path = tmp_path / "support.csv"
    rc, _, _ = run_cli(
        [
            "design",
            "--game",
            "elfarol",
            "--objective",
            "social",
            "--resolution",
            "4",
            "--csv",
            str(csv_path),
        ],
        capsys,
    )
    assert rc == 0
    rows = list(csv.reader(io.StringIO(csv_path.read_text())))
    assert rows == [
        ["state", "flow", "weight"],
        ["0", "(1/2, 1/2)", "2/3"],
        ["0", "(1, 0)", "1/3"],
    ]


def test_implement_reports_kernel(capsys):
    rc, out, _ = run_cli(
        ["implement", "--game", "elfarol", "--outcome", "elfarol_cwe", "--denominator", "2"],
        capsys,
    )
    assert rc == 0
    assert "population-size = 1/2" in out
    assert "epsilon = 0" in out
    assert "(a, a) = 1/3" in out
    assert "(a, b) = 1/3" in out
    assert "(b, a) = 1/3" in out


def test_converge_emits_csv(capsys):
    rc, out, _ = run_cli(
        [
            "converge",
            "--game",
            "elfarol",
            "--outcome",
            "elfarol_cwe",
            "--n-list",
            "4,8,16",
        ],
        capsys,
    )
    assert rc == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["n", "delta_n", "eps_n", "wasserstein"]
    assert [r[0] for r in rows[1:]] == ["4", "8", "16"]
    eps = [float(r[2]) for r in rows[1:]]
    assert eps == sorted(eps, reverse=True)
    assert all(r[3] == "0" for r in rows[1:])


def test_out_flag_writes_file(tmp_path, capsys):
    target = tmp_path / "report.txt"
    rc, out, _ = run_cli(
        ["we", "--game", "elfarol", "--resolution", "8", "--out", str(target)], capsys
    )
    assert rc == 0
    assert out == ""
    rc2, stdout, _ = run_cli(["we", "--game", "elfarol", "--resolution", "8"], capsys)
    assert target.read_text() == stdout


def test_random_game_is_seed_deterministic(capsys):
    argv = ["we", "--game", "random-congestion", "--seed", "3", "--resolution", "16"]
    first = run_cli(argv, capsys)
    second = run_cli(argv, capsys)
    assert first == second
    other = run_cli(
        ["we", "--game", "random-congestion", "--seed", "4", "--resolution", "16"],
        capsys,
    )
    assert other[1] != first[1]


def test_usage_errors_exit_one(capsys, tmp_path, monkeypatch):
    def no_grid(*args, **kwargs):
        raise AssertionError("a usage error reached build_grid")

    # each error is reported before any design grid is solved
    monkeypatch.setattr("flowgames.cli.build_grid", no_grid)
    wet_dry = tmp_path / "wet_dry.game"
    wet_dry.write_text(
        "[populations]\ncrowd = a, b\n\n[states]\nnames = wet, dry\n\n"
        "[prior]\nwet = 1/2\ndry = 1/2\n\n[costs]\ncrowd.a = theta*y[a]\ncrowd.b = 1\n"
    )
    # a cost beyond float range once ended in an OverflowError traceback
    huge, half = tmp_path / "huge.game", tmp_path / "half.outcome"
    huge.write_text(
        "[populations]\ncrowd = a, b\n\n[states]\nnames = 0\n\n"
        f"[prior]\n0 = 1\n\n[costs]\ncrowd.a = {10**400}*y[a]\ncrowd.b = 1\n"
    )
    half.write_text("[outcome.0]\n(1/2, 1/2) = 1\n")
    for argv in [
        ["we", "--game", "no-such-game"],
        ["frobnicate", "--game", "elfarol"],
        ["we", "--game", "elfarol", "--tol", "0"],
        ["converge", "--game", "elfarol", "--outcome", "elfarol_cwe", "--n-list", "8,4"],
        # a state table that misses the state: an evaluation error, not a crash
        ["design", "--game", "elfarol", "--objective", "theta[x=1]"],
        ["design", "--game", "elfarol", "--objective", "y[zzz]"],
        # theta on non-numeric state names is caught by validation
        ["we", "--game", str(wet_dry)],
        ["we", "--game", str(huge)],
        ["check", "--game", str(huge), "--outcome", str(half), "--concept", "cwe"],
    ]:
        rc, _, err = run_cli(argv, capsys)
        assert rc == 1, argv
        assert err.startswith("error:"), argv
        assert "Traceback" not in err
    # design meets the float overflow past its grid, so build_grid is restored
    monkeypatch.undo()
    for argv in [
        ["design", "--game", str(huge), "--resolution", "4"],
        ["design", "--game", "elfarol", "--objective", f"{10**400}*y[a]", "--resolution", "4"],
    ]:
        assert run_cli(argv, capsys) == (1, "", "error: integer division result too large for a float\n")


@pytest.mark.parametrize("tol", ["nan", "inf", "-inf", "0", "-1e-6"])
@pytest.mark.parametrize("command", ["we", "check"])
def test_tol_must_be_finite_and_positive(command, tol, capsys):
    # --tol nan once listed 65 "equilibria" (violation 0.0898 among them),
    # and check printed ok = false for nan and ok = true for inf
    extra = ["--resolution", "8"] if command == "we" else ["--outcome", "elfarol_cwe", "--concept", "cwe"]
    rc, out, err = run_cli([command, "--game", "elfarol", f"--tol={tol}", *extra], capsys)
    assert (rc, out) == (1, "")
    assert err == "error: tol must be positive\n"


def test_console_script_installed():
    # The console script is whatever `[project.scripts]` declares, so read the
    # declaration and run the launcher body that installers generate from it;
    # an installed `flowgames` on PATH, where there is one, must match it.
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    scripts = tomllib.loads(pyproject.read_text())["project"]["scripts"]
    assert "flowgames" in scripts
    module, _, attr = scripts["flowgames"].partition(":")
    assert callable(getattr(importlib.import_module(module), attr))

    launcher = f"import sys; from {module} import {attr}; sys.exit({attr}())"
    package_root = str(Path(flowgames.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [package_root, env.get("PYTHONPATH")]))
    argv = ["we", "--game", "elfarol", "--resolution", "8"]

    proc = subprocess.run(
        [sys.executable, "-c", launcher, *argv], capture_output=True, env=env
    )
    assert proc.returncode == 0
    assert b"equilibria = 3" in proc.stdout
    assert proc.stderr == b""

    # main's return value must become the process's exit status
    bad = subprocess.run(
        [sys.executable, "-c", launcher, "we", "--game", "elfarol", "--resolution", "0"],
        capture_output=True,
        env=env,
    )
    assert bad.returncode == 1
    assert bad.stderr.startswith(b"error:")

    exe = shutil.which("flowgames")
    if exe is not None:
        installed = subprocess.run([exe, *argv], capture_output=True)
        assert installed.returncode == 0
        assert installed.stdout == proc.stdout
