"""flowgames benchmark: end-to-end metrics per workload, or a traced run of it.

  python3 bench/run.py --workload W --seed N --seconds S --trace 0|1
  python3 bench/run.py --workload all          # every workload, untraced then traced
  python3 bench/run.py --ladder                # traced design scaling ladder (not gated)
  python3 bench/run.py --record                # rewrite bench/expected.json

Workloads: cli, design, implement, equilibria (see workloads.py). Every run
starts fresh processes from the checkout's own ``src``; a run with --trace 0
reports the end-to-end metrics, one with --trace 1 the per-layer metrics and
the tracing overhead. The last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics"}. ``failed`` counts every op
that raised, returned a non-optimal status, exited non-zero or failed its
output check; ``correct`` is false when an op failed that is not among the
known defects recorded in expected.json. Every gated time is in calibrated
seconds (see speed.py); the raw wall times are kept in the results files,
which are written with failures and spans under bench/out/. The benchmark and
every process it starts run on one CPU, the one its speed kernel samples.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

import speed
from workloads import EXPECTED, src_env

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
WORKER = BENCH / "worker.py"
ENV = src_env(ROOT)
WORKLOADS = ("cli", "design", "implement", "equilibria")
# whole passes of the op list in a run of --seconds 20 (scaled for other
# lengths), so that a run times about 20-30 s of work on a 2-core machine
PASSES_AT_20S = {"cli": 2, "design": 1, "implement": 2, "equilibria": 2}
SETUP_SAMPLES = 3
IMPORT_SAMPLES = 3
# a run must end within 180 s; processes still running at this budget are killed
RUN_BUDGET_S = 170

END_TO_END = (
    ("setup_s", "s"),
    ("op_s.p50", "s"),
    ("op_s.p90", "s"),
    ("ops_per_s", "1/s"),
    ("correct_share", "ratio"),
    ("peak_rss_mb", "MB"),
)

# per-layer metric -> (unit, how to compute it from the traced summary, the
# end-to-end metric and workload it should move)
PER_LAYER = {
    "import.total_s": ("s", ("import", "total_s"), "setup_s @ all; op_s.p50 @ cli"),
    "import.scipy_s": ("s", ("import", "scipy_s"), "setup_s @ all; op_s.p50 @ cli"),
    "import.numpy_s": ("s", ("import", "numpy_s"), "setup_s @ all; op_s.p50 @ cli"),
    "import.flowgames_self_s": ("s", ("import", "flowgames_self_s"), "setup_s @ all; op_s.p50 @ cli"),
    "gamefile.parse.calls": ("count", ("sum", ["gamefile.parse_game_file", "gamefile.parse_outcome_file"], "calls"), "op_s.p50 @ cli"),
    "gamefile.parse.self_s": ("s", ("sum", ["gamefile.parse_game_file", "gamefile.parse_outcome_file"], "self_s"), "op_s.p50 @ cli"),
    "model.eval_cost.calls": ("count", ("span", "model.eval_cost", "calls"), "op_s.p50 @ design; ops_per_s @ equilibria; op_s.p90 @ implement"),
    "model.eval_cost.self_s": ("s", ("span", "model.eval_cost", "self_s"), "op_s.p50 @ design; ops_per_s @ equilibria; op_s.p90 @ implement"),
    "model.social_cost.self_s": ("s", ("span", "model.social_cost", "self_s"), "op_s.p50 @ design"),
    "model.FlowProfile.calls": ("count", ("span", "model.FlowProfile", "calls"), "all"),
    "model.FlowProfile.self_s": ("s", ("span", "model.FlowProfile", "self_s"), "all"),
    "wardrop.grid_flows.self_s": ("s", ("span", "wardrop.grid_flows", "self_s"), "op_s.p50 @ design"),
    "wardrop.grid_flows.profiles": ("count", ("span", "wardrop.grid_flows", "profiles"), "op_s.p50 @ design"),
    "wardrop.verify_we.calls": ("count", ("span", "wardrop.verify_we", "calls"), "ops_per_s @ equilibria; op_s.p90 @ cli"),
    "wardrop.verify_we.self_s": ("s", ("span", "wardrop.verify_we", "self_s"), "ops_per_s @ equilibria; op_s.p90 @ cli"),
    "wardrop.solve_we_br.calls": ("count", ("span", "wardrop.solve_we_br", "calls"), "ops_per_s @ equilibria; op_s.p90 @ cli"),
    "wardrop.solve_we_br.self_s": ("s", ("span", "wardrop.solve_we_br", "self_s"), "ops_per_s @ equilibria; op_s.p90 @ cli"),
    "wardrop.solve_we_br.iters": ("count", ("span", "wardrop.solve_we_br", "iters"), "ops_per_s @ equilibria; op_s.p90 @ cli"),
    "wardrop.solve_we_potential.calls": ("count", ("span", "wardrop.solve_we_potential", "calls"), "ops_per_s @ equilibria; op_s.p50 @ design"),
    "wardrop.solve_we_potential.self_s": ("s", ("span", "wardrop.solve_we_potential", "self_s"), "ops_per_s @ equilibria; op_s.p50 @ design"),
    "wardrop.solve_we_potential.iters": ("count", ("span", "wardrop.solve_we_potential", "iters"), "ops_per_s @ equilibria; op_s.p50 @ design"),
    "wardrop.solve_we_potential.converged_share": ("ratio", ("share", "wardrop.solve_we_potential", "converged", "calls"), "ops_per_s @ equilibria; op_s.p50 @ design"),
    "design.build_grid.self_s": ("s", ("span", "design.build_grid", "self_s"), "op_s.p50 @ design"),
    "design.build_grid.cols": ("count", ("span", "design.build_grid", "cols"), "op_s.p50 @ design"),
    "design.solve_program_p.self_s": ("s", ("span", "design.solve_program_p", "self_s"), "op_s.p50 @ design"),
    "lp.lp_solve.calls": ("count", ("span", "lp.lp_solve", "calls"), "op_s.p90, correct_share, ops_per_s @ design"),
    "lp.lp_solve.self_s": ("s", ("span", "lp.lp_solve", "self_s"), "op_s.p90, correct_share, ops_per_s @ design"),
    "lp.lp_solve.raised": ("count", ("span", "lp.lp_solve", "raised"), "op_s.p90, correct_share, ops_per_s @ design"),
    "lp.lp_solve.nonoptimal": ("count", ("span", "lp.lp_solve", "nonoptimal"), "op_s.p90, correct_share, ops_per_s @ design"),
    "lp.lp_solve.cols_max": ("count", ("span", "lp.lp_solve", "cols_max"), "op_s.p90, correct_share, ops_per_s @ design"),
    "lp.lp_solve.wasted_share": ("ratio", ("share", "lp.lp_solve", "raised_self_s", "self_s"), "op_s.p90, correct_share, ops_per_s @ design"),
    "checks.check_bcwe.calls": ("count", ("span", "checks.check_bcwe", "calls"), "op_s.p50 @ design, implement"),
    "checks.check_bcwe.self_s": ("s", ("span", "checks.check_bcwe", "self_s"), "op_s.p50 @ design, implement"),
    "checks.check_bce_flowlevel.self_s": ("s", ("span", "checks.check_bce_flowlevel", "self_s"), "op_s.p50 @ implement"),
    "infostruct.aggregate_flow.calls": ("count", ("span", "infostruct.aggregate_flow", "calls"), "op_s.p90 @ implement"),
    "infostruct.aggregate_flow.self_s": ("s", ("span", "infostruct.aggregate_flow", "self_s"), "op_s.p90 @ implement"),
    "infostruct.bwe_violation.self_s": ("s", ("span", "infostruct.bwe_violation", "self_s"), "op_s.p90 @ implement"),
    "infostruct.solve_bwe.calls": ("count", ("span", "infostruct.solve_bwe", "calls"), "ops_per_s @ equilibria"),
    "infostruct.solve_bwe.self_s": ("s", ("span", "infostruct.solve_bwe", "self_s"), "ops_per_s @ equilibria"),
    "atomic.construct_eps_bce.self_s": ("s", ("span", "atomic.construct_eps_bce", "self_s"), "op_s.p50 @ implement"),
    "atomic.wasserstein_outcome_distance.self_s": ("s", ("span", "atomic.wasserstein_outcome_distance", "self_s"), "op_s.p50 @ implement"),
    "trace.slowdown": ("ratio", ("trace", "slowdown"), "untraced ops_per_s / traced ops_per_s, same workload"),
}

LADDER_ACTIONS = range(2, 6)
LADDER_STATES = range(1, 4)
LADDER_RESOLUTIONS = (8, 16, 32)
# time budget per ladder cell; a cell still running then is recorded as timed out
LADDER_CELL_S = 20
LADDER_LAYERS = (
    "wardrop.grid_flows",
    "design.build_grid",
    "wardrop.solve_we_potential",
    "model.eval_cost",
    "model.FlowProfile",
    "design.solve_program_p",
    "lp.lp_solve",
    "checks.check_bcwe",
)


class BenchError(Exception):
    pass


def _check_source(need_expected: bool = True):
    if not (ROOT / "src" / "flowgames" / "__init__.py").is_file():
        raise BenchError(f"no flowgames source under {ROOT / 'src'}")
    if need_expected and not EXPECTED.is_file():
        raise BenchError("bench/expected.json is missing; run with --record")


def _spawn(cmd, deadline: float | None) -> subprocess.CompletedProcess:
    """Run cmd in its own process group; at the deadline, kill the group."""
    timeout = None if deadline is None else max(1.0, deadline - time.monotonic())
    with subprocess.Popen(
        cmd,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        env=ENV,
        cwd=ROOT,
        start_new_session=True,
    ) as proc:
        try:
            out, err = proc.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            raise
    if proc.returncode != 0:
        raise BenchError(f"{' '.join(map(str, cmd[1:4]))} exited {proc.returncode}: {err.strip()[-1500:]}")
    return subprocess.CompletedProcess(cmd, proc.returncode, out, err)


def _pin_to_one_cpu():
    """Keep this process and its children on one CPU, so that the speed
    kernel and the work it calibrates run on the same one."""
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def _setup_cmd(workload: str, seed: int):
    if workload == "cli":
        return [sys.executable, "-c", speed.CHILD_PREAMBLE + "import flowgames"]
    return [sys.executable, str(WORKER), "setup", "--workload", workload, "--seed", str(seed)]


def measure_setup(workload: str, seed: int, deadline: float) -> list[tuple[float, float]]:
    """(wall, calibrated) seconds of fresh set-up processes (start, import,
    build inputs); each process samples its own host speed."""
    sampler = speed.Sampler()
    spans = []
    sampler.sample()
    for _ in range(SETUP_SAMPLES):
        t0 = time.perf_counter()
        proc = _spawn(_setup_cmd(workload, seed), deadline)
        spans.append((t0, time.perf_counter()))
        sampler.extend(speed.split_child_samples(proc.stderr)[1])
        sampler.sample()
    return [sampler.measure(t0, t1) for t0, t1 in spans]


def run_worker(workload: str, seed: int, passes: int, traced: bool, deadline: float) -> dict:
    cmd = [sys.executable, str(WORKER), "run", "--workload", workload, "--seed", str(seed)]
    cmd += ["--passes", str(passes), "--out", str(OUT)] + (["--trace"] if traced else [])
    proc = _spawn(cmd, deadline)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def import_breakdown(deadline: float) -> dict:
    """Median over fresh `python -X importtime -c "import flowgames"` runs.

    total_s is the cumulative time of the flowgames import. scipy_s and
    numpy_s add the cumulative times of that package's outermost imports,
    so they count what each pulls in (numpy modules first loaded by scipy
    count for scipy); flowgames_self_s adds the self times of the package's
    own modules.
    """
    samples = []
    for _ in range(IMPORT_SAMPLES):
        proc = _spawn([sys.executable, "-X", "importtime", "-c", "import flowgames"], deadline)
        entries = []  # (depth, package, self_us, cumulative_us) in post-order
        for line in proc.stderr.splitlines():
            fields = line.removeprefix("import time:").split("|")
            if len(fields) != 3 or not fields[0].strip().isdigit():
                continue
            name = fields[2].rstrip()
            depth = (len(name) - len(name.lstrip())) // 2
            entries.append((depth, name.strip().split(".")[0], int(fields[0]), int(fields[1])))
        sums = {"total_s": 0.0, "scipy_s": 0.0, "numpy_s": 0.0, "flowgames_self_s": 0.0}
        ancestors = []  # packages enclosing the current entry
        for depth, package, self_us, cumulative_us in reversed(entries):
            del ancestors[depth:]
            if package == "flowgames":
                sums["flowgames_self_s"] += self_us / 1e6
                if not ancestors:
                    sums["total_s"] += cumulative_us / 1e6
            elif package in ("scipy", "numpy") and not {"scipy", "numpy"} & set(ancestors):
                sums[f"{package}_s"] += cumulative_us / 1e6
            ancestors.append(package)
        samples.append(sums)
    return {key: statistics.median(s[key] for s in samples) for key in samples[0]}


def _quantile(values, q: float) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[round(q * 100) - 1]


def _tally(workers) -> tuple[int, int, bool, list]:
    attempted = failed = 0
    correct = True
    failures = []
    for w in workers:
        for rec in w["ops"]:
            attempted += 1
            if rec["failure"] is not None:
                failed += 1
                correct = correct and rec["known"]
                failures.append(rec)
    return attempted, failed, correct, failures


def end_to_end(setup: list[tuple[float, float]], w: dict) -> dict:
    """The gated metrics; every time in them is calibrated (see speed.py)."""
    cals = [rec["cal_s"] for rec in w["ops"]]
    return {
        "setup_s": statistics.median(cal for _wall, cal in setup),
        "op_s.p50": statistics.median(cals),
        "op_s.p90": _quantile(cals, 0.9),
        "ops_per_s": _ops_per_s(w),
        "correct_share": sum(rec["failure"] is None for rec in w["ops"]) / len(cals),
        "peak_rss_mb": w["peak_rss_mb"],
    }


def per_layer(layers: dict, imports: dict, slowdown: float) -> dict:
    out = {}
    for name, (_unit, source, _moves) in PER_LAYER.items():
        kind = source[0]
        if kind == "import":
            value = imports[source[1]]
        elif kind == "trace":
            value = slowdown
        elif kind == "span":
            value = layers.get(source[1], {}).get(source[2], 0)
        elif kind == "sum":
            value = sum(layers.get(span, {}).get(source[2], 0) for span in source[1])
        else:  # share
            entry = layers.get(source[1], {})
            value = entry.get(source[2], 0) / entry[source[3]] if entry.get(source[3]) else 0.0
        out[name] = value
    return out


def _ops_per_s(w: dict) -> float:
    """Correct ops per calibrated second of the timed loop."""
    return sum(rec["failure"] is None for rec in w["ops"]) / sum(rec["cal_s"] for rec in w["ops"])


def _environment(seed: int) -> dict:
    def version(dist):
        try:
            return metadata.version(dist)
        except metadata.PackageNotFoundError:
            return None

    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], capture_output=True, text=True, cwd=ROOT, timeout=10
        ).stdout.strip() or None
    except OSError:
        commit = None
    src_lines = sum(
        len(p.read_text().splitlines()) for p in sorted((ROOT / "src" / "flowgames").glob("*.py"))
    )
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "commit": commit,
        "seed": seed,
        "src_lines": src_lines,
    }


def run_workload(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    """One benchmark run; returns the result record."""
    deadline = time.monotonic() + RUN_BUDGET_S
    _check_source()
    OUT.mkdir(parents=True, exist_ok=True)
    # compile bytecode before anything is timed
    _spawn([sys.executable, "-m", "compileall", "-q", str(ROOT / "src" / "flowgames")], deadline)
    record = {"workload": workload, "trace": int(trace), "seconds": seconds, **_environment(seed)}
    if not trace:
        setup = measure_setup(workload, seed, deadline)
        passes = max(1, round(PASSES_AT_20S[workload] * seconds / 20))
        w = run_worker(workload, seed, passes, False, deadline)
        metrics = end_to_end(setup, w)
        workers = [w]
        record.update(setup_samples=setup, passes=passes, ops=w["ops"])
    else:
        imports = import_breakdown(deadline)
        base = run_worker(workload, seed, 1, False, deadline)
        traced = run_worker(workload, seed, 1, True, deadline)
        slowdown = _ops_per_s(base) / _ops_per_s(traced) if _ops_per_s(traced) else 0.0
        metrics = per_layer(traced["layers"], imports, slowdown)
        workers = [base, traced]
        record.update(
            passes=1,
            layers=traced["layers"],
            layer_targets={name: spec[2] for name, spec in PER_LAYER.items()},
            ops_per_s={"untraced": _ops_per_s(base), "traced": _ops_per_s(traced)},
            ops=base["ops"],
            traced_ops=traced["ops"],
        )
    attempted, failed, correct, failures = _tally(workers)
    units = dict(END_TO_END) if not trace else {k: v[0] for k, v in PER_LAYER.items()}
    record.update(
        correct=correct,
        attempted=attempted,
        failed=failed,
        failures=failures,
        metrics={name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    )
    path = OUT / f"{workload}-seed{seed}-trace{int(trace)}.json"
    path.write_text(json.dumps(record, indent=1) + "\n")
    record["path"] = str(path.relative_to(ROOT))
    return record


def print_report(record: dict):
    head = f"== {record['workload']} (seed {record['seed']}, {'traced' if record['trace'] else 'untraced'})"
    print(f"{head}: {record['attempted']} ops, {record['failed']} failed, correct={record['correct']}")
    for name, m in record["metrics"].items():
        print(f"  {name:45s} {m['value']:>14.6g} {m['unit']}")
    if not record["trace"]:
        print(f"  {'fail_share':45s} {record['failed'] / record['attempted']:>14.6g} ratio")
    seen = {}
    for rec in record["failures"]:
        seen.setdefault(rec["op"], [rec, 0])[1] += 1
    for op_id, (rec, times) in seen.items():
        tag = "known" if rec["known"] else "NEW"
        detail = rec["failure"]["detail"][:160]
        print(f"  failed [{tag}] x{times} {op_id}: {rec['failure']['kind']}: {detail}")
    print(f"  results: {record['path']}")


def run_ladder() -> None:
    """Scaling ladder: one traced design op per (actions, states, resolution)."""
    _check_source()
    OUT.mkdir(parents=True, exist_ok=True)
    cells = []
    print(f"{'A':>2} {'S':>2} {'res':>4} {'status':24s} {'wall_s':>8}  " + "  ".join(LADDER_LAYERS))
    for a in LADDER_ACTIONS:
        for s in LADDER_STATES:
            for r in LADDER_RESOLUTIONS:
                cmd = [sys.executable, str(WORKER), "ladder-cell", "--actions", str(a)]
                cmd += ["--states", str(s), "--resolution", str(r)]
                try:
                    proc = _spawn(cmd, time.monotonic() + LADDER_CELL_S)
                    cell = json.loads(proc.stdout.strip().splitlines()[-1])
                except subprocess.TimeoutExpired:
                    cell = {"status": f"timed out after {LADDER_CELL_S}s", "wall_s": None, "layers": {}}
                except BenchError as err:
                    cell = {"status": f"crashed: {str(err)[-80:]}", "wall_s": None, "layers": {}}
                cell.update(actions=a, states=s, resolution=r)
                cells.append(cell)
                wall = "-" if cell["wall_s"] is None else f"{cell['wall_s']:.3f}"
                selfs = "  ".join(
                    f"{cell['layers'].get(layer, {}).get('self_s', 0.0):.3f}" if cell["layers"] else "-"
                    for layer in LADDER_LAYERS
                )
                print(f"{a:>2} {s:>2} {r:>4} {cell['status'][:24]:24s} {wall:>8}  {selfs}", flush=True)
    record = {"cell_seconds": LADDER_CELL_S, "cells": cells, **_environment(0)}
    (OUT / "ladder.json").write_text(json.dumps(record, indent=1) + "\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--ladder", action="store_true", help="run the scaling ladder instead")
    parser.add_argument("--record", action="store_true", help="rewrite bench/expected.json")
    args = parser.parse_args(argv)
    _pin_to_one_cpu()
    try:
        if args.record:
            _check_source(need_expected=False)
            names = WORKLOADS if args.workload == "all" else (args.workload,)
            for name in names:
                proc = _spawn([sys.executable, str(WORKER), "record", "--workload", name, "--out", str(OUT)], None)
                sys.stderr.write(proc.stderr)
            return 0
        if args.ladder:
            run_ladder()
            return 0
        if args.workload == "all":
            summary = {}
            for name in WORKLOADS:
                for trace in (False, True):
                    record = run_workload(name, args.seed, args.seconds, trace)
                    print_report(record)
                    summary[f"{name}.trace{int(trace)}"] = {
                        k: record[k] for k in ("correct", "attempted", "failed", "metrics")
                    }
            print(json.dumps(summary))
            return 0
        record = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    except (BenchError, subprocess.TimeoutExpired) as err:
        print(f"benchmark failed: {err}", file=sys.stderr)
        return 1
    print_report(record)
    print(json.dumps({k: record[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
