"""The four workloads: inputs built from the seed, the ops, and their checks.

Every workload's op list is fixed, so each run measures the same work and its
figures are comparable across seeds and commits; the workload seed orders the
ops within each pass (and picks the ``random-congestion`` instance of the
``cli`` workload). Instances the program gets wrong stay in: their failures
are counted, never skipped.

An op's ``run`` is the timed part. Its ``observe`` turns the output into the
JSON value recorded in ``expected.json``; ``check`` compares that value with
the record and adds checks that need no record (an LP oracle, equilibrium
residuals, exact-zero rules). Checks return None when the output is correct,
else a ``(kind, detail)`` pair with kind ``status`` or ``value``; an op that
raises fails with kind ``raised``.
"""

from __future__ import annotations

import json
import math
import os
import random
import subprocess
import sys
import tempfile
from fractions import Fraction
from importlib import resources
from pathlib import Path

import speed

BENCH = Path(__file__).resolve().parent
EXPECTED = BENCH / "expected.json"


class Op:
    def __init__(self, op_id: str, run, observe=None, check=None):
        self.id = op_id
        self.run = run
        self.observe = observe or (lambda output: None)
        self.check = check or (lambda output, recorded: None)


def _differs(observed, recorded) -> tuple | None:
    if observed != recorded:
        return ("value", f"observed {observed!r}, recorded {recorded!r}")
    return None


def _bundled(fg, name: str):
    text = resources.files("flowgames").joinpath(f"examples/{name}.game").read_text()
    return fg.parse_game_file(text)


def _bundled_outcome(fg, name: str, game):
    text = resources.files("flowgames").joinpath(f"examples/{name}.outcome").read_text()
    return fg.parse_outcome_file(text, game)


# ---------------------------------------------------------------------------
# cli: one fresh `python -m flowgames.cli` process per op
# ---------------------------------------------------------------------------

RANDOM_CONGESTION_SEEDS = 16

CLI_INVOCATIONS = {
    "we-elfarol": ["we", "--game", "elfarol"],
    "check-bcwe-pigou": ["check", "--game", "pigou_info", "--outcome", "pigou_bcwe", "--concept", "bcwe"],
    "check-cwe-elfarol": ["check", "--game", "elfarol", "--outcome", "elfarol_cwe", "--concept", "cwe"],
    "design-pigou": ["design", "--game", "pigou_info"],
    "design-elfarol-r4": ["design", "--game", "elfarol", "--resolution", "4"],
    "implement-elfarol-d2": ["implement", "--game", "elfarol", "--outcome", "elfarol_cwe", "--denominator", "2"],
    "implement-elfarol-d64": ["implement", "--game", "elfarol", "--outcome", "elfarol_cwe", "--denominator", "64"],
    "converge-elfarol": ["converge", "--game", "elfarol", "--outcome", "elfarol_cwe", "--n-list", "4,8,16"],
    "converge-pigou": ["converge", "--game", "pigou_info", "--outcome", "pigou_bcwe"],
}


# `python -m flowgames.cli ARGS`, in a process that samples its host speed
SAMPLED_CLI = speed.CHILD_PREAMBLE + "import runpy; runpy.run_module('flowgames.cli', run_name='__main__', alter_sys=True)"


def _random_we(game_seed: int) -> list[str]:
    return ["we", "--game", "random-congestion", "--seed", str(game_seed), "--resolution", "16"]


def cli_invocations(seed: int, every_random: bool = False) -> dict:
    """Invocation per op id; ``every_random`` lists all recorded random seeds."""
    out = dict(CLI_INVOCATIONS)
    seeds = range(RANDOM_CONGESTION_SEEDS) if every_random else [seed % RANDOM_CONGESTION_SEEDS]
    for s in seeds:
        out[f"we-random-s{s}"] = _random_we(s)
    return out


def cli_ops(ctx, seed: int, every_random: bool = False) -> list[Op]:
    def make(op_id, argv):
        def run():
            if ctx.traced:
                summary = Path(ctx.scratch) / f"{op_id}-{len(ctx.cli_summaries)}.json"
                ctx.cli_summaries.append(summary)
                cmd = [sys.executable, str(BENCH / "worker.py"), "cli-op", "--summary", str(summary), "--", *argv]
            else:
                cmd = [sys.executable, "-c", SAMPLED_CLI, *argv]
            proc = subprocess.run(cmd, capture_output=True, text=True, env=ctx.env, cwd=ctx.root)
            stderr, samples = speed.split_child_samples(proc.stderr)
            ctx.sampler.extend(samples)
            return proc.returncode, proc.stdout, stderr

        def check(output, recorded):
            rc, _stdout, stderr = output
            if rc != 0:
                return ("status", f"exit code {rc}: {stderr.strip()[-200:]}")
            return _differs(output[1], recorded)

        return Op(op_id, run, observe=lambda output: output[1], check=check)

    return [make(op_id, argv) for op_id, argv in cli_invocations(seed, every_random).items()]


# ---------------------------------------------------------------------------
# design: build_grid + solve_program_p + support_bound_check per instance
# ---------------------------------------------------------------------------

# (n_actions, resolution) ladders over random_congestion_game(i, n_actions, 2);
# the first is the roadmap's A=4/S=2 ladder
DESIGN_LADDERS = ((4, 8), (3, 16))
DESIGN_INSTANCES = 20
DESIGN_REL_TOL = 1e-7
DESIGN_VIOLATION_TOL = 1e-9


def design_op_id(n_actions: int, resolution: int, i: int) -> str:
    return f"A{n_actions}r{resolution}-g{i:02d}"


def design_op(fg, game, resolution: int, op_id: str) -> Op:
    def run():
        grid = fg.build_grid(game, resolution)
        problem = fg.DesignerProblem(game, fg.social_cost_expr(game), grid)
        solution = fg.solve_program_p(problem)
        if solution.status == "optimal":
            fg.support_bound_check(solution, game)
        return game, grid, solution

    return Op(op_id, run)


def design_ops(fg) -> list[Op]:
    from flowgames.generators import random_congestion_game

    ops = []
    for n_actions, resolution in DESIGN_LADDERS:
        for i in range(DESIGN_INSTANCES):
            game = random_congestion_game(i, n_actions=n_actions, n_states=2)
            ops.append(design_op(fg, game, resolution, design_op_id(n_actions, resolution, i)))
    return ops


def design_lp(fg, game, grid):
    """The designer's LP over the grid, assembled from public functions.

    Columns are (state, candidate) weights; rows: weights of each state sum
    to 1, and for every population k and actions a != b, the obedience row
    sum_s p(s) sum_f w_s(f) y_a(f) (c_a(f) - c_b(f)) <= 0. The objective is
    expected social cost.
    """
    cols = [(s, f) for s in game.states for f in grid[s]]
    c = [float(game.prior_of(s) * fg.social_cost(game, f, s)) for s, f in cols]
    a_eq = [[1.0 if s == t else 0.0 for s, _ in cols] for t in game.states]
    costs = [
        {(pop.name, a): fg.eval_cost(game, pop.name, a, f, s) for pop in game.populations for a in pop.actions}
        for s, f in cols
    ]
    a_ub = []
    for k, pop in enumerate(game.populations):
        for ja, a in enumerate(pop.actions):
            for b in pop.actions:
                if a == b:
                    continue
                a_ub.append(
                    [
                        float(game.prior_of(s) * f.flows[k][ja] * (cost[(pop.name, a)] - cost[(pop.name, b)]))
                        for (s, f), cost in zip(cols, costs)
                    ]
                )
    return c, a_eq, a_ub


def check_design(fg, ctx, attempts) -> list:
    """Verdicts for design attempts, aligned with ``attempts``.

    Each distinct instance solved as ``optimal`` has its LP solved again by
    ``oracle.py`` (HiGHS, in its own process, so this process imports only
    what flowgames imports). Such an op is correct when HiGHS also finds an
    optimum, its objective is within 1e-7 * max(1, |v|) of that optimum and
    check_bcwe of its outcome is at most 1e-9. RuntimeError means the oracle
    process itself failed.
    """
    import numpy as np

    pending = {}
    for op, output in attempts:
        if not isinstance(output, BaseException) and output[2].status == "optimal":
            if op.id not in pending:
                game, grid, _solution = output
                pending[op.id] = design_lp(fg, game, grid)
    optima = {}
    if pending:
        ids = sorted(pending)
        arrays = {}
        for n, op_id in enumerate(ids):
            c, a_eq, a_ub = pending[op_id]
            arrays[f"c{n}"], arrays[f"aeq{n}"], arrays[f"aub{n}"] = map(np.array, (c, a_eq, a_ub))
        with tempfile.TemporaryDirectory(dir=ctx.scratch) as tmp:
            path = Path(tmp) / "lps.npz"
            np.savez(path, **arrays)
            proc = subprocess.run(
                [sys.executable, str(BENCH / "oracle.py"), str(path)],
                capture_output=True,
                text=True,
                cwd=ctx.root,
            )
        if proc.returncode != 0:
            raise RuntimeError(f"LP oracle failed: {proc.stderr.strip()[-300:]}")
        optima = dict(zip(ids, json.loads(proc.stdout)))
    verdicts = []
    for op, output in attempts:
        if isinstance(output, BaseException):
            verdicts.append(raised_verdict(output))
            continue
        game, _grid, solution = output
        if solution.status != "optimal":
            verdicts.append(("status", f"status {solution.status}"))
            continue
        status, optimum = optima[op.id]
        if status != "optimal":
            verdicts.append(("value", f"program optimal, HiGHS {status}"))
            continue
        value = float(solution.objective)
        violation = float(fg.check_bcwe(game, solution.outcome).worst_violation)
        if abs(value - optimum) > DESIGN_REL_TOL * max(1.0, abs(optimum)):
            verdicts.append(("value", f"objective {value!r}, HiGHS optimum {optimum!r}"))
        elif violation > DESIGN_VIOLATION_TOL:
            verdicts.append(("value", f"check_bcwe violation {violation!r}"))
        else:
            verdicts.append(None)
    return verdicts


# ---------------------------------------------------------------------------
# implement: direct_structure_from_bcwe at one denominator, then convergence_run
# ---------------------------------------------------------------------------

# n values that do not divide the flow denominators of elfarol_cwe or of most
# random_bcwe outcomes, so eps and W1 stay nonzero there; the outcomes whose
# flows are integers are held to the exact-zero rule instead
IMPLEMENT_N_LIST = (5, 7, 9, 11, 13)
# Op costs grow about as d^3 with the denominator. The intermediate
# denominators and the sixteen random_bcwe outcomes (most cost about the same)
# fill the cost range, so that op_s.p50 falls inside the random_bcwe cluster
# and op_s.p90 among the d = 40..48 ops, not on a gap between two op costs.
ELFAROL_DENOMINATORS = (16, 24, 32, 40, 44, 48, 64)
PIGOU_DENOMINATORS = (65, 96, 128, 160)
RANDOM_BCWE_SEEDS = range(16)
W1_TOL = 1e-9


def _flow_lcm(outcome) -> int | None:
    lcm = 1
    for atoms in outcome.per_state.values():
        for flow, _w in atoms:
            for vec in flow.flows:
                for v in vec:
                    if not isinstance(v, Fraction):
                        return None
                    lcm = math.lcm(lcm, v.denominator)
    return lcm


def implement_ops(fg) -> list[Op]:
    from flowgames.generators import random_bcwe, random_congestion_game

    elfarol = _bundled(fg, "elfarol")
    pigou = _bundled(fg, "pigou_info")
    cases = [("elfarol", elfarol, _bundled_outcome(fg, "elfarol_cwe", elfarol), d) for d in ELFAROL_DENOMINATORS]
    cases += [("pigou", pigou, _bundled_outcome(fg, "pigou_bcwe", pigou), d) for d in PIGOU_DENOMINATORS]
    for s in RANDOM_BCWE_SEEDS:
        game = random_congestion_game(s, n_actions=3, n_states=2)
        cases.append((f"rbcwe{s}", game, random_bcwe(game, s), 12))
    return [_implement_op(fg, *case) for case in cases]


def _implement_op(fg, label, game, outcome, denominator) -> Op:
    def run():
        _structure, _strategies, eps = fg.direct_structure_from_bcwe(game, outcome, denominator)
        rows = fg.convergence_run(game, outcome, IMPLEMENT_N_LIST)
        return eps, rows

    def observe(output):
        eps, rows = output
        return {
            "eps": str(eps),
            "rows": [[row.n, repr(row.delta), str(row.eps), row.wasserstein] for row in rows],
        }

    def check(output, recorded):
        eps, rows = output
        lcm = _flow_lcm(outcome)
        if lcm is not None and denominator % lcm == 0 and eps != 0:
            return ("value", f"eps {eps} is not 0 although {denominator} is a multiple of {lcm}")
        for row in rows:
            if lcm is not None and row.n % lcm == 0 and (row.eps != 0 or row.wasserstein != 0):
                return ("value", f"row n={row.n} is not 0 although n is a multiple of {lcm}")
        observed = observe(output)
        if observed["eps"] != recorded["eps"]:
            return _differs(observed["eps"], recorded["eps"])
        if len(observed["rows"]) != len(recorded["rows"]):
            return _differs(observed["rows"], recorded["rows"])
        for got, want in zip(observed["rows"], recorded["rows"]):
            if got[:3] != want[:3] or abs(got[3] - want[3]) > W1_TOL:
                return _differs(got, want)
        return None

    return Op(f"{label}-d{denominator}", run, observe=observe, check=check)


# ---------------------------------------------------------------------------
# equilibria: grid enumeration and the cost-uniqueness probe (float only)
# ---------------------------------------------------------------------------

QUADRATIC_SEEDS = range(6)
# the two-state, three-action games of acceptance criterion 8 (odd g); the
# one-state games there take half as long, and mixing both kinds would put
# op_s.p50 on the gap between them
PROBE_GAMES = range(1, 20, 2)
PROBE_STRUCTURES = range(3)
WE_TOL = 1e-6
PROBE_TOL = 1e-6


def _enumerate_op(fg, op_id, game, state, resolution) -> Op:
    def run():
        return fg.enumerate_we_grid(game, state, resolution)

    def check(output, recorded):
        for flow in output:
            violation = float(fg.verify_we(game, flow, state))
            if violation > WE_TOL:
                return ("value", f"returned flow has verify_we {violation!r}")
        return _differs(len(output), recorded)

    return Op(op_id, run, observe=len, check=check)


def _probe_op(fg, op_id, game, structure) -> Op:
    def run():
        return fg.bwe_cost_uniqueness_probe(game, structure, trials=20, tol=1e-9)

    def check(report, recorded):
        if report.cost_deviation > PROBE_TOL or report.flow_deviation > PROBE_TOL:
            return ("value", f"deviations {report.cost_deviation!r}, {report.flow_deviation!r}")
        return None

    return Op(op_id, run, check=check)


def equilibria_ops(fg) -> list[Op]:
    from flowgames.generators import random_congestion_game, random_structure

    ops = [_enumerate_op(fg, "elfarol-r64", _bundled(fg, "elfarol"), "0", 64)]
    for s in QUADRATIC_SEEDS:
        game = random_congestion_game(s, n_actions=3, quadratic=True)
        ops.append(_enumerate_op(fg, f"quad{s}-r32", game, "0", 32))
    for g in PROBE_GAMES:
        game = random_congestion_game(g, n_actions=2 + g % 2, n_states=1 + g % 2)
        for s in PROBE_STRUCTURES:
            ops.append(_probe_op(fg, f"probe-g{g:02d}s{s}", game, random_structure(game, 100 * g + s)))
    return ops


# ---------------------------------------------------------------------------


def src_env(root: Path) -> dict:
    """The environment in which ``import flowgames`` loads ``root/src``."""
    return dict(os.environ, PYTHONPATH=str(root / "src"))


class Context:
    """Where a worker runs, whether it traces and where host-speed samples go."""

    def __init__(self, root: Path, scratch: Path, traced: bool, sampler=None):
        self.root = root
        self.scratch = scratch
        self.traced = traced
        self.sampler = sampler or speed.Sampler()
        self.cli_summaries: list[Path] = []
        self.env = src_env(root)


def build(name: str, fg, ctx: Context, seed: int, every_random: bool = False) -> list[Op]:
    if name == "cli":
        return cli_ops(ctx, seed, every_random)
    if name == "design":
        return design_ops(fg)
    if name == "implement":
        return implement_ops(fg)
    if name == "equilibria":
        return equilibria_ops(fg)
    raise ValueError(f"unknown workload {name!r}")


def raised_verdict(exc: BaseException) -> tuple:
    return ("raised", f"{type(exc).__name__}: {exc}")


def check_all(name: str, fg, ctx: Context, attempts, recorded: dict) -> list:
    """One verdict per (op, output) attempt: None, or (kind, detail)."""
    if name == "design":
        return check_design(fg, ctx, attempts)
    return [
        raised_verdict(output)
        if isinstance(output, BaseException)
        else op.check(output, recorded.get(op.id))
        for op, output in attempts
    ]


def load_expected() -> dict:
    return json.loads(EXPECTED.read_text())


def pass_order(ops: list[Op], seed: int, passes: int) -> list[Op]:
    """Each pass runs every op once, in an order drawn from the seed."""
    rng = random.Random(seed)
    order = []
    for _ in range(passes):
        order.extend(rng.sample(ops, len(ops)))
    return order
