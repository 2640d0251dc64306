"""Batch front end: parse documents, dispatch to solvers, emit reports.

Reports use the same sectioned text format as game documents; tabular
artifacts are CSV with a header row and LF line endings. All output is
deterministic given the same inputs and seed. Exit status is 0 on success,
1 on validation problems (bad flags, malformed documents), 2 when a solver
fails to converge or a program is infeasible.
"""

from __future__ import annotations

import argparse
import csv
import io
import sys
from importlib import resources

from .atomic import convergence_run
from .checks import (
    check_bcwe,
    check_cbcwe,
    check_ccwe,
    check_cwe,
    check_sbcwe,
)
from .design import (
    DesignerProblem,
    build_grid,
    social_cost_expr,
    solve_program_p,
    support_bound_check,
)
from .gamefile import (
    GameFileError,
    format_flow_literal,
    format_quantity,
    parse_game_file,
    parse_outcome_file,
    write_outcome_file,
)
from .generators import random_congestion_game
from .infostruct import direct_structure_from_bcwe
from .model import EvaluationError, _check_tol, compile_cost, parse_cost, social_cost, validate_game
from .wardrop import enumerate_we_grid, verify_we

_BUNDLED_GAMES = ("elfarol", "pigou_info", "pigou_network")
_BUNDLED_OUTCOMES = ("pigou_bcwe", "elfarol_cwe")


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on bad flags; route that through the
    # validation-failure path instead
    def error(self, message):
        raise _UsageError(message)


class _SolverFailure(Exception):
    pass


def _read(path: str) -> str:
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except OSError as err:
        raise _UsageError(f"cannot read {path}: {err.strerror}") from None


def _load_game(name: str, seed: int):
    if name == "random-congestion":
        return random_congestion_game(seed, n_actions=2, n_states=2)
    if name in _BUNDLED_GAMES:
        text = resources.files(__package__).joinpath(f"examples/{name}.game").read_text()
        return parse_game_file(text)
    game = parse_game_file(_read(name))
    problems = validate_game(game)
    if problems:
        raise GameFileError("; ".join(problems))
    return game


def _load_outcome(name: str, game):
    if name in _BUNDLED_OUTCOMES:
        text = resources.files(__package__).joinpath(f"examples/{name}.outcome").read_text()
        return parse_outcome_file(text, game)
    return parse_outcome_file(_read(name), game)


def _emit(text: str, path: str | None):
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)


def _csv_text(rows) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    for row in rows:
        writer.writerow(row)
    return buf.getvalue()


def _witness_lines(witness) -> list[str]:
    if witness is None:
        return []
    if len(witness) == 3:
        pop, a, b = witness
        return [
            f"witness-population = {pop}",
            f"witness-recommended = {a}",
            f"witness-deviation = {b}",
        ]
    pop, b = witness
    return [f"witness-population = {pop}", f"witness-deviation = {b}"]


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------


def _cmd_we(args) -> int:
    game = _load_game(args.game, args.seed)
    state = args.state if args.state is not None else game.states[0]
    if state not in game.states:
        raise _UsageError(f"unknown state {state!r}")
    flows = enumerate_we_grid(game, state, resolution=args.resolution, tol=args.tol)
    lines = [
        "[report]",
        "command = we",
        f"state = {state}",
        f"equilibria = {len(flows)}",
    ]
    for i, flow in enumerate(flows, start=1):
        lines.append("")
        lines.append(f"[we.{i}]")
        lines.append(f"flow = {format_flow_literal(flow)}")
        lines.append(f"social-cost = {format_quantity(social_cost(game, flow, state))}")
        lines.append(f"violation = {format_quantity(verify_we(game, flow, state))}")
    _emit("\n".join(lines) + "\n", args.out)
    return 0


def _cmd_check(args) -> int:
    game = _load_game(args.game, args.seed)
    outcome = _load_outcome(args.outcome, game)
    state_line = None
    if args.concept in ("cwe", "ccwe"):
        checker = check_cwe if args.concept == "cwe" else check_ccwe
        report = None
        for s in game.states:
            r = checker(game, outcome.per_state[s], s)
            if report is None or float(r.worst_violation) > float(report.worst_violation):
                report = r
                state_line = s
    elif args.concept == "bcwe":
        report = check_bcwe(game, outcome)
    elif args.concept == "sbcwe":
        flow_map = {}
        for s in game.states:
            atoms = [fw for fw in outcome.per_state[s] if fw[1] != 0]
            if len(atoms) != 1:
                raise _UsageError(
                    f"state {s!r} carries {len(atoms)} flows; the deterministic "
                    "check needs exactly one per state"
                )
            flow_map[s] = atoms[0][0]
        report = check_sbcwe(game, flow_map)
    else:
        report = check_cbcwe(game, outcome)
    violation = report.worst_violation
    lines = [
        "[report]",
        "command = check",
        f"concept = {args.concept}",
    ]
    if state_line is not None:
        lines.append(f"state = {state_line}")
    lines.append(f"violation = {format_quantity(violation)}")
    lines.append(f"ok = {'true' if float(violation) <= args.tol else 'false'}")
    lines.extend(_witness_lines(report.witness))
    _emit("\n".join(lines) + "\n", args.out)
    return 0


def _cmd_design(args) -> int:
    game = _load_game(args.game, args.seed)
    if args.objective == "social":
        cost_map = social_cost_expr(game)
    else:
        expr = parse_cost(args.objective)
        cost_map = {s: expr for s in game.states}
        for s in game.states:  # a bad objective fails before the grid is solved
            compile_cost(game, expr, s)
    problem = DesignerProblem(game, cost_map, build_grid(game, args.resolution))
    solution = solve_program_p(problem)
    if solution.outcome is None:
        raise _SolverFailure(f"program not solved: status {solution.status}")
    bounds = support_bound_check(solution, game)
    lines = [
        "[report]",
        "command = design",
        f"objective = {args.objective}",
        f"status = {solution.status}",
        f"value = {format_quantity(solution.objective)}",
        f"support = {bounds.support}",
        f"support-bound-quadratic = {bounds.caratheodory_bound}",
        f"support-bound-bfs = {bounds.bfs_bound}",
        f"within-bounds = {'true' if bounds.ok else 'false'}",
    ]
    body = write_outcome_file(solution.outcome, game)
    _emit("\n".join(lines) + "\n\n" + body, args.out)
    if args.csv is not None:
        rows = [("state", "flow", "weight")]
        for s in game.states:
            for flow, w in solution.outcome.per_state[s]:
                rows.append((s, format_flow_literal(flow), format_quantity(w)))
        _emit(_csv_text(rows), args.csv)
    return 0


def _cmd_implement(args) -> int:
    game = _load_game(args.game, args.seed)
    outcome = _load_outcome(args.outcome, game)
    structure, _strategies, eps = direct_structure_from_bcwe(
        game, outcome, args.denominator, symmetrize=not args.no_symmetrize
    )
    lines = [
        "[report]",
        "command = implement",
        f"denominator = {args.denominator}",
        f"populations = {structure.population_count()}",
        f"population-size = {format_quantity(structure.sizes[0])}",
        f"epsilon = {format_quantity(eps)}",
    ]
    for s in game.states:
        lines.append("")
        lines.append(f"[kernel.{s}]")
        for profile, w in structure.kernel[s]:
            lines.append(f"({', '.join(profile)}) = {format_quantity(w)}")
    _emit("\n".join(lines) + "\n", args.out)
    if args.csv is not None:
        rows = [("state", "types", "weight")]
        for s in game.states:
            for profile, w in structure.kernel[s]:
                rows.append((s, " ".join(profile), format_quantity(w)))
        _emit(_csv_text(rows), args.csv)
    return 0


def _cmd_converge(args) -> int:
    game = _load_game(args.game, args.seed)
    outcome = _load_outcome(args.outcome, game)
    try:
        n_list = [int(tok) for tok in args.n_list.split(",") if tok.strip()]
    except ValueError:
        raise _UsageError(f"bad n list {args.n_list!r}") from None
    if not n_list or any(b <= a for a, b in zip(n_list, n_list[1:])) or n_list[0] < 1:
        raise _UsageError("n list must be positive and strictly increasing")
    try:
        rows = convergence_run(game, outcome, n_list)
    except ValueError as err:
        raise _UsageError(str(err)) from None
    table = [("n", "delta_n", "eps_n", "wasserstein")]
    for row in rows:
        table.append(
            (
                str(row.n),
                format_quantity(row.delta),
                format_quantity(row.eps),
                format_quantity(row.wasserstein),
            )
        )
    _emit(_csv_text(table), args.csv)
    return 0


# ---------------------------------------------------------------------------
# Argument plumbing
# ---------------------------------------------------------------------------


def _build_parser() -> _Parser:
    parser = _Parser(prog="flowgames", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument(
            "--game",
            required=True,
            help="game document path, or one of: "
            + ", ".join(_BUNDLED_GAMES)
            + ", random-congestion",
        )
        p.add_argument("--seed", type=int, default=0, help="seed for random-congestion")
        p.add_argument("--out", default=None, help="write the report here instead of stdout")

    p_we = sub.add_parser("we", help="enumerate equilibria of one state's game")
    common(p_we)
    p_we.add_argument("--state", default=None)
    p_we.add_argument("--resolution", type=int, default=64)
    p_we.add_argument("--tol", type=float, default=1e-6)
    p_we.set_defaults(func=_cmd_we)

    p_check = sub.add_parser("check", help="verify an outcome against a concept")
    common(p_check)
    p_check.add_argument("--outcome", required=True)
    p_check.add_argument(
        "--concept", required=True, choices=("cwe", "ccwe", "bcwe", "sbcwe", "cbcwe")
    )
    p_check.add_argument("--tol", type=float, default=1e-9)
    p_check.set_defaults(func=_cmd_check)

    p_design = sub.add_parser("design", help="solve for an optimal obedient outcome")
    common(p_design)
    p_design.add_argument(
        "--objective",
        default="social",
        help="'social' or a cost expression applied in every state",
    )
    p_design.add_argument("--resolution", type=int, default=8)
    p_design.add_argument("--csv", default=None, help="also write the support as CSV")
    p_design.set_defaults(func=_cmd_design)

    p_impl = sub.add_parser("implement", help="synthesize an information structure")
    common(p_impl)
    p_impl.add_argument("--outcome", required=True)
    p_impl.add_argument("--denominator", type=int, required=True)
    p_impl.add_argument("--no-symmetrize", action="store_true")
    p_impl.add_argument("--csv", default=None, help="also write the kernel as CSV")
    p_impl.set_defaults(func=_cmd_implement)

    p_conv = sub.add_parser("converge", help="finite-player rounding table")
    common(p_conv)
    p_conv.add_argument("--outcome", required=True)
    p_conv.add_argument("--n-list", default="4,8,16,32,64,128,256")
    p_conv.add_argument("--csv", default=None, help="write the table here instead of stdout")
    p_conv.set_defaults(func=_cmd_converge)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if hasattr(args, "tol"):
            _check_tol(args.tol)
        if hasattr(args, "resolution") and args.resolution < 1:
            raise _UsageError("resolution must be at least 1")
        if hasattr(args, "denominator") and args.denominator < 1:
            raise _UsageError("denominator must be at least 1")
        return args.func(args)
    except (_UsageError, ValueError, EvaluationError, OverflowError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    except (_SolverFailure, RuntimeError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
