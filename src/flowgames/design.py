"""The designer's problem: minimize expected cost over obedient outcomes.

The optimization runs as a finite LP over state-conditional distributions on
a candidate grid of flows (seeded with solved equilibria so the LP is always
feasible). The returned basic feasible solution certifies the finite-support
bound structurally: its support cannot exceed the LP row count.
"""

from __future__ import annotations

import bisect
import math
import operator
from fractions import Fraction

from .checks import _obedience_columns
from .lp import _column, _column_solve
from .model import (
    GameSpec,
    Outcome,
    _Record,
    compile_cost,
    social_cost,
)
from .wardrop import _lattice_size, _state_equilibria, grid_flows


class DesignerProblem(_Record):
    """A game, a per-state designer cost, and per-state candidate flows.

    ``designer_cost`` maps each state to a cost expression over flows; pass
    the same expression per state for state-independent objectives. Each
    state's candidates should include an equilibrium of that state (build
    them via :func:`build_grid`): its first candidate whose obedience terms
    are all <= 0 starts the LP solve. Without one, the state starts from its
    least-disobedient candidate, and :func:`solve_program_p` relaxes the
    obedience rows by that start's violation and reports it as ``slack``.
    """

    game: GameSpec
    designer_cost: dict
    candidates: dict

    def __post_init__(self):
        for state in self.game.states:
            if state not in self.designer_cost:
                raise ValueError(f"no designer cost for state {state!r}")
            if not self.candidates.get(state):
                raise ValueError(f"no candidates for state {state!r}")


class LPSolution(_Record):
    """An exactly optimal outcome with its objective and obedience slack.

    ``status`` is always "optimal". The objective and weights are ints or
    ``Fraction``s: the exact optimum of the design LP whose obedience rows
    are relaxed to <= b_i, with ``slack`` = max b_i the largest of them, an
    exact number. So on rational candidates
    ``check_bcwe(game, outcome).worst_violation <= slack`` holds exactly, and
    ``slack`` is 0 when every state has an obedient candidate.
    """

    outcome: Outcome
    objective: Fraction
    status: str
    slack: Fraction = 0


class SupportBoundReport(_Record):
    """``ok`` iff the solution satisfies the Caratheodory-style cap."""

    ok: bool
    support: int
    caratheodory_bound: int
    bfs_bound: int
    within_bfs: bool


def social_cost_expr(game: GameSpec) -> dict:
    """Designer cost equal to realized social cost, encoded per state."""
    return {state: None for state in game.states}


def build_grid(game: GameSpec, resolution: int) -> dict:
    """Per-state candidate lists: lattice flows and solved equilibria.

    A state's equilibria are :func:`~flowgames.wardrop._state_equilibria`:
    exact on affine costs with a convex potential, in either input format,
    with no float solve, else a float solve snapped where a rational one
    verifies. Candidates are ordered lexicographically by the exact values
    of their entries, so LP results are reproducible bit for bit: the
    lattice comes in that order, and each equilibrium is merged in by
    bisection unless it equals a candidate exactly.
    """
    size = _lattice_size(game, resolution)
    if size > 10**6:
        raise ValueError(f"grid of size {size} exceeds the 1e6 cap")
    lattice = grid_flows(game, resolution)
    out = {}
    for state in game.states:
        candidates = list(lattice)
        for we in _state_equilibria(game, state):
            at = bisect.bisect_left(candidates, we.flows, key=operator.attrgetter("flows"))
            if at == len(candidates) or candidates[at] != we:
                candidates.insert(at, we)
        out[state] = tuple(candidates)
    return out


def solve_program_p(problem: DesignerProblem) -> LPSolution:
    """Minimize expected designer cost over obedient state-conditional
    distributions supported on the candidate flows, exactly.

    Each candidate is costed once per population and action; from that
    table the obedience builder of :mod:`flowgames.checks` gives its
    simplex column and its objective term, integer numerators over the
    column's own denominator (any other value, such as a float candidate's
    terms or a designer cost other than social cost, is read exactly and
    brought over a common one by :func:`lp._column`), which
    :mod:`flowgames.lp` solves exactly from the basis of one start candidate
    per state plus every obedience slack. A candidate of another shape than
    the game's flows raises ValueError.

    A state starts from its first candidate with no positive obedience term
    (an equilibrium, which :func:`build_grid` seeds), else from the one whose
    largest term is least, as at the rounded seed of an irrational
    equilibrium. Obedience row i is relaxed to <= b_i, the starts' exact
    activity on it where positive, else 0, so the starts are feasible, and
    ``slack`` = max b_i: 0 when every start is obedient, as on affine games.
    The outcome weights and the objective are the certificate's exact
    optimum of that LP.
    """
    game = problem.game
    shape = tuple(len(p.actions) for p in game.populations)
    columns, atoms, eq_rows = [], [], []
    designer = {}  # state -> compiled designer cost; None means social cost
    for row, state in enumerate(game.states):
        expr = problem.designer_cost[state]
        designer[state] = None if expr is None else compile_cost(game, expr, state)
        p = game.prior_of(state)
        for idx, flow in enumerate(problem.candidates[state]):
            if tuple(map(len, flow.flows)) != shape:
                what = f"candidate {idx} of state {state!r}, {flow!r},"
                raise ValueError(f"{what} does not match the game's populations and actions")
            columns.append((state, idx))
            atoms.append((state, p, flow))
            eq_rows.append(row)
    n_eq = len(game.states)
    witnesses, obedience, social = _obedience_columns(game, atoms, eq_rows=eq_rows)
    # an exact atom's social cost is an int numerator over its column's d;
    # any other cost is a value, lifted with its column by _column below
    cost = [
        value if designer[state] is None else p * designer[state](flow.flows)
        for (state, p, flow), value in zip(atoms, social)
    ]
    for j, ((state, _, _), (d, entries)) in enumerate(zip(atoms, obedience)):
        if d is None or designer[state] is not None:
            d, cost[j], entries = _column(entries, cost[j], d or 1)
            obedience[j] = (d, entries)
    starts = []
    for state in game.states:
        own = [j for j, (s, _) in enumerate(columns) if s == state]
        # each column's first entry is its equality row's
        start = next((j for j in own if all(v <= 0 for _, v in obedience[j][1][1:])), None)
        if start is None:
            start = min(own, key=lambda j: Fraction(max(v for _, v in obedience[j][1][1:]), obedience[j][0]))
        starts.append(start)
    # the starts' activity on each obedience row, over the lcm of their d
    big, activity = math.lcm(*(obedience[j][0] for j in starts)), [0] * (n_eq + len(witnesses))
    for j in starts:
        d, entries = obedience[j]
        for i, v in entries:
            activity[i] += v * (big // d)
    b_ub = [Fraction(v, big) if v > 0 else 0 for v in activity[n_eq:]]
    basis = starts + list(range(len(columns), len(columns) + len(witnesses)))
    certificate = _column_solve(basis, cost, obedience, [1] * n_eq + b_ub, len(witnesses))
    per_state: dict = {state: [] for state in game.states}
    # a nonbasic weight is 0: read the basic ones, in column order
    for j in sorted(j for j in certificate.basis if j < len(columns)):
        state, idx = columns[j]
        if certificate.x[j]:
            per_state[state].append((problem.candidates[state][idx], certificate.x[j]))
    outcome = Outcome({state: tuple(atoms) for state, atoms in per_state.items()})
    return LPSolution(outcome, certificate.objective, "optimal", max(b_ub, default=0))


def support_bound_check(solution: LPSolution, game: GameSpec) -> SupportBoundReport:
    """Compare the solution's support size to the structural caps.

    The coarse cap is |states| * (|A|^2 + 1); the sharper one is the LP row
    count |states| + sum_k |A^k| (|A^k| - 1), which any basic feasible
    solution satisfies automatically.
    """
    support = sum(len(atoms) for atoms in solution.outcome.per_state.values())
    asq = sum(len(p.actions) ** 2 for p in game.populations)
    pairs = sum(len(p.actions) * (len(p.actions) - 1) for p in game.populations)
    caratheodory = len(game.states) * (asq + 1)
    bfs = len(game.states) + pairs
    return SupportBoundReport(
        ok=support <= caratheodory,
        support=support,
        caratheodory_bound=caratheodory,
        bfs_bound=bfs,
        within_bfs=support <= bfs,
    )


def ccwe_grid_gap(game: GameSpec, state: str, resolution: int) -> tuple[float, float]:
    """Measure how tightly near-obedient grid distributions pin the social cost.

    Over pure lattice candidates (no equilibrium seeding), first minimize the
    uniform slack s with which the coarse-obedience rows can be satisfied,
    then push expected social cost both ways subject to that slack. Returns
    (slack, gap) where gap is the worst deviation of the achievable expected
    social cost from that of the equilibrium seeding :func:`build_grid`
    (exact on affine latencies, else the rational rounding of a float solve;
    RuntimeError if none is found). Both shrink
    as the lattice refines, turning the equilibrium-uniqueness property into
    a measurable grid-scale statement.
    """
    if game.congestion is None:
        raise ValueError("needs a congestion backing for the reference equilibrium")
    found = _state_equilibria(game, state)
    if not found:
        raise RuntimeError(f"no equilibrium found for state {state!r}")
    we_cost = float(social_cost(game, found[0], state))
    # lattice atoms of mass 1 are exact: every column is over its own int d,
    # and sc holds its social cost's numerator over it
    atoms = [(state, Fraction(1), f) for f in grid_flows(game, resolution)]
    witnesses, obedience, sc = _obedience_columns(game, atoms, coarse=True, eq_rows=[0] * len(atoms))
    n = len(witnesses)
    # variables: mu (one per lattice flow) then slack s, at -1 in every row
    s_col = (1, [(1 + i, -1) for i in range(n)])
    first = _column_solve(None, [0] * len(obedience) + [1], obedience + [s_col], [1] + [0] * n, n)
    slack = first.objective
    gap = 0.0
    for sign in (1, -1):
        res = _column_solve(None, [sign * v for v in sc], obedience, [1] + [slack] * n, n)
        gap = max(gap, abs(float(sign * res.objective) - we_cost))
    return float(slack), gap
