"""The designer's problem: minimize expected cost over obedient outcomes.

The optimization runs as a finite LP over state-conditional distributions on
a candidate grid of flows (seeded with solved equilibria so the LP is always
feasible). The returned basic feasible solution certifies the finite-support
bound structurally: its support cannot exceed the LP row count.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction

from .checks import _obedience_columns, _term_rows
from .lp import _column_solve
from .model import (
    FlowProfile,
    GameSpec,
    Outcome,
    compile_cost,
    flow_sort_key,
    social_cost,
)
from .wardrop import _lattice_size, grid_flows, solve_we_multistart, solve_we_potential, verify_we

# the largest positive obedience term a float-data start may carry as roundoff
ROUNDOFF = 1e-12


@dataclass(frozen=True)
class DesignerProblem:
    """A game, a per-state designer cost, and per-state candidate flows.

    ``designer_cost`` maps each state to a cost expression over flows; pass
    the same expression per state for state-independent objectives. Each
    state's candidates should include an equilibrium of that state (build
    them via :func:`build_grid`): its first candidate whose obedience terms
    are all <= 0 starts the LP solve. Without one, exact data make
    :func:`solve_program_p` report "uncertified", and float data start from
    the state's least-disobedient candidate if its terms exceed 0 by at most
    ``ROUNDOFF``.
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


@dataclass(frozen=True)
class LPSolution:
    """An exactly optimal outcome with its objective, or no outcome.

    ``status`` is "optimal" or "uncertified" (exact data with no obedient
    start, so no outcome and no objective). On exact data the objective and
    weights are ``Fraction``s; on float data they are the floats of the
    exact optimum of the float LP.
    """

    outcome: Outcome | None
    objective: Fraction | float | None
    status: str


@dataclass(frozen=True)
class SupportBoundReport:
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

    Candidates are deduplicated exactly and ordered lexicographically so LP
    results are reproducible bit for bit.
    """
    size = _lattice_size(game, resolution)
    if size > 10**6:
        raise ValueError(f"grid of size {size} exceeds the 1e6 cap")
    lattice = {flow_sort_key(f): f for f in grid_flows(game, resolution)}
    out = {}
    for state in game.states:
        keyed = dict(lattice)
        for we in _state_equilibria(game, state):
            keyed.setdefault(flow_sort_key(we), we)
        out[state] = tuple(keyed[key] for key in sorted(keyed))
    return out


def _snap_rational(game: GameSpec, flow: FlowProfile, state: str) -> FlowProfile:
    """Replace solver floats with a nearby exact rational equilibrium.

    Affine latencies put equilibria at rational points, so a snapped flow that
    verifies exactly is the true equilibrium (or an equally valid one on a
    tie). Quadratic latencies can have irrational equilibria; those keep
    their float coordinates.
    """
    for bound in (64, 4096, 10**6):
        flows = []
        ok = True
        for vec in flow.flows:
            vals = [Fraction(float(v)).limit_denominator(bound) for v in vec]
            # absorb the rounding drift into the largest coordinate
            j = max(range(len(vals)), key=lambda i: vals[i])
            vals[j] += 1 - sum(vals)
            if vals[j] < 0:
                ok = False
                break
            flows.append(tuple(vals))
        if not ok:
            continue
        candidate = FlowProfile(tuple(flows))
        if verify_we(game, candidate, state) <= 0:
            return candidate
    return flow


def _state_equilibria(game: GameSpec, state: str) -> list[FlowProfile]:
    if game.congestion is not None:
        result = solve_we_potential(game, state)
        found = [result.flow] if result.max_violation <= 1e-7 else []
    else:
        found = [r.flow for r in solve_we_multistart(game, state)]
    return [_snap_rational(game, f, state) for f in found]


def solve_program_p(problem: DesignerProblem) -> LPSolution:
    """Minimize expected designer cost over obedient state-conditional
    distributions supported on the candidate flows.

    Each candidate is costed once per population and action; from that
    table the obedience builder of :mod:`flowgames.checks` gives its
    objective term and its simplex column (integer numerators on exact
    data), which :mod:`flowgames.lp` solves exactly from the basis of one
    start candidate per state plus every obedience slack. The start is each
    state's first candidate with no positive obedience term (an
    equilibrium, which :func:`build_grid` seeds).
    On exact data (every cost and obedience term an int or ``Fraction``) the
    outcome weights and the objective are the certificate's ``Fraction``s,
    and status "uncertified" (no outcome) means some state has no such
    candidate. Float data (the irrational equilibria of nonlinear latencies)
    carry roundoff, so a state may have none: it starts instead from its
    candidate whose largest obedience term is least, provided that term is
    at most ``ROUNDOFF``, and each obedience row may then exceed 0 by the
    start's own activity on it; a larger term is a real violation and gives
    "uncertified" as on exact data. Float weights and objective are the
    exact optimum's floats, with weights up to 1e-11 dropped and the rest
    renormalized.
    """
    game = problem.game
    columns = [(state, idx) for state in game.states for idx in range(len(problem.candidates[state]))]
    designer = {}  # state -> compiled designer cost; None means social cost
    for state in game.states:
        expr = problem.designer_cost[state]
        designer[state] = None if expr is None else compile_cost(game, expr, state)
    atoms = [(state, game.prior_of(state), problem.candidates[state][idx]) for state, idx in columns]
    n_eq = len(game.states)
    eq_rows = [game.states.index(state) for state, _ in columns]
    witnesses, obedience, social = _obedience_columns(game, atoms, eq_rows=eq_rows)
    cost = [
        value if designer[state] is None else p * designer[state](flow.flows)
        for (state, p, flow), value in zip(atoms, social)
    ]
    values = itertools.chain(cost, *((v for _, v in col) for d, col in obedience if d is None))
    exact = all(isinstance(v, (int, Fraction)) for v in values)
    rows = None if exact else [terms for _, terms in _term_rows(witnesses, obedience, n_eq)]
    starts = []
    for state in game.states:
        own = [j for j, (s, _) in enumerate(columns) if s == state]
        # each column's first entry is its equality row's
        start = next((j for j in own if all(v <= 0 for _, v in obedience[j][1][1:])), None)
        if start is None and not exact:
            start = min(own, key=lambda j: max((row[j] for row in rows), default=0))
            if max(row[start] for row in rows) > ROUNDOFF:
                start = None
        if start is None:
            return LPSolution(None, None, "uncertified")
        starts.append(start)
    n_ub = len(witnesses)
    basis = starts + list(range(len(columns), len(columns) + n_ub))
    b_ub = [0] * n_ub if exact else [max(0, sum(Fraction(row[j]) for j in starts)) for row in rows]
    certificate = _column_solve(basis, cost, obedience, [1] * n_eq + b_ub, n_ub)
    x, objective, floor = certificate.x, certificate.objective, 0
    if not exact:
        x, objective, floor = [float(w) for w in x], float(objective), 1e-11
    per_state: dict = {state: [] for state in game.states}
    for (state, idx), w in zip(columns, x):
        if w > floor:
            per_state[state].append((problem.candidates[state][idx], w))
    # renormalize float weights (exact ones already sum to 1)
    for state, atoms in per_state.items():
        total = sum(w for _, w in atoms)
        per_state[state] = tuple((f, w / total) for f, w in atoms)
    return LPSolution(Outcome(per_state), objective, "optimal")


def support_bound_check(solution: LPSolution, game: GameSpec) -> SupportBoundReport:
    """Compare the solution's support size to the structural caps.

    The coarse cap is |states| * (|A|^2 + 1); the sharper one is the LP row
    count |states| + sum_k |A^k| (|A^k| - 1), which any basic feasible
    solution satisfies automatically.
    """
    if solution.outcome is None:
        raise ValueError("no outcome to check")
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
    social cost from the equilibrium social cost. Both shrink as the lattice
    refines, turning the equilibrium-uniqueness property into a measurable
    grid-scale statement.
    """
    if game.congestion is None:
        raise ValueError("needs a congestion backing for the reference equilibrium")
    we = solve_we_potential(game, state, tol=1e-10)
    we_cost = float(social_cost(game, we.flow, state))
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
