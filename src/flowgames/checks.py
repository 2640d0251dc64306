"""Constraint verification for correlated and Bayesian flow equilibria.

Every check returns a :class:`CheckReport` carrying the raw signed worst
violation (negative means slack) together with a witness of where it is
attained; callers decide the tolerance. All checks are exact on rational
inputs because the cost language evaluates rationals to rationals.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from fractions import Fraction

from .model import (
    FlowProfile,
    GameSpec,
    Outcome,
    _cost_fn,
    _distribution,
    _evaluate,
    _int_flows,
    _lifted_costs,
    eval_cost,
    social_cost,
)


@dataclass(frozen=True)
class CheckReport:
    """Result of one equilibrium-concept check.

    ``worst_violation`` is max(LHS - RHS) over the concept's inequality
    system; nonpositive iff every inequality holds. ``witness`` identifies
    the maximizing constraint: (pop, recommended, deviation) for pairwise
    concepts, (pop, deviation) for coarse ones, and None when the system is
    empty (single-action populations).
    """

    concept: str
    worst_violation: object
    witness: tuple | None


def obedience_rows(game: GameSpec, atoms, coarse: bool = False, shares=None) -> list:
    """The obedience inequalities over weighted flow atoms, one term per atom.

    ``atoms`` is a sequence of (state, mass, flow), where mass is the atom's
    prior times its weight. Each row is (witness, terms): for every
    population with at least two actions and every pair a != b, witness
    (pop, a, b) with terms ``mass * y_a * (c_a - c_b)``; when ``coarse``,
    for every deviation b, witness (pop, b) with terms
    ``mass * (sum_{y_j != 0} y_j c_j - c_b)``. A row's inequality is
    sum(terms) <= 0. A zero-mass atom, or a zero y_a in a pairwise row,
    gives the integer 0 without reading its costs. Each positive-mass atom
    is costed once per population and action; on rational inputs every term
    is exact.

    ``shares`` (pairwise rows only) gives each population's single-player
    mass s_k, as 1/n_k for n_k players: the deviator takes its own share
    along, so c_b is read at the flow y + s_k (1_b - 1_a), once per
    (a, b) and atom with y_a > 0. The rows view :func:`_obedience_columns`.
    """
    return _term_rows(*_obedience_columns(game, atoms, coarse, shares)[:2])


def _term_rows(witnesses, columns, offset: int = 0) -> list:
    """(witness, terms) rows of :func:`obedience_rows` from per-atom columns
    whose obedience row i is numbered ``offset + i``."""
    rows = [[0] * len(columns) for _ in witnesses]
    for j, (d, entries) in enumerate(columns):
        for i, v in entries:
            if i >= offset:
                rows[i - offset][j] = v if d is None else Fraction(v, d)
    return list(zip(witnesses, rows))


def _obedience_columns(game: GameSpec, atoms, coarse=False, shares=None, eq_rows=None):
    """:func:`obedience_rows` as (witnesses, columns, socials), a column
    (d, entries) per atom: its term in row i is v / d for an entry (i, v),
    else the integer 0. An exact atom (flows and ``shares`` ints or
    ``Fraction``s, mass a ``Fraction``) is costed by the integer backend (:func:`compile_int_cost`)
    and has integer numerators v over d, the product of its mass' and flows'
    denominators and its costs' common one. Any other atom has d None and
    its terms v as computed one by one through :func:`eval_cost`: floats, or
    exact terms of an int mass (so that all-int terms stay ints).

    With ``eq_rows`` (a row index per atom) the columns are simplex columns,
    which :func:`lp._column_solve` reads exactly in either form: each starts
    with its atom's entry on row ``eq_rows[j]`` (1 / d, or 1 when d is None),
    and obedience row i is numbered ``max(eq_rows) + 1 + i``. Every population
    and action is then costed, and ``socials`` holds each mass times its
    social cost.
    """
    if coarse and shares is not None:
        raise ValueError("shares apply to pairwise rows only")
    pops, social = game.populations, eq_rows is not None
    witnesses = []
    for pop in (p for p in pops if len(p.actions) > 1):
        pairs = itertools.product(pop.actions) if coarse else itertools.permutations(pop.actions, 2)
        witnesses += [(pop.name, *pair) for pair in pairs]

    def terms(out, i, mass, ys, cs, devs, dy):
        # append (row, mass y_a (c_a - c_b)), or mass (sum y_j c_j - dy c_b) with dy putting
        # c_b over the flows' denominator too, numbering rows from i; c_b is devs[k, a] under shares
        for k, pop in enumerate(pops if mass != 0 else ()):
            n = len(pop.actions)
            if n < 2:
                continue
            if coarse:
                own = sum(y * cj for y, cj in zip(ys[k], cs[k]) if y != 0)
                out += [(i + jb, mass * (own - dy * cb)) for jb, cb in enumerate(cs[k])]
            for ja, y in enumerate(() if coarse else ys[k]):
                if y != 0:
                    c, m, r = cs[k] if shares is None else devs[k, ja], mass * y, i + ja * (n - 1)
                    out += [(r + jb - (jb > ja), m * (c[ja] - v)) for jb, v in enumerate(c) if jb != ja]
            i += n if coarse else n * (n - 1)
        return out

    def acts(pop, mass):
        return pop.actions if social or (mass != 0 and len(pop.actions) > 1) else ()

    offset = 0 if eq_rows is None else max(eq_rows, default=-1) + 1
    exact_shares = all(isinstance(s, (int, Fraction)) for s in shares or ())
    columns, socials, lifted = [], [], {}  # lifted: (state, mass != 0) -> _lifted_costs
    for j, (state, mass, flow) in enumerate(atoms):
        flows = flow.flows
        exact = exact_shares and type(mass) is Fraction and all(
            isinstance(v, (int, Fraction)) for vec in flows for v in vec
        )
        if exact:
            key = (state, mass != 0)
            if key not in lifted:
                lifted[key] = _lifted_costs(game, state, [acts(pop, mass) for pop in pops])
            fns, deg, q = lifted[key]
            ys, dy = _int_flows(flows, [s.denominator for s in shares or () if mass != 0])
            table = [[f(ys, dy) for f in costs] or None for costs in fns]
            steps = [s.numerator * (dy // s.denominator) for s in shares or ()]

            def cost(k, jb, ys):
                return fns[k][jb](ys, dy)

        else:
            ys, dy, steps = flows, 1, shares
            table = [
                [eval_cost(game, p.name, a, flow, state) for a in acts(p, mass)] or None for p in pops
            ]

            def cost(k, jb, ys):
                pop, b = pops[k].name, pops[k].actions[jb]
                return _evaluate(_cost_fn(game, pop, b, state), ys, pop, b)

        dev = {}  # (k, a) -> costs under shares
        for k, pop in enumerate(pops if mass != 0 and shares is not None else ()):
            for ja, y in enumerate(flows[k] if table[k] else ()):
                if y != 0:
                    if shares[k] > y:
                        share, a = shares[k], pop.actions[ja]
                        raise ValueError(f"player share {share} exceeds the flow {y} on {a!r}")
                    dev[k, ja] = _deviation_costs(ys, k, ja, steps[k], table[k], cost)
        d = mass.denominator * dy ** (deg + 1) * q if exact else None
        head = [] if eq_rows is None else [(eq_rows[j], d or 1)]
        columns.append((d, terms(head, offset, mass.numerator if exact else mass, ys, table, dev, dy)))
        if social:
            total = 0
            for y, cj in zip(itertools.chain(*ys), itertools.chain(*table)):
                if y != 0:
                    total = total + y * cj
            socials.append(Fraction(mass.numerator * total, d) if exact else mass * total)
    return witnesses, columns, socials


def _deviation_costs(flows, k: int, ja: int, step, costs, cost) -> list:
    """``costs`` of population ``k`` at ``flows`` with c_b (b != a) swapped
    for ``cost(k, b, shifted)``, b's cost after one player moves from a to b,
    shifting ``step`` (its share, in the units of ``flows``). The shifted flow
    keeps its mass."""
    c = list(costs)
    for jb in range(len(costs)):
        if jb != ja:
            shifted = [list(vec) for vec in flows]
            shifted[k][ja] -= step
            shifted[k][jb] += step
            c[jb] = cost(k, jb, shifted)
    return c


def _worst_row(concept: str, rows) -> CheckReport:
    """The first row with the largest left-to-right sum of its terms."""
    worst, witness = 0, None
    for row_witness, terms in rows:
        value = sum(terms)
        if witness is None or value > worst:
            worst, witness = value, row_witness
    return CheckReport(concept, worst, witness)


def _state_atoms(game: GameSpec, outcome: Outcome) -> list:
    atoms = []
    for state in game.states:
        if state not in outcome.per_state:
            raise ValueError(f"outcome missing state {state!r}")
        p = game.prior_of(state)
        atoms.extend((state, p * w, f) for f, w in outcome.per_state[state])
    return atoms


def check_cwe(game: GameSpec, dist, state: str) -> CheckReport:
    """Obedience under complete information: for each pair (a, b), switching
    every a-recommendation to b must not lower the recommended players'
    average cost."""
    atoms = [(state, w, f) for f, w in _distribution(dist, state)]
    return _worst_row("cwe", obedience_rows(game, atoms))


def check_ccwe(game: GameSpec, dist, state: str) -> CheckReport:
    """Coarse variant: opting out to a fixed action b is compared against the
    average social cost of following recommendations."""
    atoms = [(state, w, f) for f, w in _distribution(dist, state)]
    return _worst_row("ccwe", obedience_rows(game, atoms, coarse=True))


def check_bcwe(game: GameSpec, outcome: Outcome) -> CheckReport:
    """State-averaged obedience: recommendation-conditional deviations may not
    profit in prior expectation over states."""
    return _worst_row("bcwe", obedience_rows(game, _state_atoms(game, outcome)))


def check_sbcwe(game: GameSpec, flow_map: dict) -> CheckReport:
    """Deterministic-per-state special case: one flow per state."""
    outcome = Outcome({state: ((flow, Fraction(1)),) for state, flow in flow_map.items()})
    report = check_bcwe(game, outcome)
    return CheckReport("sbcwe", report.worst_violation, report.witness)


def check_cbcwe(game: GameSpec, outcome: Outcome) -> CheckReport:
    """Coarse Bayesian variant: the deviation action is fixed before any
    recommendation arrives, and both sides are averaged over states and the
    outcome."""
    return _worst_row("cbcwe", obedience_rows(game, _state_atoms(game, outcome), coarse=True))


def check_bce_flowlevel(game: GameSpec, bce) -> CheckReport:
    """Obedience of an exchangeable n-player recommendation scheme, evaluated
    in closed form at the flow level: the pairwise rows of
    :func:`obedience_rows` under ``shares`` 1/n_k, where the deviator's own
    mass shifts the flow from y to y + (1/n_k)(1_b - 1_a). An action that no
    positive-mass atom recommends has no row.
    """
    atoms = _state_atoms(game, bce.outcome)
    rows = obedience_rows(game, atoms, shares=[Fraction(1, n) for n in bce.n])
    played = {
        (pop.name, a)
        for k, pop in enumerate(game.populations)
        for ja, a in enumerate(pop.actions)
        if any(mass != 0 and flow.flows[k][ja] != 0 for _, mass, flow in atoms)
    }
    return _worst_row("bce_flowlevel", [row for row in rows if row[0][:2] in played])


@dataclass(frozen=True)
class AveragingReport:
    """Companion report for the per-state barycenter construction.

    ``hypotheses_hold`` is sampled, not decided: it is False when a midpoint
    check of y_a c_a convex or c_a concave fails on one of 1,000 seeded
    random segments by more than 1e-9, and True otherwise, so True is a
    heuristic (see :func:`sbcwe_from_bcwe`).
    """

    check: CheckReport
    input_cost: object
    output_cost: object
    per_state: tuple
    hypotheses_hold: bool


def sbcwe_from_bcwe(game: GameSpec, outcome: Outcome) -> tuple[dict, AveragingReport]:
    """Collapse each state's distribution to its barycenter flow.

    Valid reduction for single-population two-action games; when the cost
    shape hypotheses (y_a c_a midpoint-convex, c_a midpoint-concave, sampled
    on random segments) fail, the cost comparison is informational only and
    ``hypotheses_hold`` is False.
    """
    if len(game.populations) != 1 or len(game.populations[0].actions) != 2:
        raise ValueError("barycenter reduction needs one population with exactly 2 actions")
    pop = game.populations[0]
    flow_map = {}
    per_state = []
    input_cost = 0
    output_cost = 0
    for state in game.states:
        if state not in outcome.per_state:
            raise ValueError(f"outcome missing state {state!r}")
        p = game.prior_of(state)
        atoms = outcome.per_state[state]
        bary = [0, 0]
        state_in = 0
        for f, w in atoms:
            bary[0] = bary[0] + w * f.flows[0][0]
            bary[1] = bary[1] + w * f.flows[0][1]
            state_in = state_in + w * social_cost(game, f, state)
        flow = FlowProfile((tuple(bary),))
        flow_map[state] = flow
        state_out = social_cost(game, flow, state)
        per_state.append((state, state_in, state_out))
        input_cost = input_cost + p * state_in
        output_cost = output_cost + p * state_out
    report = check_sbcwe(game, flow_map)
    holds = _sample_hypotheses(game)
    return flow_map, AveragingReport(report, input_cost, output_cost, tuple(per_state), holds)


_HYPOTHESIS_TRIALS = 1000
_HYPOTHESIS_SEED = 0


def _sample_hypotheses(game: GameSpec) -> bool:
    """Midpoint checks on random segments: y_a c_a convex and c_a concave."""
    rng = random.Random(_HYPOTHESIS_SEED)
    pop = game.populations[0]

    def flow_at(t):
        return FlowProfile(((t, 1 - t),))

    for _ in range(_HYPOTHESIS_TRIALS):
        u = rng.random()
        v = rng.random()
        mid = (u + v) / 2
        state = game.states[rng.randrange(len(game.states))]
        for j, action in enumerate(pop.actions):
            def val(t, j=j, action=action):
                f = flow_at(t)
                c = eval_cost(game, pop.name, action, f, state)
                return float(f.flows[0][j] * c), float(c)

            yu, cu = val(u)
            yv, cv = val(v)
            ym, cm = val(mid)
            if ym > (yu + yv) / 2 + 1e-9:
                return False
            if cm < (cu + cv) / 2 - 1e-9:
                return False
    return True
