"""Constraint verification for correlated and Bayesian flow equilibria.

Every check returns a :class:`CheckReport` carrying the raw signed worst
violation (negative means slack) together with a witness of where it is
attained; callers decide the tolerance. All checks are exact on rational
inputs because the cost language evaluates rationals to rationals.
"""

from __future__ import annotations

import itertools
import math
import random
from fractions import Fraction

from .model import (
    FlowProfile,
    GameSpec,
    Outcome,
    _Record,
    _check_shape,
    _check_states,
    _cost_fn,
    _distribution,
    _evaluate,
    _fold,
    _int_flows,
    _lifted_costs,
    eval_cost,
    social_cost,
)


class CheckReport(_Record):
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


def _row_sums(witnesses, columns) -> list:
    """(witness, sum(terms)) per row of :func:`_term_rows`, in value and type.
    When every column is exact, a row adds its numerators v as v * (L // d)
    over L, the lcm of the columns' d, into one ``Fraction``; a row with no
    entry is the int 0. Otherwise each row is summed left to right (:func:`_fold`)."""
    if any(d is None for d, _ in columns):
        return [(witness, _fold(terms)) for witness, terms in _term_rows(witnesses, columns)]
    lcm, sums = math.lcm(*(d for d, _ in columns)), {}
    for d, entries in columns:
        scale = lcm // d
        for i, v in entries:
            sums[i] = sums.get(i, 0) + v * scale
    return [(w, Fraction(sums[i], lcm) if i in sums else 0) for i, w in enumerate(witnesses)]


def _sums(game: GameSpec, atoms, coarse=False, shares=None) -> list:
    """:func:`_row_sums` of the obedience rows of ``atoms``."""
    return _row_sums(*_obedience_columns(game, atoms, coarse, shares)[:2])


def _obedience_columns(game: GameSpec, atoms, coarse=False, shares=None, eq_rows=None):
    """:func:`obedience_rows` as (witnesses, columns, socials), a column
    (d, entries) per atom: its term in row i is v / d for an entry (i, v),
    else the integer 0. An exact atom (flows and ``shares`` ints or
    ``Fraction``s, mass a ``Fraction``) is costed by the integer backend (:func:`compile_int_cost`)
    and has integer numerators v over d, the product of its mass' denominator,
    its flows' (the lcm of the shares' denominators and a lattice flow's
    resolution or any other flow's entries' denominators) and its costs'
    common one. Any other atom has d None and
    its terms v as computed one by one through :func:`eval_cost`: floats, or
    exact terms of an int mass (so that all-int terms stay ints).

    With ``eq_rows`` (a row index per atom) the columns are simplex columns:
    each starts with its atom's entry on row ``eq_rows[j]`` (1 / d, or 1 when
    d is None), and obedience row i is numbered ``max(eq_rows) + 1 + i``.
    Every population and action is then costed, and ``socials`` holds each
    mass times its social cost over its column's d: the int numerator m *
    sum(y_j c_j) of an exact atom, the value itself when d is None.

    The rows are numbered once per call, in a row plan: for each population
    with two or more actions, the (row, b) pairs of every recommended a, or
    under ``coarse`` of every deviation b. An atom is costed once into a
    table, and its entries are read off the plan.
    """
    if coarse and shares is not None:
        raise ValueError("shares apply to pairwise rows only")
    pops, social = game.populations, eq_rows is not None
    offset = 0 if eq_rows is None else max(eq_rows, default=-1) + 1
    witnesses, plan = [], []  # plan: (k, [(row, b)]) under coarse, else (k, [[(row, b)] per a])
    for k, pop in enumerate(pops):
        n, i = len(pop.actions), offset + len(witnesses)
        if n < 2:
            continue
        if coarse:
            witnesses += [(pop.name, b) for b in pop.actions]
            plan.append((k, [(i + jb, jb) for jb in range(n)]))
        else:
            witnesses += [(pop.name, *pair) for pair in itertools.permutations(pop.actions, 2)]
            rows = [(i + r, jb) for r, (_, jb) in enumerate(itertools.permutations(range(n), 2))]
            plan.append((k, [rows[ja * (n - 1) : (ja + 1) * (n - 1)] for ja in range(n)]))

    def acts(pop, mass):
        return pop.actions if social or (mass != 0 and len(pop.actions) > 1) else ()

    exact_shares = all(isinstance(s, (int, Fraction)) for s in shares or ())
    share_dens = [s.denominator for s in shares or ()] if exact_shares else ()

    def read(flow, live):
        # (yy, dy) of an exact flow over a multiple of the shares' denominators
        # when ``live``, None when an entry is inexact: a lattice flow's
        # counts over its resolution (no lcm over its entries), any other
        # flow's _int_flows
        dens, r = share_dens if live else (), flow._resolution
        if r is not None:
            dy = math.lcm(r, *dens)
            return [[v.numerator * (dy // v.denominator) for v in vec] for vec in flow.flows], dy
        if all(isinstance(v, (int, Fraction)) for vec in flow.flows for v in vec):
            return _int_flows(flow.flows, dens)
        return None

    columns, socials, lifted = [], [], {}  # lifted: (state, mass != 0) -> _lifted_costs
    for j, (state, mass, flow) in enumerate(atoms):
        flows, live = flow.flows, mass != 0
        exact = exact_shares and type(mass) is Fraction
        if exact:
            ints = read(flow, live)
            exact = ints is not None
        if exact:
            key = (state, live)
            if key not in lifted:
                lifted[key] = _lifted_costs(game, state, [acts(pop, mass) for pop in pops])
            fns, deg, q = lifted[key]
            ys, dy = ints
            table = [[f(ys, dy) for f in costs] or None for costs in fns]
            m, d = mass.numerator, mass.denominator * dy ** (deg + 1) * q
            if shares is not None:
                steps = [s.numerator * (dy // s.denominator) for s in shares]

                def cost(k, jb, ys):
                    return fns[k][jb](ys, dy)

        else:
            ys, dy, m, d, steps = flows, 1, mass, None, shares
            table = [
                [eval_cost(game, p.name, a, flow, state) for a in acts(p, mass)] or None for p in pops
            ]
            if shares is not None:

                def cost(k, jb, ys):
                    pop, b = pops[k].name, pops[k].actions[jb]
                    return _evaluate(_cost_fn(game, pop, b, state), ys, pop, b)

        # terms mass y_a (c_a - c_b), or mass (sum y_j c_j - dy c_b) with dy
        # putting c_b over the flows' denominator too; under shares c_b is
        # read at the flow the deviator shifts
        entries = [] if eq_rows is None else [(eq_rows[j], d or 1)]
        for k, rows in plan if live else ():
            c, yk = table[k], ys[k]
            if coarse:
                own = _fold(y * cj for y, cj in zip(yk, c) if y != 0)
                entries += [(r, m * (own - dy * c[jb])) for r, jb in rows]
                continue
            for ja, y in enumerate(yk):
                if y != 0:
                    if shares is not None:
                        if shares[k] > flows[k][ja]:
                            share, a, y = shares[k], pops[k].actions[ja], flows[k][ja]
                            raise ValueError(f"player share {share} exceeds the flow {y} on {a!r}")
                        c = _deviation_costs(ys, k, ja, steps[k], table[k], cost)
                    my, ca = m * y, c[ja]
                    entries += [(r, my * (ca - c[jb])) for r, jb in rows[ja]]
        columns.append((d, entries))
        if social:
            total = 0
            for y, cj in zip(itertools.chain(*ys), itertools.chain(*table)):
                if y != 0:
                    total = total + y * cj
            socials.append(m * total)
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
    """The first of the (witness, value) rows with the largest value, each
    value a row's sum from :func:`_row_sums`, taken in ints when it is exact."""
    worst, witness = 0, None
    for row_witness, value in rows:
        if witness is None or value > worst:
            worst, witness = value, row_witness
    return CheckReport(concept, worst, witness)


def _atoms(game: GameSpec, state: str, p, dist) -> list:
    """(state, p * w, f) per (f, w) of ``dist``, refusing flows of another shape than the game's."""
    for f, _w in dist:
        _check_shape(game, f)
    return [(state, p * w, f) for f, w in dist]


def _state_atoms(game: GameSpec, outcome: Outcome) -> list:
    _check_states(game, outcome.per_state, "outcome")
    atoms = []
    for state in game.states:
        atoms += _atoms(game, state, game.prior_of(state), outcome.per_state[state])
    return atoms


def check_cwe(game: GameSpec, dist, state: str) -> CheckReport:
    """Obedience under complete information: for each pair (a, b), switching
    every a-recommendation to b must not lower the recommended players'
    average cost."""
    atoms = _atoms(game, state, 1, _distribution(dist, state))
    return _worst_row("cwe", _sums(game, atoms))


def check_ccwe(game: GameSpec, dist, state: str) -> CheckReport:
    """Coarse variant: opting out to a fixed action b is compared against the
    average social cost of following recommendations."""
    atoms = _atoms(game, state, 1, _distribution(dist, state))
    return _worst_row("ccwe", _sums(game, atoms, coarse=True))


def check_bcwe(game: GameSpec, outcome: Outcome) -> CheckReport:
    """State-averaged obedience: recommendation-conditional deviations may not
    profit in prior expectation over states."""
    return _worst_row("bcwe", _sums(game, _state_atoms(game, outcome)))


def check_sbcwe(game: GameSpec, flow_map: dict) -> CheckReport:
    """Deterministic-per-state special case: one flow per state."""
    outcome = Outcome({state: ((flow, Fraction(1)),) for state, flow in flow_map.items()})
    report = check_bcwe(game, outcome)
    return CheckReport("sbcwe", report.worst_violation, report.witness)


def check_cbcwe(game: GameSpec, outcome: Outcome) -> CheckReport:
    """Coarse Bayesian variant: the deviation action is fixed before any
    recommendation arrives, and both sides are averaged over states and the
    outcome."""
    return _worst_row("cbcwe", _sums(game, _state_atoms(game, outcome), coarse=True))


def check_bce_flowlevel(game: GameSpec, bce) -> CheckReport:
    """Obedience of an exchangeable n-player recommendation scheme, evaluated
    in closed form at the flow level: the pairwise rows of
    :func:`obedience_rows` under ``shares`` 1/n_k, where the deviator's own
    mass shifts the flow from y to y + (1/n_k)(1_b - 1_a). An action that no
    positive-mass atom recommends has no row.
    """
    atoms = _state_atoms(game, bce.outcome)
    rows = _sums(game, atoms, shares=[Fraction(1, n) for n in bce.n])
    played = {
        (pop.name, a)
        for k, pop in enumerate(game.populations)
        for ja, a in enumerate(pop.actions)
        if any(mass != 0 and flow.flows[k][ja] != 0 for _, mass, flow in atoms)
    }
    return _worst_row("bce_flowlevel", [row for row in rows if row[0][:2] in played])


class AveragingReport(_Record):
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
    _check_states(game, outcome.per_state, "outcome")
    pop = game.populations[0]
    flow_map = {}
    per_state = []
    input_cost = 0
    output_cost = 0
    for state in game.states:
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
