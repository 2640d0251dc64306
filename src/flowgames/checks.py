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

    The rows are numbered once per call, over flat action indices (every
    costed population's actions in turn): the pairwise rows as (row, a, b)
    triples, the coarse ones as each population's (row, b) pairs. What an
    atom's costs need that its flow does not change (the lifted costs, the
    actions to cost, a lattice resolution's lcm with the shares) is looked up
    once per run of atoms that share their state and whether their mass is
    nonzero. An atom is costed once into a flat list, its masses m * y_a are
    taken once per action, and its entries are read off the plan.
    """
    if coarse and shares is not None:
        raise ValueError("shares apply to pairwise rows only")
    pops, social = game.populations, eq_rows is not None
    offset = 0 if eq_rows is None else max(eq_rows, default=-1) + 1
    # flat action a is action ja of population k, (k, ja) = at[a], over the
    # populations that are costed: all for socials, else those with two or more actions
    costed = [k for k, pop in enumerate(pops) if social or len(pop.actions) > 1]
    at = [(k, ja) for k in costed for ja in range(len(pops[k].actions))]
    names = [(pops[k].name, pops[k].actions[ja]) for k, ja in at]
    witnesses, pairs, blocks = [], [], []  # pairs: (row, a, b); blocks: (lo, hi, [(row, b)])
    start = 0
    for k in costed:
        pop, n, i = pops[k], len(pops[k].actions), offset + len(witnesses)
        if n > 1 and coarse:
            witnesses += [(pop.name, b) for b in pop.actions]
            blocks.append((start, start + n, [(i + jb, start + jb) for jb in range(n)]))
        elif n > 1:
            witnesses += [(pop.name, *pair) for pair in itertools.permutations(pop.actions, 2)]
            pairs += [(i + r, start + ja, start + jb) for r, (ja, jb) in enumerate(itertools.permutations(range(n), 2))]
        start += n

    exact_shares = all(isinstance(s, (int, Fraction)) for s in shares or ())
    share_dens = [s.denominator for s in shares or ()] if exact_shares else ()
    columns, socials, run_state, run_live = [], [], None, None
    for j, (state, mass, flow) in enumerate(atoms):
        flows = flow.flows
        exact = exact_shares and type(mass) is Fraction
        m = mass.numerator if exact else mass
        live = m != 0
        if state != run_state or live != run_live:
            # a new run: every flat action is costed, or none is
            run_state, run_live, lifted, run_r = state, live, None, None
            acts = [p.actions if social or (live and len(p.actions) > 1) else () for p in pops]
            run_names = names if social or live else ()
            dens = share_dens if live else ()
        if exact:
            r = flow._resolution
            if r is not None:
                # a lattice flow's counts over its resolution, with no lcm over its entries
                if r != run_r:
                    run_r, run_dy = r, math.lcm(r, *dens)
                dy = run_dy
                ys = [[v.numerator * (dy // v.denominator) for v in vec] for vec in flows]
            elif all(isinstance(v, (int, Fraction)) for vec in flows for v in vec):
                ys, dy = _int_flows(flows, dens)
            else:
                exact = False
                m = mass
        if exact:
            if lifted is None:
                fns, deg, q = _lifted_costs(game, state, acts)
                lifted = [f for k in costed for f in fns[k]]
            cs = [f(ys, dy) for f in lifted]
            d = mass.denominator * dy ** (deg + 1) * q
            if shares is not None:
                steps = [s.numerator * (dy // s.denominator) for s in shares]
        else:
            ys, dy, d, steps = flows, 1, None, shares
            cs = [eval_cost(game, pop, a, flow, state) for pop, a in run_names]
        fy = ys[costed[0]] if len(costed) == 1 else [y for k in costed for y in ys[k]]

        # terms m y_a (c_a - c_b), or m (sum y_j c_j - dy c_b) with dy putting
        # c_b over the flows' denominator too; under shares c_b is read at the
        # flow the deviator shifts
        entries = [] if eq_rows is None else [(eq_rows[j], d or 1)]
        if live and coarse:
            for lo, hi, rows in blocks:
                own = _fold([y * c for y, c in zip(fy[lo:hi], cs[lo:hi]) if y])
                entries += [(r, m * (own - dy * cs[b])) for r, b in rows]
        elif live:
            my = [m * y for y in fy]
            if shares is None:
                entries += [(r, my[a] * (cs[a] - cs[b])) for r, a, b in pairs if fy[a]]
            else:
                checked = None
                for r, a, b in pairs:
                    if fy[a]:
                        (k, ja), jb = at[a], at[b][1]
                        if a != checked and shares[k] > flows[k][ja]:
                            share, y = shares[k], flows[k][ja]
                            raise ValueError(f"player share {share} exceeds the flow {y} on {names[a][1]!r}")
                        checked, shifted = a, [list(vec) for vec in ys]
                        shifted[k][ja] -= steps[k]
                        shifted[k][jb] += steps[k]
                        if exact:
                            cb = lifted[b](shifted, dy)
                        else:
                            pop, action = names[b]
                            cb = _evaluate(_cost_fn(game, pop, action, state), shifted, pop, action)
                        entries.append((r, my[a] * (cs[a] - cb)))
        columns.append((d, entries))
        if social:
            socials.append(m * _fold([y * c for y, c in zip(fy, cs) if y]))
    return witnesses, columns, socials


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
