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
from dataclasses import dataclass
from fractions import Fraction

from .model import FlowProfile, GameSpec, Outcome, _cost_fn, _finite, eval_cost, social_cost


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


def _ensure_distribution(dist) -> tuple:
    atoms = tuple((f, w) for f, w in dist)
    total = sum(w for _, w in atoms)
    if abs(total - 1) > 1e-9:
        raise ValueError(f"distribution weights sum to {float(total)!r}")
    return atoms


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


def _term_rows(witnesses, columns) -> list:
    """(witness, terms) rows of :func:`obedience_rows` from per-atom columns."""
    rows = [[0] * len(columns) for _ in witnesses]
    for j, (d, entries, raw) in enumerate(columns):
        for i, v in raw if raw is not None else ((i, Fraction(v, d)) for i, v in entries):
            rows[i][j] = v
    return list(zip(witnesses, rows))


def _obedience_columns(game: GameSpec, atoms, coarse=False, shares=None, social=False):
    """:func:`obedience_rows` as (witnesses, columns, socials), a column
    (d, entries, raw) per atom: its term in row i is v / d for an entry (i, v),
    else the integer 0. An exact atom (mass, flows and costs all ints or
    ``Fraction``s) has integer numerators v over d, the product of the lcms of
    its mass', flows' and costs' denominators. ``raw`` holds the terms as
    computed one by one where they are floats (d = 1, ``entries`` is ``raw``)
    or the mass is an int; else None. With ``social`` every population and
    action is costed, and ``socials`` holds each mass times its social cost.
    """
    if coarse and shares is not None:
        raise ValueError("shares apply to pairwise rows only")
    pops = game.populations
    witnesses = []
    for pop in (p for p in pops if len(p.actions) > 1):
        pairs = itertools.product(pop.actions) if coarse else itertools.permutations(pop.actions, 2)
        witnesses += [(pop.name, *pair) for pair in pairs]

    def terms(mass, ys, cs, devs, dy):
        # (row, mass y_a (c_a - c_b)), or mass (sum y_j c_j - dy c_b) with dy putting
        # c_b over the flows' denominator too; c_b is devs[k, a] under shares
        out, i = [], 0
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

    columns, socials = [], []
    for state, mass, flow in atoms:
        flows, table, dev = flow.flows, [], {}  # dev: (k, a) -> costs under shares
        for k, pop in enumerate(pops):
            acts = pop.actions if social or (mass != 0 and len(pop.actions) > 1) else ()
            table.append([eval_cost(game, pop.name, a, flow, state) for a in acts] or None)
            for ja, y in enumerate(flows[k] if acts and mass != 0 and shares is not None else ()):
                if y != 0:
                    dev[k, ja] = _deviation_costs(game, state, flows, k, ja, shares[k], table[k])
        costs = [*filter(None, table), *dev.values()]
        exact = all(isinstance(v, (int, Fraction)) for v in itertools.chain((mass,), *flows, *costs))
        raw = None if exact and type(mass) is not int else terms(mass, flows, table, dev, 1)
        d, mm, yy, cc, entries = 1, mass, flows, table, raw
        if exact:
            dy = math.lcm(*(v.denominator for vec in flows for v in vec))
            dc = math.lcm(*(v.denominator for c in costs for v in c))
            d, mm = mass.denominator * dy * dc, mass.numerator
            yy, cc = [_numerators(vec, dy) for vec in flows], [c and _numerators(c, dc) for c in table]
            entries = terms(mm, yy, cc, {key: _numerators(c, dc) for key, c in dev.items()}, dy)
        columns.append((d, entries, raw))
        if social:
            total = 0
            for y, cj in zip(itertools.chain(*yy), itertools.chain(*cc)):
                if y != 0:
                    total = total + y * cj
            socials.append(Fraction(mm * total, d) if exact else mm * total)
    return witnesses, columns, socials


def _numerators(values, den: int) -> list:
    return [v.numerator * (den // v.denominator) for v in values]


def _deviation_costs(game: GameSpec, state, flows, k: int, ja: int, share, costs) -> list:
    """``costs`` of population ``k`` at ``flows`` with c_b (b != a) swapped
    for b's cost after one player of mass ``share`` moves from a to b. The
    shifted flow keeps its mass, and only y_a can turn negative: ValueError
    where ``share`` exceeds y_a."""
    pop = game.populations[k]
    y_a = flows[k][ja]
    if share > y_a:
        raise ValueError(f"player share {share} exceeds the flow {y_a} on {pop.actions[ja]!r}")
    c = list(costs)
    for jb, b in enumerate(pop.actions):
        if jb != ja:
            shifted = [list(vec) for vec in flows]
            shifted[k][ja] -= share
            shifted[k][jb] += share
            c[jb] = _finite(_cost_fn(game, pop.name, b, state)(shifted), pop.name, b, shifted)
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
    atoms = [(state, w, f) for f, w in _ensure_distribution(dist)]
    return _worst_row("cwe", obedience_rows(game, atoms))


def check_ccwe(game: GameSpec, dist, state: str) -> CheckReport:
    """Coarse variant: opting out to a fixed action b is compared against the
    average social cost of following recommendations."""
    atoms = [(state, w, f) for f, w in _ensure_distribution(dist)]
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
    """Companion report for the per-state barycenter construction."""

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
