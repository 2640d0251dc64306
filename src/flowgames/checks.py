"""Constraint verification for correlated and Bayesian flow equilibria.

Every check returns a :class:`CheckReport` carrying the raw signed worst
violation (negative means slack) together with a witness of where it is
attained; callers decide the tolerance. All checks are exact on rational
inputs because the cost language evaluates rationals to rationals.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

from .model import FlowProfile, GameSpec, Outcome, eval_cost, social_cost


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


def obedience_rows(game: GameSpec, atoms, coarse: bool = False) -> list:
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
    """
    atoms = tuple(atoms)
    rows = []
    for k, pop in enumerate(game.populations):
        if len(pop.actions) < 2:
            continue
        costs = [
            None
            if mass == 0
            else [eval_cost(game, pop.name, act, flow, state) for act in pop.actions]
            for state, mass, flow in atoms
        ]
        if coarse:
            own = [
                None
                if c is None
                else sum(y * cj for y, cj in zip(flow.flows[k], c) if y != 0)
                for (_, _, flow), c in zip(atoms, costs)
            ]
            for jb, b in enumerate(pop.actions):
                terms = [
                    0 if c is None else mass * (o - c[jb])
                    for (_, mass, _), c, o in zip(atoms, costs, own)
                ]
                rows.append(((pop.name, b), terms))
            continue
        for ja, a in enumerate(pop.actions):
            for jb, b in enumerate(pop.actions):
                if ja == jb:
                    continue
                terms = [
                    0
                    if c is None or flow.flows[k][ja] == 0
                    else mass * flow.flows[k][ja] * (c[ja] - c[jb])
                    for (_, mass, flow), c in zip(atoms, costs)
                ]
                rows.append(((pop.name, a, b), terms))
    return rows


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
    in closed form at the flow level.

    For each recommended/deviation pair (a, b), the (non-normalized) cost of
    obeying is compared with the cost of playing b instead, where the
    deviator's own 1/n mass shifts the realized flow from y to
    y + (1/n)(1_b - 1_a). That shifted profile differs per (a, b), so this
    check costs its atoms itself rather than through :func:`obedience_rows`.
    """
    outcome = bce.outcome
    counts = bce.counts
    atoms = []  # (state, prior, weight, counts, rounded profile or None)
    for state in game.states:
        p = game.prior_of(state)
        for f, w in outcome.per_state[state]:
            count_vec = counts[f.flows]
            rounded = _rounded_profile(count_vec, bce.n) if w != 0 else None
            atoms.append((state, p, w, count_vec, rounded))
    worst = None
    witness = None
    for k, pop in enumerate(game.populations):
        if len(pop.actions) < 2:
            continue
        n_k = bce.n[k]
        share = Fraction(1, n_k)
        for ja, a in enumerate(pop.actions):
            recommended_mass = 0
            for _, p, w, count_vec, _ in atoms:
                recommended_mass = recommended_mass + p * w * count_vec[k][ja]
            if recommended_mass == 0:
                continue
            obeyed = []  # (state, mass of a-recommendations, rounded, obey cost)
            for state, p, w, count_vec, rounded in atoms:
                n_a = count_vec[k][ja]
                if rounded is None or n_a == 0:
                    continue
                obey = eval_cost(game, pop.name, a, rounded, state)
                obeyed.append((state, p * w * Fraction(n_a, n_k), rounded, obey))
            for jb, b in enumerate(pop.actions):
                if ja == jb:
                    continue
                value = 0
                for state, mass, rounded, obey in obeyed:
                    shifted = _shift(rounded, k, ja, jb, share)
                    dev = eval_cost(game, pop.name, b, shifted, state)
                    value = value + mass * (obey - dev)
                if worst is None or value > worst:
                    worst, witness = value, (pop.name, a, b)
    if worst is None:
        return CheckReport("bce_flowlevel", 0, None)
    return CheckReport("bce_flowlevel", worst, witness)


def _rounded_profile(count_vec, n) -> FlowProfile:
    return FlowProfile(
        tuple(tuple(Fraction(c, n[k]) for c in row) for k, row in enumerate(count_vec))
    )


def _shift(flow: FlowProfile, k: int, ja: int, jb: int, share) -> FlowProfile:
    flows = [list(vec) for vec in flow.flows]
    flows[k][ja] = flows[k][ja] - share
    flows[k][jb] = flows[k][jb] + share
    return FlowProfile(tuple(tuple(vec) for vec in flows))


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


def _sample_hypotheses(game: GameSpec, trials: int = 1000, seed: int = 0) -> bool:
    """Midpoint checks on random segments: y_a c_a convex and c_a concave."""
    rng = random.Random(seed)
    pop = game.populations[0]

    def flow_at(t):
        return FlowProfile(((t, 1 - t),))

    for _ in range(trials):
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
