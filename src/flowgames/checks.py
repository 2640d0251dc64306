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
    (a, b) and atom with y_a > 0.
    """
    if coarse and shares is not None:
        raise ValueError("shares apply to pairwise rows only")
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
            table = costs if shares is None else _deviation_costs(game, k, ja, shares[k], atoms, costs)
            # mass * y_a per atom, or None where the terms are the integer 0
            scaled = [
                None if c is None or flow.flows[k][ja] == 0 else mass * flow.flows[k][ja]
                for (_, mass, flow), c in zip(atoms, table)
            ]
            for jb, b in enumerate(pop.actions):
                if ja == jb:
                    continue
                terms = [0 if m is None else m * (c[ja] - c[jb]) for m, c in zip(scaled, table)]
                rows.append(((pop.name, a, b), terms))
    return rows


def _deviation_costs(game: GameSpec, k: int, ja: int, share, atoms, costs) -> list:
    """``costs`` with c_b (b != a) swapped, wherever a is played, for b's
    cost after one player of mass ``share`` moves from a to b. The shifted
    flow keeps its mass, and only y_a can turn negative: ValueError where
    ``share`` exceeds y_a."""
    pop = game.populations[k]
    table = []
    for (state, _, flow), c in zip(atoms, costs):
        if c is not None and flow.flows[k][ja] != 0:
            y_a = flow.flows[k][ja]
            if share > y_a:
                raise ValueError(f"player share {share} exceeds the flow {y_a} on {pop.actions[ja]!r}")
            c = list(c)
            for jb, b in enumerate(pop.actions):
                if jb != ja:
                    shifted = [list(vec) for vec in flow.flows]
                    shifted[k][ja] -= share
                    shifted[k][jb] += share
                    c[jb] = _finite(_cost_fn(game, pop.name, b, state)(shifted), pop.name, b, shifted)
        table.append(c)
    return table


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
