"""Information structures: synthesis, obedience checking, and solving.

A structure splits the unit player mass into sub-populations with type sets
and a state-conditional kernel over joint type profiles. Strategies map each
sub-population's types to flows of that sub-population's mass; the game is
evaluated at the aggregate flow. Synthesis follows the direct-recommendation
construction (types are actions, strategies obey), and solving works through
the auxiliary complete-information game whose populations are (sub-
population, type) pairs weighted by the kernel.
"""

from __future__ import annotations

import operator
import random
from fractions import Fraction

from ._numpy import np
from .checks import _state_atoms, _sums
from .model import (
    FlowProfile,
    GameSpec,
    Outcome,
    _Record,
    _check_states,
    _check_tol,
    _check_unit,
    _floats,
    _fold,
    _round_outcome,
    _shown,
    _sum,
    eval_cost,
)
from .wardrop import _block_sum, _congestion_core


class InformationStructure(_Record):
    """Sub-population sizes, finite type sets, and a kernel state -> types.

    ``sizes`` are exact rationals summing to 1; ``kernel`` maps each state
    name to a tuple of (type profile, weight) pairs with weights summing to
    1 per state.
    """

    sizes: tuple
    type_sets: tuple
    kernel: dict

    def __post_init__(self):
        if not self.sizes:
            raise ValueError("no sub-populations")
        if len(self.sizes) != len(self.type_sets):
            raise ValueError("sizes and type sets differ in length")
        if any(s < 0 for s in self.sizes):
            raise ValueError("negative sub-population size")
        _check_unit(_sum(self.sizes), "sizes sum")
        for types in self.type_sets:
            if not types:
                raise ValueError("empty type set")
            if len(set(types)) != len(types):
                raise ValueError("duplicate type names")
        for state, atoms in self.kernel.items():
            for profile, w in atoms:
                if len(profile) != len(self.sizes):
                    raise ValueError(f"type profile {profile!r} has wrong length")
                if not all(map(operator.contains, self.type_sets, profile)):
                    k, t = next((k, t) for k, t in enumerate(profile) if t not in self.type_sets[k])
                    raise ValueError(f"unknown type {t!r} for sub-population {k}")
                if w < 0:
                    raise ValueError("negative kernel weight")
            _check_unit(_sum(w for _, w in atoms), "kernel weights for state {!r} sum", state)

    def population_count(self) -> int:
        return len(self.sizes)


class StrategyProfile(_Record):
    """Per sub-population, a flow vector of mass gamma_k for each type.

    ``strategies[k][t]`` is the action-indexed vector played by sub-
    population k upon observing its t-th type.
    """

    strategies: tuple

    def __post_init__(self):
        normalized = []
        for block in self.strategies:
            normalized.append(tuple(tuple(v for v in vec) for vec in block))
        object.__setattr__(self, "strategies", tuple(normalized))


def _require_single_population(game: GameSpec):
    if len(game.populations) != 1:
        raise ValueError("information structures need a single homogeneous population")
    return game.populations[0]


def validate_strategies(
    structure: InformationStructure, strategies: StrategyProfile, n_actions: int
):
    if len(strategies.strategies) != structure.population_count():
        raise ValueError("strategy blocks do not match sub-population count")
    for k, block in enumerate(strategies.strategies):
        if len(block) != len(structure.type_sets[k]):
            raise ValueError(f"sub-population {k} needs one vector per type")
        for vec in block:
            if len(vec) != n_actions:
                raise ValueError(f"strategy vector {vec!r} has wrong action count")
            if any(v < 0 for v in vec):
                raise ValueError("negative strategy mass")
            total = sum(vec)
            gamma = structure.sizes[k]
            if abs(total - gamma) > 1e-9:
                raise ValueError(
                    f"sub-population {k} plays mass {_shown(total)}, expected {_shown(gamma)}"
                )


def aggregate_flow(
    structure: InformationStructure, strategies: StrategyProfile, profile: tuple
) -> tuple:
    """Total flow when each sub-population k observes profile[k], added
    entry by entry in profile order."""
    n_actions = len(strategies.strategies[0][0])
    agg = [0] * n_actions
    for k, t in enumerate(profile):
        vec = strategies.strategies[k][structure.type_sets[k].index(t)]
        for j in range(n_actions):
            agg[j] = agg[j] + vec[j]
    return tuple(agg)


def bwe_violation(
    game: GameSpec, structure: InformationStructure, strategies: StrategyProfile
):
    """Worst conditional obedience violation over (sub-population, type, a, b).

    For every type with positive kernel marginal and every action carrying
    positive mass under it, compares the conditional expected cost of that
    action against each alternative at the realized aggregate flows. Raw and
    signed; exact on rational data. Each kernel atom is costed once (see
    :func:`_conditional_costs`).
    """
    pop = _require_single_population(game)
    validate_strategies(structure, strategies, len(pop.actions))
    _check_states(game, structure.kernel, "kernel")
    plan = _atom_plan(game, structure)
    return _max_gap(_conditional_costs(game, structure, strategies, plan)[1], strategies)


def _atom_plan(game, structure) -> tuple[list, dict]:
    """What :func:`_conditional_costs` reads of the game and the structure,
    built once per structure. First the positive-weight atoms in kernel
    order, as (state, type profile, weight, its float, keys): the weight is
    prior times kernel weight, and ``keys`` the (k, type index) pairs the
    profile assigns. Then each assigned key's (marginal, its float): the sum
    of its atoms' weights, left to right from 0, keyed in order of first
    assignment. A float times or over a Fraction is that float times or over
    the Fraction's float, so the floats are taken of Fractions only."""
    type_index = [{t: ti for ti, t in enumerate(types)} for types in structure.type_sets]
    atoms = []
    marginals = {}
    for state in game.states:
        p = game.prior_of(state)
        for profile, w in structure.kernel[state]:
            weight = p * w
            if weight == 0:
                continue
            keys = tuple((k, type_index[k][t]) for k, t in enumerate(profile))
            fw = float(weight) if type(weight) is Fraction else weight
            atoms.append((state, profile, weight, fw, keys))
            for key in keys:
                marginals[key] = marginals.get(key, 0) + weight
    return atoms, {key: (m, float(m) if type(m) is Fraction else m) for key, m in marginals.items()}


def _conditional_costs(game, structure, strategies, plan) -> tuple[dict, dict]:
    """The aggregate ``FlowProfile`` of each positive-weight type profile,
    and the conditional expected cost of every action per (sub-population,
    type): a map (k, type index) -> per-action costs over the types with
    positive kernel marginal. ``plan`` is :func:`_atom_plan` of the game and
    the structure.

    Each positive-weight (state, type profile) atom builds its aggregate flow
    once and costs each action once with :func:`eval_cost`; its weighted
    costs (weight times cost, with the weight's float for a float cost) are
    added into the sums of the types the profile assigns, left to right from
    0 in kernel order, so float sums keep their bits; each sum is then
    divided by its type's marginal. Exact on rational inputs."""
    pop = game.populations[0]
    atoms, marginals = plan
    flows = {}
    sums = {key: [0] * len(pop.actions) for key in marginals}
    for state, profile, weight, fw, keys in atoms:
        flow = flows.get(profile)
        if flow is None:
            flow = flows[profile] = FlowProfile((aggregate_flow(structure, strategies, profile),))
        costs = [eval_cost(game, pop.name, a, flow, state) for a in pop.actions]
        row = [fw * c if type(c) is float else weight * c for c in costs]
        for key in keys:
            acc = sums[key]
            for i, v in enumerate(row):
                acc[i] = acc[i] + v
    conditional = {}
    for key, acc in sums.items():
        marginal, fm = marginals[key]
        conditional[key] = [total / fm if type(total) is float else total / marginal for total in acc]
    return flows, conditional


def _max_gap(conditional: dict, strategies: StrategyProfile):
    """Largest gap between an action played with positive mass and the
    cheapest action of its (k, type), or 0 when no type has positive
    marginal. Types are visited in (k, type index) order, so among equal
    gaps the first one found is returned."""
    worst = None
    for k, ti in sorted(conditional):
        costs = conditional[(k, ti)]
        cheapest = min(costs)
        for cost, mass in zip(costs, strategies.strategies[k][ti]):
            if mass > 0:
                gap = cost - cheapest
                if worst is None or gap > worst:
                    worst = gap
    return 0 if worst is None else worst


def outcome_of_strategies(
    structure: InformationStructure, strategies: StrategyProfile
) -> Outcome:
    """Push the kernel through the aggregate-flow map.

    Type profiles inducing identical aggregates merge; weights stay exact on
    rational data.
    """
    per_state = {}
    for state, atoms in structure.kernel.items():
        bucket = {}
        for profile, w in atoms:
            if w == 0:
                continue
            agg = aggregate_flow(structure, strategies, profile)
            bucket[agg] = bucket.get(agg, 0) + w
        per_state[state] = tuple((FlowProfile((agg,)), w) for agg, w in bucket.items())
    return Outcome(per_state)


def direct_structure_from_bcwe(
    game: GameSpec, outcome: Outcome, denominator: int, symmetrize: bool = True
) -> tuple[InformationStructure, StrategyProfile, object]:
    """Build a direct (types = actions) structure approximating an outcome.

    The unit mass splits into ``denominator`` equal sub-populations. Each
    support flow is rounded onto shares 1/``denominator`` by
    :func:`model._round_outcome`, and for each rounded flow y^ of positive
    weight the kernel recommends blocks of y^_a ``denominator`` sub-populations
    per action a; with ``symmetrize`` (default) the kernel averages uniformly
    over the cyclic rotations of the blocks so every sub-population sees the
    same conditional recommendation frequencies. Strategies are obedient.
    Returns the realized obedience violation, which is exactly zero whenever
    every support flow has denominators dividing ``denominator``. Each distinct
    rotation is made once: blocks of two or more actions have ``denominator``,
    and a one-action flow has one, which carries all of w.

    Under rotation each sub-population hears a with probability
    prior * w * y^_a, so the violation is the rounded outcome's worst pairwise
    obedience row (a, b) of :func:`checks.obedience_rows` over a's marginal
    sum(prior * w * y^_a). Without rotation it is :func:`bwe_violation`'s.
    """
    pop = _require_single_population(game)
    if isinstance(denominator, bool) or not isinstance(denominator, int) or denominator < 1:
        raise ValueError(f"denominator must be an int of at least 1, got {denominator!r}")
    k_count = denominator
    actions = pop.actions
    sizes = (Fraction(1, k_count),) * k_count
    type_sets = tuple(tuple(actions) for _ in range(k_count))
    rounded = _round_outcome(game, outcome, (k_count,))[0]
    kernel = {}
    for state in game.states:
        items = []  # rounded flows differ in their counts, so no two share a profile
        for flow, w in rounded.per_state[state]:
            if w == 0:
                continue
            base = tuple(a for a, y in zip(actions, flow.flows[0]) for _ in range(int(y * k_count)))
            mass = w * Fraction(1, k_count) if symmetrize else w
            if symmetrize and base.count(base[0]) < k_count:
                doubled = base * 2
                items += [(doubled[k_count - r : 2 * k_count - r], mass) for r in range(k_count)]
            elif symmetrize and type(mass) is Fraction:
                items.append((base, mass * k_count))
            else:  # one profile: 0 + w, or the k_count float masses added one by one
                total = 0
                for _ in range(k_count if symmetrize else 1):
                    total = total + mass
                items.append((base, total))
        kernel[state] = tuple(sorted(items))
    structure = InformationStructure(sizes, type_sets, kernel)
    n = len(actions)
    obedient = tuple(tuple(sizes[0] if j == ja else Fraction(0) for j in range(n)) for ja in range(n))
    strategies = StrategyProfile((obedient,) * k_count)
    if symmetrize:
        atoms = _state_atoms(game, rounded)
        marginal = {a: sum(m * y.flows[0][j] for _, m, y in atoms) for j, a in enumerate(actions)}
        rows = _sums(game, atoms)
        eps = max((value / marginal[a] for (_, a, _), value in rows if marginal[a] > 0), default=0)
    else:  # bwe_violation, without validating the strategies built just above
        plan = _atom_plan(game, structure)
        eps = _max_gap(_conditional_costs(game, structure, strategies, plan)[1], strategies)
    return structure, strategies, eps if eps > 0 else 0


# ---------------------------------------------------------------------------
# Solving arbitrary structures through the auxiliary game
# ---------------------------------------------------------------------------


def solve_bwe(
    game: GameSpec,
    structure: InformationStructure,
    tol: float = 1e-8,
    start: StrategyProfile | None = None,
) -> StrategyProfile:
    """Equilibrium strategies for an information structure over a congestion
    game, found by minimizing the kernel-weighted auxiliary potential.

    Types with zero kernel marginal are unconstrained and get all mass on the
    first action. Tiny solver dust below 1e-9 of a block's mass is snapped to
    zero so positivity checks in :func:`bwe_violation` see honest supports.
    A ``start`` that :func:`validate_strategies` rejects raises ValueError.
    """
    _check_tol(tol)
    blocks, core, _plan = _bwe_setup(game, structure)
    if start is not None:
        validate_strategies(structure, start, len(game.populations[0].actions))
    return _bwe_solve(game, structure, blocks, core, tol, start)


def _bwe_setup(game: GameSpec, structure: InformationStructure):
    """The (k, type index) blocks with positive kernel marginal, the
    potential core of the auxiliary game over them, and the structure's
    :func:`_atom_plan`; all three depend only on the game and the structure.
    The core keeps per-support Newton plans derived from its own matrix, and
    no solver state, between solves.

    The auxiliary game is a congestion game whose populations are the blocks,
    of mass gamma_k; each positive-weight kernel atom is one piece over the
    blocks it assigns, with latencies scaled by prior times kernel weight, so
    its potential is the kernel-weighted sum of per-state potentials at the
    realized aggregates.
    """
    if game.congestion is None:
        raise ValueError("solving needs a congestion backing")
    pop = _require_single_population(game)
    _check_states(game, structure.kernel, "kernel")
    plan = _atom_plan(game, structure)
    atoms, marginals = plan
    blocks = [
        (k, ti)
        for k in range(structure.population_count())
        if structure.sizes[k] != 0
        for ti in range(len(structure.type_sets[k]))
        if (k, ti) in marginals
    ]
    index = {key: b for b, key in enumerate(blocks)}
    pieces = [
        (float(weight), state, [index[key] for key in keys if key in index])
        for state, _profile, weight, _fw, keys in atoms
    ]
    core = _congestion_core(game.congestion, [(pop, structure.sizes[k]) for k, _ in blocks], pieces)
    return blocks, core, plan


def _bwe_solve(game, structure, blocks, core, tol, start) -> StrategyProfile:
    actions = game.populations[0].actions
    float_sizes = _floats(structure.sizes)
    if start is None:
        x0 = np.concatenate(
            [
                np.full(len(actions), float_sizes[k] / len(actions))
                for k, _ in blocks
            ]
        )
    else:
        x0 = np.array(_floats(start.strategies[k][ti][j] for k, ti in blocks for j in range(len(actions))))
    x, _iters = core.minimize(x0, tol, 400)
    xs = x.tolist()
    out = []
    pos = {blk: i for i, blk in enumerate(blocks)}
    n = len(actions)
    for k in range(structure.population_count()):
        gamma, float_gamma = structure.sizes[k], float_sizes[k]
        dust = 1e-9 * float_gamma
        block_vecs = []
        for ti in range(len(structure.type_sets[k])):
            total = 0  # a block with no solved mass puts all of gamma on its first action
            if (k, ti) in pos and gamma > 0:
                lo = pos[(k, ti)] * n
                # negative flow and dust to 0 (NaN stays, as np.maximum keeps it)
                vec = [0.0 if v < dust else v for v in xs[lo : lo + n]]
                total = _block_sum(vec)
            if total > 0:
                scale = float_gamma / total
                block_vecs.append(tuple([v * scale for v in vec]))
            else:
                block_vecs.append((float_gamma,) + (0.0,) * (n - 1))
        out.append(tuple(block_vecs))
    return StrategyProfile(tuple(out))


class UniquenessProbeReport(_Record):
    """Spread of solved equilibria across random restarts.

    ``flow_deviation`` compares the realized aggregate flows per kernel
    atom, not the per-sub-population decomposition: whenever two
    sub-populations can trade mass without moving any aggregate, the
    decomposition is a payoff-irrelevant degree of freedom, so only the
    aggregates are pinned down by strict convexity.
    """

    cost_deviation: float
    flow_deviation: float
    trials: int
    worst_violation: float


_PROBE_SEED = 0


def bwe_cost_uniqueness_probe(
    game: GameSpec,
    structure: InformationStructure,
    trials: int = 20,
    tol: float = 1e-8,
) -> UniquenessProbeReport:
    """Solve from random interior starts and measure how much the per-type
    positive-flow conditional costs (and the realized flows) spread.
    ``trials`` must be an int (not a bool) of at least 1."""
    if type(trials) is not int:
        raise ValueError(f"trials must be an int, got {trials!r}")
    if trials < 1:
        raise ValueError("trials must be >= 1")
    _check_tol(tol)
    rng = random.Random(_PROBE_SEED)
    pop = _require_single_population(game)
    actions = pop.actions
    blocks, core, plan = _bwe_setup(game, structure)
    float_sizes = _floats(structure.sizes)
    runs = []  # (solved strategies, aggregate flows, conditional costs)
    worst_violation = 0.0
    for _ in range(trials):
        start_blocks = []
        for k in range(structure.population_count()):
            gamma = float_sizes[k]
            vecs = []
            for _t in structure.type_sets[k]:
                raw = [rng.random() + 1e-3 for _ in actions]
                total = _fold(raw)
                vecs.append(tuple(gamma * v / total for v in raw))
            start_blocks.append(tuple(vecs))
        start = StrategyProfile(tuple(start_blocks))
        solved = _bwe_solve(game, structure, blocks, core, tol=tol, start=start)
        flows, conditional = _conditional_costs(game, structure, solved, plan)
        worst_violation = max(worst_violation, float(_max_gap(conditional, solved)))
        runs.append((solved, flows, conditional))
    # the largest pairwise |x1 - x2| of each coordinate is fl(max - min), as
    # float subtraction is monotone; a cost counts in the pairs where either
    # run plays its action
    cost_dev = flow_dev = 0.0
    for (k, ti), costs in runs[0][2].items():
        for j in range(len(costs)):
            xs = [float(c[(k, ti)][j]) for _s, _f, c in runs]
            played = [x for x, (s, _f, _c) in zip(xs, runs) if s.strategies[k][ti][j] > 1e-7]
            if played:
                d = max(max(xs) - min(played), max(played) - min(xs))
                if d > cost_dev:
                    cost_dev = d
    for profile, flow in runs[0][1].items():
        for p, vec in enumerate(flow.flows):
            for j in range(len(vec)):
                xs = [float(f[profile].flows[p][j]) for _s, f, _c in runs]
                d = max(xs) - min(xs)
                if d > flow_dev:
                    flow_dev = d
    return UniquenessProbeReport(cost_dev, flow_dev, trials, worst_violation)
