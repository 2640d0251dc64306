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

import random
from dataclasses import dataclass
from fractions import Fraction

from ._numpy import np
from .checks import _state_atoms, obedience_rows
from .model import FlowProfile, GameSpec, Outcome, _check_tol, _check_unit, _round_outcome, eval_cost
from .wardrop import _congestion_core


@dataclass(frozen=True)
class InformationStructure:
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
        _check_unit(sum(self.sizes), "sizes sum")
        for types in self.type_sets:
            if not types:
                raise ValueError("empty type set")
            if len(set(types)) != len(types):
                raise ValueError("duplicate type names")
        for state, atoms in self.kernel.items():
            total = 0
            for profile, w in atoms:
                if len(profile) != len(self.sizes):
                    raise ValueError(f"type profile {profile!r} has wrong length")
                for k, t in enumerate(profile):
                    if t not in self.type_sets[k]:
                        raise ValueError(f"unknown type {t!r} for sub-population {k}")
                if w < 0:
                    raise ValueError("negative kernel weight")
                total = total + w
            _check_unit(total, "kernel weights for state {!r} sum", state)

    def population_count(self) -> int:
        return len(self.sizes)


@dataclass(frozen=True)
class StrategyProfile:
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
            if total != gamma and abs(float(total) - float(gamma)) > 1e-9:
                raise ValueError(
                    f"sub-population {k} plays mass {float(total)!r}, expected {float(gamma)!r}"
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
    _check_kernel_states(game, structure)
    return _max_gap(_conditional_costs(game, structure, strategies)[1], strategies)


def _check_kernel_states(game: GameSpec, structure: InformationStructure):
    for state in game.states:
        if state not in structure.kernel:
            raise ValueError(f"kernel missing state {state!r}")
    for state in structure.kernel:
        if state not in game.states:
            raise ValueError(f"unknown state {state!r}")


def _conditional_costs(game, structure, strategies) -> tuple[dict, dict]:
    """The aggregate ``FlowProfile`` of each positive-weight type profile,
    and the conditional expected cost of every action per (sub-population,
    type): a map (k, type index) -> per-action costs over the types with
    positive kernel marginal.

    Each positive-weight (state, type profile) atom builds its aggregate flow
    once and costs each action once with :func:`eval_cost`; its row, the
    weight (prior times kernel weight) followed by the weighted costs, is
    added into the sums of the types the profile assigns, in kernel order.
    Exact on rational inputs."""
    pop = game.populations[0]
    flows = {}
    rows = []  # (type profile, [weight, weighted cost per action])
    for state in game.states:
        p = game.prior_of(state)
        for profile, w in structure.kernel[state]:
            weight = p * w
            if weight == 0:
                continue
            flow = flows.get(profile)
            if flow is None:
                flow = flows[profile] = FlowProfile(
                    (aggregate_flow(structure, strategies, profile),)
                )
            # a Fraction weight times a float cost is float(weight) times it
            fw = float(weight) if type(weight) is Fraction else weight
            costs = [eval_cost(game, pop.name, a, flow, state) for a in pop.actions]
            rows.append((profile, [weight] + [fw * c if type(c) is float else weight * c for c in costs]))
    sums = _type_sums(structure, rows)
    return flows, {key: [total / acc[0] for total in acc[1:]] for key, acc in sums.items()}


def _type_sums(structure, rows) -> dict:
    """(k, type index) -> [marginal, weighted cost sum per action]: each
    (type profile, row) added into the sums of the types the profile assigns,
    left to right from 0 in row order, so float sums keep their bits."""
    type_index = [{t: ti for ti, t in enumerate(types)} for types in structure.type_sets]
    sums = {}
    for profile, row in rows:
        for k, t in enumerate(profile):
            acc = sums.setdefault((k, type_index[k][t]), [0] * len(row))
            for i, v in enumerate(row):
                acc[i] = acc[i] + v
    return sums


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
    every support flow has denominators dividing ``denominator``.

    Under rotation each sub-population hears a with probability
    prior * w * y^_a, so the violation is the rounded outcome's worst pairwise
    obedience row (a, b) of :func:`checks.obedience_rows` over a's marginal
    sum(prior * w * y^_a). Without rotation it is :func:`bwe_violation`'s.
    """
    pop = _require_single_population(game)
    if denominator < 1:
        raise ValueError("denominator must be >= 1")
    k_count = denominator
    actions = pop.actions
    sizes = tuple(Fraction(1, k_count) for _ in range(k_count))
    type_sets = tuple(tuple(actions) for _ in range(k_count))
    rounded = _round_outcome(game, outcome, (k_count,))[0]
    kernel = {}
    for state in game.states:
        bucket = {}
        for flow, w in rounded.per_state[state]:
            if w == 0:
                continue
            base = [a for a, y in zip(actions, flow.flows[0]) for _ in range(int(y * k_count))]
            rotations = range(k_count) if symmetrize else (0,)
            mass = w * Fraction(1, k_count) if symmetrize else w
            for r in rotations:
                profile = tuple(base[k_count - r :] + base[: k_count - r])
                bucket[profile] = bucket.get(profile, 0) + mass
        kernel[state] = tuple(sorted(bucket.items()))
    structure = InformationStructure(sizes, type_sets, kernel)
    n = len(actions)
    obedient = tuple(tuple(sizes[0] if j == ja else Fraction(0) for j in range(n)) for ja in range(n))
    strategies = StrategyProfile((obedient,) * k_count)
    if symmetrize:
        atoms = _state_atoms(game, rounded)
        marginal = {a: sum(m * y.flows[0][j] for _, m, y in atoms) for j, a in enumerate(actions)}
        rows = obedience_rows(game, atoms)
        eps = max((sum(terms) / marginal[a] for (_, a, _), terms in rows if marginal[a] > 0), default=0)
    else:  # bwe_violation, without validating the strategies built just above
        eps = _max_gap(_conditional_costs(game, structure, strategies)[1], strategies)
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
    blocks, core = _bwe_setup(game, structure)
    if start is not None:
        validate_strategies(structure, start, len(game.populations[0].actions))
    return _bwe_solve(game, structure, blocks, core, tol, start)


def _bwe_setup(game: GameSpec, structure: InformationStructure):
    """The (k, type index) blocks with positive kernel marginal, and the
    potential core of the auxiliary game over them; both depend only on the
    game and the structure, and the core holds no state between solves.

    The auxiliary game is a congestion game whose populations are the blocks,
    of mass gamma_k; each positive-weight kernel atom is one piece over the
    blocks it assigns, with latencies scaled by prior times kernel weight, so
    its potential is the kernel-weighted sum of per-state potentials at the
    realized aggregates.
    """
    if game.congestion is None:
        raise ValueError("solving needs a congestion backing")
    pop = _require_single_population(game)
    _check_kernel_states(game, structure)
    atoms = []  # (prior times kernel weight, state, type profile), positive only
    for state in game.states:
        p = game.prior_of(state)
        atoms.extend((p * w, state, profile) for profile, w in structure.kernel[state] if p * w > 0)
    positive = {(k, t) for _weight, _state, profile in atoms for k, t in enumerate(profile)}
    blocks = [
        (k, ti)
        for k in range(structure.population_count())
        if structure.sizes[k] != 0
        for ti, t in enumerate(structure.type_sets[k])
        if (k, t) in positive
    ]
    index = {(k, structure.type_sets[k][ti]): b for b, (k, ti) in enumerate(blocks)}
    pieces = [
        (float(weight), state, [index[kt] for kt in enumerate(profile) if kt in index])
        for weight, state, profile in atoms
    ]
    core = _congestion_core(game.congestion, [(pop, structure.sizes[k]) for k, _ in blocks], pieces)
    return blocks, core


def _bwe_solve(game, structure, blocks, core, tol, start) -> StrategyProfile:
    actions = game.populations[0].actions
    if start is None:
        x0 = np.concatenate(
            [
                np.full(len(actions), float(structure.sizes[k]) / len(actions))
                for k, _ in blocks
            ]
        )
    else:
        x0 = np.array(
            [
                float(start.strategies[k][ti][j])
                for k, ti in blocks
                for j in range(len(actions))
            ]
        )
    x, _iters = core.minimize(x0, tol, 400)
    out = []
    pos = {blk: i for i, blk in enumerate(blocks)}
    for k in range(structure.population_count()):
        gamma = structure.sizes[k]
        block_vecs = []
        for ti in range(len(structure.type_sets[k])):
            total = 0  # a block with no solved mass puts all of gamma on its first action
            if (k, ti) in pos and gamma > 0:
                lo = pos[(k, ti)] * len(actions)
                vec = np.maximum(x[lo : lo + len(actions)], 0.0)
                vec[vec < 1e-9 * float(gamma)] = 0.0
                total = vec.sum()
            if total > 0:
                vec = vec * (float(gamma) / total)
            else:
                vec = np.zeros(len(actions))
                vec[0] = float(gamma)
            block_vecs.append(tuple(float(v) for v in vec))
        out.append(tuple(block_vecs))
    return StrategyProfile(tuple(out))


@dataclass(frozen=True)
class UniquenessProbeReport:
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
    positive-flow conditional costs (and the realized flows) spread."""
    if trials < 1:
        raise ValueError("trials must be >= 1")
    _check_tol(tol)
    rng = random.Random(_PROBE_SEED)
    pop = _require_single_population(game)
    actions = pop.actions
    blocks, core = _bwe_setup(game, structure)
    runs = []  # (solved strategies, aggregate flows, conditional costs)
    worst_violation = 0.0
    for _ in range(trials):
        start_blocks = []
        for k in range(structure.population_count()):
            gamma = float(structure.sizes[k])
            vecs = []
            for _t in structure.type_sets[k]:
                raw = [rng.random() + 1e-3 for _ in actions]
                total = sum(raw)
                vecs.append(tuple(gamma * v / total for v in raw))
            start_blocks.append(tuple(vecs))
        start = StrategyProfile(tuple(start_blocks))
        solved = _bwe_solve(game, structure, blocks, core, tol=tol, start=start)
        flows, conditional = _conditional_costs(game, structure, solved)
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
