"""Information structures: synthesis, obedience checking, and solving.

A structure splits the unit player mass into sub-populations with type sets
and a state-conditional kernel over joint type profiles. Strategies map each
sub-population's types to flows of that sub-population's mass; the game is
evaluated at the aggregate flow. Synthesis follows the direct-recommendation
construction (types are actions, strategies obey). Solving is exact: the
auxiliary complete-information congestion game, whose populations are (sub-
population, type) pairs weighted by the kernel, goes through the Lemke runs
and Josephy-Newton steps of :func:`wardrop._josephy`.
"""

from __future__ import annotations

import operator
from fractions import Fraction

from .checks import _state_atoms, _sums
from .model import (
    FlowProfile,
    GameSpec,
    Outcome,
    _Record,
    _check_states,
    _check_tol,
    _check_unit,
    _off_unit,
    _round_outcome,
    _shown,
    _sum,
    eval_cost,
)
from .wardrop import _josephy


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
    """Raise ValueError unless each sub-population k plays one nonnegative
    vector of ``n_actions`` entries per type, of mass gamma_k: within
    ``MASS_TOL`` of it relative to gamma_k (:func:`model._off_unit` of their
    ratio), and exactly 0 where gamma_k is."""
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
            if total != 0 if gamma == 0 else _off_unit(total / gamma):
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
    rounded = _round_outcome(game, outcome, (k_count,))[0]
    # type entries of the kernel: k_count rotations of k_count types for a
    # flow of two or more actions, one profile for the others
    size = sum(
        k_count * (k_count if symmetrize and max(flow.flows[0]) < 1 else 1)
        for atoms in rounded.per_state.values()
        for flow, w in atoms
        if w != 0
    )
    if size > 10**7:
        raise ValueError(f"kernel of {size} type entries exceeds the 1e7 cap")
    sizes = (Fraction(1, k_count),) * k_count
    type_sets = tuple(tuple(actions) for _ in range(k_count))
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


def solve_bwe(game: GameSpec, structure: InformationStructure, tol: float = 1e-8) -> StrategyProfile:
    """Exact equilibrium strategies for an information structure over a
    congestion game: the minimizer of the kernel-weighted auxiliary
    potential, by Josephy-Newton steps that are one Lemke run each
    (:func:`wardrop._josephy`), until :func:`bwe_violation`'s gap is within
    ``tol``. On affine latencies the first step is exact and the gap 0. Types with zero kernel marginal, and every type
    of a sub-population of size 0, get all their mass on the first action.
    """
    _check_tol(tol)
    return _bwe_solve(game, structure, tol)[0]


def _bwe_solve(game: GameSpec, structure: InformationStructure, tol) -> tuple:
    """:func:`solve_bwe`'s strategies and their exact gap.

    The auxiliary game is a congestion game whose populations are the (k,
    type index) blocks with positive kernel marginal and positive size
    gamma_k, of mass gamma_k; each positive-weight kernel atom is one piece
    over the blocks it assigns, with latencies scaled by prior times kernel
    weight, so its potential is the kernel-weighted sum of per-state
    potentials at the realized aggregates, and its costs are the
    conditional costs times each type's marginal.
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
    pieces = [(weight, state, [index[key] for key in keys if key in index]) for state, _p, weight, _fw, keys in atoms]
    idle = (Fraction(0),) * (len(pop.actions) - 1)

    def strategies(flows) -> StrategyProfile:
        solved = dict(zip(blocks, flows))
        return StrategyProfile(
            tuple(
                tuple(solved.get((k, ti), (gamma, *idle)) for ti in range(len(types)))
                for k, (gamma, types) in enumerate(zip(structure.sizes, structure.type_sets))
            )
        )

    def gap(flows):
        played = strategies(flows)
        return _max_gap(_conditional_costs(game, structure, played, plan)[1], played)

    masses = [(pop, structure.sizes[k]) for k, _ in blocks]
    flows, violation, _steps = _josephy(game.congestion, masses, pieces, tol, gap)
    return strategies(flows), violation


class UniquenessProbeReport(_Record):
    """Spread of solved equilibria across restarts.

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


def bwe_cost_uniqueness_probe(
    game: GameSpec,
    structure: InformationStructure,
    trials: int = 20,
    tol: float = 1e-8,
) -> UniquenessProbeReport:
    """How much the per-type conditional costs of played actions, and the
    realized flows, spread across ``trials`` equilibrium solves, with the
    worst :func:`bwe_violation` among them. ``trials`` must be an int (not a
    bool) of at least 1.

    The solve is :func:`solve_bwe`'s, made once: it takes no start, as its
    first step is at load 0, and it is exact, so every restart would return
    the same strategies, and both deviations are 0.
    """
    if type(trials) is not int:
        raise ValueError(f"trials must be an int, got {trials!r}")
    if trials < 1:
        raise ValueError("trials must be >= 1")
    _check_tol(tol)
    violation = _bwe_solve(game, structure, tol)[1]
    return UniquenessProbeReport(0.0, 0.0, trials, float(violation))
