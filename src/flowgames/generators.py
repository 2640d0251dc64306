"""Seeded factories for random games, flows, outcomes, and structures.

Everything here is deterministic in the seed and produces exact rational
data unless stated otherwise, so downstream obedience checks can confirm
exact zeros.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction

from .design import DesignerProblem, build_grid, solve_program_p
from .infostruct import InformationStructure
from .model import (
    Add,
    CongestionSpec,
    Const,
    FlowProfile,
    FlowVar,
    GameSpec,
    Mul,
    Outcome,
    Population,
    _fold,
    congestion_to_game,
)
from .wardrop import _state_equilibria


def _rng(seed) -> random.Random:
    return seed if isinstance(seed, random.Random) else random.Random(seed)


def _random_weights(rng: random.Random, n: int, top: int = 4) -> tuple:
    raw = [rng.randint(1, top) for _ in range(n)]
    total = sum(raw)
    return tuple(Fraction(r, total) for r in raw)


def random_congestion_game(
    seed,
    n_actions: int = 2,
    n_states: int = 1,
    quadratic: bool = False,
    n_pops: int = 1,
) -> GameSpec:
    """A parallel-edge congestion game with small rational coefficients.

    Slopes are at least 1, so per-state potentials are strictly convex and
    equilibrium loads are unique. Every population routes over the same edges.
    """
    rng = _rng(seed)
    states = tuple(str(i) for i in range(n_states))
    prior = _random_weights(rng, n_states)
    populations = tuple(
        Population(f"p{k}" if n_pops > 1 else "pop", tuple(f"a{j}" for j in range(n_actions)))
        for k in range(n_pops)
    )
    resources = tuple(f"e{j}" for j in range(n_actions))
    actions = {
        (pop.name, f"a{j}"): frozenset({f"e{j}"}) for pop in populations for j in range(n_actions)
    }
    latencies = {}
    for e in resources:
        for s in states:
            coeffs = [Fraction(rng.randint(0, 3)), Fraction(rng.randint(1, 3))]
            if quadratic:
                coeffs.append(Fraction(rng.randint(0, 2)))
            latencies[(e, s)] = tuple(coeffs)
    spec = CongestionSpec(resources, latencies, actions, populations, states, prior)
    return congestion_to_game(spec)


def random_flow(game: GameSpec, seed) -> FlowProfile:
    """A float flow drawn uniformly-ish from the interior of each simplex."""
    rng = _rng(seed)
    flows = []
    for pop in game.populations:
        raw = [rng.random() + 1e-9 for _ in pop.actions]
        total = _fold(raw)
        flows.append(tuple(v / total for v in raw))
    return FlowProfile(tuple(flows))


def random_rational_flow(game: GameSpec, seed, denominator: int = 8) -> FlowProfile:
    """An exact flow on the 1/denominator lattice of each simplex."""
    rng = _rng(seed)
    flows = []
    for pop in game.populations:
        n = len(pop.actions)
        cuts = sorted(rng.randint(0, denominator) for _ in range(n - 1))
        parts = []
        prev = 0
        for c in cuts:
            parts.append(c - prev)
            prev = c
        parts.append(denominator - prev)
        flows.append(tuple(Fraction(p, denominator) for p in parts))
    return FlowProfile(tuple(flows))


def random_outcome(
    game: GameSpec, seed, support: int = 2, denominator: int = 8
) -> Outcome:
    """A rational outcome with the given per-state support size.

    Nothing is checked about obedience; pair with a designer solve when an
    equilibrium outcome is needed.
    """
    rng = _rng(seed)
    per_state = {}
    for s in game.states:
        flows = []
        seen = set()
        while len(flows) < support:
            f = random_rational_flow(game, rng, denominator)
            key = tuple(tuple(v for v in b) for b in f.flows)
            if key in seen:
                continue
            seen.add(key)
            flows.append(f)
        weights = _random_weights(rng, support)
        per_state[s] = tuple(zip(flows, weights))
    return Outcome(per_state)


def random_structure(
    game: GameSpec, seed, sub_pops: int = 2, types_per: int = 2, atoms: int = 3
) -> InformationStructure:
    """A random rational information structure for a single population."""
    if len(game.populations) != 1:
        raise ValueError("structures require a single population")
    rng = _rng(seed)
    sizes = _random_weights(rng, sub_pops)
    type_sets = tuple(
        tuple(f"t{i}" for i in range(types_per)) for _ in range(sub_pops)
    )
    all_profiles = list(itertools.product(*type_sets))
    kernel = {}
    for s in game.states:
        count = min(atoms, len(all_profiles))
        chosen = rng.sample(all_profiles, count)
        weights = _random_weights(rng, count)
        kernel[s] = tuple(sorted(zip(chosen, weights)))
    return InformationStructure(sizes, type_sets, kernel)


def _random_designer_cost(game: GameSpec, rng: random.Random) -> dict:
    """Random per-state linear objectives in the flow variables."""
    out = {}
    multi = len(game.populations) > 1
    for s in game.states:
        terms = []
        for pop in game.populations:
            for a in pop.actions:
                coef = rng.randint(0, 3)
                if coef == 0:
                    continue
                var = FlowVar(pop.name if multi else None, a)
                terms.append(Mul(Const(Fraction(coef)), var))
        if not terms:
            out[s] = None  # fall back to social cost
            continue
        expr = terms[0]
        for t in terms[1:]:
            expr = Add(expr, t)
        out[s] = expr
    return out


def full_disclosure_outcome(game: GameSpec) -> Outcome:
    """Per-state equilibrium flows with weight 1 (always state-obedient).

    A state's flow is the first equilibrium that seeds :func:`build_grid`,
    exact ``Fraction``s wherever a rational one verifies, as on affine
    congestion latencies. Raises RuntimeError where none is found.
    """
    per_state = {}
    for s in game.states:
        found = _state_equilibria(game, s)
        if not found:
            raise RuntimeError(f"no equilibrium found for state {s!r}")
        per_state[s] = ((found[0], Fraction(1)),)
    return Outcome(per_state)


def random_bcwe(game: GameSpec, seed, resolution: int = 4) -> Outcome:
    """A state-averaged-obedient outcome from a random designer solve.

    Falls back to full disclosure when the program degenerates.
    """
    rng = _rng(seed)
    problem = DesignerProblem(
        game, _random_designer_cost(game, rng), build_grid(game, resolution)
    )
    solution = solve_program_p(problem)
    if solution.outcome is not None:
        return solution.outcome
    return full_disclosure_outcome(game)
