import itertools
import json
import random
import re
from fractions import Fraction as F
from pathlib import Path

import pytest

import flowgames as fg
from flowgames import infostruct
from flowgames.cli import main
from flowgames.generators import random_bcwe, random_congestion_game, random_structure
from flowgames.model import CongestionSpec, Population, _round_outcome


def flow1(*vals):
    return fg.FlowProfile((tuple(F(v) for v in vals),))


def two_state_pigou():
    # constant road against a road whose slope halves in state 1
    spec = CongestionSpec(
        resources=("e1", "e2"),
        latencies={
            ("e1", "0"): (F(1),),
            ("e1", "1"): (F(1),),
            ("e2", "0"): (F(0), F(2)),
            ("e2", "1"): (F(0), F(1, 2)),
        },
        actions={("traffic", "a"): ("e1",), ("traffic", "b"): ("e2",)},
        populations=(Population("traffic", ("a", "b")),),
        states=("0", "1"),
        prior=(F(1, 2), F(1, 2)),
    )
    return fg.congestion_to_game(spec)


def test_direct_structure_reproduces_split_kernel(elfarol, elfarol_cwe):
    structure, strategies, eps = fg.direct_structure_from_bcwe(elfarol, elfarol_cwe, 2)
    assert structure.sizes == (F(1, 2), F(1, 2))
    assert structure.type_sets == (("a", "b"), ("a", "b"))
    kernel = {profile: w for profile, w in structure.kernel["0"]}
    assert kernel == {
        ("a", "a"): F(1, 3),
        ("a", "b"): F(1, 3),
        ("b", "a"): F(1, 3),
    }
    assert eps == 0
    assert fg.bwe_violation(elfarol, structure, strategies) == 0


def test_direct_structure_round_trips_outcome(elfarol, elfarol_cwe):
    structure, strategies, _ = fg.direct_structure_from_bcwe(elfarol, elfarol_cwe, 2)
    assert fg.outcome_of_strategies(structure, strategies) == elfarol_cwe


def test_direct_structure_unsymmetrized_leaks(elfarol, elfarol_cwe):
    # without rotation, sub-population 0 is always told a and can infer the
    # mix: deviating to b costs 2/3 against an obedient cost of 1
    structure, strategies, eps = fg.direct_structure_from_bcwe(
        elfarol, elfarol_cwe, 2, symmetrize=False
    )
    kernel = {profile: w for profile, w in structure.kernel["0"]}
    assert kernel == {("a", "b"): F(2, 3), ("a", "a"): F(1, 3)}
    assert eps == F(1, 3)
    assert fg.outcome_of_strategies(structure, strategies) == elfarol_cwe


def test_direct_structure_coarse_denominator(elfarol, elfarol_cwe):
    # denominator 3 cannot represent the (1/2, 1/2) atom, so the
    # recommendation rounds and the outcome no longer matches
    structure, strategies, eps = fg.direct_structure_from_bcwe(elfarol, elfarol_cwe, 3)
    assert eps >= 0
    assert fg.outcome_of_strategies(structure, strategies) != elfarol_cwe


def test_direct_structure_reports_missing_state(pigou_info):
    partial = fg.Outcome({"0": ((fg.FlowProfile(((F(1), F(0)),)), F(1)),)})
    with pytest.raises(ValueError, match="outcome missing state '1'"):
        fg.direct_structure_from_bcwe(pigou_info, partial, 4)


def test_direct_structure_refuses_non_int_denominators(elfarol, elfarol_cwe):
    # True is not read as one sub-population, and 2.0 is refused before range()
    for denominator in (True, False, 2.0, F(2), 0, -3):
        with pytest.raises(ValueError, match=re.escape(f"must be an int of at least 1, got {denominator!r}")):
            fg.direct_structure_from_bcwe(elfarol, elfarol_cwe, denominator)


def test_obedient_strategies_put_mass_on_own_type(elfarol, elfarol_cwe):
    structure, strategies, _ = fg.direct_structure_from_bcwe(elfarol, elfarol_cwe, 2)
    assert strategies.strategies[0][0] == (F(1, 2), F(0))
    assert strategies.strategies[0][1] == (F(0), F(1, 2))


def test_aggregate_flow_of_type_profiles(elfarol, elfarol_cwe):
    structure, strategies, _ = fg.direct_structure_from_bcwe(elfarol, elfarol_cwe, 2)
    assert fg.aggregate_flow(structure, strategies, ("a", "b")) == (F(1, 2), F(1, 2))
    assert fg.aggregate_flow(structure, strategies, ("a", "a")) == (F(1), F(0))


def test_bwe_violation_when_everyone_defects(elfarol, elfarol_cwe):
    structure, _, _ = fg.direct_structure_from_bcwe(elfarol, elfarol_cwe, 2)
    all_b = fg.StrategyProfile(
        (((F(0), F(1, 2)), (F(0), F(1, 2))), ((F(0), F(1, 2)), (F(0), F(1, 2))))
    )
    # all mass on b gives aggregate (0, 1) where c_b - c_a = 2 - 1
    assert fg.bwe_violation(elfarol, structure, all_b) == 1



def reference_conditional_costs(game, structure, strategies):
    """Per-type conditional costs term by term: one aggregate flow and one
    cost evaluation per (sub-population, type, action, kernel atom), summed
    as Fractions or floats in kernel order; (k, type index) -> costs over the
    types with positive marginal."""
    pop = game.populations[0]
    table = {}
    for k in range(structure.population_count()):
        for ti, t in enumerate(structure.type_sets[k]):
            weights = []
            marginal = 0
            for state in game.states:
                p = game.prior_of(state)
                for profile, w in structure.kernel.get(state, ()):
                    if profile[k] != t or w == 0:
                        continue
                    weights.append((p * w, profile, state))
                    marginal = marginal + p * w
            if marginal == 0:
                continue
            cond = []
            for action in pop.actions:
                total = 0
                for weight, profile, state in weights:
                    flow = fg.FlowProfile((fg.aggregate_flow(structure, strategies, profile),))
                    total = total + weight * fg.eval_cost(game, pop.name, action, flow, state)
                cond.append(total / marginal)
            table[(k, ti)] = cond
    return table


def planned_costs(game, structure, strategies):
    """_conditional_costs over a fresh atom plan of the game and structure."""
    plan = infostruct._atom_plan(game, structure)
    return infostruct._conditional_costs(game, structure, strategies, plan)


def reference_bwe_violation(game, structure, strategies):
    """bwe_violation from the term-by-term table."""
    worst = None
    for (k, ti), cond in sorted(reference_conditional_costs(game, structure, strategies).items()):
        cheapest = min(cond)
        for cost, mass in zip(cond, strategies.strategies[k][ti]):
            if mass > 0 and (worst is None or cost - cheapest > worst):
                worst = cost - cheapest
    return 0 if worst is None else worst


def random_rational_strategies(structure, n_actions, rng):
    blocks = []
    for k, gamma in enumerate(structure.sizes):
        vecs = []
        for _ in structure.type_sets[k]:
            raw = [rng.randint(0, 3) for _ in range(n_actions)]
            raw[rng.randrange(n_actions)] += 1
            vecs.append(tuple(gamma * F(r, sum(raw)) for r in raw))
        blocks.append(tuple(vecs))
    return fg.StrategyProfile(tuple(blocks))


def oracle_cases():
    for g in range(1, 9):
        game = random_congestion_game(
            g, n_actions=2 + g % 2, n_states=1 + g % 2, quadratic=g % 4 == 0
        )
        structure = random_structure(game, 10 * g, sub_pops=2 + g % 2, atoms=3 + g % 3)
        yield game, structure
    # one profile in both states, and an atom of weight 0
    game = two_state_pigou()
    both = ("t0", "t1")
    yield game, fg.InformationStructure(
        sizes=(F(1, 3), F(2, 3)),
        type_sets=(("t0", "t1"), ("t0", "t1")),
        kernel={
            "0": ((both, F(1, 2)), (("t1", "t1"), F(1, 2)), (("t0", "t0"), F(0))),
            "1": ((both, F(1)),),
        },
    )


def test_bwe_violation_matches_reference_formula():
    rng = random.Random(0)
    for game, structure in oracle_cases():
        n_actions = len(game.populations[0].actions)
        for _ in range(3):
            strategies = random_rational_strategies(structure, n_actions, rng)
            got = fg.bwe_violation(game, structure, strategies)
            assert isinstance(got, F) and got > 0
            assert got == reference_bwe_violation(game, structure, strategies)
        solved = fg.solve_bwe(game, structure, tol=1e-10)
        got = fg.bwe_violation(game, structure, solved)
        assert got == reference_bwe_violation(game, structure, solved)
        assert 0 <= got <= 1e-10


SYNTHESIS_CASES = [
    ("elfarol", "elfarol_cwe", 7),
    ("elfarol", "elfarol_cwe", 16),
    ("elfarol", "elfarol_cwe", 64),
    ("pigou_info", "pigou_bcwe", 65),
]


@pytest.mark.parametrize("name, outcome_name, denominator", SYNTHESIS_CASES)
@pytest.mark.parametrize("symmetrize", [True, False])
def test_exact_conditional_costs_match_reference(request, name, outcome_name, denominator, symmetrize):
    # the atom-by-atom sums give the reference's Fractions, key for key
    game, outcome = request.getfixturevalue(name), request.getfixturevalue(outcome_name)
    structure, strategies, _ = fg.direct_structure_from_bcwe(game, outcome, denominator, symmetrize)
    table = planned_costs(game, structure, strategies)[1]
    assert table == reference_conditional_costs(game, structure, strategies)
    assert all(type(c) is F for costs in table.values() for c in costs)


# Three actions under two numeric states: max, min, ^ (degree 2), theta and
# state tables, and a product of two flows.
_THETA_GAME = """
[populations]
crowd = a, b, c

[states]
names = 0, 1

[prior]
0 = 1/3
1 = 2/3

[costs]
crowd.a = theta[0=1/10, 1=1/8] + y[a]
crowd.b = max(3*y[b] - theta, min(y[c], 1/2))^2 + 1/7
crowd.c = 2*y[c] + theta*y[a]*y[b] + 1/5
"""


def exact_cases():
    """(name, game, structure, strategies) on exact data: the direct
    structures of the sixteen two-state random_bcwe outcomes at denominator
    12, and random rational structures on a quadratic game and on the
    theta game."""
    for s in range(16):
        game = random_congestion_game(s, n_actions=3, n_states=2)
        structure, strategies, _ = fg.direct_structure_from_bcwe(game, random_bcwe(game, s), 12)
        yield f"rbcwe{s}-d12", game, structure, strategies
    rng = random.Random(5)
    quadratic = random_congestion_game(4, n_actions=3, n_states=2, quadratic=True)
    for name, game in (("quadratic", quadratic), ("theta", fg.parse_game_file(_THETA_GAME))):
        for seed in range(3):
            structure = random_structure(game, seed, sub_pops=3, atoms=5)
            yield f"{name}-{seed}", game, structure, random_rational_strategies(structure, 3, rng)


def test_exact_conditional_costs_match_reference_on_more_games():
    for name, game, structure, strategies in exact_cases():
        table = planned_costs(game, structure, strategies)[1]
        assert table == reference_conditional_costs(game, structure, strategies), name
        assert all(type(c) is F for costs in table.values() for c in costs), name


def test_int_strategies_give_fraction_conditional_costs():
    # one sub-population of mass 1 that obeys its type with int entries
    game = fg.parse_game_file(_THETA_GAME)
    structure = fg.InformationStructure(
        sizes=(F(1),),
        type_sets=(("a", "b", "c"),),
        kernel={"0": ((("a",), F(1, 4)), (("c",), F(3, 4))), "1": ((("b",), F(1)),)},
    )
    strategies = fg.StrategyProfile((((1, 0, 0), (0, 1, 0), (0, 0, 1)),))
    table = planned_costs(game, structure, strategies)[1]
    assert table == reference_conditional_costs(game, structure, strategies)
    assert sorted(table) == [(0, 0), (0, 1), (0, 2)]
    assert all(type(c) is F for costs in table.values() for c in costs)
    assert fg.bwe_violation(game, structure, strategies) == reference_bwe_violation(game, structure, strategies)


def test_float_kernel_weights_take_the_float_path():
    # Fraction strategies under float kernel weights: float costs, summed in
    # kernel order as the reference sums them
    game = fg.parse_game_file(_THETA_GAME)
    structure = random_structure(game, 1, sub_pops=3, atoms=5)
    floats = fg.InformationStructure(
        structure.sizes,
        structure.type_sets,
        {s: tuple((profile, float(w)) for profile, w in atoms) for s, atoms in structure.kernel.items()},
    )
    strategies = random_rational_strategies(structure, 3, random.Random(2))
    table = planned_costs(game, floats, strategies)[1]
    reference = reference_conditional_costs(game, floats, strategies)
    assert repr(sorted(table.items())) == repr(sorted(reference.items()))
    assert all(type(c) is float for costs in table.values() for c in costs)


def designed_outcomes(name):
    """(game, outcome) pairs over random_congestion_game(s, 3, 2): the sixteen
    exact random_bcwe outcomes; the social-cost designs at resolution 4 of
    the twelve quadratic variants, exact as every design is; or, for
    "quadratic_float", each of those variants' float potential equilibria
    with weight 1."""
    for s in range(16 if name == "random_bcwe" else 12):
        game = random_congestion_game(s, n_actions=3, n_states=2, quadratic=name != "random_bcwe")
        if name == "random_bcwe":
            yield game, random_bcwe(game, s)
        elif name == "quadratic_float":
            yield game, fg.Outcome({t: ((fg.solve_we_potential(game, t).flow, 1.0),) for t in game.states})
        else:
            problem = fg.DesignerProblem(game, fg.social_cost_expr(game), fg.build_grid(game, 4))
            yield game, fg.solve_program_p(problem).outcome


EPS_CASES = (
    [("elfarol", "elfarol_cwe", 2)]
    + SYNTHESIS_CASES
    + [("random_bcwe", None, d) for d in (5, 12, 13)]
    + [("quadratic_design", None, d) for d in (3, 12, 40)]
    + [("quadratic_float", None, d) for d in (3, 12, 40)]
)


@pytest.mark.parametrize("name, outcome_name, denominator", EPS_CASES)
@pytest.mark.parametrize("symmetrize", [True, False])
def test_direct_structure_eps_is_the_bwe_violation(request, name, outcome_name, denominator, symmetrize):
    # eps skips bwe_violation's strategy validation, not any of its value; the
    # rotated closed form is exact algebra, so only float outcomes may move
    # by roundoff
    if outcome_name is None:
        cases = designed_outcomes(name)
    else:
        cases = [(request.getfixturevalue(name), request.getfixturevalue(outcome_name))]
    for game, outcome in cases:
        structure, strategies, eps = fg.direct_structure_from_bcwe(game, outcome, denominator, symmetrize)
        want = fg.bwe_violation(game, structure, strategies)
        if name == "quadratic_float":
            assert abs(eps - want) <= 1e-12
        else:
            assert eps == want


def test_rotated_eps_costs_no_kernel_atom(elfarol, elfarol_cwe, monkeypatch):
    # with rotation eps comes from the rounded outcome's obedience rows alone
    def refused(*args):
        raise AssertionError("a kernel atom was costed")

    monkeypatch.setattr(infostruct, "_conditional_costs", refused)
    for denominator in (2, 3, 64):
        _, _, eps = fg.direct_structure_from_bcwe(elfarol, elfarol_cwe, denominator, symmetrize=True)
        assert eps >= 0
    with pytest.raises(AssertionError, match="a kernel atom was costed"):
        fg.direct_structure_from_bcwe(elfarol, elfarol_cwe, 3, symmetrize=False)


def _rotation_kernel(game, outcome, denominator, symmetrize):
    # the literal rotation loop the kernel replaced: every one of the
    # denominator rotations of each rounded flow's blocks, hashed and summed
    rounded = _round_outcome(game, outcome, (denominator,))[0]
    actions, kernel = game.populations[0].actions, {}
    for state in game.states:
        bucket = {}
        for flow, w in rounded.per_state[state]:
            if w == 0:
                continue
            base = [a for a, y in zip(actions, flow.flows[0]) for _ in range(int(y * denominator))]
            mass = w * F(1, denominator) if symmetrize else w
            for r in range(denominator) if symmetrize else (0,):
                profile = tuple(base[denominator - r :] + base[: denominator - r])
                bucket[profile] = bucket.get(profile, 0) + mass
        kernel[state] = tuple(sorted(bucket.items()))
    return kernel


def test_direct_structure_kernel_is_the_rotation_loop():
    # one, two and three actions per flow, exact and float weights, d = 1..64:
    # the kernel keeps every profile, weight and weight type
    game = random_congestion_game(0, n_actions=3, n_states=2)
    exact = fg.Outcome(
        {
            "0": ((flow1(1, 0, 0), F(1, 3)), (flow1(F(1, 2), F(1, 2), 0), F(1, 3)), (flow1(F(1, 5), F(2, 5), F(2, 5)), F(1, 3))),
            "1": ((flow1(0, 0, 1), F(3, 4)), (flow1(0, F(1, 3), F(2, 3)), F(1, 4))),
        }
    )
    floats = fg.Outcome(
        {
            "0": ((flow1(0, 1, 0), 0.1), (flow1(F(1, 7), 0, F(6, 7)), 0.9)),
            "1": ((fg.FlowProfile(((0, 0, 1),)), 0.3), (flow1(F(1, 3), F(1, 3), F(1, 3)), 0.7)),
        }
    )
    for outcome in (exact, floats):
        for denominator in range(1, 65):
            for symmetrize in (True, False):
                structure = fg.direct_structure_from_bcwe(game, outcome, denominator, symmetrize)[0]
                want = _rotation_kernel(game, outcome, denominator, symmetrize)
                got = structure.kernel
                assert got == want, (denominator, symmetrize)
                assert [type(w) for s in game.states for _, w in got[s]] == [
                    type(w) for s in game.states for _, w in want[s]
                ]
                if outcome is exact and symmetrize and denominator > 1:
                    # a flow of two or more actions has one profile per rotation
                    assert len(got["0"]) == 1 + 2 * denominator


def test_aggregate_flow_keeps_int_entries():
    structure = fg.InformationStructure(
        sizes=(F(1, 2), F(1, 2)),
        type_sets=(("a", "b"), ("a", "b")),
        kernel={"0": ((("a", "b"), F(1)),)},
    )
    strategies = fg.StrategyProfile((((1, 0), (0, 1)), ((1, 0), (0, 1))))
    for profile, want in ((("a", "b"), (1, 1)), (("b", "b"), (0, 2))):
        got = fg.aggregate_flow(structure, strategies, profile)
        assert got == want and all(type(v) is int for v in got)
    # Fraction entries give one reduced Fraction per action
    halves = fg.StrategyProfile((((F(1, 2), F(0)), (F(0), F(1, 2))),) * 2)
    assert fg.aggregate_flow(structure, halves, ("a", "b")) == (F(1, 2), F(1, 2))
    assert all(type(v) is F for v in fg.aggregate_flow(structure, halves, ("a", "a")))


def test_aggregate_flow_float_entries_keep_their_bits():
    structure = fg.InformationStructure(
        sizes=(F(1, 2), F(1, 2)),
        type_sets=(("a", "b"), ("a", "b")),
        kernel={"0": ((("a", "b"), F(1)),)},
    )
    floats = fg.StrategyProfile((((0.1, 0.9), (0.7, 0.3)), ((0.2, 0.8), (1 / 3, 2 / 3))))
    for profile in (("a", "a"), ("a", "b"), ("b", "a"), ("b", "b")):
        vecs = [floats.strategies[k][structure.type_sets[k].index(t)] for k, t in enumerate(profile)]
        got = fg.aggregate_flow(structure, floats, profile)
        assert [repr(v) for v in got] == [repr(0 + x + y) for x, y in zip(*vecs)]
    # a Fraction first entry beside float ones is added entry by entry too
    mixed = fg.StrategyProfile((((F(1, 2), F(1, 2)), (F(0), F(1))), ((0.25, 0.75), (0.5, 0.5))))
    got = fg.aggregate_flow(structure, mixed, ("a", "a"))
    assert [repr(v) for v in got] == [repr(F(1, 2) + 0.25), repr(F(1, 2) + 0.75)]


def counted_atom_costs(monkeypatch):
    """Record (state, action) for every cost evaluation that
    _conditional_costs makes."""
    calls = []
    eval_cost = infostruct.eval_cost

    def counted(game, pop, action, flow, state):
        calls.append((state, action))
        return eval_cost(game, pop, action, flow, state)

    monkeypatch.setattr(infostruct, "eval_cost", counted)
    return calls


def counted_aggregates(monkeypatch):
    calls = []
    aggregate_flow = infostruct.aggregate_flow

    def counted(*args):
        calls.append(args)
        return aggregate_flow(*args)

    monkeypatch.setattr(infostruct, "aggregate_flow", counted)
    return calls


def test_bwe_violation_costs_each_atom_once(elfarol, elfarol_cwe, monkeypatch):
    structure, strategies, _ = fg.direct_structure_from_bcwe(elfarol, elfarol_cwe, 64)
    atoms = [
        (state, profile)
        for state, entries in structure.kernel.items()
        for profile, w in entries
        if elfarol.prior_of(state) * w > 0
    ]
    actions = elfarol.populations[0].actions
    costed, aggregated = counted_atom_costs(monkeypatch), counted_aggregates(monkeypatch)
    floats = fg.StrategyProfile(
        tuple(tuple(tuple(float(v) for v in vec) for vec in block) for block in strategies.strategies)
    )
    # exact or float strategies: every positive-weight atom costed once per
    # action, and one aggregate flow per positive-weight profile
    for played in (strategies, floats):
        costed.clear()
        aggregated.clear()
        assert fg.bwe_violation(elfarol, structure, played) == 0
        assert sorted(costed) == sorted((state, a) for state, _ in atoms for a in actions)
        assert len(aggregated) == len({profile for _, profile in atoms})


def test_exact_path_keeps_the_aggregate_mass_check(elfarol):
    # each sub-population plays 1e-10 too much: refused by
    # validate_strategies, and by the aggregate FlowProfile, which misses
    # the unit mass by more than MASS_TOL, where nothing validates
    structure = fg.InformationStructure(
        sizes=(F(1, 2), F(1, 2)),
        type_sets=(("t",), ("t",)),
        kernel={"0": ((("t", "t"), F(1)),)},
    )
    heavy = F(1, 2) + F(1, 10**10)
    strategies = fg.StrategyProfile((((heavy, F(0)),),) * 2)
    with pytest.raises(ValueError, match=re.escape("sub-population 0 plays mass 0.5000000001, expected 0.5") + "$"):
        fg.bwe_violation(elfarol, structure, strategies)
    with pytest.raises(ValueError, match=re.escape("population 0 flow sums to 1.0000000002, expected 1") + "$"):
        planned_costs(elfarol, structure, strategies)
    # within MASS_TOL the aggregate is costed where it is
    close = fg.StrategyProfile((((F(1, 2) + F(1, 10**14), F(0)),),) * 2)
    assert fg.bwe_violation(elfarol, structure, close) == 0
    assert planned_costs(elfarol, structure, close)[1] == reference_conditional_costs(
        elfarol, structure, close
    )
    # a negative entry is refused as the aggregate FlowProfile refuses it
    negative = fg.StrategyProfile((((F(3, 4), F(-1, 4)),), ((F(1, 2), F(0)),)))
    with pytest.raises(ValueError, match=re.escape("negative flow entry Fraction(-1, 4) in population 0")):
        planned_costs(elfarol, structure, negative)


def test_solve_bwe_uninformative_pools():
    game = two_state_pigou()
    structure = fg.InformationStructure(
        sizes=(F(1),),
        type_sets=(("t",),),
        kernel={"0": ((("t",), F(1)),), "1": ((("t",), F(1)),)},
    )
    strategies = fg.solve_bwe(game, structure, tol=1e-10)
    vec = strategies.strategies[0][0]
    # averaged slope 5/4 puts 4/5 of the mass on the variable road
    assert abs(float(vec[0]) - 0.2) <= 1e-7
    assert abs(float(vec[1]) - 0.8) <= 1e-7
    assert float(fg.bwe_violation(game, structure, strategies)) <= 1e-8


def test_solve_bwe_revealing_splits_by_state():
    game = two_state_pigou()
    structure = fg.InformationStructure(
        sizes=(F(1),),
        type_sets=(("s0", "s1"),),
        kernel={"0": ((("s0",), F(1)),), "1": ((("s1",), F(1)),)},
    )
    strategies = fg.solve_bwe(game, structure, tol=1e-10)
    assert abs(float(strategies.strategies[0][0][1]) - 0.5) <= 1e-7
    assert abs(float(strategies.strategies[0][1][1]) - 1.0) <= 1e-7
    outcome = fg.outcome_of_strategies(structure, strategies)
    for state in game.states:
        we = fg.solve_we_potential(game, state, tol=1e-10)
        atoms = outcome.per_state[state]
        assert len(atoms) == 1
        assert fg.flow_linf(atoms[0][0], we.flow) <= 1e-7


def test_direct_structure_cost_matches_resolved_play():
    # synthesizing a structure and re-solving it lands on the same expected
    # social cost as the outcome it implements
    import math

    for seed in (0, 1, 2):
        game = random_congestion_game(seed, n_actions=2, n_states=2)
        outcome = random_bcwe(game, seed, resolution=4)
        den = 1
        for atoms in outcome.per_state.values():
            for f, _ in atoms:
                for v in f.flows[0]:
                    den = math.lcm(den, F(v).denominator)
        structure, strategies, eps = fg.direct_structure_from_bcwe(game, outcome, den)
        assert float(eps) <= 1e-9
        solved = fg.solve_bwe(game, structure, tol=1e-10)
        recovered = fg.outcome_of_strategies(structure, solved)

        def expected_cost(out):
            total = F(0)
            for state, atoms in out.per_state.items():
                p = game.prior_of(state)
                for f, w in atoms:
                    total += p * w * fg.social_cost(game, f, state)
            return float(total)

        assert abs(expected_cost(recovered) - expected_cost(outcome)) <= 1e-6


def test_probe_reports_agreement():
    game = random_congestion_game(0, n_actions=2, n_states=2)
    structure = random_structure(game, 0)
    report = fg.bwe_cost_uniqueness_probe(game, structure, trials=5, tol=1e-9)
    assert report.trials == 5
    assert report.cost_deviation <= 1e-6
    assert report.flow_deviation <= 1e-6
    assert report.worst_violation <= 1e-8


@pytest.mark.parametrize("trials", [0, -3])
def test_probe_rejects_fewer_than_one_trial(trials):
    game = random_congestion_game(0, n_actions=2, n_states=2)
    with pytest.raises(ValueError, match="trials must be >= 1"):
        fg.bwe_cost_uniqueness_probe(game, random_structure(game, 0), trials=trials)


@pytest.mark.parametrize("trials", [2.5, 4.0, True, False, "3", None])
def test_probe_refuses_trials_that_are_not_ints(trials):
    # a float must not reach range(), nor a bool be reported as trials=True
    game = random_congestion_game(0, n_actions=2, n_states=2)
    with pytest.raises(ValueError, match=re.escape(f"trials must be an int, got {trials!r}")):
        fg.bwe_cost_uniqueness_probe(game, random_structure(game, 0), trials=trials)


@pytest.mark.parametrize("tol", [float("nan"), float("inf"), 0.0, -1e-6, True, "1e-8"])
def test_bwe_solvers_need_a_finite_positive_tol(tol):
    game = random_congestion_game(0, n_actions=2, n_states=2)
    structure = random_structure(game, 0)
    with pytest.raises(ValueError, match="tol must be positive"):
        fg.solve_bwe(game, structure, tol=tol)
    with pytest.raises(ValueError, match="tol must be positive"):
        fg.bwe_cost_uniqueness_probe(game, structure, trials=2, tol=tol)


def _pairwise_deviations(runs):
    """The probe's cost and flow deviations as the largest |x1 - x2| over
    every pair of (strategies, flows, conditional costs) runs; a cost counts
    in a pair where either run plays its action above 1e-7."""
    cost_dev = flow_dev = 0.0
    for (s1, flows1, c1), (s2, flows2, c2) in itertools.combinations(runs, 2):
        for (k, ti), costs in c1.items():
            played1, played2 = s1.strategies[k][ti], s2.strategies[k][ti]
            for j, (x1, x2) in enumerate(zip(costs, c2[(k, ti)])):
                if played1[j] > 1e-7 or played2[j] > 1e-7:
                    cost_dev = max(cost_dev, abs(float(x1) - float(x2)))
        for profile, flow in flows1.items():
            flow_dev = max(flow_dev, fg.flow_linf(flow, flows2[profile]))
    return cost_dev, flow_dev


def flat_game():
    # two roads of constant cost 1: every flow is an equilibrium, so the
    # probe's solves stay spread out across starts
    spec = CongestionSpec(
        resources=("e1", "e2"),
        latencies={(e, s): (F(1),) for e in ("e1", "e2") for s in ("0", "1")},
        actions={("traffic", "a"): ("e1",), ("traffic", "b"): ("e2",)},
        populations=(Population("traffic", ("a", "b")),),
        states=("0", "1"),
        prior=(F(1, 3), F(2, 3)),
    )
    return fg.congestion_to_game(spec)


@pytest.mark.parametrize("trials", [1, 2, 7])
@pytest.mark.parametrize("g, tol", [(0, 1e-9), (3, 1e-3), (6, 1e-5), (None, 1e-8)])
def test_probe_deviations_are_the_pairwise_extremes(g, tol, trials, monkeypatch):
    if g is None:
        game, structure = flat_game(), random_structure(flat_game(), 5)
    else:
        game = random_congestion_game(g, n_actions=2 + g % 2, n_states=1 + g % 2)
        structure = random_structure(game, g)
    runs = []
    conditional_costs = infostruct._conditional_costs

    def recorded(game, structure, strategies, plan):
        runs.append((strategies, *conditional_costs(game, structure, strategies, plan)))
        return runs[-1][1:]

    monkeypatch.setattr(infostruct, "_conditional_costs", recorded)
    report = fg.bwe_cost_uniqueness_probe(game, structure, trials=trials, tol=tol)
    # one exact solve, whose one Josephy step costs the strategies once
    assert len(runs) == 1
    cost_dev, flow_dev = _pairwise_deviations(runs)
    assert (repr(report.cost_deviation), repr(report.flow_deviation)) == (repr(cost_dev), repr(flow_dev))


def test_probe_sets_up_auxiliary_core_once(monkeypatch):
    # the probe sets the auxiliary game up once and solves it once, as
    # solve_bwe does: its violation is that of solve_bwe's strategies
    game = random_congestion_game(0, n_actions=2, n_states=2)
    structure = random_structure(game, 0)
    plans, solves = [], []
    atom_plan, josephy = infostruct._atom_plan, infostruct._josephy

    def planned(*args):
        plans.append(atom_plan(*args))
        return plans[-1]

    def solved(*args):
        solves.append(josephy(*args))
        return solves[-1]

    monkeypatch.setattr(infostruct, "_atom_plan", planned)
    monkeypatch.setattr(infostruct, "_josephy", solved)
    report = fg.bwe_cost_uniqueness_probe(game, structure, trials=5, tol=1e-9)
    assert len(plans) == len(solves) == 1
    strategies = fg.solve_bwe(game, structure, tol=1e-9)
    assert report.worst_violation == float(fg.bwe_violation(game, structure, strategies)) == 0.0


def _probe_structures():
    """(id, game, structure) of the 30 structures of acceptance criterion 8:
    two-state, three-action games for odd g, three structures each."""
    for g in range(1, 20, 2):
        game = random_congestion_game(g, n_actions=2 + g % 2, n_states=1 + g % 2)
        for s in range(3):
            yield f"probe-g{g:02d}s{s}", game, random_structure(game, 100 * g + s)


def _probe_report_outputs():
    """repr of the probe on each of :func:`_probe_structures`."""
    return {
        case: repr(fg.bwe_cost_uniqueness_probe(game, structure, trials=20, tol=1e-9))
        for case, game, structure in _probe_structures()
    }


def test_probe_reports_match_golden():
    # the probe's one exact solve must report the same gap through changes
    # to how the solve and the costs are set up
    golden = json.loads((Path(__file__).parent / "golden" / "probe_reports.json").read_text())
    assert _probe_report_outputs() == golden


@pytest.mark.parametrize(
    "states, message",
    [
        ((), "kernel missing state '0'"),
        (("0",), "kernel missing state '1'"),
        (("0", "1", "zz"), "unknown state 'zz'"),
    ],
)
def test_kernel_states_must_match_the_game(states, message):
    game = random_congestion_game(0, n_actions=2, n_states=2)
    kernel = {state: ((("t",), F(1)),) for state in states}
    structure = fg.InformationStructure((F(1),), (("t",),), kernel)
    strategies = fg.StrategyProfile((((F(1, 2), F(1, 2)),),))
    with pytest.raises(ValueError, match=message):
        fg.bwe_violation(game, structure, strategies)
    with pytest.raises(ValueError, match=message):
        fg.solve_bwe(game, structure)
    with pytest.raises(ValueError, match=message):
        fg.bwe_cost_uniqueness_probe(game, structure)


def test_structure_validation():
    with pytest.raises(ValueError):
        fg.InformationStructure(sizes=(), type_sets=(), kernel={})
    with pytest.raises(ValueError):
        fg.InformationStructure(
            sizes=(F(1, 2),), type_sets=(("t",),), kernel={"0": ((("t",), F(1)),)}
        )
    with pytest.raises(ValueError):
        fg.InformationStructure(
            sizes=(F(1),), type_sets=(("t",),), kernel={"0": ((("t",), F(1, 2)),)}
        )
    with pytest.raises(ValueError):
        fg.InformationStructure(
            sizes=(F(1),), type_sets=(("t",),), kernel={"0": ((("u",), F(1)),)}
        )
    # sums beyond float range are named exactly, not an OverflowError
    with pytest.raises(ValueError, match=f"^sizes sum to {10**400}, expected 1$"):
        fg.InformationStructure(
            sizes=(F(10**400),), type_sets=(("t",),), kernel={"0": ((("t",), F(1)),)}
        )
    with pytest.raises(ValueError, match=f"^kernel weights for state '0' sum to {10**400}, expected 1$"):
        fg.InformationStructure(
            sizes=(F(1),), type_sets=(("t",),), kernel={"0": ((("t",), F(10**400)),)}
        )
    # the first unknown type is named, an unhashable one too
    for bad in ("u", ["t"]):
        with pytest.raises(ValueError, match=re.escape(f"unknown type {bad!r} for sub-population 1")):
            fg.InformationStructure(
                sizes=(F(1, 2), F(1, 2)), type_sets=(("t",), ("t", "s")), kernel={"0": ((("t", bad), F(1)),)}
            )
    # float and exact weights are summed left to right, as floats
    with pytest.raises(ValueError, match=r"^kernel weights for state '0' sum to 0\.9, expected 1$"):
        fg.InformationStructure(
            sizes=(F(1),), type_sets=(("t",),), kernel={"0": ((("t",), F(1, 2)), (("t",), 0.4))}
        )


def test_validate_strategies_checks_masses(elfarol, elfarol_cwe):
    structure, strategies, _ = fg.direct_structure_from_bcwe(elfarol, elfarol_cwe, 2)
    fg.validate_strategies(structure, strategies, 2)
    bad = fg.StrategyProfile((((F(1), F(0)), (F(0), F(1))),))
    with pytest.raises(ValueError):
        fg.validate_strategies(structure, bad, 2)
    one = fg.InformationStructure(sizes=(F(1),), type_sets=(("t",),), kernel={"0": ((("t",), F(1)),)})
    with pytest.raises(ValueError, match=r"^sub-population 0 plays mass 0.5, expected 1.0$"):
        fg.validate_strategies(one, fg.StrategyProfile((((F(1, 2), F(0)),),)), 2)
    # compared exactly: a mass beyond float range is named, not an OverflowError
    with pytest.raises(ValueError, match=f"^sub-population 0 plays mass {10**400}, expected 1.0$"):
        fg.validate_strategies(one, fg.StrategyProfile((((F(10**400), F(0)),),)), 2)


def test_validate_strategies_uses_one_mass_rule():
    # a mass within MASS_TOL of gamma_k relative to it, compared exactly as
    # model._check_unit compares; 1 + 1e-10 was within the former 1e-9
    one = fg.InformationStructure(sizes=(F(1),), type_sets=(("t",),), kernel={"0": ((("t",), F(1)),)})
    for heavy in (1 + F(1, 10**10), 1 + 1e-10):
        with pytest.raises(ValueError, match=r"^sub-population 0 plays mass 1.0000000001, expected 1.0$"):
            fg.validate_strategies(one, fg.StrategyProfile((((heavy, F(0)),),)), 2)
    fg.validate_strategies(one, fg.StrategyProfile((((1 + F(1, 10**13), F(0)),),)), 2)
    # relative to gamma_k: 1e-13 on a mass of 1e-3 is 1e-10 of it
    small = fg.InformationStructure(
        sizes=(F(1, 1000), F(999, 1000)), type_sets=(("t",), ("t",)), kernel={"0": ((("t", "t"), F(1)),)}
    )
    off = fg.StrategyProfile((((F(1, 1000) + F(1, 10**13), F(0)),), ((F(999, 1000), F(0)),)))
    with pytest.raises(ValueError, match=r"^sub-population 0 plays mass 0.0010000000001, expected 0.001$"):
        fg.validate_strategies(small, off, 2)
    # a sub-population of size 0 plays exactly 0
    empty = fg.InformationStructure(
        sizes=(F(0), F(1)), type_sets=(("t",), ("t",)), kernel={"0": ((("t", "t"), F(1)),)}
    )
    fg.validate_strategies(empty, fg.StrategyProfile((((F(0), F(0)),), ((F(1), F(0)),))), 2)
    for dust in (F(1, 10**10), 1e-10):
        with pytest.raises(ValueError, match=r"^sub-population 0 plays mass 1e-10, expected 0.0$"):
            fg.validate_strategies(empty, fg.StrategyProfile((((dust, F(0)),), ((F(1), F(0)),))), 2)


def test_direct_structure_size_is_capped_before_building(elfarol, elfarol_cwe, monkeypatch):
    # elfarol_cwe's two-action flow takes d rotations of d types and its
    # one-action flow one profile: d * d + d entries, just above 1e7 at d =
    # 3162; the CLI reports the cap and exits 1
    def build(*args):
        raise AssertionError("the structure was built")

    monkeypatch.setattr(infostruct, "InformationStructure", build)
    with pytest.raises(ValueError, match=r"^kernel of 10001406 type entries exceeds the 1e7 cap$"):
        fg.direct_structure_from_bcwe(elfarol, elfarol_cwe, 3162)
    argv = ["implement", "--game", "elfarol", "--outcome", "elfarol_cwe", "--denominator", "100000"]
    assert main(argv) == 1
    # without rotation each flow is one profile of d types
    with pytest.raises(AssertionError, match="the structure was built"):
        fg.direct_structure_from_bcwe(elfarol, elfarol_cwe, 3162, symmetrize=False)


def test_solve_bwe_needs_congestion(elfarol, elfarol_cwe):
    structure, _, _ = fg.direct_structure_from_bcwe(elfarol, elfarol_cwe, 2)
    with pytest.raises(ValueError):
        fg.solve_bwe(elfarol, structure)
