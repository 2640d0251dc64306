import collections
import itertools
import json
import math
import random
import re
from fractions import Fraction as F
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import flowgames as fg
from flowgames import infostruct
from flowgames.generators import (
    full_disclosure_outcome,
    random_congestion_game,
    random_flow,
    random_rational_flow,
    random_structure,
)
from flowgames.model import CongestionSpec, Population, _affine_form, _cost_fn
from flowgames.wardrop import (
    _affine_equilibrium,
    _block_sum,
    _brent_root,
    _lattice_scores,
    _population_grids,
    _PotentialCore,
    _spec_core,
    _vector_of,
)


def flow1(*vals):
    return fg.FlowProfile((tuple(F(v) for v in vals),))


def test_verify_we_elfarol_hand_values(elfarol):
    # c_a = 1 always; c_b = |4 y_b - 2|
    assert fg.verify_we(elfarol, flow1(F(1, 2), F(1, 2)), "0") == F(1, 2)
    assert fg.verify_we(elfarol, flow1(F(3, 4), F(1, 4)), "0") == 0
    assert fg.verify_we(elfarol, flow1(F(1, 4), F(3, 4)), "0") == 0
    assert fg.verify_we(elfarol, flow1(1, 0), "0") == 0
    assert fg.verify_we(elfarol, flow1(0, 1), "0") == 1


def test_pigou_potential_solution(pigou_network):
    res = fg.solve_we_potential(pigou_network, "0", tol=1e-10)
    assert fg.flow_linf(res.flow, flow1(0, 1)) <= 1e-8
    assert abs(fg.potential_value(pigou_network.congestion, res.flow, "0") - 0.5) <= 1e-8
    assert res.max_violation <= 1e-8


def test_potential_value_exact(pigou_network):
    spec = pigou_network.congestion
    # Phi(y) = y_a + y_b^2 / 2
    assert fg.potential_value(spec, flow1(0, 1), "0") == F(1, 2)
    assert fg.potential_value(spec, flow1(F(1, 4), F(3, 4)), "0") == F(1, 4) + F(9, 32)


def test_potential_gradient_matches_costs_on_grid(pigou_network):
    # Phi(y) = y_a + y_b^2 / 2, so c_a = 1 and c_b = y_b
    for f in fg.grid_flows(pigou_network, 8):
        assert fg.eval_cost(pigou_network, "traffic", "a", f, "0") == 1
        assert fg.eval_cost(pigou_network, "traffic", "b", f, "0") == f.flows[0][1]


@settings(max_examples=60, deadline=None)
@given(st.fractions(min_value=0, max_value=1, max_denominator=64))
def test_gradient_is_cost_everywhere(q):
    spec = CongestionSpec(
        resources=("e1", "e2"),
        latencies={("e1", "0"): (F(1), F(2)), ("e2", "0"): (F(0), F(1), F(3))},
        actions={("p", "a"): ("e1",), ("p", "b"): ("e1", "e2")},
        populations=(Population("p", ("a", "b")),),
        states=("0",),
        prior=(F(1),),
    )
    game = fg.congestion_to_game(spec)
    f = fg.FlowProfile(((q, 1 - q),))
    # e1 carries the unit mass and e2 carries y_b = 1 - q: the derivatives of
    # Phi are c_a = l1(1) = 3 and c_b = l1(1) + l2(1 - q)
    assert fg.eval_cost(game, "p", "a", f, "0") == 3
    assert fg.eval_cost(game, "p", "b", f, "0") == 3 + (1 - q) + 3 * (1 - q) ** 2


def test_identical_parallel_edges_split_evenly(monkeypatch):
    spec = CongestionSpec(
        resources=("e1", "e2"),
        latencies={("e1", "0"): (F(0), F(1)), ("e2", "0"): (F(0), F(1))},
        actions={("p", "a"): ("e1",), ("p", "b"): ("e2",)},
        populations=(Population("p", ("a", "b")),),
        states=("0",),
        prior=(F(1),),
    )
    game = fg.congestion_to_game(spec)

    def derive(_spec):
        raise AssertionError("the solve derived a second game")

    # the solve runs on the caller's game and compiles no other game's costs
    monkeypatch.setattr("flowgames.model.congestion_to_game", derive)
    res = fg.solve_we_potential(game, "0", tol=1e-10)
    assert ("p", "a", "0") in game._compiled
    assert fg.flow_linf(res.flow, flow1(F(1, 2), F(1, 2))) <= 1e-8
    for act in ("a", "b"):
        assert abs(float(fg.eval_cost(game, "p", act, res.flow, "0")) - 0.5) <= 1e-8
    assert fg.solve_we_potential(game, "0", tol=1e-10, start=res.flow) == res


def test_zero_latencies_make_everything_an_equilibrium():
    spec = CongestionSpec(
        resources=("e1", "e2"),
        latencies={("e1", "0"): (F(0),), ("e2", "0"): (F(0),)},
        actions={("p", "a"): ("e1",), ("p", "b"): ("e2",)},
        populations=(Population("p", ("a", "b")),),
        states=("0",),
        prior=(F(1),),
    )
    game = fg.congestion_to_game(spec)
    for f in fg.grid_flows(game, 5):
        assert fg.verify_we(game, f, "0") == 0


def test_grid_flows_checks_cap_before_building(monkeypatch):
    def build(*args):
        raise AssertionError("the lattice was built")

    monkeypatch.setattr("flowgames.wardrop._simplex_grid", build)
    # one six-action population: C(69, 5) = 11,238,513 flows at resolution 64
    game = random_congestion_game(0, n_actions=6)
    with pytest.raises(ValueError, match="11238513 exceeds the 1e7 cap"):
        fg.grid_flows(game, 64)
    with pytest.raises(ValueError, match="11238513 exceeds the 1e7 cap"):
        fg.enumerate_we_grid(game, "0", 64)


def test_lattice_profiles_equal_validated_profiles():
    # grid_flows skips FlowProfile's checks; its profiles must still be the
    # ones a validated build gives, entry types and masses included
    for seed, n_actions, n_pops in ((0, 2, 1), (1, 3, 1), (2, 4, 1), (3, 2, 2), (4, 3, 2)):
        game = random_congestion_game(seed, n_actions=n_actions, n_pops=n_pops)
        for resolution in (1, 3, 8):
            flows = fg.grid_flows(game, resolution)
            assert len(flows) == len(set(flows))
            for f in flows:
                checked = fg.FlowProfile(f.flows)
                assert f == checked and hash(f) == hash(checked)
                assert repr(f) == repr(checked)
                # it carries the resolution, over which every entry is an int count
                assert f._resolution == resolution and checked._resolution is None
                assert all((v * resolution).denominator == 1 for vec in f.flows for v in vec)


def test_grid_flows_share_one_fraction_per_numerator():
    # the walker's integer numerators, in lexicographic order, each mapped to
    # one Fraction(i, r) for the whole lattice
    game = random_congestion_game(0, n_actions=3, n_pops=2)
    flows = fg.grid_flows(game, 4)
    simplex = [tuple(F(i, 4) for i in c) for c in itertools.product(range(5), repeat=3) if sum(c) == 4]
    assert [f.flows for f in flows] == list(itertools.product(simplex, simplex))
    assert len({id(v) for f in flows for vec in f.flows for v in vec}) == 5


def _assert_lattice_scores_are_exact(game, state, resolution):
    """The integer lattice scores and cost spread of enumerate_we_grid are,
    by .hex(), float(verify_we) and the float cost spread on the Fraction
    lattice."""
    flows = fg.grid_flows(game, resolution)
    points = [tuple(tuple(int(v * resolution) for v in vec) for vec in f.flows) for f in flows]
    scores, spread = _lattice_scores(game, state, resolution, points)
    assert [v.hex() for v in scores] == [float(fg.verify_we(game, f, state)).hex() for f in flows]
    expected = 0.0
    for f in flows[:: max(1, len(flows) // 128)]:
        for pop in game.populations:
            costs = [float(fg.eval_cost(game, pop.name, a, f, state)) for a in pop.actions]
            expected = max(expected, max(costs) - min(costs))
    assert spread.hex() == expected.hex()


@settings(max_examples=6, deadline=None)
@given(st.integers(0, 10**6))
def test_lattice_scores_are_exact_on_quadratic_games(seed):
    _assert_lattice_scores_are_exact(random_congestion_game(seed, n_actions=3, quadratic=True), "0", 32)


@settings(max_examples=10, deadline=None)
@given(st.integers(0, 10**6), st.integers(1, 10), st.booleans())
def test_lattice_scores_are_exact_on_two_populations(seed, resolution, quadratic):
    game = random_congestion_game(seed, n_actions=2 + seed % 2, n_states=2, quadratic=quadratic, n_pops=2)
    _assert_lattice_scores_are_exact(game, game.states[seed % 2], resolution)


# population s has one action; its cost and p's read each other's flows
_ONE_ACTION_GAME = """
[populations]
p = a, b, c
s = z

[states]
names = 0

[prior]
0 = 1

[costs]
p.a = y[p][a] + 1/3*y[s][z]
p.b = 2/3 + y[p][b]^2
p.c = max(y[p][c], 1/5)
s.z = 7/3 - y[p][a]
"""


def test_lattice_scores_are_exact_on_fixed_games(elfarol):
    _assert_lattice_scores_are_exact(elfarol, "0", 64)
    mixed = fg.parse_game_file(_MIXED_GAME)
    for state in mixed.states:
        _assert_lattice_scores_are_exact(mixed, state, 5)
    _assert_lattice_scores_are_exact(fg.parse_game_file(_ONE_ACTION_GAME), "0", 24)


def test_enumerate_elfarol_three_equilibria(elfarol):
    flows = fg.enumerate_we_grid(elfarol, "0", resolution=16, tol=1e-8)
    assert len(flows) == 3
    targets = [flow1(1, 0), flow1(F(3, 4), F(1, 4)), flow1(F(1, 4), F(3, 4))]
    for t in targets:
        assert min(fg.flow_linf(f, t) for f in flows) <= 1e-6


def test_enumerate_pigou_single_equilibrium(pigou_network):
    flows = fg.enumerate_we_grid(pigou_network, "0", resolution=16, tol=1e-8)
    assert len(flows) == 1
    assert fg.flow_linf(flows[0], flow1(0, 1)) <= 1e-6


def test_br_solver_reaches_equilibrium(elfarol):
    res = fg.solve_we_br(elfarol, "0", flow1(0, 1), tol=1e-8)
    assert res.max_violation <= 1e-8
    assert float(fg.verify_we(elfarol, res.flow, "0")) <= 1e-8


def test_br_solver_reports_the_violation_of_its_flow(monkeypatch, elfarol):
    # the returned max_violation is verify_we of the returned flow, bit for
    # bit, also when the solve ends at its step budget
    two_pops = random_congestion_game(3, n_actions=3, n_states=2, n_pops=2)
    for max_iter, tol in ((2000, 1e-8), (7, 1e-12)):
        monkeypatch.setattr("flowgames.wardrop._BR_MAX_ITER", max_iter)
        for game in (elfarol, two_pops):
            for seed in range(4):
                res = fg.solve_we_br(game, "0", random_flow(game, seed), tol)
                assert res.max_violation == float(fg.verify_we(game, res.flow, "0"))
                if max_iter == 7:
                    assert res.iterations <= 7


def test_br_solver_evaluates_each_cost_once_per_step(elfarol):
    # one population: the violation measured after a step and the next step
    # read one cost vector, so each iteration evaluates the two costs once
    game = fg.GameSpec(elfarol.populations, elfarol.states, elfarol.prior, dict(elfarol.costs))
    calls = []

    def counted(cost):
        def call(flows):
            calls.append(1)
            return cost(flows)

        return call

    for action in ("a", "b"):
        game._compiled[("crowd", action, "0")] = counted(_cost_fn(game, "crowd", action, "0"))
    # no step improves on this start: 29 halvings bring the step to its
    # floor, and the 30th rise stops the solve
    res = fg.solve_we_br(game, "0", flow1(F(23, 32), F(9, 32)))
    assert res.iterations == 30
    assert len(calls) == 2 * res.iterations + 2
    # a converged solve counts the steps it made: none from the equilibrium
    # (1/4, 3/4), two from (0, 1)
    for start, steps in (((F(1, 4), F(3, 4)), 0), ((0, 1), 2)):
        calls.clear()
        res = fg.solve_we_br(game, "0", flow1(*start))
        assert (res.max_violation, res.iterations) == (0.0, steps)
        assert len(calls) == 2 * steps + 2


def test_br_solver_keeps_equilibrium_start(elfarol):
    res = fg.solve_we_br(elfarol, "0", flow1(1, 0), tol=1e-8)
    assert fg.flow_linf(res.flow, flow1(1, 0)) == 0


def test_multistart_results_all_verify(elfarol):
    results = fg.solve_we_multistart(elfarol, "0", tol=1e-8)
    assert results
    for res in results:
        assert float(fg.verify_we(elfarol, res.flow, "0")) <= 1e-8


def test_action_relabeling_equivariance(elfarol):
    # same game with the action order reversed: the WE set swaps coordinates
    pop = Population("crowd", ("b", "a"))
    swapped = fg.GameSpec((pop,), elfarol.states, elfarol.prior, dict(elfarol.costs))
    flows = fg.enumerate_we_grid(swapped, "0", resolution=16, tol=1e-8)
    originals = fg.enumerate_we_grid(elfarol, "0", resolution=16, tol=1e-8)
    swapped_set = sorted(tuple(map(float, f.flows[0]))[::-1] for f in flows)
    original_set = sorted(tuple(map(float, f.flows[0])) for f in originals)
    assert len(swapped_set) == len(original_set)
    for got, want in zip(swapped_set, original_set):
        assert max(abs(g - w) for g, w in zip(got, want)) <= 1e-6


def test_solver_input_validation(elfarol, pigou_network):
    with pytest.raises(ValueError):
        fg.solve_we_br(elfarol, "0", flow1(1, 0), tol=0.0)
    with pytest.raises(ValueError):
        fg.solve_we_potential(pigou_network, "0", tol=-1.0)
    with pytest.raises(ValueError, match="congestion-backed"):
        fg.solve_we_potential(elfarol, "0")


def test_solve_we_potential_rejects_a_start_of_another_shape(pigou_network):
    # a three-action flow, and a flow of two populations, on a game of one
    # two-action population; both used to fail inside numpy's matmul
    starts = (
        flow1(F(1, 3), F(1, 3), F(1, 3)),
        fg.FlowProfile(((F(1, 2), F(1, 2)), (F(1, 2), F(1, 2)))),
        fg.uniform_flow(random_congestion_game(0, n_actions=3)),
    )
    for start in starts:
        with pytest.raises(ValueError, match="start flow does not match"):
            fg.solve_we_potential(pigou_network, "0", start=start)


def test_flows_of_another_shape_are_refused(elfarol):
    # an extra entry, an extra population and a missing entry on a game of one
    # two-action population; the first two used to pass as obedient
    flows = (
        flow1(F(1, 3), F(1, 3), F(1, 3)),
        fg.FlowProfile(((F(1, 2), F(1, 2)), (F(1, 2), F(1, 2)))),
        flow1(1),
    )
    for flow in flows:
        outcome = fg.Outcome({"0": ((flow, F(1)),)})
        for call in (
            lambda: fg.verify_we(elfarol, flow, "0"),
            lambda: fg.social_cost(elfarol, flow, "0"),
            lambda: fg.check_cwe(elfarol, ((flow, F(1)),), "0"),
            lambda: fg.check_ccwe(elfarol, ((flow, F(1)),), "0"),
            lambda: fg.check_bcwe(elfarol, outcome),
        ):
            with pytest.raises(ValueError, match="^flow does not match the game's populations and actions$"):
                call()
        with pytest.raises(ValueError, match="start flow does not match"):
            fg.solve_we_br(elfarol, "0", flow)


def test_one_equilibrium_source(monkeypatch, elfarol, pigou_info):
    # design seeds, full disclosure and the ccwe grid gap all take a state's
    # equilibria from wardrop._state_equilibria, once per state, and no other
    # module reaches a solver behind it
    private = re.compile(r"\b(solve_we_potential|solve_we_multistart|_snap_rational|_affine_equilibrium)\b")
    for path in sorted(Path(fg.__file__).parent.glob("*.py")):
        if path.name not in ("wardrop.py", "__init__.py"):
            assert private.search(path.read_text()) is None, path.name
    source = fg.wardrop._state_equilibria
    calls = []

    def counted(game, state):
        calls.append(state)
        return source(game, state)

    for module in (fg.design, fg.generators):
        assert module._state_equilibria is source
        monkeypatch.setattr(module, "_state_equilibria", counted)
    game = random_congestion_game(0, n_actions=3, n_states=2)
    for run, states in (
        (lambda: fg.build_grid(game, 4), ["0", "1"]),
        (lambda: full_disclosure_outcome(game), ["0", "1"]),
        (lambda: full_disclosure_outcome(elfarol), ["0"]),
        (lambda: fg.ccwe_grid_gap(game, "1", 4), ["1"]),
    ):
        calls.clear()
        run()
        assert calls == states
    # pigou_info's costs ([costs], constant in each state) are affine with a
    # convex potential: its seeds are exact, with no best response or snap
    solvers = collections.Counter()
    for name in ("solve_we_br", "_snap_rational"):
        real = getattr(fg.wardrop, name)
        monkeypatch.setattr(fg.wardrop, name, lambda *a, real=real, name=name: solvers.update([name]) or real(*a))
    for resolution in (1, 4, 8):
        fg.build_grid(pigou_info, resolution)
    seeds = [fg.wardrop._state_equilibria(pigou_info, s) for s in pigou_info.states]
    assert seeds == [[flow1(0, 1)], [flow1(1, 0)]]
    assert solvers == {}


def _one_state_spec(latencies, actions):
    """One population "p" in one state "0"; ``latencies`` maps each resource
    to its coefficients, ``actions`` each action to its resources."""
    return CongestionSpec(
        resources=tuple(latencies),
        latencies={(e, "0"): tuple(map(F, c)) for e, c in latencies.items()},
        actions={("p", a): used for a, used in actions.items()},
        populations=(Population("p", tuple(actions)),),
        states=("0",),
        prior=(F(1),),
    )


def test_enumerate_keeps_exact_equilibria_and_polishes_only_without_one(monkeypatch):
    calls = []
    solve = fg.wardrop.solve_we_potential

    def counted(*args, **kwargs):
        calls.append(args)
        return solve(*args, **kwargs)

    monkeypatch.setattr("flowgames.wardrop.solve_we_potential", counted)
    game = random_congestion_game(0, n_actions=3, quadratic=True)
    flows = fg.enumerate_we_grid(game, "0", 32)
    # polishing every candidate under the threshold took 158 solves here
    assert len(calls) == 1
    assert len(flows) == 1
    # two populations on the same edges can trade mass without moving a
    # load, so the equilibria form a continuum: its 4 exact lattice points
    # are kept unpolished, and no other candidate is polished
    calls.clear()
    two_pops = random_congestion_game(0, n_actions=2, n_pops=2)
    assert len(fg.enumerate_we_grid(two_pops, "0", 4)) == 4
    assert len(calls) == 0


def test_enumerate_stops_on_a_continuum_with_no_lattice_equilibrium(monkeypatch):
    # no lattice point at r = 8 is an equilibrium of this game, and its
    # equilibria form a continuum: polishing every candidate under the
    # threshold made over 7,200 potential solves without finishing
    calls = []
    solve = fg.wardrop.solve_we_potential

    def counted(*args, **kwargs):
        calls.append(args)
        if len(calls) > 5:
            raise AssertionError("more than 5 potential solves")
        return solve(*args, **kwargs)

    monkeypatch.setattr("flowgames.wardrop.solve_we_potential", counted)
    game = random_congestion_game(5, n_actions=4, n_pops=2)
    flows = fg.enumerate_we_grid(game, "0", 8)
    assert len(calls) <= 1
    assert flows
    assert all(fg.verify_we(game, f, "0") <= 1e-6 for f in flows)


@pytest.mark.parametrize("tol", [float("nan"), float("inf"), 0.0, -1e-6, True, "1e-8"])
def test_solvers_need_a_finite_positive_tol(tol, elfarol, pigou_network):
    # a nan tol passed every "tol <= 0" guard and every "violation > tol" filter
    start = fg.uniform_flow(elfarol)
    for solve in (
        lambda: fg.enumerate_we_grid(elfarol, "0", 8, tol=tol),
        lambda: fg.solve_we_br(elfarol, "0", start, tol=tol),
        lambda: fg.solve_we_potential(pigou_network, "0", tol=tol),
    ):
        with pytest.raises(ValueError, match="tol must be positive"):
            solve()


def test_unknown_state_is_a_value_error(pigou_network):
    # the potential solve and the potential reject the state before reading
    # a latency; a bare KeyError escaped both, and ccwe_grid_gap through them
    game = random_congestion_game(0, n_actions=3)
    with pytest.raises(ValueError, match="unknown state 'zz'"):
        fg.solve_we_potential(game, "zz")
    with pytest.raises(ValueError, match="unknown state 'zz'"):
        fg.potential_value(game.congestion, fg.uniform_flow(game), "zz")
    with pytest.raises(ValueError, match="unknown state 'zz'"):
        fg.ccwe_grid_gap(game, "zz", 4)
    solo = fg.congestion_to_game(_one_state_spec({"e": (1,)}, {"a": ("e",)}))
    with pytest.raises(ValueError, match="unknown state 'zz'"):
        fg.solve_we_potential(solo, "zz")
    with pytest.raises(ValueError, match="unknown state 'zz'"):
        fg.enumerate_we_grid(pigou_network, "zz", 4)


def test_import_leaves_scipy_unloaded(fresh_python):
    # numpy is the only runtime dependency; a fresh interpreter shows it
    probe = (
        "import sys, flowgames; "
        "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))"
    )
    assert fresh_python(probe).strip() == "[]"


# imports the CLI and defines numpy_loaded(), which prints whether numpy's
# compiled core has been executed (numpy<2 names it numpy.core._multiarray_umath)
_NUMPY_PROBE = """
import sys
from flowgames.cli import main

def numpy_loaded():
    core = ("numpy._core._multiarray_umath", "numpy.core._multiarray_umath")
    print("numpy loaded:", any(name in sys.modules for name in core))
"""


# hides numpy from every import, as an environment without numpy does: the
# path finder finds every module but numpy (find_spec gives None for it)
_WITHOUT_NUMPY = """
import importlib.machinery
import sys

class WithoutNumpy:
    def find_spec(self, name, path=None, target=None):
        if name.partition(".")[0] == "numpy":
            return None
        return importlib.machinery.PathFinder.find_spec(name, path, target)

sys.meta_path = [WithoutNumpy() if f is importlib.machinery.PathFinder else f for f in sys.meta_path]
"""

# commands that need no array
_COMMANDS_WITHOUT_ARRAYS = (
    ["check", "--game", "pigou_info", "--outcome", "pigou_bcwe", "--concept", "bcwe"],
    ["design", "--game", "pigou_info"],
    ["implement", "--game", "pigou_info", "--outcome", "pigou_bcwe", "--denominator", "64"],
    ["converge", "--game", "elfarol", "--outcome", "elfarol_cwe"],
    ["we", "--game", "elfarol"],
    ["we", "--game", "random-congestion", "--seed", "3"],
    # a design LP of 6,151 nonzeros
    ["design", "--game", "random-congestion", "--seed", "3", "--resolution", "1024"],
)


def test_commands_without_arrays_run_without_numpy(fresh_python):
    # without numpy installed, import flowgames and the commands that need no
    # array run and print what they print with it; a float potential solve
    # raises the ModuleNotFoundError that names numpy
    commands = "from flowgames.cli import main\n" + "".join(
        f"assert main({argv!r}) == 0\n" for argv in _COMMANDS_WITHOUT_ARRAYS
    )
    solve = (
        "import flowgames as fg\nfrom flowgames.generators import random_congestion_game\n"
        "try:\n    fg.solve_we_potential(random_congestion_game(0, n_actions=3, quadratic=True), '0')\n"
        "except ModuleNotFoundError as exc:\n    print('raised', exc.name, exc)\n"
    )
    out = fresh_python(_WITHOUT_NUMPY + commands + solve)
    assert out == fresh_python(commands) + "raised numpy No module named 'numpy'\n"
    blocked = _WITHOUT_NUMPY + "try:\n    import numpy\nexcept ModuleNotFoundError:\n    print('blocked')\n"
    assert fresh_python(blocked) == "blocked\n"


def test_numpy_loads_only_when_a_solver_needs_it(fresh_python):
    # the import and the commands that touch no array leave numpy unexecuted
    out = fresh_python(
        _NUMPY_PROBE
        + "numpy_loaded()\n"
        + "main(['we', '--game', 'elfarol'])\n"
        + "main(['check', '--game', 'pigou_info', '--outcome', 'pigou_bcwe', '--concept', 'bcwe'])\n"
        + "numpy_loaded()\n"
    )
    lines = out.splitlines()
    assert lines[0] == lines[-1] == "numpy loaded: False"
    assert "equilibria = 3" in lines and "ok = true" in lines
    # the lattice point (1, 0) is an exact equilibrium, kept with no polish;
    # seed 3's equilibrium (1/6, 5/6) is off the lattice, and its latencies
    # are affine, so the polish is exact
    random_we = "main(['we', '--game', 'random-congestion', '--seed', '{}', '--resolution', '16'])\n"
    for seed, flow in ((0, "(1, 0)"), (3, "(0.166666666667, 0.833333333333)")):
        lines = fresh_python(_NUMPY_PROBE + random_we.format(seed) + "numpy_loaded()\n").splitlines()
        assert f"flow = {flow}" in lines
        assert lines[-1] == "numpy loaded: False"
    # every LP is priced in Python floats: a desk-sized design LP (52
    # nonzeros) here, the W1 transport LPs of a convergence run below
    out = fresh_python(_NUMPY_PROBE + "main(['design', '--game', 'pigou_info'])\nnumpy_loaded()\n")
    assert out == (
        "[report]\ncommand = design\nobjective = social\nstatus = optimal\nvalue = 1/2\n"
        "support = 2\nsupport-bound-quadratic = 10\nsupport-bound-bfs = 4\n"
        "within-bounds = true\n\n[outcome.0]\n(0, 1) = 1\n\n[outcome.1]\n(1, 0) = 1\n"
        "numpy loaded: False\n"
    )
    # a random affine congestion game's design seeds its grid with the exact
    # equilibrium, with no float potential solve; its LP at resolution 64
    # (391 nonzeros) prices in Python floats too
    design = "main(['design', '--game', 'random-congestion', '--seed', '3'{}])\n"
    for resolution in ("", ", '--resolution', '64'"):
        out = fresh_python(_NUMPY_PROBE + design.format(resolution) + "numpy_loaded()\n")
        assert out == (
            "[report]\ncommand = design\nobjective = social\nstatus = optimal\nvalue = 9/4\n"
            "support = 2\nsupport-bound-quadratic = 10\nsupport-bound-bfs = 4\n"
            "within-bounds = true\n\n[outcome.0]\n(1/6, 5/6) = 1\n\n[outcome.1]\n(0, 1) = 1\n"
            "numpy loaded: False\n"
        )
    # so does a design of the design workload (3,242 nonzeros)
    workload = (
        "import flowgames as fg\nfrom flowgames.generators import random_congestion_game\n"
        "game = random_congestion_game(0, n_actions=4, n_states=2)\n"
        "problem = fg.DesignerProblem(game, fg.social_cost_expr(game), fg.build_grid(game, 8))\n"
        "solution = fg.solve_program_p(problem)\n"
        "print(solution.status, solution.objective)\n"
    )
    out = fresh_python(_NUMPY_PROBE + workload + "numpy_loaded()\n")
    assert out == "optimal 1425385/781184\nnumpy loaded: False\n"
    # and the same game's design at resolution 16 (21,554 nonzeros)
    workload = workload.replace("build_grid(game, 8)", "build_grid(game, 16)")
    out = fresh_python(_NUMPY_PROBE + workload + "numpy_loaded()\n")
    assert out == "optimal 217461/120320\nnumpy loaded: False\n"
    # two populations sharing every resource: their grid is seeded with an
    # exact equilibrium from one Lemke run, not a float solve and a snap
    two = (
        "import flowgames as fg\nfrom flowgames.generators import random_congestion_game\n"
        "game = random_congestion_game(3, n_actions=2, n_states=2, n_pops=2)\n"
        "problem = fg.DesignerProblem(game, fg.social_cost_expr(game), fg.build_grid(game, 4))\n"
        "solution = fg.solve_program_p(problem)\n"
        "print(solution.status, solution.objective)\n"
    )
    out = fresh_python(_NUMPY_PROBE + two + "numpy_loaded()\n")
    assert out == "optimal 121/16\nnumpy loaded: False\n"
    bcwe = (
        "from flowgames.generators import random_bcwe, random_congestion_game\n"
        "random_bcwe(random_congestion_game(0, n_actions=3, n_states=2), 0)\n"
    )
    assert fresh_python(_NUMPY_PROBE + bcwe + "numpy_loaded()\n") == "numpy loaded: False\n"
    # the grid gap measures against the same exact equilibrium
    gap = (
        "import flowgames as fg\nfrom importlib import resources\n"
        "text = resources.files('flowgames').joinpath('examples/pigou_network.game').read_text()\n"
        "print(fg.ccwe_grid_gap(fg.parse_game_file(text), '0', 8))\n"
    )
    assert fresh_python(_NUMPY_PROBE + gap + "numpy_loaded()\n") == "(0.0, 0.0)\nnumpy loaded: False\n"
    converge = "main(['converge', '--game', 'elfarol', '--outcome', 'elfarol_cwe', '--n-list', '5,7,9'])\n"
    out = fresh_python(_NUMPY_PROBE + converge + "numpy_loaded()\n")
    assert out == (
        "n,delta_n,eps_n,wasserstein\n5,0.1,13/75,0.0666666666667\n"
        "7,0.0714285714286,19/147,0.047619047619\n9,0.0555555555556,25/243,0.037037037037\n"
        "numpy loaded: False\n"
    )
    # a direct structure of 160 sub-populations, whose one-action flows
    # each make one kernel profile
    implement = "main(['implement', '--game', 'pigou_info', '--outcome', 'pigou_bcwe', '--denominator', '160'])\n"
    out = fresh_python(_NUMPY_PROBE + implement + "numpy_loaded()\n")
    a, b = (f"({', '.join([action] * 160)})" for action in "ab")
    assert out == (
        "[report]\ncommand = implement\ndenominator = 160\npopulations = 160\npopulation-size = 1/160\n"
        f"epsilon = 0\n\n[kernel.0]\n{a} = 1/2\n{b} = 1/2\n\n[kernel.1]\n{a} = 1\n"
        "numpy loaded: False\n"
    )


def test_cli_import_loads_neither_dataclasses_nor_inspect(fresh_python):
    # the value types are model._Record subclasses, which generate no code;
    # dataclasses would load inspect, dis and tokenize on every start
    probe = (
        "import sys\nbare = set(sys.modules)\nimport flowgames.cli\n"
        "print(*sorted(set(sys.modules) - bare), sep='\\n')\n"
    )
    added = fresh_python(probe).splitlines()
    assert "flowgames.model" in added
    assert not {"dataclasses", "inspect"} & set(added)


def _monotone_polynomials(seed, count):
    """Increasing polynomials on [0, 1] with a sign change, as the line search sees."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        degree = int(rng.integers(1, 6))
        slopes = rng.lognormal(0.0, 2.0, degree) * (rng.random(degree) < 0.8)
        slopes[0] += 1e-3
        top = float(np.sum(slopes))
        # root anywhere in (0, 1), sometimes pressed against either end
        root_at = rng.choice([rng.random(), rng.random() * 1e-9, 1 - rng.random() * 1e-9])
        coeffs = [-top * float(root_at)] + [float(c) for c in slopes]
        yield coeffs


def test_brent_root_matches_scipy_bit_for_bit():
    optimize = pytest.importorskip("scipy.optimize")
    checked = 0
    for coeffs in _monotone_polynomials(3, 3000):
        calls = {"ours": 0, "scipy": 0}

        def make(name):
            def f(t):
                calls[name] += 1
                total = 0.0
                for c in reversed(coeffs):
                    total = total * t + c
                return total

            return f

        fa, fb = make("ours")(0.0), make("ours")(1.0)
        if not (fa < 0 < fb):
            continue
        calls["ours"] = 0
        ours = _brent_root(make("ours"), 0.0, 1.0, fa, fb)
        theirs = optimize.brentq(make("scipy"), 0.0, 1.0, xtol=1e-14)
        assert ours == theirs, coeffs
        # scipy evaluates both ends itself; ours is handed them
        assert calls["ours"] + 2 == calls["scipy"], coeffs
        checked += 1
    assert checked > 2500


def test_brent_root_raises_when_not_converged():
    optimize = pytest.importorskip("scipy.optimize")

    def step(t):
        # no root to home in on: the bracket only halves, from 2e300 wide
        return 1.0 if t > 0.3 else -1.0

    with pytest.raises(RuntimeError):
        optimize.brentq(step, -1e300, 1e300, xtol=1e-14)
    with pytest.raises(RuntimeError):
        _brent_root(step, -1e300, 1e300, -1.0, 1.0)

    def f(t):
        return t**3 - 0.3

    assert _brent_root(f, 0.0, 1.0, f(0.0), f(1.0)) == optimize.brentq(f, 0.0, 1.0, xtol=1e-14)


@pytest.mark.parametrize("quadratic", [False, True])
def test_core_costs_match_exact_gradient(quadratic):
    worst = 0.0
    for seed in range(60):
        game = random_congestion_game(
            seed, n_actions=2 + seed % 3, n_states=2, quadratic=quadratic, n_pops=1 + seed % 3
        )
        spec = game.congestion
        for state in game.states:
            core = _spec_core(spec, state)
            flow = random_rational_flow(game, seed, denominator=7 + seed % 5)
            exact = [
                float(fg.eval_cost(game, pop.name, a, flow, state))
                for pop in game.populations
                for a in pop.actions
            ]
            got = core.costs(_vector_of(flow))
            assert len(got) == core.n == len(exact)
            worst = max(worst, float(np.max(np.abs(got - np.array(exact)))))
    assert worst <= 1e-12


def _enumeration_cases(pigou_network, elfarol):
    """(id, game, state, resolution) of every run pinned in enumerate_flows.json."""
    for seed in range(6):
        yield f"quad{seed}-r32", random_congestion_game(seed, n_actions=3, quadratic=True), "0", 32
    for seed in range(8):
        for n_actions in (2, 3, 4):
            game = random_congestion_game(seed, n_actions=n_actions, n_states=2)
            for state in game.states:
                yield f"linear{seed}-a{n_actions}-s{state}-r12", game, state, 12
    for seed in range(2):
        yield f"pops2-{seed}-r4", random_congestion_game(seed, n_actions=2, n_pops=2), "0", 4
    yield "pigou_network-r16", pigou_network, "0", 16
    yield "elfarol-r16", elfarol, "0", 16


ENUMERATION_GOLDEN = json.loads(
    (Path(__file__).parent / "golden" / "enumerate_flows.json").read_text()
)


def test_enumerate_we_grid_matches_golden(pigou_network, elfarol):
    # repr of every returned flow; the pops2 games have a continuum of
    # equilibria, and their entries are its exact lattice points
    got = {
        case: [repr(f.flows) for f in fg.enumerate_we_grid(game, state, resolution)]
        for case, game, state, resolution in _enumeration_cases(pigou_network, elfarol)
    }
    assert got == ENUMERATION_GOLDEN


def test_kept_lattice_equilibria_are_what_the_polish_returns(pigou_network, elfarol):
    # a lattice point of integer score 0 is kept unpolished; the polish it
    # skips returns the same flow, and a violation within tol that is the
    # kept flow's verify_we, bit for bit
    cases = [*_enumeration_cases(pigou_network, elfarol), ("elfarol-r64", elfarol, "0", 64)]
    checked = 0
    for case, game, state, resolution in cases:
        points = list(itertools.product(*_population_grids(game, resolution)))
        scores, _spread = _lattice_scores(game, state, resolution, points)
        exact = {
            repr(tuple(tuple(i / resolution for i in vec) for vec in point)): point
            for point, score in zip(points, scores)
            if score == 0
        }
        for flow in fg.enumerate_we_grid(game, state, resolution):
            point = exact.get(repr(flow.flows))
            if point is None:
                continue
            start = fg.FlowProfile(tuple(tuple(F(i, resolution) for i in vec) for vec in point))
            if game.congestion is not None:
                polished = fg.solve_we_potential(game, state, 1e-10, start=start)
            else:
                polished = fg.solve_we_br(game, state, start)
            assert repr(polished.flow.flows) == repr(flow.flows), case
            assert repr(polished.max_violation) == repr(float(fg.verify_we(game, flow, state))), case
            assert polished.max_violation <= 1e-6, case
            checked += 1
    # 47 of the flows these scans return are exact lattice equilibria
    assert checked == 47


def test_affine_equilibria_are_exact_and_carry_the_potential_loads():
    # one exact flow per state, of unit mass and zero violation, with one or
    # more populations; its loads are those the float potential solve reaches,
    # which are the same at every equilibrium of the convex potential
    kinds = collections.Counter()
    for seed, n_actions, n_states, n_pops in itertools.product(range(6), (2, 3, 4), (1, 2), (1, 2, 3)):
        game = random_congestion_game(seed, n_actions, n_states, n_pops=n_pops)
        spec = game.congestion
        for state in game.states:
            (exact,) = fg.wardrop._state_equilibria(game, state)
            assert all(type(v) is F and v >= 0 for vec in exact.flows for v in vec)
            assert all(sum(vec) == 1 for vec in exact.flows)
            assert fg.verify_we(game, exact, state) == 0
            solved = fg.solve_we_potential(game, state, 1e-10)
            loads, float_loads = fg.load_profile(spec, exact), fg.load_profile(spec, solved.flow)
            assert all(abs(loads[e] - float_loads[e]) <= 1e-9 for e in spec.resources)
            kinds[n_pops] += 1
    assert kinds == {1: 54, 2: 54, 3: 54}
    # a squared load is not affine
    assert _affine_equilibrium(random_congestion_game(1, n_actions=3, quadratic=True), "0") is None


AFFINE_GOLDEN = json.loads((Path(__file__).parent / "golden" / "affine_equilibria.json").read_text())


def _affine_games():
    """(key, game) for random_congestion_game(seed, A, S, n_pops=P) over A
    2-5, S 1-2, P 1-3 and seeds 0-9: 240 games."""
    for n_actions, n_states, n_pops, seed in itertools.product((2, 3, 4, 5), (1, 2), (1, 2, 3), range(10)):
        game = random_congestion_game(seed, n_actions, n_states, n_pops=n_pops)
        yield f"A{n_actions}-S{n_states}-P{n_pops}-{seed}", game


def _affine_sweep() -> dict:
    """_affine_equilibrium's flow in every state of the :func:`_affine_games`,
    as text. With two or more populations the split of a load between them
    follows the pivots."""
    out = {}
    for key, game in _affine_games():
        for state in game.states:
            flow = _affine_equilibrium(game, state)
            text = None if flow is None else "; ".join(", ".join(map(str, vec)) for vec in flow.flows)
            out[f"{key}/{state}"] = text
    return out


def test_affine_equilibria_match_golden():
    # the exact seeds of design grids, multi-population splits included
    assert _affine_sweep() == AFFINE_GOLDEN


def _crowd_game(cost_a, cost_b):
    return fg.parse_game_file(
        "[populations]\ncrowd = a, b\n\n[states]\nnames = 0\n\n"
        f"[prior]\n0 = 1\n\n[costs]\ncrowd.a = {cost_a}\ncrowd.b = {cost_b}\n"
    )


def _slope_sums(spec: CongestionSpec, state: str) -> tuple:
    """A congestion game's affine costs c0 + S y read off its latencies: c0_a
    sums the constant terms of a's resources, and S_ab the slopes of the
    resources actions a and b share (actions over the populations in order)."""
    lines = {e: (tuple(spec.latencies[(e, state)]) + (0, 0))[:2] for e in spec.resources}
    uses = [spec.actions[(pop.name, a)] for pop in spec.populations for a in pop.actions]
    c0 = [sum(lines[e][0] for e in u) for u in uses]
    return c0, [[sum(lines[e][1] for e in u & v) for v in uses] for u in uses]


def test_affine_form_is_the_slope_sums():
    # the form read off the compiled costs is the latencies' slope sums, over
    # the costs' common denominator q
    for _, game in _affine_games():
        for state in game.states:
            k0, J, q = _affine_form(game, state)
            c0, S = _slope_sums(game.congestion, state)
            assert [F(k, q) for k in k0] == c0
            assert [[F(k, q) for k in row] for row in J] == S
    # a latency quadratic in another state only is affine in this one
    spec = _one_state_spec({"e0": (1, 1), "e1": (0, 2)}, {"a": {"e0"}, "b": {"e1"}})
    latencies = {**spec.latencies, ("e0", "1"): (F(1), F(1)), ("e1", "1"): (F(0), F(2), F(1))}
    prior = (F(1, 2), F(1, 2))
    spec = CongestionSpec(spec.resources, latencies, spec.actions, spec.populations, ("0", "1"), prior)
    game = fg.congestion_to_game(spec)
    assert _affine_form(game, "0") == ([1, 0], [[1, 0], [0, 2]], 1)
    assert _affine_equilibrium(game, "0") == fg.FlowProfile(((F(1, 3), F(2, 3)),))
    assert _affine_form(game, "1") is None
    # negative constant costs: the LCP's q-vector is shifted so that every
    # cost is positive where J >= 0, and each mass comes out 1
    assert _affine_equilibrium(_crowd_game("y[a] - 5", "y[b] - 21/4"), "0") == flow1(F(3, 8), F(5, 8))


def _det(m):
    """The determinant of a square matrix, by Gaussian elimination in Fractions."""
    m, det = [[F(v) for v in row] for row in m], F(1)
    for c in range(len(m)):
        p = next((r for r in range(c, len(m)) if m[r][c]), None)
        if p is None:
            return F(0)
        if p != c:
            m[c], m[p], det = m[p], m[c], -det
        det *= m[c][c]
        for r in range(c + 1, len(m)):
            m[r] = [x - m[r][c] / m[c][c] * y for x, y in zip(m[r], m[c])]
    return det


def test_convex_is_every_principal_minor_of_the_reduced_form():
    # a symmetric matrix is positive semidefinite iff each principal minor
    # is >= 0: the oracle for _convex on J's form over flows of mass 0
    rng = random.Random(5)
    kinds = collections.Counter()
    for _ in range(400):
        sizes = [rng.randint(1, 3) for _ in range(rng.randint(1, 2))]
        n = sum(sizes)
        blocks = list(itertools.pairwise([0, *itertools.accumulate(sizes)]))
        m = [[rng.randint(-2, 2) for _ in range(n)] for _ in range(rng.randint(1, n))]
        # M^T M, some diagonal entries lowered by 1, and now and then one
        # entry off the diagonal raised by 1
        J = [[sum(r[i] * r[j] for r in m) - (i == j and rng.random() < 0.25) for j in range(n)] for i in range(n)]
        if rng.random() < 0.1:
            i, j = rng.randrange(n), rng.randrange(n)
            J[i][j] += i != j
        basis = [(lo, a) for lo, hi in blocks for a in range(lo + 1, hi)]
        rows = [[J[a][b] - J[a][g] - J[f][b] + J[f][g] for g, b in basis] for f, a in basis]
        minors = (
            _det([[rows[i][j] for j in idx] for i in idx])
            for k in range(1, len(rows) + 1)
            for idx in itertools.combinations(range(len(rows)), k)
        )
        want = J == [list(col) for col in zip(*J)] and all(d >= 0 for d in minors)
        assert fg.wardrop._convex(J, blocks) == want, (J, blocks)
        kinds[want] += 1
    assert min(kinds.values()) >= 50, kinds


def test_affine_costs_without_a_convex_potential_keep_the_float_path(monkeypatch):
    multistarts = []
    real = fg.wardrop.solve_we_multistart
    monkeypatch.setattr(fg.wardrop, "solve_we_multistart", lambda *a: multistarts.append(a) or real(*a))
    # a symmetric J that is not positive semidefinite on flows of mass 0:
    # the coordination game keeps the multistart's three equilibria
    coordination = _crowd_game("2*y[b]", "2*y[a]")
    assert _affine_form(coordination, "0") == ([0, 0], [[0, 2], [2, 0]], 1)
    assert _affine_equilibrium(coordination, "0") is None
    assert fg.wardrop._state_equilibria(coordination, "0") == [flow1(0, 1), flow1(F(1, 2), F(1, 2)), flow1(1, 0)]
    # a monotone game (J + J^T positive definite) whose J is not symmetric
    monotone = fg.parse_game_file(
        "[populations]\nP = a, b\nQ = a, b\n[states]\nnames = 0\n[prior]\n0 = 1\n[costs]\n"
        "P.a = y[P][a] + y[Q][a]\nP.b = 1/2\nQ.a = y[Q][a] - y[P][a]\nQ.b = 1/2\n"
    )
    assert _affine_form(monotone, "0") == ([0, 1, 0, 1], [[2, 0, 2, 0], [0] * 4, [-2, 0, 2, 0], [0] * 4], 2)
    assert _affine_equilibrium(monotone, "0") is None
    assert fg.wardrop._state_equilibria(monotone, "0") == [fg.FlowProfile(((0, 1), (F(1, 2), F(1, 2))))]
    assert len(multistarts) == 2


def _affine_game(sizes, k0, J):
    """A one-state [costs] game whose action a costs k0[a] + sum_b J[a][b] y_b,
    populations P0, P1, ... of ``sizes`` actions a0, a1, ..."""
    flat = [f"P{p}][a{j}" for p, n in enumerate(sizes) for j in range(n)]
    costs = "".join(
        f"{name.replace('][', '.')} = {k0[r]}" + "".join(f" + {k}*y[{b}]" for k, b in zip(J[r], flat)) + "\n"
        for r, name in enumerate(flat)
    )
    pops = "".join(f"P{p} = {', '.join(f'a{j}' for j in range(n))}\n" for p, n in enumerate(sizes))
    return fg.parse_game_file(f"[populations]\n{pops}[states]\nnames = 0\n[prior]\n0 = 1\n[costs]\n{costs}")


def test_costs_convex_on_flows_of_mass_0_only_are_solved_exactly():
    # J symmetric and positive semidefinite on flows of mass 0 but not on all
    # flows, with negative entries: adding -min J to each entry keeps the
    # equilibria and makes J >= 0, and the run ends on the exact equilibrium
    swap = _crowd_game("-y[b]", "-y[a]")
    assert _affine_form(swap, "0") == ([0, 0], [[0, -1], [-1, 0]], 1)
    assert _affine_equilibrium(swap, "0") == flow1(F(1, 2), F(1, 2))
    rng, solved = random.Random(11), 0
    while solved < 150:
        sizes = [rng.randint(1, 3) for _ in range(rng.randint(1, 3))]
        n = sum(sizes)
        J = [[0] * n for _ in range(n)]
        for a, b in itertools.combinations_with_replacement(range(n), 2):
            J[a][b] = J[b][a] = rng.randint(-3, 3)
        game = _affine_game(sizes, [rng.randint(-4, 4) for _ in range(n)], J)
        J, blocks = _affine_form(game, "0")[1], list(itertools.pairwise([0, *itertools.accumulate(sizes)]))
        if min(map(min, J)) >= 0 or not fg.wardrop._convex(J, blocks):
            continue
        flow = _affine_equilibrium(game, "0")
        assert flow is not None and all(sum(vec) == 1 for vec in flow.flows), (sizes, J)
        assert fg.verify_we(game, flow, "0") == 0
        solved += 1


def test_one_action_populations_are_not_read():
    # as in verify_we, a one-action population's cost is never read and its
    # flow is 1: solo.s has no value in state 1 of SOLO_GAME, whose seeds
    # there are those of the multistart and whose lattice scan runs, and an
    # affine game's terms in the solo flow are folded into k0
    solo = fg.parse_game_file(SOLO_GAME)
    seed = fg.FlowProfile(((0, F(1, 7), F(6, 7)), (1,)))
    assert fg.wardrop._state_equilibria(solo, "1") == [seed]
    assert fg.build_grid(solo, 4)["1"] == tuple(sorted([*fg.grid_flows(solo, 4), seed], key=lambda f: f.flows))
    assert fg.enumerate_we_grid(solo, "1", 8) == [fg.wardrop._float_image(seed)]
    affine = fg.parse_game_file(
        "[populations]\ncrowd = a, b\nsolo = s\n\n[states]\nnames = 0, 1\n\n[prior]\n0 = 1/3\n1 = 2/3\n\n[costs]\n"
        "crowd.a = y[crowd][a] + 2*y[solo][s]\ncrowd.b = 2*y[crowd][b] + theta[0=1, 1=0]*y[solo][s]\n"
        "solo.s = theta[0=1]\n"
    )
    assert _affine_form(affine, "0") == ([2, 1, 0], [[1, 0, 0], [0, 2, 0], [0, 0, 0]], 1)
    assert _affine_form(affine, "1") == ([2, 0, 0], [[1, 0, 0], [0, 2, 0], [0, 0, 0]], 1)
    assert _affine_equilibrium(affine, "0") == fg.FlowProfile(((F(1, 3), F(2, 3)), (1,)))
    assert _affine_equilibrium(affine, "1") == fg.FlowProfile(((0, 1), (1,)))


def test_scan_polishes_convex_affine_costs_exactly(monkeypatch):
    # the lattice scan of a [costs] game with affine costs and a convex
    # potential polishes to the float image of its Lemke equilibrium, with
    # no best response, potential solve or snap
    calls = collections.Counter()
    for name in ("solve_we_br", "solve_we_potential", "_snap_rational"):
        real = getattr(fg.wardrop, name)

        def counted(*a, real=real, name=name, **k):
            calls[name] += 1
            return real(*a, **k)

        monkeypatch.setattr(fg.wardrop, name, counted)
    game = _crowd_game("1/3 + y[a]", "2*y[b]")
    assert fg.enumerate_we_grid(game, "0", 64) == [fg.wardrop._float_image(flow1(F(5, 9), F(4, 9)))]
    assert calls == {}


def test_affine_equilibrium_makes_few_fractions(monkeypatch):
    # the seeds' LCP and checks run in ints: a call makes at most one
    # Fraction per entry of z = (y, lambda), _lemke's zero and the gap
    # verify_we returns, none per latency coefficient, slope sum or mass check
    games = [random_congestion_game(seed, 4, 2) for seed in range(10)]
    for game in games:
        for state in game.states:
            _affine_equilibrium(game, state)  # compiles the game's costs
    made = []
    real = F.__new__

    def counted(cls, *args, **kwargs):
        made.append(args)
        return real(cls, *args, **kwargs)

    monkeypatch.setattr(F, "__new__", counted)
    per_call = []
    for game in games:
        for state in game.states:
            made.clear()
            assert _affine_equilibrium(game, state) is not None
            per_call.append(len(made))
    assert max(per_call) <= 4 + 1 + 1 + 1, per_call


# two states, a one-action population whose cost misses state 1 in its
# table, and costs that cross populations, square a flow or take a max
SOLO_GAME = (
    "[populations]\ncrowd = a, b, c\nsolo = s\n\n[states]\nnames = 0, 1\n\n[prior]\n0 = 1/3\n1 = 2/3\n\n"
    "[costs]\ncrowd.a = 1/3 + 2*y[crowd][a]^2 + y[solo][s]\ncrowd.b = theta*y[crowd][b] + 1/2\n"
    "crowd.c = max(1/6, 3/4*y[crowd][c])\nsolo.s = theta[0=1]\n"
)


def test_exact_violation_is_the_fraction_gap():
    # verify_we of an exact flow, taken in ints, is the gap of the Fraction
    # costs eval_cost gives, in value and type; the costs of a one-action
    # population are not read, as on float flows
    from flowgames.wardrop import _worst_gap

    games = [fg.parse_game_file(SOLO_GAME)] + [
        random_congestion_game(seed, n_actions, 2, quadratic=quadratic, n_pops=n_pops)
        for seed, n_actions, quadratic, n_pops in itertools.product(range(3), (2, 4), (False, True), (1, 2))
    ]
    for game in games:
        for state in game.states:
            for seed in range(6):
                flow = random_rational_flow(game, seed, denominator=6)
                want = _worst_gap(
                    (flow.flows[k], [fg.eval_cost(game, pop.name, a, flow, state) for a in pop.actions])
                    for k, pop in enumerate(game.populations)
                    if len(pop.actions) >= 2
                )
                got = fg.verify_we(game, flow, state)
                assert got == want and type(got) is type(want), (state, flow)
    # in state 1, where solo.s has no value
    solo = games[0]
    assert fg.verify_we(solo, fg.FlowProfile(((F(1), 0, 0), (F(1),))), "1") == F(10, 3) - F(1, 6)


@pytest.mark.parametrize("quadratic, seed", [(False, 7), (False, 13), (True, 3), (True, 15)])
def test_core_keeps_no_solver_state(quadratic, seed):
    # start a, then b, then a again on one core: the second solve of a
    # returns the first one's point to the bit and its step count, though b
    # added a Newton plan to the core in between
    game = random_congestion_game(seed, n_actions=4, quadratic=quadratic, n_pops=2)
    core = _spec_core(game.congestion, "0")
    a, b = (_vector_of(random_flow(game, r)) for r in (0, 1))
    first, steps = core.minimize(a, 1e-12, 100)
    plans = len(core._plans)
    core.minimize(b, 1e-12, 100)
    assert len(core._plans) > plans
    again, again_steps = core.minimize(a, 1e-12, 100)
    assert again.tobytes() == first.tobytes() and again_steps == steps


def test_block_sums_add_as_numpy_sums():
    # below 8 entries numpy adds left to right from 0, as _fold does; from 8
    # on it adds pairwise, and _block_sum keeps that order
    rng = random.Random(0)
    differs = collections.Counter()
    for n in range(1, 13):
        for _ in range(300):
            values = [rng.uniform(-1.0, 1.0) * 10.0 ** rng.randint(-8, 8) for _ in range(n)]
            total = _block_sum(values)
            assert type(total) is float and total == np.array(values).sum(), values
            differs[n] += fg.model._fold(values) != total
    assert all(differs[n] == 0 for n in range(1, 8)) and all(differs[n] > 0 for n in range(8, 13))
    assert _block_sum([-0.0]) == 0.0 and math.copysign(1.0, _block_sum([-0.0])) == 1.0


def test_support_repair_gives_up():
    # a failed solve ends the Newton polish at once; a support that loses action 1
    # to a negative flow and wins it back by its lower cost, round after
    # round, is given up after 2n + 2 solves
    core = _PotentialCore(np.eye(2), [[1.0], [0.0]], [(0, 2)], [1.0])
    x = np.array([0.5, 0.5])
    solves = []

    def failed(support, x):
        solves.append(support)

    def cycling(support, x):
        solves.append([list(sup) for sup in support])
        return np.array([1.5, -0.5] if support == [[0, 1]] else [1.0, 0.0])

    core._solve_support = failed
    assert core.newton_polish(x, core.costs(x)) is None
    assert solves == [[[0, 1]]]
    solves.clear()
    core._solve_support = cycling
    assert core.newton_polish(x, core.costs(x)) is None
    assert solves == [[[0, 1]], [[0]]] * 3


def _counting_lstsq(monkeypatch):
    """Wrap ``np.linalg.lstsq``; returns the list of right-hand sides it was called with."""
    calls = []
    lstsq = np.linalg.lstsq

    def counted(a, b, rcond=None):
        calls.append(b)
        return lstsq(a, b, rcond=rcond)

    monkeypatch.setattr(np.linalg, "lstsq", counted)
    return calls


def test_affine_cores_factor_each_support_once(monkeypatch):
    # on affine latencies the Newton system of a support is the same at every
    # point: one lstsq per support plan, for its inverse, however many
    # solves and rounds reuse it
    calls = _counting_lstsq(monkeypatch)
    solves = []
    solve_support = _PotentialCore._solve_support

    def counted(self, support, x):
        solves.append(support)
        return solve_support(self, support, x)

    monkeypatch.setattr(_PotentialCore, "_solve_support", counted)
    game = random_congestion_game(3, n_actions=3, n_states=2)
    structure = random_structure(game, 302)
    blocks, core, _plan = infostruct._bwe_setup(game, structure)
    rng = random.Random(5)
    for _ in range(20):
        start = fg.StrategyProfile(
            tuple(
                tuple(
                    tuple(gamma * F(w, sum(raw)) for w in raw)
                    for raw in ([rng.randint(1, 9) for _ in range(3)] for _ in types)
                )
                for gamma, types in zip(structure.sizes, structure.type_sets)
            )
        )
        infostruct._bwe_solve(game, structure, blocks, core, 1e-9, start)
    assert len(solves) > len(core._plans) > 1
    assert len(calls) == len(core._plans)
    assert all(b.shape == (len(plan[0]), len(plan[0])) for b, plan in zip(calls, core._plans.values()))
    assert all(plan[-1] is not None for plan in core._plans.values())


@pytest.mark.parametrize("seed", [0, 2, 3])
def test_higher_degree_cores_solve_each_newton_round(monkeypatch, seed):
    # a quadratic latency's Hessian moves with the point: no inverse is kept,
    # and each Newton round solves its own right-hand side (the seeds'
    # equilibria have two or three actions in use)
    calls = _counting_lstsq(monkeypatch)
    game = random_congestion_game(seed, 3, quadratic=True)
    core = _spec_core(game.congestion, "0")
    for r in range(4):
        core.minimize(_vector_of(random_flow(game, r)), 1e-12, 100)
    assert len(calls) > len(core._plans) >= 1
    assert all(b.ndim == 1 for b in calls)
    assert all(plan[-1] is None for plan in core._plans.values())


def _assert_inverse_solves_like_lstsq(core, plan, rng):
    """The plan's system matrix is the Jacobian of its equal-cost and mass
    rows, read off the core's costs, and its kept inverse times a right-hand
    side is lstsq's solution."""
    index, _msub, a, _fill, eq, mass_rows, inverse = plan
    eq_rows, jvar, bvar = ([row[i] for row in eq] for i in range(3))
    base = core.costs(np.zeros(core.n))
    jac = np.array([core.costs(np.eye(core.n)[i]) - base for i in range(core.n)]).T
    ref = np.zeros_like(a)
    ref[eq_rows] = (jac[jvar] - jac[bvar])[:, index]
    for row, lo, hi, _mass in mass_rows:
        ref[row, lo:hi] = 1.0
    assert np.allclose(a, ref, rtol=0, atol=1e-12)
    for _ in range(5):
        b = rng.uniform(-2.0, 2.0, len(index))
        want = np.linalg.lstsq(a, b, rcond=None)[0]
        assert np.abs(inverse @ b - want).max() <= 1e-12 * (1 + np.abs(b).max())


def test_kept_inverse_solves_like_lstsq(monkeypatch):
    cores = []
    setup = infostruct._bwe_setup

    def kept(game, structure):
        out = setup(game, structure)
        cores.append(out[1])
        return out

    monkeypatch.setattr(infostruct, "_bwe_setup", kept)
    # the 30 probe structures of acceptance criterion 8
    for g in range(1, 20, 2):
        game = random_congestion_game(g, n_actions=2 + g % 2, n_states=1 + g % 2)
        for s in range(3):
            fg.bwe_cost_uniqueness_probe(game, random_structure(game, 100 * g + s), trials=20, tol=1e-9)
    rng = np.random.default_rng(0)
    plans = [(core, plan) for core in cores for plan in core._plans.values()]
    assert len(cores) == 30 and len(plans) >= 30
    for core, plan in plans:
        _assert_inverse_solves_like_lstsq(core, plan, rng)
    # two populations sharing every edge: a continuum of equilibria, and a
    # rank-deficient system on the full support
    core = _spec_core(random_congestion_game(0, n_actions=2, n_pops=2).congestion, "0")
    plan = core._newton_plan([[0, 1], [2, 3]])
    assert np.linalg.matrix_rank(plan[2]) < len(plan[0])
    _assert_inverse_solves_like_lstsq(core, plan, rng)


def test_state_equilibria_lists_each_equilibrium_once():
    # two best-response starts converge to the one equilibrium (b, b), which
    # both snap to
    text = (
        "[populations]\nP = a, b\nQ = a, b\n[states]\nnames = 0\n[prior]\n0 = 1\n[costs]\n"
        "P.a = 1 + y[P][a] + 6*y[Q][a]\nP.b = y[P][b]\nQ.a = 2 + y[Q][a] - y[P][a]\nQ.b = y[Q][b]\n"
    )
    game = fg.parse_game_file(text)
    assert len(fg.solve_we_multistart(game, "0")) >= 2
    assert fg.wardrop._state_equilibria(game, "0") == [fg.FlowProfile(((0, 1), (0, 1)))]


def test_enumerate_rationalizes_best_response_polishes(elfarol):
    # c_a - c_b = 3 y_a, so best response stops once its violation is within
    # tol at y_a ~ sqrt(tol / 3): 58 times the dedup radius from (0, 1)
    text = (
        "[populations]\ncrowd = a, b\n[states]\nnames = 0\n[prior]\n0 = 1\n"
        "[costs]\ncrowd.a = 1 + 3*y[a]\ncrowd.b = 1\n"
    )
    game = fg.parse_game_file(text)
    for resolution in (8, 64):
        assert [f.flows for f in fg.enumerate_we_grid(game, "0", resolution)] == [((0.0, 1.0),)]
    # (1/4, 3/4) is off the lattice at r = 10; its polish snaps onto it
    flows = fg.enumerate_we_grid(elfarol, "0", 10)
    assert [f.flows for f in flows] == [((0.25, 0.75),), ((1.0, 0.0),)]
    assert all(fg.verify_we(elfarol, f, "0") == 0 for f in flows)


def test_enumerate_elfarol_stops_stalled_best_response(monkeypatch, elfarol):
    # no step improves on five starts just off (3/4, 1/4): they stop once
    # their step stalls at its floor, not after _BR_MAX_ITER = 2000 steps each
    iterations = []
    solve = fg.wardrop.solve_we_br

    def counted(*args, **kwargs):
        result = solve(*args, **kwargs)
        iterations.append(result.iterations)
        return result

    monkeypatch.setattr("flowgames.wardrop.solve_we_br", counted)
    flows = fg.enumerate_we_grid(elfarol, "0", 64)
    assert [f.flows for f in flows] == [((0.25, 0.75),), ((0.75, 0.25),), ((1.0, 0.0),)]
    assert sum(iterations) <= 1000


# Costs with max, min, ^, theta and state tables over two populations. In
# population p, a and b cost constants and b is always cheapest, so the gap of
# a is the exact 1/3 - 1/10 or 1/3 - 1/8, which float subtraction rounds apart.
_MIXED_GAME = """
[populations]
p = a, b, c, d
q = x, y

[states]
names = 0, 1

[prior]
0 = 1/3
1 = 2/3

[costs]
p.a = 1/3
p.b = theta[0=1/10, 1=1/8]
p.c = max(3*y[p][c] - theta, min(y[q][x], 1/2))^2 + 1/7
p.d = 2*y[p][d] + theta*y[q][y] + 1/5
q.x = 1 + y[q][x]^3 - min(y[p][a], 2/3)
q.y = 3/4*y[q][y] + max(y[p][b], theta[0=1/9, 1=4/9])
"""


def _br_starts(game, lattice=0, seeds=()):
    yield "uniform", fg.uniform_flow(game)
    for choices in itertools.product(*[range(len(p.actions)) for p in game.populations]):
        yield "vertex" + "".join(map(str, choices)), fg.vertex_flow(game, choices)
    if lattice:
        for i, flow in enumerate(fg.grid_flows(game, lattice)):
            yield f"lattice{lattice}-{i}", flow
    for seed in seeds:
        yield f"random{seed}", random_flow(game, seed)


def _best_response_cases(elfarol, pigou_info):
    """(id, game, state, start) of every solve pinned in best_response.json."""
    for name, start in _br_starts(elfarol, lattice=8):
        yield f"elfarol-{name}", elfarol, "0", start
    # just off the equilibrium (3/4, 1/4): from 46/64 no step improves on the
    # start, and the solve stops once its step stalls at the floor after 30
    # iterations; its neighbours converge slowly
    for n in (45, 46, 53):
        yield f"elfarol-near{n}", elfarol, "0", flow1(F(n, 64), 1 - F(n, 64))
    for state in pigou_info.states:
        for name, start in _br_starts(pigou_info, lattice=4):
            yield f"pigou_info-s{state}-{name}", pigou_info, state, start
    for seed in range(3):
        for quadratic in (False, True):
            for n_pops in (1, 2):
                backed = random_congestion_game(
                    seed, n_actions=4 - n_pops, n_states=2, quadratic=quadratic, n_pops=n_pops
                )
                # without its congestion backing the game has only its cost trees
                game = fg.GameSpec(
                    backed.populations, backed.states, backed.prior, dict(backed.costs)
                )
                kind = "quad" if quadratic else "linear"
                for state in game.states:
                    for name, start in _br_starts(game, seeds=(seed, seed + 10)):
                        yield f"{kind}{seed}-pops{n_pops}-s{state}-{name}", game, state, start
    mixed = fg.parse_game_file(_MIXED_GAME)
    for state in mixed.states:
        for name, start in _br_starts(mixed, seeds=(0,)):
            yield f"mixed-s{state}-{name}", mixed, state, start


BEST_RESPONSE_GOLDEN = json.loads(
    (Path(__file__).parent / "golden" / "best_response.json").read_text()
)


def test_solve_we_br_matches_golden(elfarol, pigou_info):
    # repr of (flow, max_violation, iterations) of every solve: best response
    # must stay bit-identical through every change to how it evaluates costs
    got = {}
    for case, game, state, start in _best_response_cases(elfarol, pigou_info):
        res = fg.solve_we_br(game, state, start)
        got[case] = repr((res.flow.flows, res.max_violation, res.iterations))
    assert got == BEST_RESPONSE_GOLDEN


# Networks whose resource "idle" no action uses, so it gives the potential
# cores no row; most actions use several resources, so a cost sums several
# latencies
_IDLE_ONE_POPULATION = """
[populations]
traffic = a, b, c

[states]
names = 0, 1

[prior]
0 = 1/3
1 = 2/3

[congestion]
resources = e1, idle, e2, e3
latency.e1.0 = 1, 2
latency.e1.1 = 0, 1, 1
latency.idle.0 = 5, 1
latency.idle.1 = 2
latency.e2.0 = 0, 3
latency.e2.1 = 1, 1
latency.e3.0 = 2, 1, 1/2
latency.e3.1 = 1/2, 2
action.traffic.a = e1, e2
action.traffic.b = e2, e3
action.traffic.c = e1, e3
"""

_IDLE_TWO_POPULATIONS = """
[populations]
p = a, b, c
q = x, y

[states]
names = 0

[prior]
0 = 1

[congestion]
resources = e1, e2, idle, e3, e4
latency.e1.0 = 1, 1
latency.e2.0 = 0, 2, 1
latency.idle.0 = 3, 3
latency.e3.0 = 1/2, 1
latency.e4.0 = 0, 1/3, 2
action.p.a = e1, e2
action.p.b = e2, e3, e4
action.p.c = e4
action.q.x = e1, e3
action.q.y = e2, e4
"""


def _dusted(vec, dust):
    """``vec`` with ``dust`` moved from its largest entry onto its first zero."""
    vec = list(vec)
    if 0.0 in vec:
        vec[vec.index(max(vec))] -= dust
        vec[vec.index(0.0)] += dust
    return tuple(vec)


def _potential_solver_cases():
    """The solves pinned in potential_solvers.json: ("bayes", id, game,
    structure) and ("complete", id, game, [(start name, start flow)])."""
    seed = 0
    for n_states in (1, 2, 3):
        for sub_pops in (1, 2, 3):
            for types_per in (1, 2, 3):
                for kind in ("linear", "quad"):
                    game = random_congestion_game(
                        seed, n_actions=2 + seed % 2, n_states=n_states, quadratic=kind == "quad"
                    )
                    structure = random_structure(game, seed, sub_pops, types_per)
                    case = f"bwe{seed}-{kind}-s{n_states}-k{sub_pops}-t{types_per}"
                    yield "bayes", case, game, structure
                    seed += 1
    for n_pops in (1, 2, 3):
        for n_actions in (2, 3):
            for kind in ("linear", "quad"):
                game = random_congestion_game(
                    seed, n_actions=n_actions, n_states=2, quadratic=kind == "quad", n_pops=n_pops
                )
                starts = [("uniform", None)]
                starts += [(f"random{r}", random_flow(game, r)) for r in (seed, seed + 100)]
                yield "complete", f"we{seed}-{kind}-p{n_pops}-a{n_actions}", game, starts
                seed += 1
    for name, text in (("idle1", _IDLE_ONE_POPULATION), ("idle2", _IDLE_TWO_POPULATIONS)):
        game = fg.parse_game_file(text)
        starts = [("uniform", None)] + [(f"random{r}", random_flow(game, r)) for r in range(4)]
        yield "complete", name, game, starts
    game = fg.parse_game_file(_IDLE_ONE_POPULATION)
    for seed in range(6):
        structure = random_structure(game, seed, 1 + seed % 3, 1 + seed // 2)
        yield "bayes", f"idle1-bwe{seed}", game, structure
    # nine actions a block: numpy sums 8 or more entries pairwise, not left
    # to right, and these solves change in their last bits if a block's
    # clip-and-rescale or solved read-back adds in the other order, or the
    # Newton mass rows add pairwise (every game above has at most 3 actions)
    game = random_congestion_game(26, n_actions=9, quadratic=True)
    starts = [("uniform", None)] + [(f"random{r}", random_flow(game, r)) for r in (0, 1)]
    yield "complete", "we26-quad-p1-a9", game, starts
    game = random_congestion_game(1, n_actions=9, n_states=2)
    yield "bayes", "bwe1-linear-s2-a9", game, random_structure(game, 1)


def _potential_solver_outputs():
    """repr of every float potential solve pinned in potential_solvers.json."""
    out = {}
    for kind, case, game, data in _potential_solver_cases():
        if kind == "complete":
            for state in game.states:
                for name, start in data:
                    res = fg.solve_we_potential(game, state, start=start)
                    out[f"{case}-s{state}-{name}"] = repr(
                        (res.flow.flows, res.max_violation, res.iterations)
                    )
            continue
        structure = data
        solved = fg.solve_bwe(game, structure)
        out[f"{case}-solve"] = repr(solved)
        out[f"{case}-probe"] = repr(fg.bwe_cost_uniqueness_probe(game, structure, trials=4))
        # a start within tol of equilibrium is returned as it is, so only the
        # rule that snaps mass below 1e-9 of gamma_k to zero acts on its dust
        start = fg.StrategyProfile(
            tuple(
                tuple(
                    _dusted(vec, (3e-10 if (k + ti) % 2 else 3e-8) * float(gamma))
                    for ti, vec in enumerate(block)
                )
                for k, (gamma, block) in enumerate(zip(structure.sizes, solved.strategies))
            )
        )
        out[f"{case}-dust"] = repr(fg.solve_bwe(game, structure, tol=1e-6, start=start))
    return out


def test_potential_solvers_reach_the_equilibrium_from_every_start():
    # what the solvers guarantee whatever their step schedule: a violation
    # at float noise, and, where the potential is strictly convex in the
    # loads, the same load on every strictly increasing resource from every
    # start; the per-population flows may differ where populations trade
    # mass without changing a load
    for kind, case, game, data in _potential_solver_cases():
        spec = game.congestion
        if kind == "bayes":
            solved = fg.solve_bwe(game, data)
            assert fg.bwe_violation(game, data, solved) <= 1e-12, case
            report = fg.bwe_cost_uniqueness_probe(game, data, trials=4)
            assert report.cost_deviation <= 1e-12, case
            assert report.flow_deviation <= 1e-12, case
            continue
        for state in game.states:
            increasing = [
                e
                for e in spec.resources
                if min(spec.latencies[(e, state)]) >= 0 and any(spec.latencies[(e, state)][1:])
            ]
            loads = []
            for name, start in data:
                res = fg.solve_we_potential(game, state, start=start)
                assert res.max_violation <= 1e-12, (case, state, name)
                loads.append(fg.load_profile(spec, res.flow))
            for e in increasing:
                spread = max(load[e] for load in loads) - min(load[e] for load in loads)
                assert spread <= 1e-12, (case, state, e)


POTENTIAL_GOLDEN = json.loads(
    (Path(__file__).parent / "golden" / "potential_solvers.json").read_text()
)


def test_potential_solvers_match_golden():
    # repr of solve_bwe, the uniqueness probe and solve_we_potential outputs:
    # both potential cores must keep every float through changes to how they
    # are assembled
    assert _potential_solver_outputs() == POTENTIAL_GOLDEN
