import collections
import itertools
import re
from fractions import Fraction as F

import numpy as np
import pytest

import flowgames as fg
import flowgames.lp as lp
from flowgames.gamefile import format_quantity, write_outcome_file
from flowgames.generators import random_congestion_game


def flow1(*vals):
    return fg.FlowProfile((tuple(F(v) for v in vals),))


def test_build_grid_counts(elfarol, pigou_info):
    grid = fg.build_grid(elfarol, 4)
    assert set(grid) == {"0"}
    assert len(grid["0"]) == 5
    grid2 = fg.build_grid(pigou_info, 2)
    assert len(grid2["0"]) == 3
    assert len(grid2["1"]) == 3


def test_build_grid_checks_cap_before_building(elfarol, monkeypatch):
    built = []
    monkeypatch.setattr("flowgames.design.grid_flows", lambda *args: built.append(args))
    # elfarol has two actions, so resolution r gives r + 1 lattice flows
    with pytest.raises(ValueError, match="1e6 cap"):
        fg.build_grid(elfarol, 10**6)
    assert built == []


def test_build_grid_keeps_a_seed_equal_to_a_lattice_flow_only_in_floats(elfarol, monkeypatch):
    # 1/2 + 2**-60 rounds to the float 0.5, so float keys took this seed for
    # the lattice flow (1/2, 1/2) and dropped it; it sorts after that flow
    eps = F(1, 2**60)
    seed = flow1(F(1, 2) + eps, F(1, 2) - eps)
    monkeypatch.setattr("flowgames.design._state_equilibria", lambda game, state: [seed])
    got = fg.build_grid(elfarol, 2)["0"]
    assert got == (flow1(0, 1), flow1(F(1, 2), F(1, 2)), seed, flow1(1, 0))
    # a seed equal to a lattice flow is dropped, the lattice flow kept
    half = flow1(F(1, 2), F(1, 2))
    monkeypatch.setattr("flowgames.design._state_equilibria", lambda game, state: [half])
    got = fg.build_grid(elfarol, 2)["0"]
    assert got == (flow1(0, 1), half, flow1(1, 0)) and got[1] is not half


@pytest.mark.parametrize("resolution", [True, False, 2.0, "4", 0, -1])
def test_resolution_must_be_an_int_of_at_least_1(resolution, elfarol):
    message = re.escape(f"resolution must be an int of at least 1, got {resolution!r}")
    with pytest.raises(ValueError, match=message):
        fg.build_grid(elfarol, resolution)
    with pytest.raises(ValueError, match=message):
        fg.grid_flows(elfarol, resolution)
    with pytest.raises(ValueError, match=message):
        fg.enumerate_we_grid(elfarol, "0", resolution)


def test_candidates_of_another_shape_are_refused():
    # a 2-entry and a 4-entry flow on a 3-action game used to raise IndexError
    game = random_congestion_game(0, n_actions=3, n_states=2)
    grid = fg.build_grid(game, 2)
    for bad in (flow1(F(1, 2), F(1, 2)), flow1(*[F(1, 4)] * 4)):
        candidates = {**grid, "1": grid["1"] + (bad,)}
        problem = fg.DesignerProblem(game, fg.social_cost_expr(game), candidates)
        message = re.escape(f"candidate {len(grid['1'])} of state '1', {bad!r}, does not match")
        with pytest.raises(ValueError, match=message):
            fg.solve_program_p(problem)


def test_exact_design_makes_fewer_fractions_than_columns(monkeypatch):
    # lattice counts and integer objective numerators reach the simplex with
    # no Fraction per atom: Fractions are made for the certificate only
    game = random_congestion_game(0, n_actions=4, n_states=2)
    problem = fg.DesignerProblem(game, fg.social_cost_expr(game), fg.build_grid(game, 8))
    made, new = [], F.__new__

    def counting(cls, *args, **kwargs):
        made.append(1)
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(F, "__new__", counting)
    solution = fg.solve_program_p(problem)
    monkeypatch.undo()
    n_columns = sum(map(len, problem.candidates.values()))
    assert solution.status == "optimal" and n_columns == 332
    assert 0 < len(made) < n_columns


def test_elfarol_optimal_distribution(elfarol):
    problem = fg.DesignerProblem(
        elfarol, fg.social_cost_expr(elfarol), fg.build_grid(elfarol, 4)
    )
    solution = fg.solve_program_p(problem)
    assert solution.status == "optimal"
    assert solution.objective == F(2, 3)
    atoms = solution.outcome.per_state["0"]
    assert atoms == ((flow1(F(1, 2), F(1, 2)), F(2, 3)), (flow1(1, 0), F(1, 3)))


def test_pigou_optimal_is_full_disclosure(pigou_info):
    problem = fg.DesignerProblem(
        pigou_info, fg.social_cost_expr(pigou_info), fg.build_grid(pigou_info, 4)
    )
    solution = fg.solve_program_p(problem)
    assert solution.status == "optimal"
    assert solution.objective == F(1, 2)
    assert solution.outcome.per_state["0"] == ((flow1(0, 1), F(1)),)
    assert solution.outcome.per_state["1"] == ((flow1(1, 0), F(1)),)


def test_support_bounds_elfarol(elfarol):
    problem = fg.DesignerProblem(
        elfarol, fg.social_cost_expr(elfarol), fg.build_grid(elfarol, 4)
    )
    solution = fg.solve_program_p(problem)
    report = fg.support_bound_check(solution, elfarol)
    assert report.ok
    assert report.support == 2
    assert report.caratheodory_bound == 5  # one state, two actions
    assert report.bfs_bound == 3
    assert report.within_bfs


def test_custom_objective_rewards_vertex(elfarol):
    # maximizing the mass on a picks out the pure equilibrium (1, 0)
    problem = fg.DesignerProblem(
        elfarol, {"0": fg.parse_cost("-y[a]")}, fg.build_grid(elfarol, 4)
    )
    solution = fg.solve_program_p(problem)
    assert solution.status == "optimal"
    assert solution.objective == -1
    assert solution.outcome.per_state["0"] == ((flow1(1, 0), F(1)),)


def test_solution_outcomes_are_obedient():
    for seed in range(5):
        game = random_congestion_game(seed, n_actions=2, n_states=2)
        problem = fg.DesignerProblem(
            game, fg.social_cost_expr(game), fg.build_grid(game, 4)
        )
        solution = fg.solve_program_p(problem)
        assert solution.status == "optimal"
        assert float(fg.check_bcwe(game, solution.outcome).worst_violation) <= 1e-9


def _reference_obedience_rows(game, grid):
    """The designer LP's obedience rows, assembled term by term: one row per
    population k and actions a != b, one column per (state, candidate), entry
    float(p(s) * y_a * (c_a - c_b))."""
    columns = [(s, f) for s in game.states for f in grid[s]]
    rows = []
    for k, pop in enumerate(game.populations):
        for ja, a in enumerate(pop.actions):
            for b in pop.actions:
                if b == a:
                    continue
                rows.append(
                    [
                        float(
                            game.prior_of(s)
                            * f.flows[k][ja]
                            * (
                                fg.eval_cost(game, pop.name, a, f, s)
                                - fg.eval_cost(game, pop.name, b, f, s)
                            )
                        )
                        for s, f in columns
                    ]
                )
    return np.array(rows)


@pytest.mark.parametrize("name", ["pigou_info", "elfarol", "rcg0", "rcg1", "rcg2"])
def test_lp_obedience_rows_match_reference(name, request, monkeypatch):
    if name.startswith("rcg"):
        game = random_congestion_game(int(name[3:]), n_actions=4, n_states=2)
    else:
        game = request.getfixturevalue(name)
    grid = fg.build_grid(game, 4)
    captured = []

    def capture(basis, c, columns, rhs, n_ub):
        captured.append((columns, len(rhs) - n_ub, n_ub))
        return lp._column_solve(basis, c, columns, rhs, n_ub)

    monkeypatch.setattr("flowgames.design._column_solve", capture)
    solution = fg.solve_program_p(fg.DesignerProblem(game, fg.social_cost_expr(game), grid))
    assert solution.status == "optimal"
    assert len(captured) == 1
    columns, n_eq, n_ub = captured[0]
    # every column weighs 1 on its own state's equality row
    states = [s for s in game.states for _ in grid[s]]
    assert [[(i, F(k, d)) for i, k in col if i < n_eq] for d, col in columns] == [
        [(game.states.index(s), 1)] for s in states
    ]
    # the float image of the integer numerators
    a_ub = np.zeros((n_ub, len(columns)))
    for j, (d, col) in enumerate(columns):
        for i, k in col:
            if i >= n_eq:
                a_ub[i - n_eq, j] = k / d
    expected = _reference_obedience_rows(game, grid)
    assert a_ub.dtype == expected.dtype and a_ub.shape == expected.shape
    assert a_ub.tobytes() == expected.tobytes()


def test_design_costs_each_candidate_once(monkeypatch):
    # two populations of three actions: one cost per (column, population,
    # action), shared by the objective and the obedience rows
    game = random_congestion_game(2, n_actions=3, n_states=2, n_pops=2)
    grid = fg.build_grid(game, 3)
    # the exact seeds of build_grid keep the game's lifted costs, which would
    # bypass the counting compiler patched in below
    game._compiled.clear()
    calls = collections.Counter()
    real, real_int = fg.model._cost_fn, fg.model._int_cost_fn

    def compiled(game, pop, action, state):
        cost = real(game, pop, action, state)

        def counted(flows):
            calls[state, tuple(map(tuple, flows)), pop, action] += 1
            return cost(flows)

        return counted

    def compiled_int(game, pop, action, state):
        cost, deg, q = real_int(game, pop, action, state)

        def counted(yy, dy):
            calls[state, tuple(tuple(F(v, dy) for v in vec) for vec in yy), pop, action] += 1
            return cost(yy, dy)

        return counted, deg, q

    # exact candidates are costed by the integer backend, float ones through
    # the compiled cost
    monkeypatch.setattr(fg.checks, "_cost_fn", compiled)
    monkeypatch.setattr(fg.model, "_cost_fn", compiled)
    monkeypatch.setattr(fg.model, "_int_cost_fn", compiled_int)
    solution = fg.solve_program_p(fg.DesignerProblem(game, fg.social_cost_expr(game), grid))
    assert solution.status == "optimal"
    assert calls == collections.Counter(
        (s, f.flows, pop.name, a) for s in game.states for f in grid[s] for pop in game.populations for a in pop.actions
    )


def _reference_program(game, grid):
    """solve_program_p's LP assembled from the public obedience_rows and
    social_cost, with its start rule: (columns, cost, rows, starts, b_ub),
    each obedience row relaxed to the starts' activity on it where positive."""
    columns = [(s, f) for s in game.states for f in grid[s]]
    cost = [game.prior_of(s) * fg.social_cost(game, f, s) for s, f in columns]
    rows = [terms for _, terms in fg.obedience_rows(game, [(s, game.prior_of(s), f) for s, f in columns])]
    starts = []
    for state in game.states:
        own = [j for j, (s, _) in enumerate(columns) if s == state]
        start = next((j for j in own if all(row[j] <= 0 for row in rows)), None)
        if start is None:
            start = min(own, key=lambda j: max(row[j] for row in rows))
        starts.append(start)
    b_ub = [max(0, sum(row[j] for j in starts)) for row in rows]
    return columns, cost, rows, starts, b_ub


def _reference_solution(game, grid):
    """solve_program_p's solution of :func:`_reference_program` by exact_solve."""
    columns, cost, rows, starts, b_ub = _reference_program(game, grid)
    basis = starts + list(range(len(columns), len(columns) + len(rows)))
    a_eq = [[int(s == state) for s, _ in columns] for state in game.states]
    certificate = lp.exact_solve(basis, cost, a_eq, [1] * len(game.states), rows, b_ub)
    per_state = {state: [] for state in game.states}
    for (s, f), w in zip(columns, certificate.x):
        if w:
            per_state[s].append((f, w))
    outcome = fg.Outcome({s: tuple(atoms) for s, atoms in per_state.items()})
    return fg.LPSolution(outcome, certificate.objective, "optimal", max(b_ub, default=0))


# design-benchmark instances (n_actions, n_states, resolution, game seed) on
# which the float-only solver failed, and scaling-ladder cells on which the
# certified float solves failed, with their exact optima
DEGENERATE_DESIGN_LPS = [
    pytest.param(4, 2, 8, 10, F(1), id="A4r8-g10-raised"),
    pytest.param(3, 2, 16, 15, F(43, 48), id="A3r16-g15-raised"),
    pytest.param(4, 2, 8, 19, F(162685, 86016), id="A4r8-g19-raised"),
    pytest.param(4, 2, 8, 8, F(28, 25), id="A4r8-g08-wrong-value"),
    pytest.param(3, 2, 16, 18, F(19, 6), id="A3r16-g18-wrong-value"),
    pytest.param(4, 2, 8, 11, F(13, 6), id="A4r8-g11-falsely-infeasible"),
    # both float attempts reported phase-1 infeasibility
    pytest.param(5, 1, 8, 0, F(20, 7), id="A5S1r8-falsely-infeasible"),
    # the float Bland solve ended "optimal" at 1.50713149
    pytest.param(5, 2, 8, 0, F(211, 140), id="A5S2r8-wrong-value"),
]


@pytest.mark.parametrize("n_actions, n_states, resolution, seed, value", DEGENERATE_DESIGN_LPS)
def test_degenerate_design_lp_is_certified(n_actions, n_states, resolution, seed, value):
    game = random_congestion_game(seed, n_actions=n_actions, n_states=n_states)
    grid = fg.build_grid(game, resolution)
    solution = fg.solve_program_p(fg.DesignerProblem(game, fg.social_cost_expr(game), grid))
    assert solution.status == "optimal"
    assert solution.objective == value
    assert fg.check_bcwe(game, solution.outcome).worst_violation <= 0


def _highs_design_optimum(game, grid, b_ub=None):
    """The design LP's optimum by HiGHS, on its float image, with the
    obedience rows <= ``b_ub`` (default 0)."""
    optimize = pytest.importorskip("scipy.optimize")
    columns = [(s, f) for s in game.states for f in grid[s]]
    c = [float(game.prior_of(s) * fg.social_cost(game, f, s)) for s, f in columns]
    a_eq = [[1.0 if s == t else 0.0 for s, _ in columns] for t in game.states]
    a_ub = _reference_obedience_rows(game, grid)
    b_ub = np.zeros(len(a_ub)) if b_ub is None else [float(v) for v in b_ub]
    res = optimize.linprog(c, A_ub=a_ub, b_ub=b_ub, A_eq=a_eq, b_eq=np.ones(len(a_eq)), method="highs")
    assert res.status == 0
    return res.fun


@pytest.mark.parametrize("n_actions, n_states, resolution, seed, value", DEGENERATE_DESIGN_LPS)
def test_degenerate_design_optimum_agrees_with_highs(n_actions, n_states, resolution, seed, value):
    game = random_congestion_game(seed, n_actions=n_actions, n_states=n_states)
    assert abs(_highs_design_optimum(game, fg.build_grid(game, resolution)) - float(value)) <= 1e-9


def test_design_seeds_are_the_snapped_potential_equilibria(monkeypatch):
    # the exact affine seed is the point the potential solve snaps to; two
    # populations sharing every resource have a continuum of equilibria, so
    # their exact seed is one of them, with the loads of the potential solve;
    # the potential solve runs, within 1e-15, only on higher-degree latencies
    from flowgames.wardrop import _snap_rational, _state_equilibria

    solves = []

    def counted(game, state, *args):
        solves.append(state)
        return fg.solve_we_potential(game, state, *args)

    monkeypatch.setattr("flowgames.wardrop.solve_we_potential", counted)
    floats = collections.Counter()
    for seed, n_actions, n_states, n_pops, quadratic in itertools.product(
        range(16), (2, 3, 4), (1, 2), (1, 2), (False, True)
    ):
        game = random_congestion_game(seed, n_actions, n_states, quadratic, n_pops)
        kind = "quadratic" if quadratic else "affine" if n_pops == 1 else "two-population"
        for state in game.states:
            result = fg.solve_we_potential(game, state, 1e-15)
            assert result.max_violation <= 1e-15
            reference = _snap_rational(game, result.flow, state)
            solves.clear()
            seeds = _state_equilibria(game, state)
            floats[kind] += len(solves)
            if n_pops == 2:
                # a quadratic game's latencies may be affine in some state
                loads = fg.load_profile(game.congestion, seeds[0])
                assert loads == fg.load_profile(game.congestion, reference)
            else:
                assert repr(seeds) == repr([reference])
            if kind != "quadratic":
                (exact,) = seeds
                assert all(isinstance(v, F) for vec in exact.flows for v in vec)
                assert fg.verify_we(game, exact, state) == 0
    assert floats["affine"] == floats["two-population"] == 0
    assert floats["quadratic"] >= 1


def test_irrational_equilibrium_design_is_exact_with_slack():
    # quadratic latencies put this game's equilibrium at an irrational flow:
    # its seed is the 10^6 rounding, a little disobedient, so the design is
    # the exact optimum of rows relaxed by that seed's violation, which the
    # outcome meets exactly
    game = random_congestion_game(0, n_actions=3, quadratic=True)
    solution = fg.solve_program_p(fg.DesignerProblem(game, fg.social_cost_expr(game), fg.build_grid(game, 8)))
    assert solution.status == "optimal"
    assert solution.objective == F(7235699257942903553284654507, 1978676997024085387977945088)
    assert solution.slack == F(33759034835673267, 13850738979168597715845615616)
    assert format_quantity(float(solution.objective)) == "3.65683700211"
    assert fg.check_bcwe(game, solution.outcome).worst_violation == solution.slack
    assert write_outcome_file(solution.outcome, game) == (
        "[outcome.0]\n(66971448707/148075227664, 67318/234409, 164581/631696) = 1\n"
    )


QUADRATIC_SWEEP = [
    (seed, n_states, n_actions, resolution)
    for seed in range(12)
    for n_states in (1, 2)
    for n_actions, resolution in ((3, 8), (2, 16), (4, 4))
]


def test_float_design_data_agree_with_highs():
    # quadratic latencies: most of these grids seed a rounded irrational
    # equilibrium, so their rows are relaxed by that seed's violation; the
    # exact optimum must match HiGHS on the float image of the same relaxed
    # LP, and the slack stay below 1e-9
    relaxed = 0
    for seed, n_states, n_actions, resolution in QUADRATIC_SWEEP:
        game = random_congestion_game(seed, n_actions=n_actions, n_states=n_states, quadratic=True)
        grid = fg.build_grid(game, resolution)
        solution = fg.solve_program_p(fg.DesignerProblem(game, fg.social_cost_expr(game), grid))
        assert solution.status == "optimal" and 0 <= solution.slack <= 1e-9
        relaxed += solution.slack > 0
        b_ub = _reference_program(game, grid)[-1]
        assert abs(float(solution.objective) - _highs_design_optimum(game, grid, b_ub)) <= 1e-9
    assert relaxed >= len(QUADRATIC_SWEEP) // 2


AFFINE_LADDERS = [(n_actions, resolution, seed) for n_actions, resolution in ((4, 8), (3, 16)) for seed in range(20)]


def test_designs_are_exact_and_obedient_up_to_their_slack():
    # every design is exact, and its outcome violates obedience by at most
    # its slack, exactly; on affine games every seed is an exact equilibrium,
    # so the slack is 0
    designs = [
        (random_congestion_game(seed, n_actions=n_actions, n_states=n_states, quadratic=True), resolution, False)
        for seed, n_states, n_actions, resolution in QUADRATIC_SWEEP
    ]
    designs += [
        (random_congestion_game(p.values[3], n_actions=p.values[0], n_states=p.values[1]), p.values[2], True)
        for p in DEGENERATE_DESIGN_LPS
    ]
    designs += [
        (random_congestion_game(seed, n_actions=n_actions, n_states=2), resolution, True)
        for n_actions, resolution, seed in AFFINE_LADDERS
    ]
    for game, resolution, affine in designs:
        grid = fg.build_grid(game, resolution)
        solution = fg.solve_program_p(fg.DesignerProblem(game, fg.social_cost_expr(game), grid))
        weights = [w for atoms in solution.outcome.per_state.values() for _, w in atoms]
        assert all(type(v) in (int, F) for v in [solution.objective, solution.slack, *weights])
        assert fg.check_bcwe(game, solution.outcome).worst_violation <= solution.slack
        assert solution.slack == 0 or not affine


def _assert_matches_public_assembly(game, resolution):
    grid = fg.build_grid(game, resolution)
    solution = fg.solve_program_p(fg.DesignerProblem(game, fg.social_cost_expr(game), grid))
    assert repr(solution) == repr(_reference_solution(game, grid))


@pytest.mark.parametrize("n_actions, n_states, resolution, seed, value", DEGENERATE_DESIGN_LPS)
def test_degenerate_design_matches_public_assembly(n_actions, n_states, resolution, seed, value):
    _assert_matches_public_assembly(random_congestion_game(seed, n_actions=n_actions, n_states=n_states), resolution)


@pytest.mark.parametrize("seed", range(12))
def test_quadratic_design_matches_public_assembly(seed):
    # the float and exact designs of the quadratic sweep
    for s, n_states, n_actions, resolution in QUADRATIC_SWEEP:
        if s == seed:
            game = random_congestion_game(s, n_actions=n_actions, n_states=n_states, quadratic=True)
            _assert_matches_public_assembly(game, resolution)


def test_disobedient_start_is_reported_as_slack(elfarol):
    # the one candidate (1/2, 1/2) is no equilibrium (the crowd at home would
    # rather go out), so it starts the solve with the rows relaxed by its
    # exact violation, reported as the slack
    half = flow1(F(1, 2), F(1, 2))
    problem = fg.DesignerProblem(elfarol, fg.social_cost_expr(elfarol), {"0": (half,)})
    assert fg.verify_we(elfarol, half, "0") == F(1, 2)
    outcome = fg.Outcome({"0": ((half, F(1)),)})
    assert fg.solve_program_p(problem) == fg.LPSolution(outcome, F(1, 2), "optimal", F(1, 2))
    assert fg.check_bcwe(elfarol, outcome).worst_violation == F(1, 2)
    # as float data its terms are read exactly: the same slack, not roundoff
    floats = fg.FlowProfile(((0.5, 0.5),))
    problem = fg.DesignerProblem(elfarol, fg.social_cost_expr(elfarol), {"0": (floats,)})
    outcome = fg.Outcome({"0": ((floats, F(1)),)})
    assert fg.solve_program_p(problem) == fg.LPSolution(outcome, F(1, 2), "optimal", F(1, 2))


def test_ccwe_gap_shrinks_off_grid():
    # WE at (2/3, 1/3) misses every power-of-two lattice, so the gap is real
    from flowgames.model import CongestionSpec, Population

    spec = CongestionSpec(
        resources=("e1", "e2"),
        latencies={("e1", "0"): (F(1),), ("e2", "0"): (F(0), F(3))},
        actions={("p", "a"): ("e1",), ("p", "b"): ("e2",)},
        populations=(Population("p", ("a", "b")),),
        states=("0",),
        prior=(F(1),),
    )
    game = fg.congestion_to_game(spec)
    gaps = [fg.ccwe_grid_gap(game, "0", r)[1] for r in (8, 16, 32)]
    assert gaps[0] > gaps[1] > gaps[2]
    assert gaps[2] <= gaps[0] / 4


def test_ccwe_gap_tiny_on_grid(pigou_network):
    # the equilibria (0, 1) and (1/2, 1/2, 0) sit on the lattice, and on affine
    # latencies the reference equilibrium is exact, so no solver noise remains
    # (a float solve left 1.1e-16 in the second gap)
    assert fg.ccwe_grid_gap(pigou_network, "0", 8) == (0.0, 0.0)
    assert fg.ccwe_grid_gap(random_congestion_game(1, n_actions=3), "0", 4) == (0.0, 0.0)


def test_ccwe_gap_without_obedience_rows():
    # a single one-action population has no coarse rows; both LPs still solve
    from flowgames.model import CongestionSpec, Population

    spec = CongestionSpec(
        resources=("e1",),
        latencies={("e1", "0"): (F(1), F(2))},
        actions={("p", "a"): ("e1",)},
        populations=(Population("p", ("a",)),),
        states=("0",),
        prior=(F(1),),
    )
    assert fg.ccwe_grid_gap(fg.congestion_to_game(spec), "0", 4) == (0.0, 0.0)


def test_designer_problem_validation(elfarol):
    with pytest.raises(ValueError):
        fg.DesignerProblem(elfarol, fg.social_cost_expr(elfarol), {})
    with pytest.raises(ValueError):
        fg.DesignerProblem(elfarol, {}, fg.build_grid(elfarol, 2))
