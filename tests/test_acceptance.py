"""End-to-end acceptance checks.

Each test exercises one of the twelve headline behaviors at its stated
tolerance and prints a single PASS line; a failure anywhere shows up as an
ordinary pytest failure for that numbered behavior.
"""

import time
from fractions import Fraction as F

import flowgames as fg
from flowgames.generators import (
    random_bcwe,
    random_congestion_game,
    random_flow,
    random_outcome,
    random_structure,
)
from flowgames.model import _trusted_profile


def flow1(*vals):
    return fg.FlowProfile((tuple(F(v) for v in vals),))


def expected_social_cost(game, outcome):
    total = F(0)
    for state, atoms in outcome.per_state.items():
        p = game.prior_of(state)
        for f, w in atoms:
            total += p * w * fg.social_cost(game, f, state)
    return total


def test_c01_we_enumeration(elfarol):
    t0 = time.perf_counter()
    flows = fg.enumerate_we_grid(elfarol, "0", resolution=64)
    elapsed = time.perf_counter() - t0
    targets = [flow1(1, 0), flow1(F(3, 4), F(1, 4)), flow1(F(1, 4), F(3, 4))]
    assert len(flows) == 3
    for target in targets:
        assert sum(1 for f in flows if fg.flow_linf(f, target) <= 1e-4) == 1
    for f in flows:
        assert abs(float(fg.social_cost(elfarol, f, "0")) - 1.0) <= 1e-9
    assert elapsed < 1.0
    print(f"criterion 1: PASS (3 equilibria, social cost 1, {elapsed:.2f}s)")


def test_c02_optimal_distribution(elfarol):
    t0 = time.perf_counter()
    problem = fg.DesignerProblem(
        elfarol, fg.social_cost_expr(elfarol), fg.build_grid(elfarol, 4)
    )
    solution = fg.solve_program_p(problem)
    elapsed = time.perf_counter() - t0
    assert solution.status == "optimal"
    assert abs(float(solution.objective) - 2 / 3) <= 1e-9
    atoms = dict(solution.outcome.per_state["0"])
    assert atoms == {flow1(F(1, 2), F(1, 2)): F(2, 3), flow1(1, 0): F(1, 3)}
    assert elapsed < 1.0
    print(f"criterion 2: PASS (objective 2/3, weights 1/3 and 2/3, {elapsed:.2f}s)")


def test_c03_incomplete_information_outcome(pigou_info, pigou_bcwe):
    report = fg.check_bcwe(pigou_info, pigou_bcwe)
    assert float(report.worst_violation) <= 1e-12
    assert report.witness == ("traffic", "a", "b")
    obey = F(0)
    deviate = F(0)
    for state, atoms in pigou_bcwe.per_state.items():
        p = pigou_info.prior_of(state)
        for f, w in atoms:
            y_a = f.flows[0][0]
            obey += p * w * y_a * fg.eval_cost(pigou_info, "traffic", "a", f, state)
            deviate += p * w * y_a * fg.eval_cost(pigou_info, "traffic", "b", f, state)
    assert obey == F(3, 4) and deviate == F(3, 4)
    constant = {s: flow1(1, 0) for s in pigou_info.states}
    assert fg.check_sbcwe(pigou_info, constant).worst_violation > 0
    assert abs(float(expected_social_cost(pigou_info, pigou_bcwe)) - 1.0) <= 1e-12
    print("criterion 3: PASS (violation 0, binding 3/4 = 3/4, cost 1)")


def test_c04_direct_structure(elfarol, elfarol_cwe):
    structure, strategies, eps = fg.direct_structure_from_bcwe(elfarol, elfarol_cwe, 2)
    assert structure.sizes == (F(1, 2), F(1, 2))
    kernel = {profile: w for profile, w in structure.kernel["0"]}
    assert kernel == {
        ("a", "a"): F(1, 3),
        ("a", "b"): F(1, 3),
        ("b", "a"): F(1, 3),
    }
    assert float(eps) <= 1e-12
    assert float(fg.bwe_violation(elfarol, structure, strategies)) <= 1e-12
    assert fg.outcome_of_strategies(structure, strategies) == elfarol_cwe
    print("criterion 4: PASS (kernel 1/3 each, violation 0, exact round trip)")


def test_c05_solved_structures_induce_obedient_outcomes():
    worst = 0.0
    for seed in range(100):
        game = random_congestion_game(seed, n_actions=2 + seed % 2, n_states=1 + seed % 2)
        structure = random_structure(game, seed, sub_pops=1 + seed % 3, types_per=2)
        strategies = fg.solve_bwe(game, structure, tol=1e-10)
        # affine latencies: the exact solve is exactly obedient
        assert fg.bwe_violation(game, structure, strategies) == 0
        outcome = fg.outcome_of_strategies(structure, strategies)
        worst = max(worst, float(fg.check_bcwe(game, outcome).worst_violation))
    assert worst <= 1e-6
    print(f"criterion 5: PASS (100 structures, worst induced violation {worst:.1e})")


def test_c06_equilibrium_costs_and_grid_gaps():
    # the exact solve plays every used action at one cost, and each
    # equilibrium the lattice scan finds plays its used actions at that cost
    worst_spread = 0.0
    for seed in range(50):
        game = random_congestion_game(seed, n_actions=2)
        pop = game.populations[0]
        res = fg.solve_we_potential(game, "0", tol=1e-10)
        assert fg.verify_we(game, res.flow, "0") == 0
        least = min(fg.eval_cost(game, pop.name, a, res.flow, "0") for a in pop.actions)
        for flow in fg.enumerate_we_grid(game, "0", 32):
            costs = [
                float(fg.eval_cost(game, pop.name, a, flow, "0"))
                for j, a in enumerate(pop.actions)
                if float(flow.flows[0][j]) > 1e-7
            ]
            worst_spread = max(worst_spread, max(abs(c - float(least)) for c in costs))
        gaps = [fg.ccwe_grid_gap(game, "0", r)[1] for r in (8, 16, 32)]
        # a refinement may only improve the gap up to solver noise
        assert gaps[1] <= max(gaps[0], 1e-9)
        assert gaps[2] <= max(gaps[1], 1e-9)
    assert worst_spread <= 1e-6
    print(f"criterion 6: PASS (cost spread {worst_spread:.1e}, gaps shrink on 50 games)")


def test_c07_support_bounds(elfarol, pigou_info, pigou_network):
    problems = [
        fg.DesignerProblem(g, fg.social_cost_expr(g), fg.build_grid(g, 4))
        for g in (elfarol, pigou_info, pigou_network)
    ]
    games = [elfarol, pigou_info, pigou_network]
    for seed in range(100):
        game = random_congestion_game(seed, n_actions=2 + seed % 2, n_states=1 + seed % 2)
        games.append(game)
        problems.append(
            fg.DesignerProblem(game, fg.social_cost_expr(game), fg.build_grid(game, 4))
        )
    for game, problem in zip(games, problems):
        solution = fg.solve_program_p(problem)
        assert solution.status == "optimal"
        report = fg.support_bound_check(solution, game)
        assert report.ok
        assert report.within_bfs
    print(f"criterion 7: PASS ({len(problems)} problems inside both support bounds)")


def test_c08_cost_uniqueness_probe():
    worst_cost = 0.0
    worst_flow = 0.0
    for g in range(20):
        game = random_congestion_game(g, n_actions=2 + g % 2, n_states=1 + g % 2)
        for s in range(5):
            structure = random_structure(game, 100 * g + s)
            report = fg.bwe_cost_uniqueness_probe(game, structure, trials=20, tol=1e-9)
            worst_cost = max(worst_cost, report.cost_deviation)
            worst_flow = max(worst_flow, report.flow_deviation)
    assert worst_cost <= 1e-6
    assert worst_flow <= 1e-6  # latencies are strictly increasing by construction
    print(f"criterion 8: PASS (cost dev {worst_cost:.1e}, flow dev {worst_flow:.1e})")


def test_c09_convergence(elfarol, elfarol_cwe, pigou_info, pigou_bcwe):
    n_list = (4, 8, 16, 32, 64, 128, 256)
    t0 = time.perf_counter()
    tails = []
    for game, outcome, denominator in (
        (elfarol, elfarol_cwe, 2),
        (pigou_info, pigou_bcwe, 1),
    ):
        rows = fg.convergence_run(game, outcome, n_list)
        eps = [row.eps for row in rows]
        assert all(eps[i + 1] <= eps[i] for i in range(len(eps) - 1))
        assert eps[-1] <= eps[0] / 10
        tails.append(float(eps[-1]))
        for row in rows:
            if row.n % denominator == 0:
                assert row.wasserstein == 0.0
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    print(f"criterion 9: PASS (eps down to {max(tails):.1e}, {elapsed:.2f}s)")


def test_c10_flowlevel_equals_bruteforce():
    instances = 0
    worst = 0.0
    seed = 0
    while instances < 200:
        seed += 1
        game = random_congestion_game(seed, n_actions=2, n_states=1 + seed % 2)
        n = 2 + seed % 5
        agame = fg.AtomicGame(game, (n,))
        outcome = random_outcome(game, seed, support=1 + seed % 2, denominator=2 + seed % 4)
        bce = fg.construct_eps_bce(agame, outcome)
        flow_violation = fg.check_bce_flowlevel(game, bce).worst_violation
        beta = fg.bce_to_profile_distribution(agame, bce)
        brute_violation = fg.check_bce_bruteforce(agame, beta).worst_violation
        worst = max(worst, abs(float(flow_violation - brute_violation)))
        instances += 1
    assert worst <= 1e-10
    print(f"criterion 10: PASS ({instances} instances, worst oracle gap {worst:.1e})")


def test_c11_potential_gradient():
    worst = 0.0
    h = 1e-6
    checked = 0
    for seed in range(1000):
        game = random_congestion_game(seed % 25, quadratic=seed % 2 == 1)
        spec = game.congestion
        state = game.states[0]
        flow = random_flow(game, seed)
        for k, vec in enumerate(flow.flows):
            pop = game.populations[k]
            for j in range(len(vec)):
                up = [list(map(float, v)) for v in flow.flows]
                down = [list(map(float, v)) for v in flow.flows]
                up[k][j] += h
                down[k][j] -= h
                # the shifted profiles have mass 1 +- h, so they skip the unit-mass check
                phi_up = fg.potential_value(spec, _trusted_profile(tuple(map(tuple, up))), state)
                phi_down = fg.potential_value(spec, _trusted_profile(tuple(map(tuple, down))), state)
                numeric = (float(phi_up) - float(phi_down)) / (2 * h)
                exact = float(fg.eval_cost(game, pop.name, pop.actions[j], flow, state))
                rel = abs(numeric - exact) / max(1.0, abs(exact))
                worst = max(worst, rel)
                checked += 1
    assert worst <= 1e-6
    print(
        f"criterion 11: PASS (1000 flows, {checked} coordinates, "
        f"worst relative error {worst:.1e})"
    )


def test_c12_mediation_does_not_help():
    # with complete information and a strictly convex potential the best
    # obedient distribution is the point mass on the one equilibrium, so the
    # exact design optimum equals the equilibrium social cost
    t0 = time.perf_counter()
    grids = 0
    for n_actions in range(2, 6):
        for seed in range(6):
            game = random_congestion_game(seed, n_actions=n_actions)
            # each action uses its own edge, whose latency rises with slope >= 1
            spec = game.congestion
            assert sorted(spec.actions.values()) == sorted(frozenset({e}) for e in spec.resources)
            assert all(spec.latencies[(e, "0")][1] >= 1 for e in spec.resources)
            for resolution in (4, 8):
                grid = fg.build_grid(game, resolution)
                equilibria = [f for f in grid["0"] if fg.verify_we(game, f, "0") <= 0]
                assert len(equilibria) == 1
                problem = fg.DesignerProblem(game, fg.social_cost_expr(game), grid)
                solution = fg.solve_program_p(problem)
                assert solution.status == "optimal"
                assert isinstance(solution.objective, F)
                assert solution.objective == fg.social_cost(game, equilibria[0], "0")
                grids += 1
    elapsed = time.perf_counter() - t0
    print(f"criterion 12: PASS ({grids} grids, design optimum = equilibrium cost, {elapsed:.2f}s)")
