from fractions import Fraction as F

import pytest

import flowgames as fg


def flow1(*vals):
    return fg.FlowProfile((tuple(F(v) for v in vals),))


def test_flow_of_profile(elfarol):
    agame = fg.AtomicGame(elfarol, (3,))
    f = fg.flow_of_profile(agame, (("a", "a", "b"),))
    assert f.flows[0] == (F(2, 3), F(1, 3))


def test_flow_of_profile_permutation_invariant(elfarol):
    agame = fg.AtomicGame(elfarol, (3,))
    a = fg.flow_of_profile(agame, (("a", "b", "a"),))
    b = fg.flow_of_profile(agame, (("b", "a", "a"),))
    assert a.flows == b.flows


def test_atomic_game_validation(elfarol):
    with pytest.raises(ValueError):
        fg.AtomicGame(elfarol, (0,))
    with pytest.raises(ValueError):
        fg.AtomicGame(elfarol, (2,), weights=((F(1, 3), F(1, 3)),))
    agame = fg.AtomicGame(elfarol, (2,), weights=((F(1, 4), F(3, 4)),))
    assert not agame.uniform()
    assert fg.AtomicGame(elfarol, (2,)).uniform()


def test_eps_bce_three_players(elfarol, elfarol_cwe):
    # 3 players cannot hold (1/2, 1/2): largest remainder gives (2, 1),
    # a rounding distance of 1/6, and a deviation gain of exactly 7/27
    agame = fg.AtomicGame(elfarol, (3,))
    bce = fg.construct_eps_bce(agame, elfarol_cwe)
    assert bce.delta == F(1, 6)
    assert bce.eps == F(7, 27)
    assert bce.counts[(((F(2, 3), F(1, 3)),))] == ((2, 1),)
    assert bce.counts[(((F(1), F(0)),))] == ((3, 0),)


def test_eps_bce_rounds_float_flows_like_exact_ones(elfarol):
    # 10 * 0.29999999999999993 is 2.999999999999999, within 1e-12 below 3;
    # the float flow gets the counts of the exact flow (3/10, 7/10)
    agame = fg.AtomicGame(elfarol, (10,))
    near = fg.FlowProfile(((0.29999999999999993, 0.7000000000000001),))
    bce = fg.construct_eps_bce(agame, fg.Outcome({"0": ((near, F(1)),)}))
    exact = fg.construct_eps_bce(agame, fg.Outcome({"0": ((flow1("3/10", "7/10"), F(1)),)}))
    assert list(bce.counts.values()) == list(exact.counts.values()) == [((3, 7),)]
    assert bce.delta <= 1e-15


def test_flowlevel_matches_bruteforce_three_players(elfarol, elfarol_cwe):
    agame = fg.AtomicGame(elfarol, (3,))
    bce = fg.construct_eps_bce(agame, elfarol_cwe)
    flow_report = fg.check_bce_flowlevel(elfarol, bce)
    beta = fg.bce_to_profile_distribution(agame, bce)
    brute_report = fg.check_bce_bruteforce(agame, beta)
    assert flow_report.worst_violation == F(7, 27)
    assert brute_report.worst_violation == F(7, 27)


def test_profile_distribution_is_exact(elfarol, elfarol_cwe):
    agame = fg.AtomicGame(elfarol, (3,))
    bce = fg.construct_eps_bce(agame, elfarol_cwe)
    beta = fg.bce_to_profile_distribution(agame, bce)
    atoms = dict(beta["0"])
    assert sum(atoms.values()) == 1
    assert len(atoms) == 4  # three arrangements of (2,1) plus the all-a profile
    assert atoms[(("a", "a", "a"),)] == F(1, 3)
    assert atoms[(("a", "a", "b"),)] == F(2, 9)


def test_eps_bce_exact_when_divisible(elfarol, elfarol_cwe):
    agame = fg.AtomicGame(elfarol, (4,))
    bce = fg.construct_eps_bce(agame, elfarol_cwe)
    assert bce.delta == 0
    assert bce.eps == 0
    assert bce.outcome == elfarol_cwe


def test_eps_bce_needs_uniform_weights(elfarol, elfarol_cwe):
    agame = fg.AtomicGame(elfarol, (2,), weights=((F(1, 4), F(3, 4)),))
    with pytest.raises(ValueError):
        fg.construct_eps_bce(agame, elfarol_cwe)


def test_bruteforce_profile_cap(elfarol):
    agame = fg.AtomicGame(elfarol, (21,))
    with pytest.raises(ValueError):
        fg.check_bce_bruteforce(agame, {"0": ()})


def test_wasserstein_identical_outcomes(elfarol_cwe):
    assert fg.wasserstein_outcome_distance(elfarol_cwe, elfarol_cwe, {"0": F(1)}) == 0.0


def test_wasserstein_point_masses():
    mu1 = fg.Outcome({"0": ((flow1(1, 0), F(1)),)})
    mu2 = fg.Outcome({"0": ((flow1(0, 1), F(1)),)})
    d = fg.wasserstein_outcome_distance(mu1, mu2, {"0": F(1)})
    assert abs(d - 1.0) <= 1e-9


def test_wasserstein_rounding_distance(elfarol, elfarol_cwe):
    agame = fg.AtomicGame(elfarol, (3,))
    bce = fg.construct_eps_bce(agame, elfarol_cwe)
    d = fg.wasserstein_outcome_distance(elfarol_cwe, bce.outcome, {"0": F(1)})
    # 2/3 of the mass moves from (1/2, 1/2) to (2/3, 1/3): 2/3 * 1/6
    assert abs(d - 1 / 9) <= 1e-9


def test_wasserstein_is_a_metric_on_samples(elfarol):
    from flowgames.generators import random_outcome

    prior = {"0": F(1)}
    outs = [random_outcome(elfarol, seed, support=2, denominator=8) for seed in range(6)]
    for i in range(len(outs)):
        for j in range(len(outs)):
            dij = fg.wasserstein_outcome_distance(outs[i], outs[j], prior)
            dji = fg.wasserstein_outcome_distance(outs[j], outs[i], prior)
            assert abs(dij - dji) <= 1e-9
            for k in range(len(outs)):
                dik = fg.wasserstein_outcome_distance(outs[i], outs[k], prior)
                dkj = fg.wasserstein_outcome_distance(outs[k], outs[j], prior)
                assert dij <= dik + dkj + 1e-9


def test_wasserstein_does_not_depend_on_hash_seed(fresh_python):
    # four states make the per-state sum order matter in floats; under set
    # iteration order, hash seeds 0 and 1 gave values one ulp apart
    code = (
        "import flowgames as fg\n"
        "from flowgames.generators import random_congestion_game, random_outcome\n"
        "game = random_congestion_game(1, n_actions=3, n_states=4)\n"
        "outcome = random_outcome(game, 1, support=3, denominator=7)\n"
        "bce = fg.construct_eps_bce(fg.AtomicGame(game, (5,)), outcome)\n"
        "prior = {s: game.prior_of(s) for s in game.states}\n"
        "print(repr(fg.wasserstein_outcome_distance(outcome, bce.outcome, prior)))\n"
    )
    assert fresh_python(code, PYTHONHASHSEED="0") == fresh_python(code, PYTHONHASHSEED="1")


def test_convergence_run_elfarol(elfarol, elfarol_cwe):
    rows = fg.convergence_run(elfarol, elfarol_cwe, (4, 8, 16))
    assert [r.n for r in rows] == [4, 8, 16]
    for row in rows:
        assert row.delta == 0  # denominators divide every even n
        assert row.eps == 0
        assert row.wasserstein == 0.0


def test_convergence_run_rejects_disobedient_outcome(pigou_info):
    bad = fg.Outcome({"0": ((flow1(1, 0), F(1)),), "1": ((flow1(1, 0), F(1)),)})
    with pytest.raises(ValueError):
        fg.convergence_run(pigou_info, bad, (2, 4))
