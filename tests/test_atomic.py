import random
from fractions import Fraction as F

import pytest

import flowgames as fg
from flowgames.generators import random_congestion_game, random_outcome
from flowgames.model import eval_cost


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
    # a sum beyond float range is named exactly, not an OverflowError
    with pytest.raises(ValueError, match=f"^population 0 weights sum to {10**400 + 1}, expected 1$"):
        fg.AtomicGame(elfarol, (2,), weights=((F(10**400), F(1)),))
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
    # the rounded flows are the counts over n = 3
    counts = sorted(tuple(3 * y for y in f.flows[0]) for f, _ in bce.outcome.per_state["0"])
    assert counts == [(2, 1), (3, 0)]


def test_eps_bce_validates_the_object_it_returns_once(elfarol, elfarol_cwe, monkeypatch):
    checked = []
    post_init = fg.SymmetricBCE.__post_init__

    def counted(self):
        checked.append(self)
        post_init(self)

    monkeypatch.setattr(fg.SymmetricBCE, "__post_init__", counted)
    bce = fg.construct_eps_bce(fg.AtomicGame(elfarol, (3,)), elfarol_cwe)
    assert len(checked) == 1 and checked[0] is bce
    assert (bce.delta, bce.eps) == (F(1, 6), F(7, 27))
    # all 5 players at home, a strict equilibrium: the worst row is -1/5 and eps is 0
    point = fg.construct_eps_bce(fg.AtomicGame(elfarol, (5,)), fg.Outcome({"0": ((flow1(1, 0), F(1)),)}))
    assert fg.check_bce_flowlevel(elfarol, point).worst_violation == F(-1, 5)
    assert checked[1] is point and point.eps == 0


def test_eps_bce_rounds_float_flows_like_exact_ones(elfarol):
    # 10 * 0.29999999999999993 is 2.999999999999999, within 1e-12 below 3;
    # the float flow gets the counts of the exact flow (3/10, 7/10)
    agame = fg.AtomicGame(elfarol, (10,))
    near = fg.FlowProfile(((0.29999999999999993, 0.7000000000000001),))
    bce = fg.construct_eps_bce(agame, fg.Outcome({"0": ((near, F(1)),)}))
    exact = fg.construct_eps_bce(agame, fg.Outcome({"0": ((flow1("3/10", "7/10"), F(1)),)}))
    assert bce.outcome == exact.outcome
    [(flow, _)] = bce.outcome.per_state["0"]
    assert [10 * y for y in flow.flows[0]] == [3, 7]
    assert bce.delta <= 1e-15


def test_flowlevel_matches_bruteforce_three_players(elfarol, elfarol_cwe):
    agame = fg.AtomicGame(elfarol, (3,))
    bce = fg.construct_eps_bce(agame, elfarol_cwe)
    flow_report = fg.check_bce_flowlevel(elfarol, bce)
    beta = fg.bce_to_profile_distribution(agame, bce)
    brute_report = fg.check_bce_bruteforce(agame, beta)
    assert flow_report.worst_violation == F(7, 27)
    assert brute_report.worst_violation == F(7, 27)


def _reference_flowlevel(game, bce):
    """The flow-level check as a loop of its own, with counts n_k y: the
    obey cost at the rounded flow against the deviation cost at the flow
    shifted by the deviator's 1/n_k, and no row for an action that no
    positive-weight atom recommends."""
    atoms = []  # (state, prior, weight, counts, rounded profile or None)
    for state in game.states:
        p = game.prior_of(state)
        for f, w in bce.outcome.per_state[state]:
            count_vec = tuple(tuple(int(nk * y) for y in vec) for nk, vec in zip(bce.n, f.flows))
            rounded = _rounded_profile(count_vec, bce.n) if w != 0 else None
            atoms.append((state, p, w, count_vec, rounded))
    worst = None
    witness = None
    for k, pop in enumerate(game.populations):
        if len(pop.actions) < 2:
            continue
        n_k = bce.n[k]
        share = F(1, n_k)
        for ja, a in enumerate(pop.actions):
            recommended_mass = 0
            for _, p, w, count_vec, _ in atoms:
                recommended_mass = recommended_mass + p * w * count_vec[k][ja]
            if recommended_mass == 0:
                continue
            obeyed = []  # (state, mass of a-recommendations, rounded, obey cost)
            for state, p, w, count_vec, rounded in atoms:
                n_a = count_vec[k][ja]
                if rounded is None or n_a == 0:
                    continue
                obey = eval_cost(game, pop.name, a, rounded, state)
                obeyed.append((state, p * w * F(n_a, n_k), rounded, obey))
            for jb, b in enumerate(pop.actions):
                if ja == jb:
                    continue
                value = 0
                for state, mass, rounded, obey in obeyed:
                    shifted = _shift(rounded, k, ja, jb, share)
                    dev = eval_cost(game, pop.name, b, shifted, state)
                    value = value + mass * (obey - dev)
                if worst is None or value > worst:
                    worst, witness = value, (pop.name, a, b)
    if worst is None:
        return fg.CheckReport("bce_flowlevel", 0, None)
    return fg.CheckReport("bce_flowlevel", worst, witness)


def _rounded_profile(count_vec, n):
    return fg.FlowProfile(
        tuple(tuple(F(c, n[k]) for c in row) for k, row in enumerate(count_vec))
    )


def _shift(flow, k, ja, jb, share):
    flows = [list(vec) for vec in flow.flows]
    flows[k][ja] = flows[k][ja] - share
    flows[k][jb] = flows[k][jb] + share
    return fg.FlowProfile(tuple(tuple(vec) for vec in flows))


def _floated(outcome):
    return fg.Outcome({
        s: tuple(
            (fg.FlowProfile(tuple(tuple(float(v) for v in vec) for vec in f.flows)), float(w))
            for f, w in atoms
        )
        for s, atoms in outcome.per_state.items()
    })


def test_flowlevel_matches_reference_loop():
    # 2-4 actions, 1-2 populations, 1-3 states, n in {2, 5, 9}, exact and
    # float outcomes: the same repr and witness as the loop of its own
    cases = 0
    for i in range(108):
        n_actions, n_pops, n_states = 2 + i % 3, 1 + (i // 3) % 2, 1 + (i // 6) % 3
        n = (2, 5, 9)[(i // 18) % 3]
        game = random_congestion_game(i, n_actions=n_actions, n_states=n_states, n_pops=n_pops)
        outcome = random_outcome(game, i, support=1 + i % 3, denominator=2 + i % 7)
        if (i // 54) % 2:
            outcome = _floated(outcome)
        bce = fg.construct_eps_bce(fg.AtomicGame(game, (n,) * n_pops), outcome)
        got = fg.check_bce_flowlevel(game, bce)
        want = _reference_flowlevel(game, bce)
        assert repr(got.worst_violation) == repr(want.worst_violation), i
        assert got.witness == want.witness, i
        cases += 1
    assert cases == 108


def test_rounded_flows_equal_validated_profiles(elfarol, elfarol_cwe, pigou_info, pigou_bcwe):
    # the implement workload's outcomes at its player counts: each rounded
    # flow, built without FlowProfile's checks, equals the validated profile
    from flowgames.generators import random_bcwe

    cases = [(elfarol, elfarol_cwe), (pigou_info, pigou_bcwe)]
    for seed in range(16):
        game = random_congestion_game(seed, n_actions=3, n_states=2)
        cases.append((game, random_bcwe(game, seed)))
    for game, outcome in cases:
        for n in (5, 7, 9, 11, 13):
            bce = fg.construct_eps_bce(fg.AtomicGame(game, (n,) * len(game.populations)), outcome)
            for atoms in bce.outcome.per_state.values():
                for flow, _ in atoms:
                    assert fg.FlowProfile(flow.flows) == flow
    # a flow of mass 2 or 1/2, which a rounding caller once rounded to a unit
    # flow, cannot reach one: every FlowProfile has unit mass
    for vec, mass in (((F(1), F(1)), F(2)), ((F(1, 2), 0), F(1, 2))):
        with pytest.raises(ValueError, match=f"population 0 flow sums to {float(mass)!r}, expected 1"):
            fg.FlowProfile((vec,))


def test_flowlevel_never_recommended_action_has_no_row():
    # all three players on a, a strict equilibrium: each deviation costs at
    # least 2 + 1/3 against 1. A row for b or c would sum to 0 and hide the
    # negative worst violation.
    game = fg.parse_game_file(
        "[populations]\ncrowd = a, b, c\n\n[states]\nnames = 0\n\n[prior]\n0 = 1\n\n"
        "[costs]\ncrowd.a = y[a]\ncrowd.b = 2 + y[b]\ncrowd.c = 3 + y[c]\n"
    )
    agame = fg.AtomicGame(game, (3,))
    bce = fg.construct_eps_bce(agame, fg.Outcome({"0": ((flow1(1, 0, 0), F(1)),)}))
    flow_report = fg.check_bce_flowlevel(game, bce)
    assert flow_report == _reference_flowlevel(game, bce)
    assert flow_report.worst_violation == F(-4, 3)
    assert flow_report.witness == ("crowd", "a", "b")
    brute = fg.check_bce_bruteforce(agame, fg.bce_to_profile_distribution(agame, bce))
    assert repr(brute.worst_violation) == repr(flow_report.worst_violation)
    assert bce.eps == 0


def test_profile_weights_of_int_weighted_atom_are_exact(elfarol):
    agame = fg.AtomicGame(elfarol, (3,))
    bce = fg.construct_eps_bce(agame, fg.Outcome({"0": ((flow1(F(1, 2), F(1, 2)), 1),)}))
    beta = fg.bce_to_profile_distribution(agame, bce)
    assert [w for _, w in beta["0"]] == [F(1, 3)] * 3
    assert all(isinstance(w, F) for _, w in beta["0"])
    point = fg.construct_eps_bce(agame, fg.Outcome({"0": ((flow1(0, 1), 1),)}))
    brute = fg.check_bce_bruteforce(agame, fg.bce_to_profile_distribution(agame, point))
    assert repr(brute.worst_violation) == repr(fg.check_bce_flowlevel(elfarol, point).worst_violation)
    assert brute.worst_violation == F(1)
    # float weights keep float division
    floated = fg.construct_eps_bce(agame, fg.Outcome({"0": ((flow1(F(1, 2), F(1, 2)), 1.0),)}))
    assert [w for _, w in fg.bce_to_profile_distribution(agame, floated)["0"]] == [1.0 / 3] * 3


def test_bruteforce_rejects_missing_state():
    game = random_congestion_game(3, n_actions=2, n_states=2)
    agame = fg.AtomicGame(game, (3,))
    bce = fg.construct_eps_bce(agame, random_outcome(game, 3, support=1, denominator=3))
    beta = fg.bce_to_profile_distribution(agame, bce)
    assert fg.check_bce_bruteforce(agame, beta).worst_violation == F(11, 9)
    with pytest.raises(ValueError, match="outcome missing state '1'"):
        fg.check_bce_bruteforce(agame, {"0": beta["0"]})


def test_symmetric_bce_flows_must_be_counts():
    outcome = fg.Outcome({"0": ((flow1(F(1, 2), F(1, 2)), F(1)),)})
    with pytest.raises(ValueError, match="not a count vector over 3"):
        fg.SymmetricBCE(outcome, (3,), 0, 0)
    assert fg.SymmetricBCE(outcome, (4,), 0, 0).n == (4,)


def test_flowlevel_reports_missing_state(pigou_info):
    bce = fg.SymmetricBCE(fg.Outcome({"0": ((flow1(1, 0), F(1)),)}), (2,), 0, 0)
    with pytest.raises(ValueError, match="outcome missing state '1'"):
        fg.check_bce_flowlevel(pigou_info, bce)


def test_eps_bce_reports_missing_state(pigou_info):
    partial = fg.Outcome({"0": ((flow1(1, 0), F(1)),)})
    with pytest.raises(ValueError, match="outcome missing state '1'"):
        fg.construct_eps_bce(fg.AtomicGame(pigou_info, (2,)), partial)


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


def test_profile_distribution_profile_cap(elfarol, elfarol_cwe):
    # 2**21 profiles: refused before the 352,716 consistent ones are built
    agame = fg.AtomicGame(elfarol, (21,))
    bce = fg.construct_eps_bce(agame, elfarol_cwe)
    with pytest.raises(ValueError, match="profile space too large"):
        fg.bce_to_profile_distribution(agame, bce)


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


def _highs_w1(atoms1, atoms2):
    """W1 between two atom lists by HiGHS on the full float transport LP."""
    optimize = pytest.importorskip("scipy.optimize")
    n1, n2 = len(atoms1), len(atoms2)
    cost = [
        max(abs(float(x) - float(y)) for x, y in zip(f1.flows[0], f2.flows[0]))
        for f1, _ in atoms1
        for f2, _ in atoms2
    ]
    a_eq = [[float(k // n2 == i) for k in range(n1 * n2)] for i in range(n1)]
    a_eq += [[float(k % n2 == j) for k in range(n1 * n2)] for j in range(n2)]
    b_eq = [float(w) for _, w in atoms1 + atoms2]
    res = optimize.linprog(cost, A_eq=a_eq, b_eq=b_eq, method="highs")
    assert res.status == 0
    return res.fun


def _random_atoms(rng, n_atoms, n_actions, den):
    weights = [rng.randint(1, 9) for _ in range(n_atoms)]
    atoms = []
    for w in weights:
        cuts = sorted(rng.randint(0, den) for _ in range(n_actions - 1))
        counts = [b - a for a, b in zip([0] + cuts, cuts + [den])]
        atoms.append((fg.FlowProfile((tuple(F(c, den) for c in counts),)), F(w, sum(weights))))
    return atoms


def _w1(atoms1, atoms2):
    mu1, mu2 = fg.Outcome({"0": tuple(atoms1)}), fg.Outcome({"0": tuple(atoms2)})
    return fg.wasserstein_outcome_distance(mu1, mu2, {"0": F(1)})


def test_wasserstein_matches_highs():
    rng = random.Random(3)
    cases = [tuple(_random_atoms(rng, rng.randint(1, 5), 3, 8) for _ in "12") for _ in range(40)]
    # Outcome keeps atoms in flow order, so the northwest corner meets these
    # weights in this order: supply 1/2 runs out with demand 1/2, then 1/4
    # with 1/4, each tie leaving a basic cell at 0
    flows = [flow1(0, 1), flow1(F(1, 4), F(3, 4)), flow1(F(1, 2), F(1, 2)), flow1(1, 0)]
    ties = [F(1, 2), F(1, 4), F(1, 4)]
    cases.append((list(zip(flows[:3], ties)), list(zip(flows[1:], ties))))
    cases.append((list(zip(flows[1:], ties)), list(zip(flows[:3], ties))))
    # float weights summing to 1 only within rounding: the last column takes the rest
    cases.append((list(zip(flows[:3], (0.1, 0.2, 0.7))), list(zip(flows[1:], (0.3, 0.3, 0.4)))))
    assert any(len(a) == 1 for a, _ in cases) and any(len(b) == 1 for _, b in cases)
    for atoms1, atoms2 in cases:
        assert abs(_w1(atoms1, atoms2) - _highs_w1(atoms1, atoms2)) <= 1e-12


def test_wasserstein_from_one_atom_is_forced():
    point = [(flow1(1, 0), F(1))]
    spread = [(flow1(F(1, 2), F(1, 2)), F(1, 3)), (flow1(0, 1), F(2, 3))]
    # all mass moves to (or from) the one atom: 1/3 * 1/2 + 2/3 * 1
    assert _w1(point, spread) == _w1(spread, point) == 5 / 6


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
