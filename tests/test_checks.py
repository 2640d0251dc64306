import random
from fractions import Fraction as F

import pytest

import flowgames as fg
from flowgames.checks import _obedience_columns, _row_sums, _term_rows

from conftest import bundled_text


def flow1(*vals):
    return fg.FlowProfile((tuple(F(v) for v in vals),))


def test_cwe_elfarol_distribution_binds(elfarol, elfarol_cwe):
    # 2/3 on (1/2,1/2) and 1/3 on (1,0): switching a to b trades the
    # 1/3 gain at the split flow against the 1/3 loss at the vertex
    report = fg.check_cwe(elfarol, elfarol_cwe.per_state["0"], "0")
    assert report.concept == "cwe"
    assert report.worst_violation == 0
    assert report.witness == ("crowd", "a", "b")


def test_cwe_point_mass_equilibrium(pigou_info):
    report = fg.check_cwe(pigou_info, ((flow1(0, 1), F(1)),), "0")
    assert report.worst_violation == 0


def test_cwe_detects_violation(pigou_info):
    report = fg.check_cwe(pigou_info, ((flow1(1, 0), F(1)),), "0")
    assert report.worst_violation == 2  # everyone pays 3, the other road costs 1
    assert report.witness == ("traffic", "a", "b")


def test_cwe_rejects_bad_distribution(elfarol):
    with pytest.raises(ValueError):
        fg.check_cwe(elfarol, ((flow1(1, 0), F(1, 2)),), "0")
    # the weights sum to 1 but one is negative: refused as Outcome refuses it,
    # by both checks, not scored as a violation of 2
    signed = [(flow1(F(1, 2), F(1, 2)), 2), (flow1(1, 0), -1)]
    for check in (fg.check_cwe, fg.check_ccwe):
        with pytest.raises(ValueError, match="^negative weight -1 in state '0'$"):
            check(elfarol, signed, "0")
    with pytest.raises(ValueError, match="^support of state '0' contains a non-flow$"):
        fg.check_cwe(elfarol, [((1, 0), 1)], "0")


def test_ccwe_elfarol_distribution(elfarol, elfarol_cwe):
    # expected social cost 2/3 equals the opt-out cost of b exactly
    report = fg.check_ccwe(elfarol, elfarol_cwe.per_state["0"], "0")
    assert report.concept == "ccwe"
    assert report.worst_violation == 0
    assert report.witness[-1] == "b"


def test_bcwe_pigou_outcome_binds(pigou_info, pigou_bcwe):
    report = fg.check_bcwe(pigou_info, pigou_bcwe)
    assert report.concept == "bcwe"
    assert report.worst_violation == 0
    assert isinstance(report.worst_violation, F)
    assert report.witness == ("traffic", "a", "b")


def test_bcwe_binding_pair_values(pigou_info, pigou_bcwe):
    # both sides of the binding (a, b) constraint evaluate to 3/4
    obey = F(0)
    deviate = F(0)
    for state, atoms in pigou_bcwe.per_state.items():
        p = pigou_info.prior_of(state)
        for f, w in atoms:
            y_a = f.flows[0][0]
            obey += p * w * y_a * fg.eval_cost(pigou_info, "traffic", "a", f, state)
            deviate += p * w * y_a * fg.eval_cost(pigou_info, "traffic", "b", f, state)
    assert obey == F(3, 4)
    assert deviate == F(3, 4)


def test_bcwe_expected_social_cost(pigou_info, pigou_bcwe):
    total = F(0)
    for state, atoms in pigou_bcwe.per_state.items():
        p = pigou_info.prior_of(state)
        for f, w in atoms:
            total += p * w * fg.social_cost(pigou_info, f, state)
    assert total == 1


def test_bcwe_full_disclosure_has_slack(pigou_info):
    outcome = fg.Outcome(
        {"0": ((flow1(0, 1), F(1)),), "1": ((flow1(1, 0), F(1)),)}
    )
    report = fg.check_bcwe(pigou_info, outcome)
    assert report.worst_violation == F(-1, 2)


def test_bcwe_constant_map_fails(pigou_info):
    outcome = fg.Outcome(
        {"0": ((flow1(1, 0), F(1)),), "1": ((flow1(1, 0), F(1)),)}
    )
    report = fg.check_bcwe(pigou_info, outcome)
    assert report.worst_violation == F(1, 2)
    assert report.witness == ("traffic", "a", "b")


def test_sbcwe_constant_map_fails(pigou_info):
    flow_map = {"0": flow1(1, 0), "1": flow1(1, 0)}
    report = fg.check_sbcwe(pigou_info, flow_map)
    assert report.concept == "sbcwe"
    assert report.worst_violation == F(1, 2)


def test_sbcwe_full_disclosure_passes(pigou_info):
    flow_map = {"0": flow1(0, 1), "1": flow1(1, 0)}
    report = fg.check_sbcwe(pigou_info, flow_map)
    assert report.worst_violation <= 0


def test_sbcwe_from_bcwe_barycenters(pigou_info, pigou_bcwe):
    flow_map, report = fg.sbcwe_from_bcwe(pigou_info, pigou_bcwe)
    assert flow_map["0"].flows[0] == (F(1, 2), F(1, 2))
    assert flow_map["1"].flows[0] == (F(1), F(0))
    # linear costs here, so averaging preserves obedience and total cost
    assert report.hypotheses_hold
    assert report.check.worst_violation == 0
    assert report.input_cost == 1
    assert report.output_cost == 1


@pytest.mark.parametrize(
    "cost_a",
    [
        "1 - y[a]^2",  # y_a c_a = y_a - y_a^3 is concave: the convexity check fails
        "y[a]^2",  # c_a is convex: the concavity check fails
    ],
)
def test_sbcwe_from_bcwe_reports_failed_hypotheses(cost_a):
    game = fg.parse_game_file(
        "[populations]\ncrowd = a, b\n\n[states]\nnames = 0\n\n"
        f"[prior]\n0 = 1\n\n[costs]\ncrowd.a = {cost_a}\ncrowd.b = 1/2\n"
    )
    outcome = fg.Outcome({"0": ((flow1(F(1, 2), F(1, 2)), F(1, 2)), (flow1(1, 0), F(1, 2)))})
    _, report = fg.sbcwe_from_bcwe(game, outcome)
    assert report.hypotheses_hold is False


def test_sbcwe_from_bcwe_reports_missing_state(pigou_info):
    partial = fg.Outcome({"0": ((flow1(1, 0), F(1)),)})
    with pytest.raises(ValueError, match="outcome missing state '1'"):
        fg.sbcwe_from_bcwe(pigou_info, partial)


def test_cbcwe_pigou_outcome(pigou_info, pigou_bcwe):
    report = fg.check_cbcwe(pigou_info, pigou_bcwe)
    assert report.concept == "cbcwe"
    assert report.worst_violation == 0
    assert report.witness[-1] == "b"


def test_cbcwe_constant_map_fails(pigou_info):
    outcome = fg.Outcome(
        {"0": ((flow1(1, 0), F(1)),), "1": ((flow1(1, 0), F(1)),)}
    )
    report = fg.check_cbcwe(pigou_info, outcome)
    assert report.worst_violation == F(1, 2)


SOLO_GAME = """\
[populations]
solo = a

[states]
names = 0, 1

[prior]
0 = 1/2
1 = 1/2

[costs]
solo.a = 1 + theta
"""


@pytest.mark.parametrize("check", [fg.check_bcwe, fg.check_cbcwe])
def test_bayesian_checks_reject_missing_state(check, pigou_info):
    partial = fg.Outcome({"0": ((flow1(1, 0), F(1)),)})
    with pytest.raises(ValueError, match="missing state '1'"):
        check(pigou_info, partial)
    # a one-action population has no obedience rows, but the outcome is
    # still incomplete
    solo = fg.parse_game_file(SOLO_GAME)
    with pytest.raises(ValueError, match="missing state '1'"):
        check(solo, fg.Outcome({"0": ((flow1(1), F(1)),)}))
    assert check(solo, fg.Outcome({s: ((flow1(1), F(1)),) for s in "01"})).witness is None


def test_obedience_rows_order_and_terms(pigou_info, pigou_bcwe, elfarol):
    atoms = [
        (s, pigou_info.prior_of(s) * w, f)
        for s in pigou_info.states
        for f, w in pigou_bcwe.per_state[s]
    ]
    rows = fg.obedience_rows(pigou_info, atoms)
    assert [witness for witness, _ in rows] == [("traffic", "a", "b"), ("traffic", "b", "a")]
    # atoms: state 0 on (0, 1) and (1, 0), then state 1 on (1, 0); c_a is 3
    # in state 0 and 0 in state 1, c_b is 1
    assert rows[0][1] == [0, F(1, 4) * 1 * (3 - 1), F(1, 2) * 1 * (0 - 1)]
    assert rows[1][1] == [F(1, 4) * 1 * (1 - 3), 0, 0]
    coarse = fg.obedience_rows(pigou_info, atoms, coarse=True)
    assert [witness for witness, _ in coarse] == [("traffic", "a"), ("traffic", "b")]
    assert coarse[1][1] == [F(1, 4) * (1 - 1), F(1, 4) * (3 - 1), F(1, 2) * (0 - 1)]
    # with one player in three, c_b is read after that player moves from a
    # to b; on elfarol c_a = 1 and c_b = max(2 - 4 y_b, 4 y_b - 2)
    atoms = [("0", F(1, 2), flow1(F(2, 3), F(1, 3))), ("0", F(1, 2), flow1(1, 0))]
    shifted = fg.obedience_rows(elfarol, atoms, shares=[F(1, 3)])
    # (a, b): c_b at (1/3, 2/3) and at (2/3, 1/3) is 2/3, not the unshifted 2
    assert shifted[0] == (("crowd", "a", "b"), [F(1, 2) * F(2, 3) * (1 - F(2, 3)), F(1, 2) * 1 * (1 - F(2, 3))])
    assert fg.obedience_rows(elfarol, atoms)[0][1][1] == F(1, 2) * 1 * (1 - 2)
    # (b, a): c_a at (1, 0) against c_b = 2/3 at (2/3, 1/3); y_b = 0 at (1, 0)
    assert shifted[1] == (("crowd", "b", "a"), [F(1, 2) * F(1, 3) * (F(2, 3) - 1), 0])
    with pytest.raises(ValueError, match="pairwise rows only"):
        fg.obedience_rows(elfarol, atoms, coarse=True, shares=[F(1, 3)])


def test_obedience_rows_cost_each_positive_atom_once(monkeypatch):
    # a fresh game: a session game keeps its lifted integer costs, which would
    # bypass the counting compiler patched in below
    elfarol = fg.parse_game_file(bundled_text("elfarol.game"))
    calls = []
    real, real_fn, real_int = fg.checks.eval_cost, fg.checks._cost_fn, fg.model._int_cost_fn

    def counting(game, pop, action, flow, state):
        calls.append((action, flow.flows, state))
        return real(game, pop, action, flow, state)

    def compiled(game, pop, action, state):
        cost = real_fn(game, pop, action, state)

        def counted(flows):
            calls.append((action, tuple(map(tuple, flows)), state))
            return cost(flows)

        return counted

    def compiled_int(game, pop, action, state):
        cost, deg, q = real_int(game, pop, action, state)

        def counted(yy, dy):
            calls.append((action, tuple(tuple(F(v, dy) for v in vec) for vec in yy), state))
            return cost(yy, dy)

        return counted, deg, q

    # exact atoms are costed by the integer backend, shifted flows included;
    # float or int-mass atoms by eval_cost and the compiled cost
    monkeypatch.setattr(fg.checks, "eval_cost", counting)
    monkeypatch.setattr(fg.checks, "_cost_fn", compiled)
    monkeypatch.setattr(fg.model, "_int_cost_fn", compiled_int)
    atoms = [("0", F(1, 2), flow1(F(1, 2), F(1, 2))), ("0", 0, flow1(0, 1)), ("0", F(1, 2), flow1(1, 0))]
    rows = fg.obedience_rows(elfarol, atoms)
    # two positive-mass atoms, two actions each; the zero-mass atom is not
    # read, and no shifted flow is costed
    unshifted = [(a, f.flows, "0") for _, m, f in atoms if m != 0 for a in ("a", "b")]
    assert sorted(calls) == sorted(unshifted)
    assert all(terms[1] == 0 and isinstance(terms[1], int) for _, terms in rows)
    # y_b = 0 at (1, 0): the (b, a) row's term there is the integer 0
    assert rows[1][0] == ("crowd", "b", "a")
    assert rows[1][1][2] == 0 and isinstance(rows[1][1][2], int)
    # under shares, one more cost per (a, b, atom with y_a > 0): a -> b and
    # b -> a at (1/2, 1/2), a -> b at (1, 0)
    calls.clear()
    fg.obedience_rows(elfarol, atoms, shares=[F(1, 4)])
    shifted = [
        ("b", ((F(1, 4), F(3, 4)),), "0"),
        ("a", ((F(3, 4), F(1, 4)),), "0"),
        ("b", ((F(3, 4), F(1, 4)),), "0"),
    ]
    assert sorted(calls) == sorted(unshifted + shifted)


def test_builder_lifts_costs_once_per_game_and_state(monkeypatch):
    # a second builder call on the same game and state compiles nothing: the
    # lifted integer costs are kept in the game
    game = fg.parse_game_file(bundled_text("elfarol.game"))
    atoms = [("0", F(1, 2), flow1(F(1, 2), F(1, 2))), ("0", F(1, 2), flow1(1, 0))]
    first = fg.obedience_rows(game, atoms, shares=[F(1, 4)])
    calls = []
    for name in ("_scaled", "_int_cost_fn", "compile_int_cost"):
        real = getattr(fg.model, name)
        monkeypatch.setattr(fg.model, name, lambda *a, real=real, name=name: calls.append(name) or real(*a))
    assert fg.obedience_rows(game, atoms, shares=[F(1, 4)]) == first
    fg.check_bcwe(game, fg.Outcome({"0": [(f, m) for _, m, f in atoms]}))
    assert calls == []


def _reference_rows(game, atoms, coarse=False, shares=None):
    """obedience_rows term by term, each cost read through eval_cost."""
    rows = []
    for k, pop in enumerate(game.populations):
        if len(pop.actions) < 2:
            continue

        def cost(action, flow, state):
            return fg.eval_cost(game, pop.name, action, flow, state)

        if coarse:
            for b in pop.actions:
                terms = []
                for state, mass, flow in atoms:
                    if mass == 0:
                        terms.append(0)
                        continue
                    own = sum(y * cost(a, flow, state) for a, y in zip(pop.actions, flow.flows[k]) if y != 0)
                    terms.append(mass * (own - cost(b, flow, state)))
                rows.append(((pop.name, b), terms))
            continue
        for ja, a in enumerate(pop.actions):
            for jb, b in enumerate(pop.actions):
                if ja == jb:
                    continue
                terms = []
                for state, mass, flow in atoms:
                    y = flow.flows[k][ja]
                    if mass == 0 or y == 0:
                        terms.append(0)
                        continue
                    moved = flow
                    if shares is not None:
                        shifted = [list(vec) for vec in flow.flows]
                        shifted[k][ja] -= shares[k]
                        shifted[k][jb] += shares[k]
                        moved = fg.FlowProfile(shifted)
                    terms.append(mass * y * (cost(a, flow, state) - cost(b, moved, state)))
                rows.append(((pop.name, a, b), terms))
    return rows


def _typed(rows):
    return [(witness, [(type(t), repr(t)) for t in terms]) for witness, terms in rows]


INT_GAME = (
    "[populations]\ncrowd = a, b, c\n\n[states]\nnames = 0\n\n[prior]\n0 = 1\n\n"
    "[costs]\ncrowd.a = y[a]\ncrowd.b = y[a] * y[b]\ncrowd.c = y[c] + 1\n"
)


# costs with fractional constants, so that their integer backends carry q > 1
FRACTION_GAME = (
    "[populations]\ncrowd = a, b, c\n\n[states]\nnames = 0\n\n[prior]\n0 = 1\n\n"
    "[costs]\ncrowd.a = 1/3 + 2/5*y[a]\ncrowd.b = 3/7*y[b]^2 - 1/2\ncrowd.c = max(1/6, 3/4*y[c])\n"
)


@pytest.mark.parametrize(
    "name", ["pigou_info", "elfarol", "random", "two_pops", "quadratic", "ints", "fractions"]
)
def test_obedience_rows_match_term_by_term_reference(name, request):
    # exact, float and int-mass atoms, and a zero-mass one, through pairwise,
    # coarse and shares rows: the same values in the same types
    from flowgames.generators import random_congestion_game, random_outcome

    game = {
        "random": lambda: random_congestion_game(4, n_actions=4, n_states=2),
        "two_pops": lambda: random_congestion_game(5, n_actions=3, n_states=2, n_pops=2),
        "quadratic": lambda: random_congestion_game(0, n_actions=3, quadratic=True),
        "ints": lambda: fg.parse_game_file(INT_GAME),
        "fractions": lambda: fg.parse_game_file(FRACTION_GAME),
    }.get(name, lambda: request.getfixturevalue(name))()
    outcome = random_outcome(game, 7, support=3, denominator=4)
    exact = [(s, game.prior_of(s) * F(1, 3), f) for s in game.states for f, _ in outcome.per_state[s]]
    floats = [
        (s, float(m), fg.FlowProfile(tuple(tuple(float(v) for v in vec) for vec in f.flows)))
        for s, m, f in exact
    ]
    int_mass = [(s, 1, f) for s, _, f in exact]
    zero = [(exact[0][0], 0, exact[0][2])]
    atoms = exact + floats + int_mass + zero
    if name == "ints":
        ones = fg.FlowProfile(((1, 0, 0),))
        atoms += [("0", 1, ones), ("0", 2, fg.FlowProfile(((0, 1, 0),))), ("0", F(1, 2), ones)]
    shares = [F(1, 4)] * len(game.populations)
    # float shares make every atom a float one, costed through eval_cost
    float_shares = [0.25] * len(game.populations)
    for kwargs in ({}, {"coarse": True}, {"shares": shares}, {"shares": float_shares}):
        got = fg.obedience_rows(game, atoms, **kwargs)
        assert _typed(got) == _typed(_reference_rows(game, atoms, **kwargs)), kwargs
    # the design LP's simplex columns: a head on each atom's equality row,
    # the same terms after it, and each mass times its social cost: an int
    # numerator over the column's d for an exact atom, else the value itself
    eq_rows = [game.states.index(s) for s, _, _ in atoms]
    for kwargs in ({}, {"coarse": True}):
        witnesses, columns, socials = _obedience_columns(game, atoms, eq_rows=eq_rows, **kwargs)
        assert [col[0] for _, col in columns] == [(i, d or 1) for i, (d, _) in zip(eq_rows, columns)]
        got = _term_rows(witnesses, columns, max(eq_rows) + 1)
        assert _typed(got) == _typed(_reference_rows(game, atoms, **kwargs)), kwargs
        assert all(type(v) is int for v, (d, _) in zip(socials, columns) if d is not None)
        got = [v if d is None else F(v, d) for v, (d, _) in zip(socials, columns)]
        want = [m * fg.social_cost(game, f, s) for s, m, f in atoms]
        assert [(type(v), repr(v)) for v in got] == [(type(v), repr(v)) for v in want]
    if name == "ints":
        # at (1, 0, 0) with mass 1, c_a = 1 and c_b = 0 are ints but c_c = 1
        # is a Fraction: a nonzero int term beside a Fraction one
        (_, ab), (_, ac) = fg.obedience_rows(game, atoms)[:2]
        assert (type(ab[-3]), ab[-3], type(ac[-3]), ac[-3]) == (int, 1, F, 0)


@pytest.mark.parametrize("seed", range(8))
def test_lattice_counts_give_the_columns_of_their_fractions(seed):
    # the design workload's shapes (4 actions at resolution 8, 3 at 16) and
    # two-population grids: columns built from the counts over a lattice
    # flow's carried resolution equal, entry by entry as Fraction(k, d), those
    # built through _int_flows from its entries, and each int objective
    # numerator over its d is mass * social_cost; with no shares, shares
    # whose denominator divides the resolution and shares whose does not
    from flowgames.generators import random_congestion_game

    rng = random.Random(seed)
    n_actions, n_pops, resolution = [(4, 1, 8), (3, 1, 16), (3, 2, 4), (2, 2, 6)][seed % 4]
    game = random_congestion_game(seed, n_actions=n_actions, n_states=2, n_pops=n_pops)
    flows = fg.grid_flows(game, resolution)
    atoms = [(s, game.prior_of(s) * F(rng.randint(0, 3), rng.randint(1, 5)), f) for s in game.states for f in flows]
    plain = [(s, m, fg.FlowProfile(f.flows)) for s, m, f in atoms]
    assert all(f._resolution == resolution for f in flows) and all(f._resolution is None for _, _, f in plain)
    eq_rows = [game.states.index(s) for s, _, _ in atoms]
    off = F(1, resolution + rng.randint(1, 5))
    for kwargs in ({}, {"coarse": True}, {"shares": [F(1, resolution)] * n_pops}, {"shares": [off] * n_pops}):
        witnesses, columns, socials = _obedience_columns(game, atoms, eq_rows=eq_rows, **kwargs)
        want_witnesses, want_columns, _ = _obedience_columns(game, plain, eq_rows=eq_rows, **kwargs)
        assert witnesses == want_witnesses
        assert [[(i, F(k, d)) for i, k in col] for d, col in columns] == [
            [(i, F(k, d)) for i, k in col] for d, col in want_columns
        ], kwargs
        for (s, m, f), (d, _), v in zip(atoms, columns, socials):
            assert type(v) is int and F(v, d) == m * fg.social_cost(game, f, s)


# two states, a one-action population beside a three-action one, and costs
# that cross populations, read theta or take a max
MIXED_GAME = (
    "[populations]\ncrowd = a, b, c\nsolo = s\n\n[states]\nnames = 0, 1\n\n[prior]\n0 = 1/3\n1 = 2/3\n\n"
    "[costs]\ncrowd.a = 1/3 + 2*y[crowd][a] + y[solo][s]\ncrowd.b = theta*y[crowd][b] + 1/2\n"
    "crowd.c = max(1/6, 3/4*y[crowd][c])\nsolo.s = y[crowd][a] + 1\n"
)


@pytest.mark.parametrize("name", ["mixed", "two_pops"])
def test_builder_setup_per_run_leaks_into_no_other_run(name):
    # one call over atoms that change state, live or zero mass and kind from
    # one to the next: lattice flows of two resolutions, exact flows off the
    # lattice, float flows, int masses and Fraction masses on float flows.
    # The rows equal the term-by-term reference, each column the one its atom
    # gets alone, and each social mass * social_cost
    from flowgames.generators import random_congestion_game, random_rational_flow

    if name == "mixed":
        game = fg.parse_game_file(MIXED_GAME)
    else:
        game = random_congestion_game(5, n_actions=3, n_states=2, n_pops=2)
    rng = random.Random(1)
    lattice = [f for r in (2, 4) for f in fg.grid_flows(game, r)]

    def floated(f):
        return fg.FlowProfile(tuple(tuple(float(v) for v in vec) for vec in f.flows))

    kinds = [
        lambda f: (F(rng.randint(1, 5), 7), f),
        lambda f: (F(rng.randint(1, 5), 7), fg.FlowProfile(f.flows)),
        lambda f: (F(rng.randint(1, 5), 7), random_rational_flow(game, rng.randrange(99), denominator=6)),
        lambda f: (F(0), f),
        lambda f: (rng.random(), floated(f)),
        lambda f: (F(1, 3), floated(f)),
        lambda f: (rng.randint(1, 2), f),
        lambda f: (0, f),
        lambda f: (0.0, floated(f)),
    ]
    atoms = [(rng.choice(game.states), *rng.choice(kinds)(rng.choice(lattice))) for _ in range(60)]
    assert any(f._resolution == 2 for _, _, f in atoms) and any(f._resolution == 4 for _, _, f in atoms)
    n_pops = len(game.populations)
    for kwargs in ({}, {"coarse": True}, {"shares": [F(1, 8)] * n_pops}, {"shares": [0.125] * n_pops}):
        got = fg.obedience_rows(game, atoms, **kwargs)
        assert _typed(got) == _typed(_reference_rows(game, atoms, **kwargs)), kwargs
        columns = _obedience_columns(game, atoms, **kwargs)[1]
        alone = [_obedience_columns(game, [atom], **kwargs)[1][0] for atom in atoms]
        assert repr(columns) == repr(alone), kwargs
    eq_rows = [game.states.index(s) for s, _, _ in atoms]
    for kwargs in ({}, {"coarse": True}):
        witnesses, columns, socials = _obedience_columns(game, atoms, eq_rows=eq_rows, **kwargs)
        got = _term_rows(witnesses, columns, max(eq_rows) + 1)
        assert _typed(got) == _typed(_reference_rows(game, atoms, **kwargs)), kwargs
        got = [v if d is None else F(v, d) for v, (d, _) in zip(socials, columns)]
        want = [m * fg.social_cost(game, f, s) for s, m, f in atoms]
        assert [(type(v), repr(v)) for v in got] == [(type(v), repr(v)) for v in want]


def _sum_rows(game, atoms, **kwargs):
    """Each obedience row's terms added left to right onto the int 0."""
    rows = []
    for w, terms in fg.obedience_rows(game, atoms, **kwargs):
        total = 0
        for term in terms:
            total = total + term
        rows.append((w, total))
    return rows


def _typed_sums(rows):
    return [(w, type(v), repr(v)) for w, v in rows]


@pytest.mark.parametrize("seed", range(12))
def test_row_sums_are_the_sums_of_the_rows_terms(seed):
    # _row_sums is sum(terms) of each obedience row, in value and type, over
    # pairwise, coarse and shares rows, and exact, float, int-mass and mixed atoms
    from flowgames.generators import random_congestion_game, random_outcome

    rng = random.Random(seed)
    n_pops = rng.choice((1, 2))
    game = random_congestion_game(
        seed, n_actions=rng.choice((2, 3, 4)), n_states=rng.choice((1, 2)), n_pops=n_pops, quadratic=rng.random() < 0.3
    )
    den = rng.choice((2, 3, 4, 6))
    outcome = random_outcome(game, seed, support=rng.choice((1, 2, 3)), denominator=den)
    exact = [(s, game.prior_of(s) * w, f) for s in game.states for f, w in outcome.per_state[s]]
    # a zero-mass Fraction atom keeps its column exact, with no entry
    exact.append((exact[0][0], F(0), exact[0][2]))
    floats = [
        (s, float(m), fg.FlowProfile(tuple(tuple(float(v) for v in vec) for vec in f.flows)))
        for s, m, f in exact
    ]
    int_mass = [(s, 1, f) for s, _, f in exact] + [(exact[0][0], 0, exact[0][2])]
    mixed = exact + floats + int_mass
    rng.shuffle(mixed)
    shares = [F(1, 2 * den)] * n_pops
    for atoms in (exact, floats, int_mass, mixed):
        for kwargs in ({}, {"coarse": True}, {"shares": shares}):
            got = _row_sums(*_obedience_columns(game, atoms, **kwargs)[:2])
            assert _typed_sums(got) == _typed_sums(_sum_rows(game, atoms, **kwargs)), kwargs


def test_float_sums_add_left_to_right():
    # from Python 3.12 on, sum() adds floats with compensation and gives 1.0
    # for ten 0.1s; the sums that promise left-to-right order give 1 - 2**-53
    # on every version
    from flowgames.generators import random_congestion_game
    from flowgames.model import _fold, _sum

    terms = [0.1] * 10
    assert _fold(terms) == _sum(terms) == 0.9999999999999999
    assert _row_sums(["w"], [(None, [(0, 0.1)])] * 10) == [("w", 0.9999999999999999)]
    # so does a coarse row's own cost sum(y_j c_j), 1.1625000000000003 with sum()
    flow = fg.FlowProfile(((0.1, 0.2, 0.3, 0.15, 0.25),))
    report = fg.check_ccwe(random_congestion_game(21, n_actions=5), [(flow, 1)], "0")
    assert report.worst_violation == 1.1624999999999999
    # mixed terms add one at a time, as ints, Fractions and floats add
    assert _fold([1, F(1, 2), 0.25]) == 1.75 and type(_fold([1, F(1, 2)])) is F
    assert _fold([]) == 0 and type(_fold([])) is int


def test_row_sums_of_rows_without_entries_or_with_zero_entries():
    # equal constant costs: every entry is an exact zero, so each row sums to
    # Fraction(0); at the vertex (1, 0) the (b, a) row has no entry and sums
    # to the int 0, as does every row of a zero-mass atom alone
    game = fg.parse_game_file(
        "[populations]\ncrowd = a, b\n\n[states]\nnames = 0\n\n[prior]\n0 = 1\n\n"
        "[costs]\ncrowd.a = 1\ncrowd.b = 1\n"
    )
    split, vertex = flow1(F(1, 2), F(1, 2)), flow1(1, 0)
    cases = [
        [("0", F(1), split)],
        [("0", F(1, 3), vertex), ("0", F(2, 3), vertex)],
        [("0", F(0), split)],
        [],
    ]
    for atoms in cases:
        for kwargs in ({}, {"coarse": True}, {"shares": [F(1, 4)]}):
            got = _row_sums(*_obedience_columns(game, atoms, **kwargs)[:2])
            assert _typed_sums(got) == _typed_sums(_sum_rows(game, atoms, **kwargs)), (atoms, kwargs)
    got = _row_sums(*_obedience_columns(game, cases[0])[:2]) + _row_sums(*_obedience_columns(game, cases[1])[:2])
    assert _typed_sums(got) == [
        (("crowd", "a", "b"), F, "Fraction(0, 1)"),
        (("crowd", "b", "a"), F, "Fraction(0, 1)"),
        (("crowd", "a", "b"), F, "Fraction(0, 1)"),
        (("crowd", "b", "a"), int, "0"),
    ]


def test_player_share_above_the_flow_is_refused(elfarol):
    # one player of mass 1/2 cannot leave a, which carries only 1/4
    atoms = [("0", F(1), flow1(F(1, 4), F(3, 4)))]
    with pytest.raises(ValueError, match="share 1/2 exceeds the flow 1/4"):
        fg.obedience_rows(elfarol, atoms, shares=[F(1, 2)])
    assert len(fg.obedience_rows(elfarol, atoms, shares=[F(1, 4)])) == 2


def test_checks_report_the_first_worst_row():
    # equal constant costs: every row sums to 0, so the first row is the witness
    game = fg.parse_game_file(
        "[populations]\ncrowd = a, b\n\n[states]\nnames = 0\n\n[prior]\n0 = 1\n\n"
        "[costs]\ncrowd.a = 1\ncrowd.b = 1\n"
    )
    dist = ((flow1(F(1, 2), F(1, 2)), F(1)),)
    assert fg.check_cwe(game, dist, "0").witness == ("crowd", "a", "b")
    assert fg.check_ccwe(game, dist, "0").witness == ("crowd", "a")
    outcome = fg.Outcome({"0": dist})
    assert fg.check_bcwe(game, outcome).witness == ("crowd", "a", "b")
    assert fg.check_cbcwe(game, outcome).witness == ("crowd", "a")


def test_per_state_tables_reject_an_unknown_state(elfarol, elfarol_cwe):
    # every reader of a per-state outcome refuses a state the game lacks
    # rather than skipping it
    extra = fg.Outcome({**elfarol_cwe.per_state, "zz": ((flow1(F(1, 2), F(1, 2)), F(1)),)})
    calls = [
        lambda: fg.check_bcwe(elfarol, extra),
        lambda: fg.check_cbcwe(elfarol, extra),
        lambda: fg.check_sbcwe(elfarol, {s: atoms[0][0] for s, atoms in extra.per_state.items()}),
        lambda: fg.check_bce_flowlevel(elfarol, fg.SymmetricBCE(extra, (2,), 0, 0)),
        lambda: fg.sbcwe_from_bcwe(elfarol, extra),
        lambda: fg.direct_structure_from_bcwe(elfarol, extra, 2),
        lambda: fg.write_outcome_file(extra, elfarol),
        lambda: fg.convergence_run(elfarol, extra, [2]),
    ]
    for call in calls:
        with pytest.raises(ValueError, match="^unknown state 'zz'$"):
            call()
