import functools
import math
import random
import re
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import flowgames as fg
from flowgames.generators import full_disclosure_outcome, random_congestion_game, random_rational_flow
from flowgames.model import (
    Add,
    Const,
    CostParseError,
    EvaluationError,
    FlowVar,
    MASS_TOL,
    MaxOf,
    MinOf,
    Mul,
    Neg,
    Population,
    Pow,
    StateCoef,
    Sub,
    ThetaVal,
    _largest_remainder_counts,
    _Record,
    _round_outcome,
    _trusted_profile,
    compile_cost,
    compile_int_cost,
    flow_sort_key,
)


def flow1(*vals):
    return fg.FlowProfile((tuple(F(v) for v in vals),))


def test_parse_format_canonical():
    # canonical strings survive a parse/format round trip unchanged
    for text in [
        "1",
        "3 - 3*theta",
        "max(2 - 4*y[b], 4*y[b] - 2)",
        "2/3*y[a]",
        "y[a]^2",
        "-y[a]",
        "min(y[a], 2)",
    ]:
        assert fg.format_expr(fg.parse_cost(text)) == text


def test_parse_format_normalizes():
    assert fg.format_expr(fg.parse_cost("y[a] ** 2")) == "y[a]^2"
    assert fg.format_expr(fg.parse_cost("2 / 3 * y[a]")) == "2/3*y[a]"


def test_parse_error_columns():
    # .column is 0-based; the message renders it 1-based
    cases = [
        ("2 +", 3),
        ("", 0),
        ("y[", 2),
        ("max(1, 2", 8),
        ("3 * * 2", 4),
        ("foo(1)", 0),
    ]
    for text, col in cases:
        with pytest.raises(CostParseError) as err:
            fg.parse_cost(text)
        assert err.value.column == col
        assert f"column {col + 1}" in str(err.value)


def test_parse_error_unexpected_character():
    with pytest.raises(CostParseError, match=re.escape("column 6: unexpected character '$'")) as err:
        fg.parse_cost("y[a] $ 1")
    assert err.value.column == 5


def test_division_only_in_rational_literals():
    with pytest.raises(CostParseError):
        fg.parse_cost("y[a] / 2")
    with pytest.raises(CostParseError):
        fg.parse_cost("1 / y[a]")


def test_eval_exact_on_rationals(elfarol):
    c_b = fg.eval_cost(elfarol, "crowd", "b", flow1(F(1, 2), F(1, 2)), "0")
    assert c_b == 0
    assert isinstance(c_b, F)
    assert fg.eval_cost(elfarol, "crowd", "b", flow1(F(3, 4), F(1, 4)), "0") == 1
    assert fg.eval_cost(elfarol, "crowd", "b", flow1(1, 0), "0") == 2


def test_eval_float_input_gives_float(elfarol):
    c_b = fg.eval_cost(elfarol, "crowd", "b", fg.FlowProfile(((0.5, 0.5),)), "0")
    assert isinstance(c_b, float)
    assert abs(c_b) < 1e-12
    # float bits pinned: Fraction coefficients meet float flows in tree order
    game = random_congestion_game(0, n_actions=3, n_states=2, quadratic=True)
    f = fg.FlowProfile(((0.1, 0.2, 0.7),))
    assert repr(fg.eval_cost(game, "pop", "a2", f, "1")) == "5.079999999999999"
    assert repr(fg.eval_cost(game, "pop", "a0", f, "0")) == "0.22000000000000003"


def test_theta_substitutes_state(pigou_info):
    f = flow1(F(1, 2), F(1, 2))
    assert fg.eval_cost(pigou_info, "traffic", "a", f, "0") == 3
    assert fg.eval_cost(pigou_info, "traffic", "a", f, "1") == 0
    assert fg.eval_cost(pigou_info, "traffic", "b", f, "0") == 1
    # a cost compiled for known states does not answer for an unknown one
    with pytest.raises(ValueError):
        fg.eval_cost(pigou_info, "traffic", "a", f, "2")


def test_theta_needs_numeric_state_name():
    pop = Population("crowd", ("a", "b"))
    game = fg.GameSpec(
        (pop,),
        ("wet",),
        (F(1),),
        {("crowd", "a"): fg.parse_cost("theta"), ("crowd", "b"): fg.parse_cost("theta[dry=1]")},
    )
    # theta on a non-numeric state, and a state table that misses the state
    for action in ("a", "b"):
        with pytest.raises(EvaluationError):
            fg.eval_cost(game, "crowd", action, flow1(F(1, 2), F(1, 2)), "wet")


def test_unknown_action_reference_rejected_at_eval():
    pop = Population("crowd", ("a", "b"))
    game = fg.GameSpec(
        (pop,),
        ("0",),
        (F(1),),
        {("crowd", "a"): fg.parse_cost("y[zzz]"), ("crowd", "b"): fg.parse_cost("1")},
    )
    with pytest.raises(ValueError):
        fg.eval_cost(game, "crowd", "a", flow1(F(1, 2), F(1, 2)), "0")
    # a bare y[a] is ambiguous once there are two populations
    two = fg.GameSpec(
        (Population("p", ("a",)), Population("q", ("a",))),
        ("0",),
        (F(1),),
        {("p", "a"): fg.parse_cost("y[a]"), ("q", "a"): fg.parse_cost("y[q][a]")},
    )
    with pytest.raises(ValueError):
        fg.eval_cost(two, "p", "a", fg.FlowProfile(((F(1),), (F(1),))), "0")


def test_power_and_minmax_eval():
    pop = Population("p", ("a", "b", "c"))
    game = fg.GameSpec(
        (pop,),
        ("0",),
        (F(1),),
        {
            ("p", "a"): fg.parse_cost("y[a]^2 + min(y[a], 2)"),
            ("p", "b"): fg.parse_cost("max(y[a], y[b], 1)"),
            ("p", "c"): fg.parse_cost("-y[a] - theta[1=5, 0=2]*y[b]"),
        },
    )
    f = flow1(F(3, 4), F(1, 4), 0)
    assert fg.eval_cost(game, "p", "a", f, "0") == F(9, 16) + F(3, 4)
    assert fg.eval_cost(game, "p", "b", f, "0") == 1
    assert fg.eval_cost(game, "p", "c", f, "0") == F(-5, 4)


def _walk(node, flows, state):
    """Plain recursive evaluation with Python's operators, the reference for
    compile_cost; one population with actions a, b, c."""
    if isinstance(node, Const):
        return node.value
    if isinstance(node, FlowVar):
        return flows[0]["abc".index(node.action)]
    if isinstance(node, ThetaVal):
        return F(state)
    if isinstance(node, StateCoef):
        return dict(node.table)[state]
    if isinstance(node, Neg):
        return -_walk(node.arg, flows, state)
    if isinstance(node, Add):
        return _walk(node.left, flows, state) + _walk(node.right, flows, state)
    if isinstance(node, Sub):
        return _walk(node.left, flows, state) - _walk(node.right, flows, state)
    if isinstance(node, Mul):
        return _walk(node.left, flows, state) * _walk(node.right, flows, state)
    if isinstance(node, MaxOf):
        return max(_walk(a, flows, state) for a in node.args)
    if isinstance(node, MinOf):
        return min(_walk(a, flows, state) for a in node.args)
    return _walk(node.base, flows, state) ** node.exponent


def _cost_trees(depth):
    small = st.fractions(min_value=-4, max_value=4, max_denominator=8)
    leaves = st.one_of(
        st.builds(Const, small),
        st.builds(FlowVar, st.none(), st.sampled_from("abc")),
        st.just(ThetaVal()),
        st.builds(lambda u, v: StateCoef((("3/2", u), ("x", v))), small, small),
    )
    if depth == 0:
        return leaves
    sub = _cost_trees(depth - 1)
    return st.one_of(
        leaves,
        st.builds(Neg, sub),
        st.builds(Add, sub, sub),
        st.builds(Sub, sub, sub),
        st.builds(Mul, sub, sub),
        st.builds(lambda *args: MaxOf(args), sub, sub),
        st.builds(lambda *args: MinOf(args), sub, sub, sub),
        st.builds(Pow, sub, st.integers(0, 3)),
    )


@settings(max_examples=200, deadline=None)
@given(
    _cost_trees(4),
    st.tuples(*[st.floats(-2, 2, allow_nan=False)] * 3),
    st.tuples(*[st.fractions(min_value=-2, max_value=2, max_denominator=16)] * 3),
)
def test_compiled_cost_is_the_plain_walk_bit_for_bit(expr, floats, fractions):
    # float constants stand in for Fractions only where Python would convert
    # them itself: every value keeps the type and repr of the plain walk
    pop = Population("p", ("a", "b", "c"))
    game = fg.GameSpec((pop,), ("3/2",), (F(1),), {("p", a): Const(0) for a in "abc"})
    cost = compile_cost(game, expr, "3/2")
    for flows in ((floats,), (fractions,)):
        got, want = cost(flows), _walk(expr, flows, "3/2")
        assert type(got) is type(want)
        assert repr(got) == repr(want)


@pytest.mark.parametrize("node", [Add, Sub, Mul])
@pytest.mark.parametrize("constant_left", [True, False])
def test_compiled_cost_beyond_float_range_is_the_plain_walk(node, constant_left):
    # float(10**400) overflows at compile time: a float flow then raises as
    # the walk does, and an exact flow gets the walk's exact value
    huge, y = Const(10**400), FlowVar(None, "b")
    expr = node(huge, y) if constant_left else node(y, huge)
    pop = Population("p", ("a", "b", "c"))
    game = fg.GameSpec((pop,), ("3/2",), (F(1),), {("p", a): Const(0) for a in "abc"})
    cost = compile_cost(game, expr, "3/2")
    floats = ((0.25, 0.5, 0.25),)
    with pytest.raises(OverflowError):
        _walk(expr, floats, "3/2")
    with pytest.raises(OverflowError):
        cost(floats)
    fractions = ((F(1, 4), F(1, 2), F(1, 4)),)
    got, want = cost(fractions), _walk(expr, fractions, "3/2")
    assert type(got) is type(want)
    assert got == want


def _int_value(game, expr, state, flows, scale=1):
    """compile_int_cost's value at exact ``flows``, given as numerators over
    ``scale`` times their least common denominator."""
    fn, deg, q = compile_int_cost(game, expr, state)
    dy = scale * math.lcm(*(v.denominator for vec in flows for v in vec))
    n = fn([[v.numerator * (dy // v.denominator) for v in vec] for vec in flows], dy)
    assert type(n) is int
    return F(n, dy**deg * q)


def _crowd_game(cost_a, cost_b="1"):
    return fg.parse_game_file(
        "[populations]\ncrowd = a, b\n\n[states]\nnames = 0\n\n"
        f"[prior]\n0 = 1\n\n[costs]\ncrowd.a = {cost_a}\ncrowd.b = {cost_b}\n"
    )


def test_cost_overflow_is_an_evaluation_error():
    # a float cost beyond float range names the cost instead of raising a bare
    # OverflowError: in eval_cost, in best response, and in the obedience
    # builder's deviation costs under player shares
    half = fg.FlowProfile(((0.5, 0.5),))
    message = "cost of ('crowd', 'a') is too large for a float at ((0.5, 0.5),)"
    huge = _crowd_game(f"{10**400}*y[a]")
    with pytest.raises(EvaluationError, match=re.escape(message)):
        fg.eval_cost(huge, "crowd", "a", half, "0")
    with pytest.raises(EvaluationError, match=re.escape(message)):
        fg.solve_we_br(huge, "0", half)
    # (2 y_b)^2000 is 1 at y_b = 1/2 but overflows once a player of share 1/4 joins b
    steep = _crowd_game("1", "(2*y[b])^2000")
    rows = fg.obedience_rows(steep, [("0", 1.0, half)])
    assert rows == [(("crowd", "a", "b"), [0.0]), (("crowd", "b", "a"), [0.0])]
    message = "cost of ('crowd', 'b') is too large for a float at [[0.25, 0.75]]"
    with pytest.raises(EvaluationError, match=re.escape(message)):
        fg.obedience_rows(steep, [("0", 1.0, half)], shares=[F(1, 4)])


def test_non_finite_cost_is_an_evaluation_error():
    game = _crowd_game("y[a]*10^300*10^300")
    message = "cost of ('crowd', 'a') is not finite at ((0.5, 0.5),)"
    with pytest.raises(EvaluationError, match=re.escape(message)):
        fg.eval_cost(game, "crowd", "a", fg.FlowProfile(((0.5, 0.5),)), "0")


@settings(max_examples=200, deadline=None)
@given(
    _cost_trees(4),
    st.tuples(*[st.fractions(min_value=-2, max_value=2, max_denominator=16)] * 3),
    st.integers(1, 6),
)
def test_int_cost_is_the_compiled_cost(expr, fractions, scale):
    pop = Population("p", ("a", "b", "c"))
    game = fg.GameSpec((pop,), ("3/2",), (F(1),), {("p", a): Const(0) for a in "abc"})
    want = compile_cost(game, expr, "3/2")((fractions,))
    assert _int_value(game, expr, "3/2", (fractions,), scale) == want


# one population p of actions a, b, c, or also r of actions c, d
_POPS = (Population("p", ("a", "b", "c")), Population("r", ("c", "d")))
_LINEAR_GAMES = [
    fg.GameSpec(pops, ("3/2", "x"), (F(1, 2), F(1, 2)), {(p.name, a): Const(0) for p in pops for a in p.actions})
    for pops in (_POPS[:1], _POPS)
]


@functools.cache
def _flow_vars(two):
    return st.sampled_from([FlowVar(p.name, a) for p in _POPS[: 1 + two] for a in p.actions])


@functools.cache
def _affine_trees(two):
    """Cost trees of degree at most 1 with no max or min: constants, flow
    variables, and their negations, sums, differences, products with a
    constant, and powers 0 and 1."""
    small = st.fractions(min_value=-4, max_value=4, max_denominator=8)
    constants = st.one_of(
        st.builds(Const, small),
        st.just(ThetaVal()),
        st.builds(lambda u, v: StateCoef((("3/2", u), ("x", v))), small, small),
    )

    def extend(sub):
        constant = st.one_of(constants, st.builds(Pow, sub, st.just(0)))
        return st.one_of(
            st.builds(Add, sub, sub),
            st.builds(Sub, sub, sub),
            st.builds(Mul, constant, sub),
            st.builds(Mul, sub, constant),
            st.builds(Neg, sub),
            st.builds(Pow, sub, st.sampled_from((0, 1))),
        )

    flows = _flow_vars(two)
    return st.recursive(st.one_of(flows, st.builds(Mul, constants, flows), constants), extend, max_leaves=12)


def _int_point(data, game):
    sizes = [len(p.actions) for p in game.populations]
    yy = [data.draw(st.lists(st.integers(-50, 50), min_size=n, max_size=n)) for n in sizes]
    return yy, data.draw(st.integers(1, 60))


def _is_linear_closure(fn):
    return fn.__qualname__.startswith("_linear.")


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_affine_int_cost_is_one_linear_closure(data):
    # a cost of degree 1 with no max or min is one closure k0*dy + sum k*yy;
    # max(e, e) is e by the tree's nested functions, with the same (deg, q)
    two = data.draw(st.booleans())
    game, a, b = _LINEAR_GAMES[two], data.draw(_affine_trees(two)), data.draw(_affine_trees(two))
    points = [_int_point(data, game) for _ in range(3)]
    for expr in (a, Add(a, b), Sub(b, a)):
        fn, deg, q = compile_int_cost(game, expr, "3/2")
        tree, tree_deg, tree_q = compile_int_cost(game, MaxOf((expr, expr)), "3/2")
        assert (deg, q) == (tree_deg, tree_q) and deg <= 1
        assert _is_linear_closure(fn) == (deg == 1)
        assert not _is_linear_closure(tree)
        for yy, dy in points:
            assert fn(yy, dy) == tree(yy, dy)


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_max_min_and_higher_degree_costs_keep_the_tree(data):
    two = data.draw(st.booleans())
    game = _LINEAR_GAMES[two]
    # each side reads a flow, so that its degree is 1
    a, b = (Add(data.draw(_affine_trees(two)), data.draw(_flow_vars(two))) for _ in range(2))
    expr = data.draw(st.sampled_from([MaxOf((a, b)), MinOf((a, b)), Mul(a, b), Pow(a, 2), Add(Pow(b, 3), a)]))
    fn, deg, q = compile_int_cost(game, expr, "3/2")
    assert not _is_linear_closure(fn)
    yy, dy = _int_point(data, game)
    flows = [[F(v, dy) for v in vec] for vec in yy]
    assert F(fn(yy, dy), dy**deg * q) == compile_cost(game, expr, "3/2")(flows)


@pytest.mark.parametrize(
    "text",
    [
        "7/3",  # Const
        "y[p][b]",  # FlowVar
        "y[c]",  # bare y[a]
        "theta",  # ThetaVal
        StateCoef((("3/2", F(5, 4)), ("x", F(2)))),
        "-y[a]",  # Neg
        "1/2 + y[a]",  # Add
        "y[a] - 3/4*y[b]^2",  # Sub
        "2/3*y[a]*y[b]",  # Mul
        "max(2 - 4*y[b], 4*y[b]*y[c] - 2/5)",  # MaxOf
        "min(y[a], 1/3, theta*y[c]^2)",  # MinOf
        "(y[a] + 1/2)^3",  # Pow
        "(y[a] - y[b])^0",  # Pow with exponent 0
        "y[a]^0*y[b]^2 + 1/7",
    ],
)
def test_int_cost_on_every_node(text):
    pop = Population("p", ("a", "b", "c"))
    game = fg.GameSpec((pop,), ("3/2", "x"), (F(1, 2), F(1, 2)), {("p", a): Const(0) for a in "abc"})
    expr = fg.parse_cost(text) if isinstance(text, str) else text
    for flows in (((F(1, 2), F(1, 4), F(1, 4)),), ((F(1, 3), F(2, 7), F(8, 21)),), ((1, 0, 0),)):
        for scale in (1, 3):
            assert _int_value(game, expr, "3/2", flows, scale) == compile_cost(game, expr, "3/2")(flows)


def test_state_coef_holds_fractions_like_const():
    # a hand-built table of floats and ints is stored as Fractions, so the
    # closure and the integer backend read the same exact constants
    pop = Population("p", ("a", "b"))
    game = fg.GameSpec((pop,), ("0",), (F(1),), {("p", a): Const(0) for a in "ab"})
    coef = StateCoef((("0", 0.1), ("1", 2)))
    assert coef == StateCoef((("0", F(0.1)), ("1", F(2))))
    assert all(type(v) is F for _, v in coef.table)
    expr = Mul(coef, FlowVar(None, "a"))
    flows = ((F(1, 3), F(2, 3)),)
    assert compile_cost(game, expr, "0")(flows) == F(0.1) / 3
    assert _int_value(game, expr, "0", flows) == F(0.1) / 3
    # a non-finite value fails at construction, as in Const
    for bad in (float("nan"), float("inf")):
        with pytest.raises((ValueError, OverflowError)):
            Const(bad)
        with pytest.raises((ValueError, OverflowError)):
            StateCoef((("0", bad),))


def _non_lattice_flow(game, rng):
    """An exact flow whose entries have unrelated denominators."""
    flows = []
    for pop in game.populations:
        head = [F(rng.randint(0, 3), rng.randint(3, 13)) / len(pop.actions) for _ in pop.actions[1:]]
        flows.append((1 - sum(head), *head))
    return fg.FlowProfile(tuple(flows))


def test_int_cost_on_bundled_and_random_games(elfarol, pigou_info, pigou_network):
    games = [elfarol, pigou_info, pigou_network]
    games += [random_congestion_game(s, n_actions=3, n_states=2, quadratic=s % 2 == 1) for s in range(4)]
    games.append(random_congestion_game(5, n_actions=2, n_states=2, quadratic=True, n_pops=2))
    rng = random.Random(0)
    for game in games:
        flows = list(fg.grid_flows(game, 4))
        flows += [random_rational_flow(game, s, denominator=12) for s in range(3)]
        flows += [_non_lattice_flow(game, rng) for _ in range(5)]
        for (pop, action), expr in game.costs.items():
            for state in game.states:
                for flow in flows:
                    want = fg.eval_cost(game, pop, action, flow, state)
                    assert _int_value(game, expr, state, flow.flows) == want


def test_int_cost_resolves_and_fails_as_compile_cost():
    two = fg.GameSpec(
        (Population("p", ("a", "b")), Population("r", ("c",))),
        ("wet", "1/2"),
        (F(1, 2), F(1, 2)),
        {("p", "a"): Const(0), ("p", "b"): Const(0), ("r", "c"): Const(0)},
    )
    cases = [
        ("y[a]", "wet"),  # bare flow variable in a multi-population game
        ("y[q][a]", "wet"),  # unknown population
        ("y[p][zzz]", "wet"),  # unknown action
        ("theta*y[p][a]", "wet"),  # theta in a state that is not a rational literal
        ("theta[wet=1]", "1/2"),  # state table missing the state
    ]
    for text, state in cases:
        expr = fg.parse_cost(text)
        with pytest.raises(Exception) as closure:
            compile_cost(two, expr, state)
        with pytest.raises(Exception) as backend:
            compile_int_cost(two, expr, state)
        assert type(backend.value) is type(closure.value)
        assert str(backend.value) == str(closure.value)
    # the names resolve to the same flow entries
    flows = ((F(1, 3), F(2, 3)), (F(1),))
    for text in ("y[p][b] - 2*y[r][c]", "theta*y[p][a]"):
        expr = fg.parse_cost(text)
        assert _int_value(two, expr, "1/2", flows) == compile_cost(two, expr, "1/2")(flows)


def test_congestion_tables_are_read_only():
    latencies = {("e", "0"): (F(0), F(1))}
    actions = {("p", "a"): frozenset({"e"})}
    pops = (Population("p", ("a",)),)
    spec = fg.CongestionSpec(("e",), latencies, actions, pops, ("0",), (F(1),))
    with pytest.raises(TypeError):
        spec.latencies[("e", "0")] = (F(0), F(1), F(-3))
    with pytest.raises(TypeError):
        spec.actions[("p", "a")] = frozenset()
    # the spec holds copies: the caller's dicts stay its own
    latencies[("e", "0")] = (F(0), F(1), F(-3))
    assert spec.latencies[("e", "0")] == (F(0), F(1))


def test_congestion_spec_keeps_action_resources_as_frozensets():
    # resource tuples used to reach the exact affine polish, whose `&` raised
    # TypeError in build_grid, full disclosure and a polishing grid scan
    spec = fg.CongestionSpec(
        resources=("e1", "e2"),
        latencies={("e1", "0"): (F(1),), ("e2", "0"): (F(0), F(3))},
        actions={("p", "a"): ("e1",), ("p", "b"): ["e2"]},
        populations=(Population("p", ("a", "b")),),
        states=("0",),
        prior=(F(1),),
    )
    assert dict(spec.actions) == {("p", "a"): frozenset({"e1"}), ("p", "b"): frozenset({"e2"})}
    game = fg.congestion_to_game(spec)
    equilibrium = fg.FlowProfile(((F(2, 3), F(1, 3)),))
    assert equilibrium in fg.build_grid(game, 8)["0"]
    assert full_disclosure_outcome(game) == fg.Outcome({"0": ((equilibrium, F(1)),)})
    # (2/3, 1/3) is off the 1/8 lattice, so the scan polishes
    assert fg.enumerate_we_grid(game, "0", 8) == [fg.FlowProfile(((2 / 3, 1 / 3),))]


def test_flow_profile_validation():
    with pytest.raises(ValueError):
        fg.FlowProfile(((F(-1, 4), F(5, 4)),))
    with pytest.raises(ValueError):
        fg.FlowProfile(((F(1, 4), F(1, 4)),))  # sums to 1/2, every population has mass 1
    # a sum beyond float range is named exactly, not an OverflowError
    with pytest.raises(ValueError, match=f"^population 0 flow sums to {10**400}, expected 1$"):
        fg.FlowProfile(((F(10**400), F(0)),))


def test_flow_sort_key_is_the_float_of_each_entry():
    # bit for bit float(v), for exact entries (the last Fraction's
    # float(n) / float(d) is one ulp off) and for entries that are floats
    flow = _trusted_profile(
        (
            (F(1, 3), F(10**20 + 1, 3), F(-7, 10**30), F(11652879636272361973, 942963041298901727)),
            (1, 0, 10**20 + 1),
            (0.1, 2.5e-300, -0.0),
            (np.float64(1) / 3, np.float64(0.7), np.float64(0)),
        )
    )
    want = tuple(tuple(map(float, vec)) for vec in flow.flows)
    got = flow_sort_key(flow)
    assert [[(type(v), v.hex()) for v in vec] for vec in got] == [[(float, v.hex()) for v in vec] for vec in want]


def test_outcome_atoms_get_canonical_order():
    a = flow1(1, 0)
    b = flow1(F(1, 2), F(1, 2))
    first = fg.Outcome({"0": ((a, F(1, 3)), (b, F(2, 3)))})
    second = fg.Outcome({"0": ((b, F(2, 3)), (a, F(1, 3)))})
    assert first.per_state == second.per_state
    assert first == second


def test_outcome_validation():
    f = flow1(1, 0)
    with pytest.raises(ValueError):
        fg.Outcome({})
    with pytest.raises(ValueError):
        fg.Outcome({"0": ()})
    with pytest.raises(ValueError):
        fg.Outcome({"0": ((f, F(-1, 2)), (f, F(3, 2)))})
    with pytest.raises(ValueError):
        fg.Outcome({"0": ((f, F(1, 2)),)})  # weights sum to 1/2
    with pytest.raises(ValueError, match=f"^weights in state '0' sum to {10**400}, expected 1$"):
        fg.Outcome({"0": ((f, F(10**400)),)})


def test_check_unit_decides_as_the_float_comparison():
    # ints and Fractions are compared in ints; the decision is the one
    # abs(total - 1) > MASS_TOL makes, a Fraction against the exact float
    from flowgames.model import _check_unit

    tol, tiny = F(MASS_TOL), F(1, 10**30)
    totals = [1 + tol, 1 - tol, 1 + tol + tiny, 1 + tol - tiny, 1 - tol - tiny, 1 - tol + tiny]
    totals += [0, 1, 2, F(1), F(10**400, 3), -F(10**400, 3), 1 + MASS_TOL, 1.0 - 2 * MASS_TOL, True]
    decided = []
    for total in totals:
        try:
            _check_unit(total, "total {}", "t")
            decided.append(False)
        except ValueError as exc:
            decided.append(True)
            assert str(exc) == f"total t to {fg.model._shown(total)}, expected 1"
        assert decided[-1] == (abs(total - 1) > MASS_TOL), total
    assert decided[:9] == [False, False, True, False, True, False, True, False, True]
    # beyond float range the total is named exactly
    with pytest.raises(ValueError, match=f"^total t to {10**400}/3, expected 1$"):
        _check_unit(F(10**400, 3), "total {}", "t")


def test_population_validation():
    with pytest.raises(ValueError):
        Population("p", ("a", "a"))
    with pytest.raises(ValueError):
        Population("p", ())


def test_game_spec_validation():
    pop = Population("p", ("a", "b"))
    costs = {("p", "a"): fg.parse_cost("1"), ("p", "b"): fg.parse_cost("2")}
    with pytest.raises(ValueError):
        fg.GameSpec((pop,), ("0", "1"), (F(1),), costs)  # prior length mismatch
    with pytest.raises(ValueError):
        fg.GameSpec((pop,), ("0",), (F(1),), {("p", "a"): fg.parse_cost("1")})


def _record_samples(game):
    """One instance's keyword arguments per record class, fields in order."""
    x, y = FlowVar(None, "a"), Const(2)
    flow = flow1(F(1, 4), F(3, 4))
    outcome = fg.Outcome({"0": ((flow, F(1)),)})
    pops = (Population("p", ("a",)),)
    check = fg.CheckReport(concept="cwe", worst_violation=F(0), witness=None)
    return [
        (Const, dict(value=F(1, 2))),
        (FlowVar, dict(pop="p", action="a")),
        (ThetaVal, dict()),
        (StateCoef, dict(table=(("0", F(1)), ("1", F(2))))),
        (Neg, dict(arg=x)),
        (Add, dict(left=x, right=y)),
        (Sub, dict(left=x, right=y)),
        (Mul, dict(left=x, right=y)),
        (MaxOf, dict(args=(x, y))),
        (MinOf, dict(args=(x, y))),
        (Pow, dict(base=x, exponent=2)),
        (Population, dict(name="p", actions=("a", "b"))),
        (fg.CongestionSpec, dict(
            resources=("e",), latencies={("e", "0"): (F(0), F(1))},
            actions={("p", "a"): frozenset({"e"})}, populations=pops, states=("0",), prior=(F(1),),
        )),
        (fg.GameSpec, dict(
            populations=game.populations, states=game.states, prior=game.prior, costs=game.costs,
            congestion=None,
        )),
        (fg.FlowProfile, dict(flows=((F(1, 4), F(3, 4)),))),
        (fg.Outcome, dict(per_state={"0": ((flow, F(1)),)})),
        (fg.Certificate, dict(x=(F(1),), y=(F(0),), objective=F(1), basis=(0,))),
        (fg.WESolveResult, dict(flow=flow, max_violation=0.0, iterations=3)),
        (fg.DesignerProblem, dict(game=game, designer_cost={"0": None}, candidates={"0": [flow]})),
        (fg.LPSolution, dict(outcome=outcome, objective=F(1), status="optimal")),
        (fg.SupportBoundReport, dict(
            ok=True, support=1, caratheodory_bound=2, bfs_bound=1, within_bfs=True
        )),
        (fg.InformationStructure, dict(
            sizes=(F(1),), type_sets=(("t",),), kernel={"0": ((("t",), F(1)),)}
        )),
        (fg.StrategyProfile, dict(strategies=(((F(1), F(0)),),))),
        (fg.UniquenessProbeReport, dict(
            cost_deviation=0.0, flow_deviation=0.5, trials=2, worst_violation=1e-9
        )),
        (fg.AtomicGame, dict(game=game, counts=(2,))),
        (fg.SymmetricBCE, dict(outcome=outcome, n=(4,), delta=0, eps=F(1, 8))),
        (fg.ConvergenceRow, dict(n=4, delta=0.25, eps=F(1, 8), wasserstein=0.5)),
        (fg.CheckReport, dict(concept="cwe", worst_violation=F(0), witness=("p", "a", "b"))),
        (fg.AveragingReport, dict(
            check=check, input_cost=F(1), output_cost=F(1), per_state=(), hypotheses_hold=True
        )),
    ]


def test_records_keep_the_value_contract(elfarol):
    samples = _record_samples(elfarol)

    def subclasses(cls):
        return {c for sub in cls.__subclasses__() for c in (sub, *subclasses(sub))}

    assert {cls for cls, _ in samples} == subclasses(_Record) - {fg.CostExpr}
    for cls, kwargs in samples:
        obj = cls(**kwargs)
        values = tuple(getattr(obj, name) for name in kwargs)
        assert cls(*values) == obj and cls(**kwargs) == obj
        shown = ", ".join(f"{name}={v!r}" for name, v in zip(kwargs, values))
        assert repr(obj) == f"{cls.__qualname__}({shown})"
        try:
            assert hash(obj) == hash(values)
        except TypeError:  # a dict field makes the tuple unhashable, and the record too
            with pytest.raises(TypeError):
                hash(values)
        assert obj != object() and obj != values
        for name in (*kwargs, "other"):
            with pytest.raises(AttributeError):
                setattr(obj, name, None)
            with pytest.raises(AttributeError):
                delattr(obj, name)
        with pytest.raises(TypeError):
            cls(**kwargs, other=None)
        with pytest.raises(TypeError):
            cls(*values, None)
        if kwargs:
            with pytest.raises(TypeError):
                cls(*values[:1], **{next(iter(kwargs)): values[0]})
            with pytest.raises(TypeError):
                cls()
    # equal only within one class, even with the same fields
    x, y = FlowVar(None, "a"), Const(2)
    assert Add(x, y) != Sub(x, y) and MaxOf((x, y)) != MinOf((x, y))
    assert Add(x, y) == Add(FlowVar(None, "a"), Const(F(2))) and ThetaVal() == ThetaVal()
    assert repr(flow1(F(1, 4), F(3, 4))) == "FlowProfile(flows=((Fraction(1, 4), Fraction(3, 4)),))"
    assert repr(Pow(x, 2)) == "Pow(base=FlowVar(pop=None, action='a'), exponent=2)"
    assert repr(ThetaVal()) == "ThetaVal()"
    # defaults, and a GameSpec's caches stay out of ==, hash and repr
    game = fg.GameSpec(elfarol.populations, elfarol.states, elfarol.prior, elfarol.costs)
    assert game.congestion is None and game == elfarol
    fg.eval_cost(elfarol, "crowd", "b", flow1(F(1, 2), F(1, 2)), "0")
    assert elfarol._compiled and not game._compiled and game == elfarol
    assert repr(game) == repr(elfarol) and "_compiled" not in repr(game)
    # finite players are anonymous: an AtomicGame takes no weights
    with pytest.raises(TypeError):
        fg.AtomicGame(elfarol, (2,), weights=((F(1, 4), F(3, 4)),))


def test_validate_game_numeric_problems():
    pop = Population("p", ("a", "b"))
    costs = {("p", "a"): fg.parse_cost("1"), ("p", "b"): fg.parse_cost("2")}
    game = fg.GameSpec((pop,), ("0", "1"), (F(1, 2), F(1, 3)), costs)
    problems = fg.validate_game(game)
    assert "prior sums to 0.8333333333333334, expected 1" in problems
    # a prior beyond float range is named exactly, not an OverflowError
    game = fg.GameSpec((pop,), ("0",), (F(10**400),), costs)
    assert fg.validate_game(game) == [f"prior sums to {10**400}, expected 1"]


def test_validate_game_reports_unresolvable_costs():
    pop = Population("p", ("a", "b", "c"))
    costs = {
        ("p", "a"): fg.parse_cost("theta*y[a]"),
        ("p", "b"): fg.parse_cost("theta[wet=1]"),
        ("p", "c"): fg.parse_cost("y[zzz]"),
    }
    game = fg.GameSpec((pop,), ("wet", "dry"), (F(1, 2), F(1, 2)), costs)
    assert fg.validate_game(game) == [
        "cost of ('p', 'a'): state 'wet' is not a rational literal; 'theta' cannot be resolved",
        "cost of ('p', 'b'): state 'dry' missing from coefficient table",
        "cost of ('p', 'c'): unknown action 'zzz' in population 'p'",
    ]


@st.composite
def _roundings(draw):
    """(game, counts, outcome, exact): an outcome over 1-2 populations of 2-4
    actions, rational or float, and a player count from 1 to 40 per population."""
    n_pops, n_actions, exact = draw(st.integers(1, 2)), draw(st.integers(2, 4)), draw(st.booleans())
    counts = tuple(draw(st.integers(1, 40)) for _ in range(n_pops))

    def shares(size, top):
        raw = draw(st.lists(st.integers(0, top), min_size=size, max_size=size).filter(any))
        return [F(r, sum(raw)) if exact else r / sum(raw) for r in raw]

    game = random_congestion_game(0, n_actions=n_actions, n_states=2, n_pops=n_pops)
    per_state = {
        s: tuple(
            (fg.FlowProfile(tuple(tuple(shares(n_actions, 60)) for _ in range(n_pops))), w)
            for w in shares(draw(st.integers(1, 4)), 5)
        )
        for s in game.states
    }
    return game, counts, fg.Outcome(per_state), exact


@settings(max_examples=300, deadline=None)
@given(_roundings())
def test_round_outcome_properties(case):
    game, counts, outcome, exact = case
    rounded, delta = _round_outcome(game, outcome, counts)
    # largest remainders: each flow y, rounded alone, has whole counts
    # c = n_k y^ that sum to n_k, each within 1 of n_k y_j, so the rounding
    # distance stays below 1/n_k; y^ is the flow y merged into
    for state, atoms in outcome.per_state.items():
        for flow, _ in atoms:
            alone = fg.Outcome({s: ((flow, 1),) for s in game.states})
            ((image, _),) = _round_outcome(game, alone, counts)[0].per_state[state]
            for nk, vec, rounded_vec in zip(counts, flow.flows, image.flows):
                cnt = [nk * y for y in rounded_vec]
                assert all(c == int(c) for c in cnt) and sum(cnt) == nk
                assert all(abs(c - nk * F(y)) < 1 for c, y in zip(cnt, vec))
            assert image in [f for f, _ in rounded.per_state[state]]
    assert 0 <= delta < F(1, min(counts))
    for state, atoms in rounded.per_state.items():
        total = sum(w for _, w in atoms)
        assert total == 1 if exact else abs(total - 1) <= MASS_TOL, state
    # a rounded outcome is on the 1/n_k lattice and comes back unchanged
    if exact:
        assert _round_outcome(game, rounded, counts) == (rounded, 0)


def _fraction_counts(vector, denominator):
    # the largest-remainder rule on the entries as they are (Fraction
    # arithmetic for exact ones), the code the integer kernel replaced
    scaled = [v * denominator for v in vector]
    counts = [max(math.floor(s), 0) for s in scaled]
    remainders = sorted(range(len(vector)), key=lambda j: (-(scaled[j] - counts[j]), j))
    for j in remainders[: denominator - sum(counts)]:
        counts[j] += 1
    return counts


def _fraction_round_outcome(game, outcome, counts):
    # the entry-by-entry rounding that the integer kernel replaced: a
    # Fraction per entry and gap, and a float gap for every other entry
    delta, per_state = 0, {}
    for state in game.states:
        merged = {}
        for flow, w in outcome.per_state[state]:
            key = []
            for nk, vec in zip(counts, flow.flows):
                cnt = _fraction_counts(vec, nk)
                key.append(tuple(F(c, nk) for c in cnt))
                for c, v in zip(cnt, vec):
                    gap = abs(F(c, nk) - v if isinstance(v, F) else c / nk - v)
                    if gap > delta:
                        delta = gap
            key = tuple(key)
            merged[key] = merged.get(key, 0) + w
        per_state[state] = tuple((_trusted_profile(key), w) for key, w in merged.items())
    return fg.Outcome(per_state), delta


def test_largest_remainder_counts_are_the_fraction_rule():
    # ties go to the smaller index, a negative entry counts as 0 and ranks
    # last, an entry just below an integer is raised to it first, and a
    # float vector keeps its float arithmetic
    assert _largest_remainder_counts([F(1, 3)] * 3, 2) == [1, 1, 0]
    assert _largest_remainder_counts([F(-1, 2), F(1, 4), F(1, 4)], 4) == [0, 2, 2]
    assert _largest_remainder_counts([F(1, 2) - F(1, 10**30), F(1, 2) + F(1, 10**30)], 3) == [1, 2]
    assert _largest_remainder_counts([0.1, 0.2, 0.7], 10) == [1, 2, 7]
    rng = random.Random(40)
    for _ in range(3000):
        n, d = rng.randint(1, 5), rng.randint(1, 60)
        den = rng.choice([1, 2, 3, 6, 7, 12, 30, 10**18])
        vector = [F(rng.randint(-den, 2 * den), den) for _ in range(n)]
        kind = rng.randrange(5)
        if kind == 1:  # ints among the Fractions
            vector = [int(v) if v.denominator == 1 else v for v in vector]
        elif kind == 2:  # a rounding error below each entry
            vector = [v - F(1, 10**20) for v in vector]
        elif kind == 3:  # floats
            vector = [float(v) for v in vector]
        elif kind == 4:  # floats among the Fractions
            vector = [float(v) if j % 2 else v for j, v in enumerate(vector)]
        assert _largest_remainder_counts(vector, d) == _fraction_counts(vector, d), (vector, d)


def _random_vector(rng, n, kind):
    raw = [rng.randint(0, 9) for _ in range(n - 1)] + [rng.randint(1, 9)]
    exact = [F(r, sum(raw)) for r in raw]
    if kind == "float":
        return tuple(float(v) for v in exact)
    if kind == "int":  # an int entry for each whole share
        return tuple(int(v) if v.denominator == 1 else v for v in exact)
    if kind == "mixed":
        return tuple(float(v) if rng.random() < 0.5 else v for v in exact)
    return tuple(exact)


def test_round_outcome_delta_is_the_fraction_rule():
    # delta keeps its value and type: int 0 when every flow is on the
    # lattice, a Fraction when an exact flow is not, a float when a float
    # gap is the first largest; outcomes that mix float and exact vectors
    # (across atoms, populations and entries) included
    rng = random.Random(41)
    seen = set()
    for trial in range(400):
        n_pops, n_actions = rng.randint(1, 2), rng.randint(2, 4)
        game = random_congestion_game(trial % 3, n_actions=n_actions, n_states=2, n_pops=n_pops)
        kinds = rng.choice([["exact"], ["float"], ["int"], ["exact", "float"], ["mixed", "int", "exact"]])
        per_state = {}
        for s in game.states:
            weights = _random_vector(rng, rng.randint(1, 4), rng.choice(["exact", "float", "int"]))
            per_state[s] = tuple(
                (fg.FlowProfile(tuple(_random_vector(rng, n_actions, rng.choice(kinds)) for _ in range(n_pops))), w)
                for w in weights
            )
        outcome = fg.Outcome(per_state)
        counts = tuple(rng.choice([1, 2, 3, 5, 7, 12, 40]) for _ in range(n_pops))
        rounded, delta = _round_outcome(game, outcome, counts)
        want, want_delta = _fraction_round_outcome(game, outcome, counts)
        assert rounded == want and repr(delta) == repr(want_delta), (outcome, counts)
        assert type(delta) is type(want_delta)
        seen.add(type(delta))
        if kinds == ["exact"]:
            assert type(delta) is (int if delta == 0 else F)
        elif kinds == ["float"]:
            assert type(delta) is float or delta == 0
    assert seen == {int, F, float}
    # a lattice outcome rounds to itself with the int 0
    game = random_congestion_game(0, n_actions=3, n_states=2)
    lattice = fg.Outcome({s: ((flow1(F(1, 4), F(1, 2), F(1, 4)), 1),) for s in game.states})
    assert _round_outcome(game, lattice, (8,)) == (lattice, 0)
    assert type(_round_outcome(game, lattice, (8,))[1]) is int
    off = _round_outcome(game, lattice, (3,))[1]
    assert type(off) is F and off == F(1, 6)
    floats = fg.Outcome({s: ((fg.FlowProfile(((0.25, 0.5, 0.25),)), 1),) for s in game.states})
    assert repr(_round_outcome(game, floats, (3,))[1]) == repr(_fraction_round_outcome(game, floats, (3,))[1])
    assert type(_round_outcome(game, floats, (3,))[1]) is float


def test_validate_game_accepts_bundled(elfarol, pigou_info, pigou_network):
    assert fg.validate_game(elfarol) == []
    assert fg.validate_game(pigou_info) == []
    assert fg.validate_game(pigou_network) == []


def test_social_cost_elfarol(elfarol):
    assert fg.social_cost(elfarol, flow1(1, 0), "0") == 1
    assert fg.social_cost(elfarol, flow1(F(1, 2), F(1, 2)), "0") == F(1, 2)
    assert fg.social_cost(elfarol, flow1(F(3, 4), F(1, 4)), "0") == 1


def test_congestion_costs_are_latency_sums(pigou_network):
    f = flow1(F(1, 4), F(3, 4))
    assert fg.eval_cost(pigou_network, "traffic", "a", f, "0") == 1
    assert fg.eval_cost(pigou_network, "traffic", "b", f, "0") == F(3, 4)


def test_parse_rational():
    assert fg.parse_rational("1/3") == F(1, 3)
    assert fg.parse_rational("0.25") == F(1, 4)
    assert fg.parse_rational("2") == 2
    with pytest.raises(ValueError):
        fg.parse_rational("one third")
