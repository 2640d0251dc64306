from fractions import Fraction as F

import pytest
from hypothesis import given
from hypothesis import strategies as st

import flowgames as fg
from flowgames.gamefile import GameFileError
from flowgames.generators import random_congestion_game
from flowgames.model import flow_sort_key
from flowgames.wardrop import _float_image

from conftest import bundled_text

GOOD = """[populations]
crowd = a, b

[states]
names = 0

[prior]
0 = 1

[costs]
crowd.a = 2 + y[b]
crowd.b = 1
"""


def test_parse_then_write_is_stable():
    for name in ("elfarol.game", "pigou_info.game", "pigou_network.game"):
        text = bundled_text(name)
        game = fg.parse_game_file(text)
        written = fg.write_game_file(game)
        assert fg.write_game_file(fg.parse_game_file(written)) == written


def test_write_then_parse_recovers_game():
    for name in ("elfarol.game", "pigou_info.game", "pigou_network.game"):
        game = fg.parse_game_file(bundled_text(name))
        assert fg.parse_game_file(fg.write_game_file(game)) == game


def test_minimal_document_parses():
    game = fg.parse_game_file(GOOD)
    assert game.populations[0].actions == ("a", "b")
    assert game.prior == (F(1),)
    assert fg.format_expr(game.costs[("crowd", "a")]) == "2 + y[b]"


def err(text):
    with pytest.raises(GameFileError) as e:
        fg.parse_game_file(text)
    return e.value


def test_expression_error_reports_file_position():
    e = err(GOOD.replace("2 + y[b]", "2 +"))
    assert e.line == 11
    assert e.column == 13  # 0-based; the message shows 1-based
    assert "line 11, column 14" in str(e)


def test_unknown_section_rejected():
    e = err(GOOD.replace("[costs]", "[costz]"))
    assert e.line == 10
    assert "costz" in str(e)


def test_bad_rational_position():
    e = err(GOOD.replace("0 = 1\n\n[costs]", "0 = abc\n\n[costs]"))
    assert (e.line, e.column) == (8, 4)


def test_duplicate_key_rejected():
    e = err(GOOD.replace("crowd.b = 1", "crowd.b = 1\ncrowd.b = 2"))
    assert e.line == 13
    assert "duplicate" in str(e)


def test_missing_section_rejected():
    e = err(GOOD.replace("[prior]\n0 = 1\n\n", ""))
    assert "[prior]" in str(e)


def test_content_before_header_rejected():
    e = err("x = 1\n" + GOOD)
    assert e.line == 1


def test_key_without_value_rejected():
    e = err(GOOD.replace("crowd.b = 1", "crowd.b"))
    assert e.line == 12


def test_missing_cost_detected():
    e = err(GOOD.replace("crowd.b = 1\n", ""))
    assert "crowd" in str(e)


def test_unknown_action_cost_rejected():
    e = err(GOOD.replace("crowd.b = 1", "crowd.b = 1\ncrowd.c = 2"))
    assert "'c'" in str(e)


def test_prior_must_sum_to_one():
    # _check_unit's rule and message, at the [prior] line
    e = err(GOOD.replace("0 = 1", "0 = 1/2"))
    assert str(e) == "line 7: prior sums to 0.5, expected 1"
    # within MASS_TOL of 1 is accepted, as validate_game accepts it
    near = F(1000000000000001, 1000000000000000)
    game = fg.parse_game_file(GOOD.replace("0 = 1", f"0 = {near}"))
    assert game.prior == (near,) and fg.validate_game(game) == []


def test_costs_and_congestion_exclusive():
    text = GOOD + "\n[congestion]\nresources = e1\nlatency.e1.0 = 1\naction.crowd.a = e1\naction.crowd.b = e1\n"
    with pytest.raises(GameFileError):
        fg.parse_game_file(text)


def test_comments_and_blank_lines_ignored():
    text = GOOD.replace("[prior]", "# a comment\n\n[prior]")
    game = fg.parse_game_file(text)
    assert game.prior == (F(1),)


def test_outcome_round_trip(pigou_info, pigou_bcwe):
    text = fg.write_outcome_file(pigou_bcwe, pigou_info)
    parsed = fg.parse_outcome_file(text, pigou_info)
    assert parsed == pigou_bcwe
    assert fg.write_outcome_file(parsed, pigou_info) == text


def test_outcome_requires_every_state(pigou_info):
    text = "[outcome.0]\n(1, 0) = 1\n"
    with pytest.raises(GameFileError):
        fg.parse_outcome_file(text, pigou_info)


def test_outcome_rejects_unknown_state(pigou_info):
    text = bundled_text("pigou_bcwe.outcome") + "\n[outcome.2]\n(1, 0) = 1\n"
    with pytest.raises(GameFileError):
        fg.parse_outcome_file(text, pigou_info)


def test_outcome_weights_must_sum(pigou_info):
    text = "[outcome.0]\n(1, 0) = 1/2\n\n[outcome.1]\n(1, 0) = 1\n"
    with pytest.raises(GameFileError, match=r"^line 1: weights in state '0' sum to 0.5, expected 1$"):
        fg.parse_outcome_file(text, pigou_info)


def test_float_outcomes_round_trip(monkeypatch):
    # each state mixes the floats of a quadratic game's equilibria in its
    # two states with float weights; at 12 significant digits some flows
    # would sum 1e-12 off 1 and be refused; repr reads back every float,
    # and the weights are summed by Outcome's rule
    refused = 0
    for seed in range(60):
        game = random_congestion_game(seed, n_actions=3, n_states=2, quadratic=True)
        flows = [_float_image(fg.solve_we_potential(game, s).flow) for s in game.states]
        weights = [f.flows[0][0] for f in flows]
        assert all(type(w) is float for w in weights)
        pairs = zip(game.states, flows, weights, flows[::-1])
        outcome = fg.Outcome({s: ((f, w), (other, 1 - w)) for s, f, w, other in pairs})
        parsed = fg.parse_outcome_file(fg.write_outcome_file(outcome, game), game)
        for state in game.states:
            got = [(flow_sort_key(f), float(w)) for f, w in parsed.per_state[state]]
            want = [(flow_sort_key(f), float(w)) for f, w in outcome.per_state[state]]
            assert got == want, seed
        with monkeypatch.context() as m:
            m.setattr("flowgames.gamefile._document_quantity", fg.format_quantity)
            short = fg.write_outcome_file(outcome, game)
        try:
            fg.parse_outcome_file(short, game)
        except GameFileError:
            refused += 1
    assert refused >= 5


def test_flow_literal_round_trip():
    f = fg.FlowProfile(((F(1, 3), F(2, 3)),))
    assert fg.format_flow_literal(f) == "(1/3, 2/3)"
    two_pop = fg.FlowProfile(((F(1, 3), F(2, 3)), (F(1), F(0))))
    text = fg.format_flow_literal(two_pop)
    assert text.startswith("(") and text.endswith(")")
    assert ";" in text


def test_format_quantity():
    assert fg.format_quantity(F(1, 3)) == "1/3"
    assert fg.format_quantity(2) == "2"
    assert fg.format_quantity(0.5) == "0.5"
    assert fg.format_quantity(0.1234567890123456) == "0.123456789012"


@given(st.fractions(min_value=0, max_value=100, max_denominator=999))
def test_quantity_round_trips_rationals(q):
    assert fg.parse_rational(fg.format_quantity(q)) == q


NETWORK = """[populations]
traffic = a, b

[states]
names = 0

[prior]
0 = 1

[congestion]
resources = e1, e2
latency.e1.0 = 1
latency.e2.0 = 0, 1
action.traffic.a = e1
action.traffic.b = e2
"""

MALFORMED = [
    # (document, message, line, 0-based column)
    (GOOD.replace("a, b", "a, 1b"), "line 2: invalid action name '1b'", 2, None),
    (GOOD.replace("a, b", "a, b, a"), "line 2: duplicate action in population 'crowd'", 2, None),
    (GOOD.replace("names = 0", "names = 0, x.y"), "line 5: invalid state name 'x.y'", 5, None),
    (GOOD.replace("names = 0", "names = 0, 0"), "line 5: duplicate state name", 5, None),
    (GOOD.replace("crowd.a", "herd.a"), "line 11: unknown population 'herd'", 11, None),
    (GOOD.replace("crowd.a", "crowd.c"), "line 11: unknown action 'c' in population 'crowd'", 11, None),
    (NETWORK.replace("e1, e2", "e1, e.2"), "line 11: invalid resource name 'e.2'", 11, None),
    (NETWORK.replace("e1, e2", "e1, e2, e1"), "line 11: duplicate resource name", 11, None),
    (NETWORK.replace("action.traffic.a", "action.cars.a"), "line 14: unknown population 'cars'", 14, None),
    (
        NETWORK.replace("action.traffic.a", "action.traffic.c"),
        "line 14: unknown action 'c' in population 'traffic'",
        14,
        None,
    ),
    (NETWORK.replace("0, 1", "0, one"), "line 13, column 16: not a rational literal: 'one'", 13, 15),
    (NETWORK.replace("0, 1", "0, 1/0"), "line 13, column 16: not a rational literal: '1/0'", 13, 15),
    # the split list's own error, located once
    (NETWORK.replace("e1.0 = 1", "e1.0 = 0, , 1"), "line 12: empty entry in coefficient list", 12, None),
    ("[outcome.0]\n(1, half) = 1\n", "line 2: not a rational literal: 'half'", 2, None),
    ("[outcome.0]\n(1, 0) = 1/2\n(0, 1) = a half\n", "line 3, column 10: not a rational literal: 'a half'", 3, 9),
    ("[outcome.0]\n(1, 0) = 1.5.\n", "line 2, column 10: not a rational literal: '1.5.'", 2, 9),
    # one flow written twice, in two spellings
    (
        "[outcome.0]\n(1/2, 1/2) = 1/2\n(0.5, 0.5) = 1/2\n",
        "line 3: duplicate flow '(0.5, 0.5)' in state '0'",
        3,
        None,
    ),
]


MALFORMED_IDS = [
    "action-name",
    "action-duplicate",
    "state-name",
    "state-duplicate",
    "cost-population",
    "cost-action",
    "resource-name",
    "resource-duplicate",
    "congestion-population",
    "congestion-action",
    "latency-literal",
    "latency-zero-denominator",
    "latency-empty-entry",
    "flow-entry",
    "weight-literal",
    "weight-two-points",
    "flow-duplicate",
]


@pytest.mark.parametrize("text, message, line, column", MALFORMED, ids=MALFORMED_IDS)
def test_malformed_document_errors(text, message, line, column):
    with pytest.raises(GameFileError) as e:
        if text.startswith("[outcome."):
            fg.parse_outcome_file(text, fg.parse_game_file(NETWORK))
        else:
            fg.parse_game_file(text)
    assert (str(e.value), e.value.line, e.value.column) == (message, line, column)
    assert str(e.value).endswith(e.value.bare_message) and "line" not in e.value.bare_message
