from fractions import Fraction as F

import pytest

import flowgames as fg
from flowgames.generators import full_disclosure_outcome, random_congestion_game


def test_full_disclosure_outcome_without_congestion_spec(elfarol, pigou_info):
    # without a congestion backing, equilibria come from best response, which
    # stops short of them (4.8e-07 short of pigou_info's (0, 1)), snapped to
    # the exact rational equilibrium nearby; elfarol's is the
    # lexicographically first of its three equilibria
    expected = (
        (elfarol, {"0": (F(1, 4), F(3, 4))}),
        (pigou_info, {"0": (F(0), F(1)), "1": (F(1), F(0))}),
    )
    for game, flows in expected:
        assert game.congestion is None
        outcome = full_disclosure_outcome(game)
        for state, ((flow, weight),) in outcome.per_state.items():
            assert weight == 1
            assert repr(flow) == repr(fg.FlowProfile((flows[state],)))
            assert fg.verify_we(game, flow, state) == 0
        assert fg.check_bcwe(game, outcome).worst_violation <= 0


def test_full_disclosure_outcome_is_exact_on_affine_latencies():
    # each state's flow is its exact equilibrium, not the float solver's
    game = random_congestion_game(3, n_actions=3, n_states=2)
    outcome = full_disclosure_outcome(game)
    for state, ((flow, weight),) in outcome.per_state.items():
        assert weight == 1
        assert all(isinstance(v, F) for vec in flow.flows for v in vec)
        assert fg.verify_we(game, flow, state) == 0
    assert fg.check_bcwe(game, outcome).worst_violation <= 0


def test_full_disclosure_outcome_refuses_an_unconverged_potential_solve(monkeypatch):
    # quadratic latencies take the float solve, which is kept only within tol
    game = random_congestion_game(1, n_actions=3, quadratic=True)

    def unconverged(game, state, *args):
        return fg.WESolveResult(fg.uniform_flow(game), 1e-3, 500)

    monkeypatch.setattr("flowgames.wardrop.solve_we_potential", unconverged)
    with pytest.raises(RuntimeError, match="no equilibrium found for state '0'"):
        full_disclosure_outcome(game)
