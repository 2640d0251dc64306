from fractions import Fraction as F

import flowgames as fg
from flowgames.generators import full_disclosure_outcome


def test_full_disclosure_outcome_without_congestion_spec(elfarol):
    # elfarol has no congestion backing, so equilibria come from best response
    assert elfarol.congestion is None
    outcome = full_disclosure_outcome(elfarol)
    ((flow, weight),) = outcome.per_state["0"]
    assert isinstance(flow, fg.FlowProfile)
    assert weight == 1
    assert float(fg.verify_we(elfarol, flow, "0")) <= 1e-6
    # the lexicographically first of elfarol's three equilibria
    assert fg.flow_linf(flow, fg.FlowProfile(((F(1, 4), F(3, 4)),))) <= 1e-6
    assert fg.check_bcwe(elfarol, outcome).worst_violation <= 1e-6
