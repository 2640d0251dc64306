"""Finite-player counterparts and convergence to the continuum limit.

An atomic game samples n_k players for each population, each holding 1/n_k
of that population's mass. Correlated recommendations are checked either by
brute force over full action profiles or at the flow level for symmetric
count-based recommendations, and a sequence of scaled games traces how the
obedience slack and the outcome distance shrink.
"""

from __future__ import annotations

from fractions import Fraction

from .checks import CheckReport, check_bce_flowlevel, check_bcwe
from .lp import _column_solve, _exact
from .model import (
    FlowProfile,
    GameSpec,
    Outcome,
    _Record,
    _check_states,
    _check_unit,
    _round_outcome,
    _shown,
    eval_cost,
)


class AtomicGame(_Record):
    """A draw of finitely many anonymous players from each population.

    Each of the ``counts[k]`` players of population k holds 1/``counts[k]``
    of its unit mass.
    """

    game: GameSpec
    counts: tuple

    def __post_init__(self):
        if len(self.counts) != len(self.game.populations):
            raise ValueError("one player count per population required")
        for n in self.counts:
            if isinstance(n, bool) or not isinstance(n, int) or n < 1:
                raise ValueError(f"player counts must be ints of at least 1, got {n!r}")


def flow_of_profile(agame: AtomicGame, profile: tuple) -> FlowProfile:
    """Aggregate a full action profile into the induced flow.

    ``profile[k][i]`` is the action name chosen by player i of population k,
    one block per population; each choice adds 1/n_k to its action's flow.
    """
    npops = len(agame.game.populations)
    if len(profile) != npops:
        raise ValueError(f"profile has {len(profile)} blocks, expected {npops}, one per population")
    flows = []
    for k, pop in enumerate(agame.game.populations):
        if len(profile[k]) != agame.counts[k]:
            raise ValueError(f"population {k} needs {agame.counts[k]} choices")
        share = Fraction(1, agame.counts[k])
        vec = [0] * len(pop.actions)
        for action in profile[k]:
            vec[agame.game.action_index(pop.name, action)] += share
        flows.append(tuple(vec))
    return FlowProfile(tuple(flows))


def _check_profile_space(agame: AtomicGame):
    """Raise before a brute-force enumeration of more than 10**6 full profiles."""
    size = 1
    for k, pop in enumerate(agame.game.populations):
        size *= len(pop.actions) ** agame.counts[k]
        if size > 10**6:
            raise ValueError("profile space too large for brute force")


def check_bce_bruteforce(agame: AtomicGame, beta: dict) -> CheckReport:
    """Obedience of an explicit profile distribution, player by player.

    ``beta`` maps each state to (profile, weight) pairs over full action
    profiles, ``profile[k][i]`` being the action of player i of population
    k, one block per population. Every player's conditional deviation gain
    is computed exactly on rational data; the profile space must stay at or
    below 10**6 entries.
    """
    _check_profile_space(agame)
    _check_states(agame.game, beta, "outcome")
    entries = []  # (state, prior*weight, normalized profile, its flow)
    for state, atoms in beta.items():
        p = agame.game.prior_of(state)
        total = 0
        for profile, w in atoms:
            if w < 0:
                raise ValueError("negative profile weight")
            total = total + w
            if w == 0:
                continue
            profile = tuple(map(tuple, profile))
            entries.append((state, p * w, profile, flow_of_profile(agame, profile)))
        _check_unit(total, "profile weights for state {!r} sum", state)
    worst = None
    witness = None
    for k, pop in enumerate(agame.game.populations):
        for i in range(agame.counts[k]):
            for a in pop.actions:
                mass = 0
                for _state, weight, profile, _flow in entries:
                    if profile[k][i] == a:
                        mass = mass + weight
                if mass == 0:
                    continue
                for b in pop.actions:
                    if b == a:
                        continue
                    value = 0
                    for state, weight, profile, flow in entries:
                        if profile[k][i] != a:
                            continue
                        deviated = tuple(
                            tuple(
                                (b if (kk == k and ii == i) else act)
                                for ii, act in enumerate(block)
                            )
                            for kk, block in enumerate(profile)
                        )
                        dflow = flow_of_profile(agame, deviated)
                        value = value + weight * (
                            eval_cost(agame.game, pop.name, a, flow, state)
                            - eval_cost(agame.game, pop.name, b, dflow, state)
                        )
                    if worst is None or value > worst:
                        worst = value
                        witness = (pop.name, i, a, b)
    if worst is None:
        return CheckReport("bce", 0, None)
    return CheckReport("bce", worst, witness)


class SymmetricBCE(_Record):
    """Count-based symmetric recommendation for n_k anonymous players in
    population k, each holding 1/n_k of its mass.

    ``outcome`` carries the recommended flows and weights; a support flow y
    recommends n_k y players per action, so every n_k y must be whole.
    ``delta`` is the rounding distance to the target flows and ``eps`` the
    realized obedience slack.
    """

    outcome: Outcome
    n: tuple
    delta: object
    eps: object

    def __post_init__(self):
        for atoms in self.outcome.per_state.values():
            for flow, _ in atoms:
                for nk, vec in zip(self.n, flow.flows):
                    for y in vec:  # an exact y = p/q: is n_k p a multiple of q?
                        exact = type(nk) is int and type(y) in (int, Fraction)
                        if (nk * y.numerator) % y.denominator if exact else nk * y != int(nk * y):
                            raise ValueError(f"flow {flow.flows!r} is not a count vector over {nk}")


def construct_eps_bce(agame: AtomicGame, outcome: Outcome) -> SymmetricBCE:
    """Round a continuum outcome onto the finite players of ``agame``.

    Each support flow is replaced by largest-remainder integer counts (ties
    to the smaller action index; see :func:`model._round_outcome`, which
    refuses a flow whose mass is not 1) and the recommendation becomes: draw
    a flow by its weight, then assign players to actions uniformly at random
    consistent with the counts. Returns the rounding distance and the
    realized flow-level obedience slack, both exact on rational data.
    """
    rounded, delta = _round_outcome(agame.game, outcome, agame.counts)
    bce = SymmetricBCE(rounded, tuple(agame.counts), delta, 0)
    eps = check_bce_flowlevel(agame.game, bce).worst_violation
    # set on the object checked above rather than a second, re-validated copy
    object.__setattr__(bce, "eps", eps if eps > 0 else 0)
    return bce


def bce_to_profile_distribution(agame: AtomicGame, bce: SymmetricBCE) -> dict:
    """Expand count-based recommendations into full profile distributions.

    Each flow atom spreads uniformly over the action profiles consistent
    with its counts n_k y; weights come out exact unless a weight is a float.
    The profile space must stay at or below 10**6 entries, as for
    :func:`check_bce_bruteforce`.
    """
    _check_profile_space(agame)
    beta = {}
    for state, atoms in bce.outcome.per_state.items():
        rows = []
        for flow, w in atoms:
            if w == 0:
                continue
            pop_assignments = []
            for k, pop in enumerate(agame.game.populations):
                count_vec = [int(bce.n[k] * y) for y in flow.flows[k]]
                pop_assignments.append(
                    list(_assignments(count_vec, pop.actions, agame.counts[k]))
                )
            total = 1
            for block in pop_assignments:
                total *= len(block)
            share = w / total if isinstance(w, float) else w * Fraction(1, total)
            combos = [()]
            for block in pop_assignments:
                combos = [c + (b,) for c in combos for b in block]
            for profile in combos:
                rows.append((profile, share))
        merged = {}
        for profile, w in rows:
            merged[profile] = merged.get(profile, 0) + w
        beta[state] = tuple(sorted(merged.items()))
    return beta


def _assignments(count_vec, actions, n):
    """All assignments of n players to actions with the given counts."""
    if sum(count_vec) != n:
        raise ValueError("counts do not total the player count")

    def rec(remaining, counts):
        if remaining == 0:
            yield ()
            return
        for j, c in enumerate(counts):
            if c > 0:
                reduced = counts[:j] + (c - 1,) + counts[j + 1 :]
                for tail in rec(remaining - 1, reduced):
                    yield (actions[j],) + tail

    yield from rec(n, tuple(count_vec))


def wasserstein_outcome_distance(mu1: Outcome, mu2: Outcome, prior: dict) -> float:
    """Prior-weighted earth-mover distance between two outcomes.

    Ground metric is the sup norm between flow profiles; ``prior`` maps each
    state of either outcome to its probability. States where the supports
    coincide exactly contribute zero without touching the solver. States are
    summed in sorted order, so the float result does not depend on set
    iteration order.
    """
    total = 0.0
    for state in sorted(set(mu1.per_state) | set(mu2.per_state)):
        if state not in prior:
            raise ValueError(f"prior missing state {state!r}")
        p = float(prior[state])
        if p == 0:
            continue
        atoms1 = [(f, w) for f, w in mu1.per_state.get(state, ()) if w != 0]
        atoms2 = [(f, w) for f, w in mu2.per_state.get(state, ()) if w != 0]
        key1 = sorted((f.flows, w) for f, w in atoms1)
        key2 = sorted((f.flows, w) for f, w in atoms2)
        if key1 == key2:
            continue
        total += p * _w1(atoms1, atoms2)
    return total


def _w1(atoms1, atoms2) -> float:
    """Exact transport cost between two weighted atom lists under the sup
    norm, as a float.

    A one-atom side forces the plan. Otherwise the transport LP drops its
    last demand row and starts from the northwest-corner basis, whose last
    column takes whatever supply is left: float weights that sum to 1 only
    within ``MASS_TOL`` stay feasible. :func:`lp._column_solve` takes route
    i -> j as the unit column on rows i and n1 + j (none for the last j),
    written over its cost's denominator d: entries d / d, cost numerator / d.
    """
    n1, n2 = len(atoms1), len(atoms2)
    if n1 == 0 or n2 == 0:
        raise ValueError("cannot transport to an empty distribution")
    # exact weights as they are, float ones read exactly
    supply = [_exact(w) for _, w in atoms1]
    demand = [_exact(w) for _, w in atoms2]
    cost = [_linf(f1, f2) for f1, _ in atoms1 for f2, _ in atoms2]
    if n1 == 1 or n2 == 1:
        return max(0.0, float(sum(w * c for w, c in zip(demand if n1 == 1 else supply, cost))))
    basis = []
    i = j = 0
    while True:
        basis.append(i * n2 + j)
        if j == n2 - 1:
            if i == n1 - 1:
                break
            i += 1
        elif i == n1 - 1 or demand[j] <= supply[i]:
            supply[i] -= demand[j]
            j += 1
        else:
            demand[j] -= supply[i]
            i += 1
    columns = []
    for i in range(n1):
        for j in range(n2):
            d = cost[i * n2 + j].denominator
            columns.append((d, [(i, d), (n1 + j, d)] if j < n2 - 1 else [(i, d)]))
    weights = [w for _, w in atoms1] + [w for _, w in atoms2[:-1]]
    return max(0.0, float(_column_solve(basis, [c.numerator for c in cost], columns, weights, 0).objective))


def _linf(a: FlowProfile, b: FlowProfile) -> Fraction:
    """Exact sup-norm distance between two profiles with the same shape,
    compared by int cross-multiplication; a float entry is read exactly."""
    top, bottom = 0, 1
    for va, vb in zip(a.flows, b.flows, strict=True):
        for x, y in zip(va, vb, strict=True):
            if type(x) not in (int, Fraction) or type(y) not in (int, Fraction):
                x, y = Fraction(x), Fraction(y)
            gap, den = abs(x.numerator * y.denominator - y.numerator * x.denominator), x.denominator * y.denominator
            if gap * bottom > top * den:
                top, bottom = gap, den
    return Fraction(top, bottom)


class ConvergenceRow(_Record):
    n: int
    delta: float
    eps: object
    wasserstein: float


def convergence_run(game: GameSpec, outcome: Outcome, n_list) -> list[ConvergenceRow]:
    """Round one outcome onto a schedule of player counts, n players in
    every population for each n in ``n_list``.

    The outcome must already satisfy state-averaged obedience to 1e-6. Each
    row reports the rounding distance, the realized flow-level obedience
    slack, and the prior-weighted transport distance between the original
    outcome and its rounded image.
    """
    report = check_bcwe(game, outcome)
    if report.worst_violation > 1e-6:
        raise ValueError(f"outcome violates obedience by {_shown(report.worst_violation)}")
    prior = {s: game.prior_of(s) for s in game.states}
    rows = []
    for n in n_list:
        agame = AtomicGame(game, (n,) * len(game.populations))
        bce = construct_eps_bce(agame, outcome)
        dist = wasserstein_outcome_distance(outcome, bce.outcome, prior)
        rows.append(ConvergenceRow(n, float(bce.delta), bce.eps, dist))
    return rows
