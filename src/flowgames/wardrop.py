"""Equilibrium computation for single-state slices of a game.

Every equilibrium of a congestion-backed game is exact: one linear
complementarity problem over the populations' simplexes, solved by Lemke's
method (:func:`_block_lcp`). Affine costs with a convex potential, in either
input format, are solved in one run (:func:`_affine_equilibrium`); higher
latency degrees by Josephy-Newton steps (:func:`_josephy`), each one run on
the latencies linearized at the last iterate, until the exact gap is within
tolerance. The Bayes-Wardrop solve of :mod:`flowgames.infostruct` takes the
same steps on the kernel-weighted auxiliary game. Games without a potential
are handled by damped best-response iteration, which reports rather than
hides non-convergence.
"""

from __future__ import annotations

import functools
import itertools
import math
from fractions import Fraction

from .lp import _lemke
from .model import (
    CongestionSpec,
    EvaluationError,
    FlowProfile,
    GameSpec,
    _Record,
    _affine_form,
    _check_shape,
    _check_tol,
    _check_unit,
    _cost_fn,
    _evaluate,
    _fold,
    _int_flows,
    _lifted_costs,
    _trusted_profile,
    eval_cost,
    flow_linf,
    flow_sort_key,
    uniform_flow,
    vertex_flow,
)


class WESolveResult(_Record):
    """A solver's best flow with its certified equilibrium violation.

    ``max_violation`` is the raw signed worst violation as reported by
    :func:`verify_we` on the returned flow, as a float. ``iterations`` counts
    the solver's steps: Lemke runs for :func:`solve_we_potential`, and for
    :func:`solve_we_br` the steps it made before it stopped (converged,
    stalled at its step floor, or at ``_BR_MAX_ITER``), 0 from a start
    within ``tol``.
    """

    flow: FlowProfile
    max_violation: float
    iterations: int


def potential_value(spec: CongestionSpec, flow: FlowProfile, state: str):
    """Potential: sum over resources of the latency antiderivative at the load.

    Uses the exact closed form of the polynomial antiderivative
    (:func:`_potential`), so rational flows give exact rational values.
    """
    if state not in spec.states:
        raise ValueError(f"unknown state {state!r}")
    blocks = [(pop, 1) for pop in spec.populations]
    rows = _congestion_rows(spec, blocks, [(1, state, range(len(blocks)))])[1]
    return _potential(rows, [v for vec in flow.flows for v in vec])


def verify_we(game: GameSpec, flow: FlowProfile, state: str):
    """Worst equilibrium violation: max over k, a, b of y_a (c_a - c_b).

    Nonpositive iff the flow is a Wardrop equilibrium. Returned raw and
    signed; callers compare against their own tolerance. A flow of another
    shape than the game's is a ValueError.

    On an exact flow the gap is a ``Fraction`` taken in ints: the flow's
    numerators over their lcm dy and the game's lifted integer costs
    (:func:`model._lifted_costs`), so y_a (c_a - min c) has the numerator
    yy_a (N_a - N_min) over dy * dy**deg * q.
    """
    _check_shape(game, flow)
    pops = game.populations
    if all(type(v) in (int, Fraction) for vec in flow.flows for v in vec):
        # the costs of one-action populations are never read, as below
        acts = [p.actions if len(p.actions) >= 2 else () for p in pops]
        costs, deg, q = _lifted_costs(game, state, acts)
        ys, dy = _int_flows(flow.flows)
        worst = _worst_int_gap(ys, dy, costs)
        return 0 if worst is None else Fraction(worst, dy ** (deg + 1) * q)
    return _worst_gap(
        (flow.flows[k], [eval_cost(game, pop.name, a, flow, state) for a in pop.actions])
        for k, pop in enumerate(game.populations)
        if len(pop.actions) >= 2
    )


def _worst_int_gap(ys, dy: int, costs):
    """The numerator of the worst y_a (c_a - min c) at the int flows ``ys``
    over ``dy``, given the lifted costs ``costs`` (see
    :func:`model._lifted_costs`), whose cost_a = N_a / (dy**deg * q): the
    max of yy_a (N_a - N_min) over populations with costs, or None when no
    action of theirs has flow."""
    worst = None
    for vec, fns in zip(ys, costs):
        if fns:
            ns = [f(ys, dy) for f in fns]
            cheapest = min(ns)
            for y, n in zip(vec, ns):
                if y and (worst is None or y * (n - cheapest) > worst):
                    worst = y * (n - cheapest)
    return worst


def _worst_gap(populations):
    """Max of y_a (c_a - min c) over (flow vector, costs) pairs, skipping
    actions without flow; 0 when there are none.

    On a float vector with at most one cost that is not a float, the gaps are
    taken on ``float(c)``: a ``Fraction`` minus a float is already that float
    difference, and rounding keeps the order of the costs, so the gaps are the
    same floats as exact subtraction gives. Two exact costs stay exact.
    """
    worst = None
    for vec, costs in populations:
        if sum(type(c) is not float for c in costs) <= 1 and all(type(y) is float for y in vec):
            costs = [float(c) for c in costs]
        cheapest = min(costs)
        for y, c in zip(vec, costs):
            if y == 0:
                continue
            gap = y * (c - cheapest)
            if worst is None or gap > worst:
                worst = gap
    return 0 if worst is None else worst


def solve_we_potential(game: GameSpec, state: str, tol: float = 1e-8) -> WESolveResult:
    """The exact equilibrium of a congestion-backed game: the minimizer of its
    convex potential.

    Affine latencies take one Lemke run (:func:`_affine_equilibrium`), higher
    degrees Josephy-Newton steps (:func:`_josephy`), each a Lemke run on the
    latencies linearized at the last iterate, until the exact
    :func:`verify_we` gap is within ``tol``. The flow is exact,
    ``max_violation`` the float of its gap and ``iterations`` the Lemke runs
    made. Raises ValueError when ``game.congestion`` is None.
    """
    _check_tol(tol)
    spec = game.congestion
    if spec is None:
        raise ValueError("needs a congestion-backed game")
    game.state_index(state)
    flow, steps = _affine_equilibrium(game, state), 1
    if flow is None:
        blocks = [(pop, 1) for pop in spec.populations]
        pieces = [(1, state, range(len(blocks)))]
        flows, _gap, steps = _josephy(spec, blocks, pieces, tol, lambda f: verify_we(game, _trusted_profile(f), state))
        flow = _trusted_profile(flows)
    return WESolveResult(flow, float(verify_we(game, flow, state)), steps)


def _josephy(spec: CongestionSpec, blocks, pieces, tol, gap) -> tuple:
    """Congestion flows solved by Josephy-Newton steps: (flows, their gap,
    the steps made).

    ``blocks`` are (population, mass) pairs, one simplex of flows each, whose
    loads add up in ``pieces`` (see :func:`_congestion_rows`). Each step is
    one Lemke run (:func:`_block_lcp`) on the latencies linearized at loads
    (:func:`_linearized`): the first at load 0, on their linear parts, the
    next ones at the last iterate's loads rounded to multiples of 1 / s, s =
    ceil(1 / tol). Latency coefficients are nonnegative, so each
    linearization's J is positive semidefinite, its run ends on a solution
    z, and z minimizes the potential's quadratic model there (Josephy 1979;
    Cottle, Pang & Stone 1992). The next iterate is z, or, where z does not
    lower the exact potential (:func:`_potential`), the first point 1/2,
    1/4, ... of the way to it that does, as Newton's method is only locally
    convergent. The steps stop at the first flows whose ``gap`` is within
    ``tol``, or when no step of at least 1 / s of the way lowers the
    potential, and the flows of least gap are returned.
    """
    ranges, rows = _congestion_rows(spec, blocks, pieces)
    masses, scale = [mass for _pop, mass in blocks], math.ceil(1 / tol)
    y = level = best = None
    steps = 0
    while True:
        if y is None:
            loads = [0] * len(rows)
        else:
            loads = [Fraction(round(sum(y[j] for j in cols) * scale), scale) for *_, cols in rows]
        z = [v for vec in _block_lcp(*_linearized(rows, loads, ranges[-1][1]), ranges, masses) for v in vec]
        steps += 1
        if y is not None:
            if level is None:
                level = _potential(rows, y)
            shrink = 1
            while (value := _potential(rows, z)) >= level:
                shrink *= 2
                if shrink > scale:
                    return (*best, steps)
                z = [(a + b) / 2 for a, b in zip(y, z)]  # halfway back to y
            level = value
        y = z
        flows = tuple(tuple(y[lo:hi]) for lo, hi in ranges)
        violation = gap(flows)
        if best is None or violation < best[1]:
            best = flows, violation
        if violation <= tol:
            return (*best, steps)


def _potential(rows, y):
    """The potential at the flows ``y`` of the variables of ``rows`` (see
    :func:`_congestion_rows`): each row's weight times its latency's
    antiderivative at its load, exact on rational flows."""
    total = 0
    for weight, coeffs, cols in rows:
        x, value = sum(y[j] for j in cols), 0
        for j in reversed(range(len(coeffs))):
            value = value * x + coeffs[j] / (j + 1)
        total += weight * value * x
    return total


def _congestion_rows(spec: CongestionSpec, blocks, pieces) -> tuple:
    """The [start, end) variable range of each (population, mass) block, and
    the rows of ``pieces``: (weight, state, member block indices) triples,
    in which each resource that some member action uses adds the weight
    times the state's latency at its load to those actions' costs. A row is
    (weight, latency coefficients, the variables using the resource), every
    number a ``Fraction``."""
    ranges, uses = [], []
    for pop, _mass in blocks:
        ranges.append((len(uses), len(uses) + len(pop.actions)))
        uses.extend(spec.actions[(pop.name, a)] for a in pop.actions)
    rows = [
        (Fraction(weight), [Fraction(c) for c in spec.latencies[(e, state)]], cols)
        for weight, state, members in pieces
        for e in spec.resources
        if (cols := [j for b in members for j in range(*ranges[b]) if e in uses[j]])
    ]
    return ranges, rows


def _linearized(rows, loads, n: int) -> tuple:
    """The costs of ``n`` variables as ints (k0, J, q), variable a costing
    (k0[a] + sum_b J[a][b] y_b) / q, when each row's latency l is replaced by
    its tangent at the row's load x, l(x) + l'(x) (load - x): exact on
    rational loads, and the costs themselves at flows of those loads."""
    lines = []
    for (weight, coeffs, cols), x in zip(rows, loads):
        value = slope = 0
        for c in reversed(coeffs):  # Horner's rule for l(x) and l'(x)
            slope = slope * x + value
            value = value * x + c
        lines.append((weight * (value - slope * x), weight * slope, cols))
    q = math.lcm(*(v.denominator for a, b, _ in lines for v in (a, b)))
    k0, J = [0] * n, [[0] * n for _ in range(n)]
    for a, b, cols in lines:
        a, b = a.numerator * (q // a.denominator), b.numerator * (q // b.denominator)
        for i in cols:
            k0[i] += a
            row = J[i]
            for j in cols:
                row[j] += b
    return k0, J, q


# the step budget of a best-response solve
_BR_MAX_ITER = 2000


def solve_we_br(
    game: GameSpec,
    state: str,
    start: FlowProfile,
    tol: float = 1e-6,
) -> WESolveResult:
    """Damped best response: shift mass toward cheapest actions, halving the
    step on oscillation. Works on any game; convergence is reported, not
    assumed.

    The step halves each time the violation rises, down to a floor of 1e-9.
    Once the violation rises again at that floor to a value above the best
    one seen, the solve stops: the step never grows back, so the remaining
    steps could move each entry by at most 1e-9 apiece. It returns the best
    profile seen and its violation, after at most ``_BR_MAX_ITER`` steps.
    Raises ValueError when ``start`` has another shape than the game's flows.
    """
    _check_tol(tol)
    _check_shape(game, start, "start flow")
    flows = [list(map(float, vec)) for vec in start.flows]
    eta = 0.5
    # the profile costs are evaluated at: each population's ``flows`` clipped
    # and scaled to unit mass, renewed after that population's step
    profile = best = tuple(_normalized(k, vec) for k, vec in enumerate(flows))
    movers = [
        (k, pop.name, pop.actions, [_cost_fn(game, pop.name, a, state) for a in pop.actions])
        for k, pop in enumerate(game.populations)
        if len(pop.actions) >= 2
    ]

    def costs(mover, profile):
        _k, name, actions, fns = mover
        return [_evaluate(f, profile, name, a) for f, a in zip(fns, actions)]

    def measure(profile):
        """Every mover's costs at ``profile``, and the violation verify_we gives there."""
        at = [costs(m, profile) for m in movers]
        return at, float(_worst_gap((profile[m[0]], c) for m, c in zip(movers, at)))

    at_profile, best_v = measure(profile)
    prev_v = best_v
    iters = 0  # steps made
    while best_v > tol and iters < _BR_MAX_ITER:
        iters += 1
        for i, mover in enumerate(movers):
            k = mover[0]
            # the first mover steps at the profile the last violation measured
            step_costs = [float(c) for c in (at_profile[0] if i == 0 else costs(mover, profile))]
            cheapest = min(step_costs)
            winners = [j for j, c in enumerate(step_costs) if c <= cheapest + 1e-15]
            moved = 0.0
            for j, c in enumerate(step_costs):
                if j in winners:
                    continue
                shift = eta * flows[k][j] * min(1.0, c - cheapest)
                flows[k][j] -= shift
                moved += shift
            for j in winners:
                flows[k][j] += moved / len(winners)
            profile = profile[:k] + (_normalized(k, flows[k]),) + profile[k + 1 :]
        at_profile, v = measure(profile)
        if v < best_v:
            best, best_v = profile, v
        if v > prev_v + 1e-15:
            if eta == 1e-9 and v > best_v:
                # stalled: the step stays at its floor, so the remaining
                # steps move each entry by at most 1e-9 apiece
                break
            eta = max(eta / 2, 1e-9)
        prev_v = v
    return WESolveResult(FlowProfile(best), best_v, iters)


def _normalized(k: int, vec) -> tuple:
    """Population ``k``'s flow clipped at 0 and scaled to unit mass."""
    clipped = [max(0.0, v) for v in vec]
    total = _fold(clipped)
    out = tuple(v / total for v in clipped) if total > 0 else tuple(clipped)
    _check_unit(_fold(out), "population {} flow sums", k)
    return out


def solve_we_multistart(game: GameSpec, state: str, tol: float = 1e-6) -> list[WESolveResult]:
    """Best-response solving from every vertex plus the uniform profile.

    Returns all converged results (violation <= tol), deduplicated within
    L-infinity 10*tol, sorted lexicographically by flow.
    """
    starts = [uniform_flow(game)]
    shape = [len(p.actions) for p in game.populations]
    if math.prod(shape) <= 64:
        for choices in itertools.product(*[range(s) for s in shape]):
            starts.append(vertex_flow(game, choices))
    found: list[WESolveResult] = []
    for start in starts:
        result = solve_we_br(game, state, start, tol)
        if result.max_violation > tol:
            continue
        if any(flow_linf(result.flow, r.flow) <= 10 * tol for r in found):
            continue
        found.append(result)
    found.sort(key=lambda r: flow_sort_key(r.flow))
    return found


def _simplex_grid(n_actions: int, resolution: int) -> list:
    """All length-n tuples of nonnegative ints summing to ``resolution``, in
    lexicographic order: the numerators of a simplex lattice."""
    if n_actions == 1:
        return [(resolution,)]
    return [
        (i,) + rest
        for i in range(resolution + 1)
        for rest in _simplex_grid(n_actions - 1, resolution - i)
    ]


def _lattice_size(game: GameSpec, resolution: int) -> int:
    """The number of flows :func:`grid_flows` returns, counted without
    building them; ValueError unless ``resolution`` is an int (not a bool)
    of at least 1."""
    if isinstance(resolution, bool) or not isinstance(resolution, int) or resolution < 1:
        raise ValueError(f"resolution must be an int of at least 1, got {resolution!r}")
    return math.prod(
        math.comb(resolution + len(p.actions) - 1, len(p.actions) - 1) for p in game.populations
    )


def _population_grids(game: GameSpec, resolution: int) -> list:
    """Each population's :func:`_simplex_grid`, once the lattice is under the 1e7 cap."""
    size = _lattice_size(game, resolution)
    if size > 10**7:
        raise ValueError(f"grid of size {size} exceeds the 1e7 cap")
    return [_simplex_grid(len(p.actions), resolution) for p in game.populations]


def grid_flows(game: GameSpec, resolution: int) -> list[FlowProfile]:
    """The product over populations of simplex lattices with the given
    denominator, in lexicographic order: :func:`_simplex_grid`'s numerators
    i, each mapped to one ``Fraction(i, resolution)`` shared by the whole
    lattice. Each flow carries ``resolution`` (see
    :func:`~flowgames.model._trusted_profile`)."""
    grids = _population_grids(game, resolution)
    table = [Fraction(i, resolution) for i in range(resolution + 1)]
    per_pop = [[tuple(table[i] for i in vec) for vec in grid] for grid in grids]
    # lattice entries are nonnegative Fractions summing to 1 by construction
    return [_trusted_profile(flows, resolution) for flows in itertools.product(*per_pop)]


def _lattice_scores(game: GameSpec, state: str, resolution: int, points: list) -> tuple:
    """``float(verify_we)`` at every lattice point (integer numerators over
    ``resolution``), and the largest cost spread within one population over
    every len // 128-th point, as floats of the exact costs.

    The costs come from the integer backend over one denominator, cost_a =
    N_a / (r**deg * q) at r = ``resolution``, so a population's worst gap
    y_a (c_a - c_min) has the numerator i_a (N_a - N_min) over r * r**deg * q.
    One int true division per point rounds the worst gap correctly, as
    ``float(Fraction)`` does: the scores are the floats of the exact violations.
    A score beyond float range raises EvaluationError naming the lattice flow.
    """
    # one-action populations lifted as empty: their costs are never read
    costs, deg, q = _lifted_costs(game, state, [p.actions if len(p.actions) >= 2 else () for p in game.populations])
    r, den = resolution, resolution**deg * q
    scores = []
    for point in points:
        try:
            scores.append((_worst_int_gap(point, r, costs) or 0) / (r * den))
        except OverflowError:
            flow = "; ".join(", ".join(str(Fraction(i, r)) for i in vec) for vec in point)
            message = f"violation in state {state!r} is too large for a float at lattice flow ({flow})"
            raise EvaluationError(message) from None
    spread = 0.0
    for point in points[:: max(1, len(points) // 128)]:
        for fs in filter(None, costs):
            floats = [f(point, r) / den for f in fs]
            spread = max(spread, max(floats) - min(floats))
    return scores, spread


def _snap_rational(game: GameSpec, flow: FlowProfile, state: str) -> FlowProfile:
    """Replace a solver's flow with a nearby rational flow of small
    denominators.

    It serves the games :func:`_affine_equilibrium` does not solve exactly:
    higher-degree congestion latencies, whose equilibria can be irrational
    and whose exact potential solve returns ever larger denominators, and
    costs without an affine convex potential, solved by best response in
    floats. Each population's entries, as floats, are rounded to
    denominators of at most 64, 4096 and 10^6 in turn, the drift going to
    the largest entry, and the first rounding that verifies exactly is
    returned: an equilibrium (or one on a tie). When none verifies, as at an
    irrational equilibrium, the 10^6 rounding is returned, an equilibrium up
    to its exact :func:`verify_we` gap. A rounding whose drift would make an
    entry negative is skipped, as the 10^6 one never is below 1,415 actions
    a population; ``flow`` itself comes back only when all three are.
    """
    candidate = flow
    for bound in (64, 4096, 10**6):
        flows = []
        ok = True
        for vec in flow.flows:
            vals = [Fraction(float(v)).limit_denominator(bound) for v in vec]
            # absorb the rounding drift into the largest coordinate
            j = max(range(len(vals)), key=lambda i: vals[i])
            vals[j] += 1 - sum(vals)
            if vals[j] < 0:
                ok = False
                break
            flows.append(tuple(vals))
        if not ok:
            continue
        candidate = FlowProfile(tuple(flows))
        if verify_we(game, candidate, state) <= 0:
            return candidate
    return candidate


def _float_image(flow: FlowProfile) -> FlowProfile:
    """A rational flow as the floats a polish returns from it at once: each
    population's entries rounded, clipped and scaled to unit mass."""
    return FlowProfile(tuple(_normalized(k, [float(y) for y in vec]) for k, vec in enumerate(flow.flows)))


def _affine_equilibrium(game: GameSpec, state: str) -> FlowProfile | None:
    """The exact equilibrium of ``state`` by :func:`_block_lcp`, whatever the
    input format; None unless the costs (k0 + J y) / q are affine with a
    convex potential (:func:`model._affine_form`, :func:`_convex`), or when
    the run ends on a ray, as it did on no sampled game whose J is positive
    semidefinite on flows of mass 0 only."""
    form = _affine_form(game, state)
    blocks = list(itertools.pairwise([0, *itertools.accumulate(len(p.actions) for p in game.populations)]))
    if form is None or not _convex(form[1], blocks):
        return None
    flows = _block_lcp(*form, blocks, [1] * len(blocks))
    if flows is None:
        return None
    # nonnegative and of unit mass by the LCP
    flow = _trusted_profile(flows)
    return flow if verify_we(game, flow, state) == 0 else None


def _block_lcp(k0, J, q, blocks, masses):
    """The flows of an affine equilibrium by :func:`lp._lemke`, one tuple per
    index range of ``blocks``, or None when its run ends on a ray.

    Action a costs (k0[a] + sum_b J[a][b] y_b) / q, all ints with J
    symmetric, and block k carries ``masses[k]`` > 0. J plus c = max(0, -min
    J) in every entry adds c times the total mass to each cost: the same
    equilibria, and J >= 0. With E summing each block's flows, the LCP has z
    = (y, lambda), M = [[J, -q E^T], [q E, 0]] and q-vector (k0 + t, -q m),
    t = q - min(0, k0): each action costs at least lambda_k - t/q, exactly so
    where it has flow, so lambda_k >= 1, each block carries its mass and
    every solution is an equilibrium. Where J is positive semidefinite, as
    with nondecreasing congestion latencies, M is and the run ends on one
    (Cottle, Pang & Stone 1992)."""
    c, n, t = max(0, -min(map(min, J))), len(k0), q - min(0, *k0)
    rows = [(k, row) for k, (lo, hi) in enumerate(blocks) for row in J[lo:hi]]
    columns = [[*((j, v + c) for j, v in enumerate(row)), (n + k, q)] for k, row in rows]
    columns += [[(j, -q) for j in range(lo, hi)] for lo, hi in blocks]
    z = _lemke(columns, [v + t for v in k0] + [-q * m for m in masses])
    return None if z is None else tuple(tuple(z[lo:hi]) for lo, hi in blocks)


def _convex(J, blocks) -> bool:
    """Whether the int matrix ``J`` is symmetric and positive semidefinite on
    the flows that sum to 0 in each of the populations' index ``blocks``:
    exact, by Bareiss's elimination of its form in the basis e_a - e_lo."""
    if J != [list(col) for col in zip(*J)]:
        return False
    basis = [(lo, a) for lo, hi in blocks for a in range(lo + 1, hi)]
    rows, p0 = [[J[a][b] - J[a][g] - J[f][b] + J[f][g] for g, b in basis] for f, a in basis], 1
    while rows:
        (p, *r), rows = rows[0], rows[1:]
        if p < 0 or (not p and any(r)):
            return False  # a flow of negative curvature
        # each entry stays a minor, so the division is exact; a zero row drops out
        rest = [row[1:] for row in rows]
        rows = [[(p * v - ri * w) // p0 for v, w in zip(row, r)] for ri, row in zip(r, rest)] if p else rest
        p0 = p or p0
    return True


def _state_equilibria(game: GameSpec, state: str) -> list[FlowProfile]:
    """The equilibria of ``state`` that design grids, full disclosure and the
    ccwe grid gap start from, none when no solve converges: the exact one of
    :func:`_affine_equilibrium`, else a congestion game's exact potential
    solve, kept within 1e-8, or the best-response multistart, each rounded to
    a rational flow by :func:`_snap_rational` (exactly an equilibrium where
    one verifies, else up to its exact gap) and listed once. The potential
    solve asks for a gap of 1e-15, far below the 1e-12 spacing of the 10^6
    rounding, so the rounding is that of the equilibrium itself."""
    game.state_index(state)
    exact = _affine_equilibrium(game, state)
    if exact is not None:
        return [exact]
    if game.congestion is not None:
        result = solve_we_potential(game, state, 1e-15)
        found = [result.flow] if result.max_violation <= 1e-8 else []
    else:
        found = [r.flow for r in solve_we_multistart(game, state)]
    return list(dict.fromkeys(_snap_rational(game, f, state) for f in found))


def enumerate_we_grid(
    game: GameSpec, state: str, resolution: int = 64, tol: float = 1e-6
) -> list[FlowProfile]:
    """Find equilibria by scanning a lattice and polishing near-equilibria.

    Every grid flow is scored by its :func:`verify_we` violation, computed in
    integers (see :func:`_lattice_scores`), best score first. A flow whose
    score is exactly 0 is an equilibrium and final: it is kept as its float
    image, with no solver run. Other flows within an adaptive threshold of
    equilibrium are polished; kept flows are deduplicated within L-infinity
    10*tol.

    A congestion-backed game's potential is convex, as is that of the
    affine costs :func:`_affine_equilibrium` solves: its minimizers are the
    equilibria. So the scan returns the exact lattice equilibria, or, when
    there is none, the float image of the exact equilibrium, whatever the
    candidate, solved at most once per call: :func:`solve_we_potential`'s
    within min(``tol``, 1e-10) on a congestion-backed game, kept if within
    ``tol``. Other games are polished by best response, which stalls
    ~sqrt(tol) short of boundary equilibria: a polish that is new is
    replaced by the float image of a nearby exact equilibrium when one
    verifies. Heuristic by nature: exactness is only claimed for equilibria
    on or near the lattice.
    """
    _check_tol(tol)
    points = list(itertools.product(*_population_grids(game, resolution)))
    scores, spread = _lattice_scores(game, state, resolution, points)
    keep = max(tol, 4.0 * spread / resolution)
    table = [Fraction(i, resolution) for i in range(resolution + 1)]

    @functools.cache
    def exact():
        if game.congestion is None:
            return _affine_equilibrium(game, state)
        solved = solve_we_potential(game, state, min(tol, 1e-10))
        return solved.flow if solved.max_violation <= tol else None

    result: list[FlowProfile] = []

    def known(flow):
        return any(flow_linf(flow, r) <= 10 * tol for r in result)

    # process best candidates first (a stable sort, in lattice order among
    # ties) so an exact lattice equilibrium, not a polished neighbor, is the
    # kept representative of its cluster
    for i in sorted(range(len(points)), key=scores.__getitem__):
        if scores[i] > keep or (scores[i] > 0 and result and (game.congestion is not None or exact() is not None)):
            break
        # lattice entries are nonnegative Fractions summing to 1 by construction
        f = _trusted_profile(tuple(tuple(table[y] for y in vec) for vec in points[i]))
        if scores[i] == 0:
            candidate = _float_image(f)
        elif exact() is not None:
            candidate = _float_image(exact())
        elif game.congestion is not None:
            continue
        else:
            polished = solve_we_br(game, state, f, tol)
            if polished.max_violation > tol or known(polished.flow):
                continue
            snapped = _snap_rational(game, polished.flow, state)
            candidate = _float_image(snapped) if verify_we(game, snapped, state) <= 0 else polished.flow
        if known(candidate):
            continue
        result.append(candidate)
    result.sort(key=flow_sort_key)
    return result
