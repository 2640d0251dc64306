"""Equilibrium computation for single-state slices of a game.

Congestion-backed games are solved by minimizing the convex potential (the
sum over resources of latency antiderivatives) with Frank-Wolfe steps plus a
Newton polish on the detected support, which brings equilibrium violations
down to solver precision. Games without a potential are handled by damped
best-response iteration, which reports rather than hides non-convergence.
"""

from __future__ import annotations

import itertools
import math
import sys
from dataclasses import dataclass
from fractions import Fraction

from ._numpy import np
from .lp import _column, _factor
from .model import (
    CongestionSpec,
    EvaluationError,
    FlowProfile,
    GameSpec,
    _check_tol,
    _check_unit,
    _cost_fn,
    _evaluate,
    _lifted_costs,
    _trusted_profile,
    eval_cost,
    flow_linf,
    flow_sort_key,
    load_profile,
    uniform_flow,
    vertex_flow,
)


@dataclass(frozen=True)
class WESolveResult:
    """A solver's best flow with its certified equilibrium violation.

    ``max_violation`` is the raw signed worst violation as reported by
    :func:`verify_we` on the returned flow.
    """

    flow: FlowProfile
    max_violation: float
    iterations: int


def potential_value(spec: CongestionSpec, flow: FlowProfile, state: str):
    """Potential: sum over resources of the latency antiderivative at the load.

    Uses the exact closed form of the polynomial antiderivative, so rational
    flows give exact rational values.
    """
    if state not in spec.states:
        raise ValueError(f"unknown state {state!r}")
    loads = load_profile(spec, flow)
    total = 0
    for e in spec.resources:
        x = loads[e]
        coeffs = spec.latencies[(e, state)]
        term = 0
        power = x
        for j, c in enumerate(coeffs):
            # dividing by Fraction keeps rational inputs exact and floats float
            term = term + c * power / Fraction(j + 1)
            power = power * x
        total = total + term
    return total


def verify_we(game: GameSpec, flow: FlowProfile, state: str):
    """Worst equilibrium violation: max over k, a, b of y_a (c_a - c_b).

    Nonpositive iff the flow is a Wardrop equilibrium. Returned raw and
    signed; callers compare against their own tolerance.
    """
    return _worst_gap(
        (flow.flows[k], [eval_cost(game, pop.name, a, flow, state) for a in pop.actions])
        for k, pop in enumerate(game.populations)
        if len(pop.actions) >= 2
    )


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


# ---------------------------------------------------------------------------
# Shared block-simplex potential minimizer
# ---------------------------------------------------------------------------


def _horner(coef, loads):
    """Evaluate every row's polynomial (ascending powers) at its own load."""
    acc = coef[:, -1]
    for j in range(coef.shape[1] - 2, -1, -1):
        acc = acc * loads + coef[:, j]
    return acc


def _brent_root(f, a, b, fa, fb):
    """Root of f on [a, b] by Brent's method, given fa = f(a) and fb = f(b).

    A step-for-step port of scipy's ``brentq`` (``brentq.c``) called with
    ``xtol=1e-14`` and its default ``rtol`` and ``maxiter``, so it returns
    the same float for the same inputs; raises RuntimeError if it does not
    converge in 100 iterations.
    """
    xpre, xcur, fpre, fcur = a, b, fa, fb
    xblk = fblk = spre = scur = 0.0
    if fpre == 0:
        return xpre
    if fcur == 0:
        return xcur
    if (fpre < 0) == (fcur < 0):
        raise ValueError("f(a) and f(b) must have different signs")
    for _ in range(100):
        if fpre != 0 and fcur != 0 and (fpre < 0) != (fcur < 0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        # scipy's brentq with xtol=1e-14 and its default rtol of 4 eps
        delta = (1e-14 + 4 * sys.float_info.epsilon * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0 or abs(sbis) < delta:
            return xcur
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            bound = 3 * abs(sbis) - delta
            if 2 * abs(stry) < (abs(spre) if abs(spre) < bound else bound):
                spre, scur = scur, stry
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        xcur += scur if abs(scur) > delta else (delta if sbis > 0 else -delta)
        fcur = f(xcur)
    raise RuntimeError("Brent root search failed to converge after 100 iterations")


class _PotentialCore:
    """Minimize sum_e F_e(M x) over a product of scaled simplexes.

    ``incidence`` is the dense 0/1 row-by-variable matrix, ``polys`` the
    per-row latency coefficient lists (ascending powers, floats), ``blocks``
    the [start, end) variable ranges of each simplex, and ``masses`` the
    simplex scales. Latencies are held as a zero-padded coefficient matrix
    ``coef`` and its derivative ``dcoef``, both evaluated by Horner's rule.
    """

    def __init__(self, incidence, polys, blocks, masses):
        self.m = incidence
        # at least two columns, so the derivative matrix has one
        width = max([2] + [len(p) for p in polys])
        self.coef = np.zeros((len(polys), width))
        for i, p in enumerate(polys):
            self.coef[i, : len(p)] = p
        self.dcoef = self.coef[:, 1:] * np.arange(1, width)
        self.blocks = blocks
        self.masses = np.asarray(masses, dtype=float)
        self.n = self.m.shape[1]

    def costs(self, x):
        return self.m.T @ _horner(self.coef, self.m @ x)

    def fw_vertex(self, g):
        s = np.zeros(self.n)
        g = g.tolist()
        for (lo, hi), mass in zip(self.blocks, self.masses):
            block = g[lo:hi]
            # the first minimum, as np.argmin takes it
            s[lo + block.index(min(block))] = mass
        return s

    def line_search(self, x, d, h0):
        """Step in [0, 1] to the potential's minimum along ``d``, given its
        slope ``h0 < 0`` at ``x``."""

        def h(t):
            return float(self.costs(x + t * d) @ d)

        h1 = h(1.0)
        if h1 <= 0:
            return 1.0
        return _brent_root(h, 0.0, 1.0, h0, h1)

    def frank_wolfe(self, x, iters):
        for t in range(iters):
            g = self.costs(x)
            d = self.fw_vertex(g) - x
            slope = float(g @ d)
            if slope >= -1e-14:
                return x, t
            x = x + self.line_search(x, d, slope) * d
        return x, iters

    def violation(self, x):
        g, y = self.costs(x).tolist(), x.tolist()
        return _worst_gap((y[lo:hi], g[lo:hi]) for lo, hi in self.blocks)

    def newton_polish(self, x):
        """Solve the equal-cost system on the active support exactly.

        Returns the polished point or None. The support starts from the
        near-minimal-cost actions and is repaired by dropping actions that
        go negative and adding actions that undercut the support cost.
        """
        g = self.costs(x)
        support = []
        for (lo, hi), mass in zip(self.blocks, self.masses):
            cheapest = float(np.min(g[lo:hi]))
            scale = 1.0 + abs(cheapest)
            sup = [j for j in range(lo, hi) if x[j] > 1e-8 or g[j] <= cheapest + 1e-6 * scale]
            support.append(sup)
        for _ in range(2 * self.n + 2):
            y = self._solve_support(support, x)
            if y is None:
                return None
            changed = False
            for bi, ((lo, hi), sup) in enumerate(zip(self.blocks, support)):
                neg = [j for j in sup if y[j] < -1e-12]
                if neg and len(sup) > 1:
                    worst = min(neg, key=lambda j: y[j])
                    support[bi] = [j for j in sup if j != worst]
                    changed = True
            if changed:
                continue
            y = np.maximum(y, 0.0)
            for (lo, hi), mass in zip(self.blocks, self.masses):
                total = y[lo:hi].sum()
                if total > 0 and mass > 0:
                    y[lo:hi] *= mass / total
            g = self.costs(y)
            grew = False
            for bi, ((lo, hi), sup) in enumerate(zip(self.blocks, support)):
                in_cost = max(float(g[j]) for j in sup)
                scale = 1.0 + abs(in_cost)
                outside = [
                    j for j in range(lo, hi) if j not in sup and g[j] < in_cost - 1e-10 * scale
                ]
                if outside:
                    support[bi] = sorted(sup + [min(outside, key=lambda j: g[j])])
                    grew = True
            if grew:
                continue
            return y
        return None

    def _solve_support(self, support, x):
        index = [j for sup in support for j in sup]
        if not index:
            return None
        pos = {j: i for i, j in enumerate(index)}
        msub = self.m[:, index]
        size = len(index)
        sub = np.asarray(x, dtype=float)[index]

        def embed(values):
            y = np.zeros(self.n)
            y[index] = values
            return y

        for _round in range(60):
            y = embed(sub)
            loads = self.m @ y
            g = self.m.T @ _horner(self.coef, loads)
            dvals = _horner(self.dcoef, loads)
            hess = msub.T @ (dvals[:, None] * msub)
            rows = []
            rhs = []
            for bi, sup in enumerate(support):
                base = sup[0]
                for j in sup[1:]:
                    rows.append(hess[pos[j], :] - hess[pos[base], :])
                    rhs.append(-(g[j] - g[base]))
                mass_row = np.zeros(size)
                for j in sup:
                    mass_row[pos[j]] = 1.0
                rows.append(mass_row)
                rhs.append(self.masses[bi] - sum(sub[pos[j]] for j in sup))
            a = np.vstack(rows)
            b = np.asarray(rhs)
            if np.max(np.abs(b)) < 1e-14:
                return y
            try:
                step, *_ = np.linalg.lstsq(a, b, rcond=None)
            except np.linalg.LinAlgError:
                return None
            sub = sub + step
            if np.max(np.abs(step)) < 1e-15:
                return embed(sub)
        return embed(sub)

    def minimize(self, x0, tol, max_iter):
        """Alternate Frank-Wolfe chunks with polish attempts; returns the
        least-violating point and the Frank-Wolfe iterations used."""
        x = np.asarray(x0, dtype=float)
        best = x
        best_v = self.violation(x)
        done = 0
        chunk = 10
        while done < max_iter:
            if best_v <= tol:
                break
            steps = min(chunk, max_iter - done)
            x, used = self.frank_wolfe(x, steps)
            done += used
            v = self.violation(x)
            if v < best_v:
                best, best_v = x, v
            polished = self.newton_polish(x)
            if polished is not None:
                pv = self.violation(polished)
                if pv < best_v:
                    best, best_v = polished, pv
            if used < steps:
                break
            chunk = min(chunk * 2, 80)
        return best, done


def _congestion_core(spec: CongestionSpec, blocks, pieces) -> _PotentialCore:
    """The potential core of congestion flows over ``blocks``, one
    (population, mass) pair per simplex, whose loads add up in ``pieces``.

    Each piece is a (weight, state, member block indices) triple. Every
    resource that some member action uses gives the piece one row: 1 in the
    columns of those actions, and the state's latency scaled by the weight.
    """
    uses, ranges = [], []
    for pop, _mass in blocks:
        ranges.append((len(uses), len(uses) + len(pop.actions)))
        uses.extend(spec.actions[(pop.name, a)] for a in pop.actions)
    rows, polys = [], []
    for weight, state, members in pieces:
        for e in spec.resources:
            cols = [j for b in members for j in range(*ranges[b]) if e in uses[j]]
            if cols:
                rows.append(cols)
                polys.append([weight * float(c) for c in spec.latencies[(e, state)]])
    m = np.zeros((len(rows), len(uses)))
    for i, cols in enumerate(rows):
        m[i, cols] = 1.0
    return _PotentialCore(m, polys, ranges, [mass for _pop, mass in blocks])


def _spec_core(spec: CongestionSpec, state: str) -> _PotentialCore:
    """The complete-information core: one piece over every population."""
    blocks = [(pop, 1) for pop in spec.populations]
    return _congestion_core(spec, blocks, [(1.0, state, range(len(blocks)))])


def _one_minimizer(spec: CongestionSpec, state: str) -> bool:
    """Whether the potential in ``state`` is strictly convex on the flows,
    decided exactly; then the game has exactly one Wardrop equilibrium.

    ``CongestionSpec`` admits only nonnegative coefficients (and keeps them
    read-only), so every latency is nondecreasing on loads >= 0: the
    potential is convex and its minimizers are the equilibria. It is
    strictly convex when the strictly increasing latencies (a positive
    coefficient of degree >= 1) move with every mass-preserving direction:
    their resources' incidence rows must have full column rank on the
    columns e_j - e_first of each population block.
    """
    polys = [spec.latencies[(e, state)] for e in spec.resources]
    columns = [
        (spec.actions[(pop.name, a)], spec.actions[(pop.name, pop.actions[0])])
        for pop in spec.populations
        for a in pop.actions[1:]
    ]
    rows = [
        [(e in used) - (e in first) for used, first in columns]
        for e, p in zip(spec.resources, polys)
        if any(c > 0 for c in p[1:])
    ]
    n = len(columns)
    gram = [[sum(r[i] * r[j] for r in rows) for j in range(n)] for i in range(n)]
    # full column rank iff the Gram matrix is nonsingular
    return _factor(range(n), [_column(enumerate(col)) for col in zip(*gram)], [0] * n, n) is not None


def _vector_of(flow: FlowProfile) -> np.ndarray:
    return np.array([float(v) for vec in flow.flows for v in vec])


def solve_we_potential(
    game: GameSpec,
    state: str,
    tol: float = 1e-8,
    start: FlowProfile | None = None,
) -> WESolveResult:
    """Equilibrium of a congestion-backed game by potential minimization.

    Frank-Wolfe iterations localize the support, and a Newton polish on the
    equal-cost system finishes the job; the reported violation is always
    re-measured by :func:`verify_we` on the returned flow. Raises ValueError
    when ``game.congestion`` is None or ``start`` has another shape than the
    game's flows.
    """
    _check_tol(tol)
    spec = game.congestion
    if spec is None:
        raise ValueError("needs a congestion-backed game")
    game.state_index(state)
    if start is not None and [len(v) for v in start.flows] != [len(p.actions) for p in game.populations]:
        raise ValueError("start flow does not match the game's populations and actions")
    if all(len(p.actions) == 1 for p in spec.populations):
        return WESolveResult(uniform_flow(game), 0.0, 0)
    core = _spec_core(spec, state)
    x0 = _vector_of(start if start is not None else uniform_flow(game))
    x, iters = core.minimize(x0, tol, 500)
    flow = FlowProfile(
        tuple(_normalized(k, x[lo:hi].tolist()) for k, (lo, hi) in enumerate(core.blocks))
    )
    return WESolveResult(flow, float(verify_we(game, flow, state)), iters)


def solve_we_br(
    game: GameSpec,
    state: str,
    start: FlowProfile,
    tol: float = 1e-6,
    max_iter: int = 2000,
) -> WESolveResult:
    """Damped best response: shift mass toward cheapest actions, halving the
    step on oscillation. Works on any game; convergence is reported, not
    assumed."""
    _check_tol(tol)
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
    iters = 0
    for iters in range(1, max_iter + 1):
        if best_v <= tol:
            break
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
            eta = max(eta / 2, 1e-9)
        prev_v = v
    return WESolveResult(FlowProfile(best), best_v, iters)


def _normalized(k: int, vec) -> tuple:
    """Population ``k``'s flow clipped at 0 and scaled to unit mass."""
    clipped = [max(0.0, v) for v in vec]
    total = sum(clipped)
    out = tuple(v / total for v in clipped) if total > 0 else tuple(clipped)
    _check_unit(sum(out), "population {} flow sums", k)
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
    """The number of flows :func:`grid_flows` returns, counted without building them."""
    if resolution < 1:
        raise ValueError("resolution must be >= 1")
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
    denominator: :func:`_simplex_grid`'s numerators i, each mapped to one
    ``Fraction(i, resolution)`` shared by the whole lattice."""
    table = [Fraction(i, resolution) for i in range(resolution + 1)]
    per_pop = [
        [tuple(table[i] for i in vec) for vec in grid] for grid in _population_grids(game, resolution)
    ]
    # lattice entries are nonnegative Fractions summing to 1 by construction
    return [_trusted_profile(combo) for combo in itertools.product(*per_pop)]


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
    pops = game.populations
    costs, deg, q = _lifted_costs(game, state, [p.actions for p in pops])
    r, den = resolution, resolution**deg * q
    movers = [(k, costs[k]) for k, p in enumerate(pops) if len(p.actions) >= 2]
    scores = []
    for point in points:
        worst = 0
        for k, fs in movers:
            ns = [f(point, r) for f in fs]
            cheapest = min(ns)
            for i, n in zip(point[k], ns):
                if i and i * (n - cheapest) > worst:
                    worst = i * (n - cheapest)
        try:
            scores.append(worst / (r * den))
        except OverflowError:
            flow = "; ".join(", ".join(str(Fraction(i, r)) for i in vec) for vec in point)
            message = f"violation in state {state!r} is too large for a float at lattice flow ({flow})"
            raise EvaluationError(message) from None
    spread = 0.0
    for point in points[:: max(1, len(points) // 128)]:
        for fs in costs:
            floats = [f(point, r) / den for f in fs]
            spread = max(spread, max(floats) - min(floats))
    return scores, spread


def enumerate_we_grid(
    game: GameSpec, state: str, resolution: int = 64, tol: float = 1e-6
) -> list[FlowProfile]:
    """Find equilibria by scanning a lattice and polishing near-equilibria.

    Every grid flow is scored by its :func:`verify_we` violation, computed in
    integers (see :func:`_lattice_scores`); flows within an adaptive
    threshold of equilibrium are polished (by potential minimization on
    congestion-backed games, else by best response) and deduplicated within
    L-infinity 10*tol. Heuristic by nature: exactness is only claimed for
    equilibria on or near the lattice. The count is certified when the
    game's congestion potential is strictly convex in ``state``, which is
    decided exactly: the game then has one equilibrium, and the scan stops at
    the first polish that verifies within ``tol``: it returns at most one flow.
    """
    _check_tol(tol)
    points = list(itertools.product(*_population_grids(game, resolution)))
    scores, spread = _lattice_scores(game, state, resolution, points)
    keep = max(tol, 4.0 * spread / resolution)
    table = [Fraction(i, resolution) for i in range(resolution + 1)]
    unique = game.congestion is not None and _one_minimizer(game.congestion, state)
    result: list[FlowProfile] = []
    # process best candidates first (a stable sort, in lattice order among
    # ties) so an exact lattice equilibrium, not a polished neighbor, is the
    # kept representative of its cluster
    for i in sorted(range(len(points)), key=scores.__getitem__):
        if scores[i] > keep:
            break
        # lattice entries are nonnegative Fractions summing to 1 by construction
        f = _trusted_profile(tuple(tuple(table[y] for y in vec) for vec in points[i]))
        if game.congestion is not None:
            # Newton-polished potential descent reaches ~1e-12, so copies of
            # one equilibrium collapse inside the dedup radius; best response
            # can stall at ~sqrt(tol) near boundary equilibria
            polished = solve_we_potential(game, state, min(tol, 1e-10), start=f)
        else:
            polished = solve_we_br(game, state, f, tol)
        if polished.max_violation > tol:
            continue
        candidate = polished.flow
        if any(flow_linf(candidate, r) <= 10 * tol for r in result):
            continue
        result.append(candidate)
        if unique:
            break
    result.sort(key=flow_sort_key)
    return result
