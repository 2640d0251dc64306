"""Equilibrium computation for single-state slices of a game.

Congestion-backed games are solved by minimizing the convex potential (the
sum over resources of latency antiderivatives) with Frank-Wolfe steps plus a
Newton polish on the detected support, which brings equilibrium violations
down to solver precision. The first polish comes after one Frank-Wolfe step,
then after chunks that double to 80 steps: on affine latencies the potential
is quadratic, so Newton on the right support is exact, and a single step
usually finds that support. On affine latencies the equilibria that design
grids and the lattice scan start from are solved exactly instead, as a
linear complementarity problem (:func:`_affine_equilibrium`). Games without
a potential are handled by damped best-response iteration, which reports
rather than hides non-convergence.
"""

from __future__ import annotations

import functools
import itertools
import math
import sys
from fractions import Fraction

from ._numpy import np
from .lp import _lemke
from .model import (
    CongestionSpec,
    EvaluationError,
    FlowProfile,
    GameSpec,
    _Record,
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
    load_profile,
    uniform_flow,
    vertex_flow,
)


class WESolveResult(_Record):
    """A solver's best flow with its certified equilibrium violation.

    ``max_violation`` is the raw signed worst violation as reported by
    :func:`verify_we` on the returned flow. ``iterations`` counts the
    solver's steps: Frank-Wolfe steps for :func:`solve_we_potential`, and
    for :func:`solve_we_br` the steps it made before it stopped (converged,
    stalled at its step floor, or at ``_BR_MAX_ITER``), 0 from a start
    within ``tol``.
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
        worst = None
        for vec, fns in zip(ys, costs):
            ns = [f(ys, dy) for f in fns]
            if ns:
                cheapest = min(ns)
                for y, n in zip(vec, ns):
                    if y and (worst is None or y * (n - cheapest) > worst):
                        worst = y * (n - cheapest)
        return 0 if worst is None else Fraction(worst, dy ** (deg + 1) * q)
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


def _horner(terms, loads):
    """Evaluate every row's polynomial at its own load, given its coefficient
    columns ``terms`` from the highest power down."""
    acc = terms[0]
    for column in terms[1:]:
        acc = acc * loads + column
    return acc


def _newton_matrix(a0, msub, fill, dvals):
    """A copy of the Newton matrix ``a0`` with its equal-cost rows filled:
    the Hessian rows of j less those of base over the support's incidence
    columns ``msub``, given the latency derivatives ``dvals`` (see
    :meth:`_PotentialCore._newton_plan` for ``fill``)."""
    eq_rows, jpos, bpos = fill
    hess = msub.T @ (dvals[:, None] * msub)
    a = a0.copy()
    a[eq_rows] = hess[jpos] - hess[bpos]
    return a


def _block_sum(values):
    """A block's list of floats summed as numpy's ``sum`` adds them: left to
    right from 0 below 8 entries (:func:`_fold`), pairwise from 8 on."""
    return _fold(values) if len(values) < 8 else float(np.array(values).sum())


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
    simplex scales. Latencies are held as zero-padded coefficient columns,
    ``terms`` and their derivative's ``dterms``, evaluated by Horner's rule.

    The core keeps no solver state between solves: the costs at a point
    pass from step to step by return value. It caches, per Newton support,
    the index arrays and lists and the constant rows that
    :meth:`_solve_support` reads (see :meth:`_newton_plan`), and on an
    affine core (one derivative column, a constant Hessian) the whole system
    matrix's least-squares inverse; they derive from ``incidence``, the
    latencies and the support alone, so a solve returns the same floats
    whatever was solved on the core before.
    """

    def __init__(self, incidence, polys, blocks, masses):
        self.m = incidence
        self.mt = incidence.T
        # at least two columns, so the derivative matrix has one
        width = max([2] + [len(p) for p in polys])
        coef = np.zeros((len(polys), width))
        for i, p in enumerate(polys):
            coef[i, : len(p)] = p
        dcoef = coef[:, 1:] * np.arange(1, width)
        self.terms = tuple(coef.T[::-1].copy())
        self.dterms = tuple(dcoef.T[::-1].copy())
        self.blocks = blocks
        self.masses = [float(mass) for mass in masses]
        self.n = self.m.shape[1]
        self._plans = {}

    def costs(self, x):
        return self.mt @ _horner(self.terms, self.m @ x)

    def fw_vertex(self, g):
        s = np.zeros(self.n)
        g = g.tolist()
        for (lo, hi), mass in zip(self.blocks, self.masses):
            block = g[lo:hi]
            # the first minimum, as np.argmin takes it
            s[lo + block.index(min(block))] = mass
        return s

    def line_search(self, x, d, h0):
        """The step t in [0, 1] to the potential's minimum along ``d``, given
        its slope ``h0 < 0`` at ``x``, and the costs at ``x + t * d``, kept
        from the search when it evaluated them there."""
        seen = {}

        def h(t):
            g = seen[t] = self.costs(x + t * d)
            return float(g @ d)

        h1 = h(1.0)
        t = 1.0 if h1 <= 0 else _brent_root(h, 0.0, 1.0, h0, h1)
        return t, seen[t] if t in seen else self.costs(x + t * d)

    def frank_wolfe(self, x, iters, g):
        """At most ``iters`` steps from ``x``, whose costs are ``g``; returns
        the point reached, the steps made and the costs there."""
        for t in range(iters):
            d = self.fw_vertex(g) - x
            slope = float(g @ d)
            if slope >= -1e-14:
                return x, t, g
            step, g = self.line_search(x, d, slope)
            x = x + step * d
        return x, iters, g

    def violation(self, x, g):
        """:func:`_worst_gap` of the blocks of ``x``, whose costs are ``g``,
        read off the two float lists."""
        y, g = x.tolist(), g.tolist()
        worst = None
        for lo, hi in self.blocks:
            cheapest = min(g[lo:hi])
            for j in range(lo, hi):
                if y[j] != 0:
                    gap = y[j] * (g[j] - cheapest)
                    if worst is None or gap > worst:
                        worst = gap
        return 0 if worst is None else worst

    def newton_polish(self, x, g):
        """Repair the support of ``x``, whose costs are ``g``, until its
        Newton solution is an equilibrium; returns that point with its costs,
        or None when a support cannot be solved or 2n + 2 solves, n =
        ``self.n``, do not settle it.

        A support is one ascending list of variables per block. A block's
        support starts as its actions with flow above 1e-8 or within 1e-6 of
        its least cost at ``x``, relative to 1 + |least cost|. Each round
        solves the support from ``x`` (:meth:`_solve_support`) and drops each
        block's most negative action below -1e-12. Once none is, the point is
        clipped at 0 and rescaled to the block masses, and each block adds
        its cheapest action that undercuts its support's dearest cost by more
        than 1e-10, relative likewise; a round that adds none returns the
        point."""
        y, g = x.tolist(), g.tolist()
        support = []
        for lo, hi in self.blocks:
            cheapest = min(g[lo:hi])
            scale = 1 + abs(cheapest)
            support.append([j for j in range(lo, hi) if y[j] > 1e-8 or g[j] <= cheapest + 1e-6 * scale])
        for _ in range(2 * self.n + 2):
            solved = self._solve_support(support, x)
            if solved is None:
                return None
            y = solved.tolist()
            changed = False
            for bi, sup in enumerate(support):
                neg = [j for j in sup if y[j] < -1e-12]
                if neg and len(sup) > 1:
                    worst = min(neg, key=y.__getitem__)
                    support[bi] = [j for j in sup if j != worst]
                    changed = True
            if changed:
                continue
            # np.maximum(y, 0.0): NaN stays, -0.0 becomes 0.0
            point = [0.0 if v <= 0.0 else v for v in y]
            for (lo, hi), mass in zip(self.blocks, self.masses):
                block = point[lo:hi]
                total = _block_sum(block)
                if total > 0 and mass > 0:
                    scale = mass / total
                    point[lo:hi] = [v * scale for v in block]
            point = np.array(point)
            costs = self.costs(point)
            g = costs.tolist()
            grew = False
            for bi, ((lo, hi), sup) in enumerate(zip(self.blocks, support)):
                in_cost = max(g[j] for j in sup)
                scale = 1 + abs(in_cost)
                outside = [j for j in range(lo, hi) if j not in sup and g[j] < in_cost - 1e-10 * scale]
                if outside:
                    support[bi] = sorted(sup + [min(outside, key=g.__getitem__)])
                    grew = True
            if not grew:
                return point, costs
        return None

    def _newton_plan(self, support):
        """The parts of the Newton system on ``support`` (one ascending list
        of variables per block) that do not depend on the point, built once
        per support and kept on the core; None if the plan cannot be built.

        The system has one row per support variable, and a block's rows are
        numbered as its variables' positions in the flattened support
        ``index``: an equal-cost row for each variable j after the block's
        first variable ``base``, then the block's mass row, 1 on each of its
        variables. The plan holds ``index``, the incidence columns over it,
        the system matrix with only the mass rows filled, ``fill`` (the
        equal-cost rows' numbers and the positions of j and base in
        ``index``, for :func:`_newton_matrix`), the (row, j, base) list of
        the equal-cost rows and the (row, start, end, mass) list of the mass
        rows, with start and end the block's span of ``index``, and
        ``inverse``. On an affine core every row is constant, so the matrix
        is filled here and ``inverse`` is its least-squares inverse,
        ``lstsq(a, I)``: the same SVD and rank cutoff as ``lstsq(a, b)``, so
        ``inverse @ b`` is its step up to rounding. Otherwise ``inverse`` is
        None and the equal-cost rows are filled per point.
        """
        key = tuple(map(tuple, support))
        plan = self._plans.get(key)
        if plan is None:
            index = np.array([j for sup in support for j in sup], dtype=np.intp)
            a = np.zeros((len(index), len(index)))
            fill, eq, mass_rows = [], [], []
            start = 0
            for sup, mass in zip(support, self.masses):
                end = start + len(sup)
                for r, j in enumerate(sup[1:]):
                    fill.append((start + r, start + r + 1, start))
                    eq.append((start + r, j, sup[0]))
                a[end - 1, start:end] = 1.0
                mass_rows.append((end - 1, start, end, mass))
                start = end
            fill = np.array(fill, dtype=np.intp).reshape(-1, 3).T
            msub = self.m[:, index]
            inverse = None
            if len(self.dterms) == 1:
                a = _newton_matrix(a, msub, fill, self.dterms[0])
                try:
                    inverse = np.linalg.lstsq(a, np.eye(len(index)), rcond=None)[0]
                except np.linalg.LinAlgError:
                    return None
            plan = self._plans[key] = (index, msub, a, fill, eq, mass_rows, inverse)
        return plan

    def _solve_support(self, support, x):
        """Newton steps from ``x`` to the point where each block's support
        costs the same and carries its mass, at most 60 of them; None when
        a step cannot be solved. A step is the least-squares solution of the
        support's system (:meth:`_newton_plan`): its kept inverse times the
        right-hand side on an affine core, else ``lstsq`` on the rows
        rebuilt from the Hessian at each point. The right-hand side, the
        steps and their maxima are Python floats; a block's mass is summed
        left to right (:func:`_fold`)."""
        if not any(support):
            return None
        plan = self._newton_plan(support)
        if plan is None:
            return None
        index, msub, a0, fill, eq, mass_rows, inverse = plan
        sub = np.asarray(x, dtype=float)[index].tolist()
        b = [0.0] * len(sub)

        def embed(values):
            y = np.zeros(self.n)
            y[index] = values
            return y

        for _round in range(60):
            y = embed(sub)
            loads = self.m @ y
            g = (self.mt @ _horner(self.terms, loads)).tolist()
            for r, j, base in eq:
                b[r] = -(g[j] - g[base])
            for r, lo, hi, mass in mass_rows:
                b[r] = mass - _fold(sub[lo:hi])
            if all(abs(v) < 1e-14 for v in b):
                return y
            if inverse is not None:
                step = inverse @ b
            else:
                a = _newton_matrix(a0, msub, fill, _horner(self.dterms, loads))
                try:
                    step, *_ = np.linalg.lstsq(a, np.array(b), rcond=None)
                except np.linalg.LinAlgError:
                    return None
            step = step.tolist()
            sub = [v + t for v, t in zip(sub, step)]
            if all(abs(t) < 1e-15 for t in step):
                return embed(sub)
        return embed(sub)

    def minimize(self, x0, tol, max_iter):
        """Alternate Frank-Wolfe chunks with polish attempts; returns the
        least-violating point and the Frank-Wolfe iterations used.

        The chunks are 1, 2, 4, ..., 64, then 80 steps, until the violation
        is within ``tol``, a chunk stops early (no descent left) or
        ``max_iter`` steps are made. Polishing after the first step is
        cheap: on affine latencies the potential is quadratic, so Newton on
        the right support lands on the minimizer, and one step from the
        start usually reveals that support. Each polish is re-measured and
        kept only if it lowers the violation. The costs at each point are
        evaluated once and handed on with it."""
        x = np.asarray(x0, dtype=float)
        g = self.costs(x)
        best = x
        best_v = self.violation(x, g)
        done = 0
        chunk = 1
        while done < max_iter:
            if best_v <= tol:
                break
            steps = min(chunk, max_iter - done)
            x, used, g = self.frank_wolfe(x, steps, g)
            done += used
            v = self.violation(x, g)
            if v < best_v:
                best, best_v = x, v
            polished = self.newton_polish(x, g)
            if polished is not None:
                point, costs = polished
                pv = self.violation(point, costs)
                if pv < best_v:
                    best, best_v = point, pv
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
    equal-cost system finishes the job, tried first after one Frank-Wolfe
    step and then after chunks doubling to 80 steps, within 500 steps (see
    :meth:`_PotentialCore.minimize`); on affine latencies the potential is
    quadratic and the polish on the right support is exact. The reported
    violation is always re-measured by :func:`verify_we` on the returned
    flow. Raises ValueError when ``game.congestion`` is None or ``start``
    has another shape than the game's flows.
    """
    _check_tol(tol)
    spec = game.congestion
    if spec is None:
        raise ValueError("needs a congestion-backed game")
    game.state_index(state)
    if start is not None:
        _check_shape(game, start, "start flow")
    if all(len(p.actions) == 1 for p in spec.populations):
        return WESolveResult(uniform_flow(game), 0.0, 0)
    core = _spec_core(spec, state)
    x0 = _vector_of(start if start is not None else uniform_flow(game))
    x, iters = core.minimize(x0, tol, 500)
    flow = FlowProfile(
        tuple(_normalized(k, x[lo:hi].tolist()) for k, (lo, hi) in enumerate(core.blocks))
    )
    return WESolveResult(flow, float(verify_we(game, flow, state)), iters)


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


def _snap_rational(game: GameSpec, flow: FlowProfile, state: str) -> FlowProfile:
    """Replace solver floats with a nearby exact rational equilibrium.

    It serves the games :func:`_affine_equilibrium` does not solve exactly:
    higher-degree congestion latencies, whose equilibria can be irrational
    (those keep their float coordinates: ``flow`` itself is returned), and
    games without a potential, solved by best response. A snapped flow that
    verifies exactly is an equilibrium (or an equally valid one on a tie).
    """
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
    return flow


def _float_image(flow: FlowProfile) -> FlowProfile:
    """A rational flow as the floats a polish returns from it at once: each
    population's entries rounded, clipped and scaled to unit mass."""
    return FlowProfile(tuple(_normalized(k, [float(y) for y in vec]) for k, vec in enumerate(flow.flows)))


def _affine_equilibrium(game: GameSpec, state: str) -> FlowProfile | None:
    """The exact equilibrium of ``state`` by :func:`lp._lemke`; None unless
    ``game`` is congestion-backed with latencies of degree at most 1 in
    ``state``, or when the run ends on a ray or its flow fails the exact
    check of unit mass and ``verify_we`` 0.

    Action j costs c0_j + (S y)_j, S_ij the summed slopes of the resources
    actions i and j share, and E sums each population's flows. The LCP has
    z = (y, lambda), one lambda_k per population, M = [[S, -E^T], [E, 0]]
    and q = (c0 + 1, -1 per population): each action costs at least
    lambda_k - 1, exactly so where it has flow, and each mass is at least 1,
    exactly so where lambda_k > 0. Coefficients are nonnegative, so every
    cost plus 1 is positive, each lambda_k too, and each mass 1. S is
    positive semidefinite (the potential is convex), so M is too and the run
    ends on a solution (Cottle, Pang & Stone 1992).

    M and q go to ``_lemke`` scaled by the lcm of the latencies'
    denominators, as ints; scaling M and q by one positive number changes
    neither z nor the pivots. Unit mass is checked in ints on the flow's
    numerators over their lcm, and ``verify_we`` of an exact flow runs in
    ints too."""
    spec = game.congestion
    if spec is None:
        return None
    lines = {}
    for e in spec.resources:
        coeffs = [c if type(c) in (int, Fraction) else Fraction(c) for c in spec.latencies[(e, state)]]
        if any(coeffs[2:]):
            return None
        lines[e] = (coeffs + [0, 0])[:2]
    den = math.lcm(*(c.denominator for line in lines.values() for c in line))
    lines = {e: [c.numerator * (den // c.denominator) for c in line] for e, line in lines.items()}
    uses, blocks = [], []
    for pop in game.populations:
        blocks.append((len(uses), len(uses) + len(pop.actions)))
        uses.extend(spec.actions[(pop.name, a)] for a in pop.actions)
    n = len(uses)
    columns = [
        [(i, sum(lines[e][1] for e in u & v)) for i, v in enumerate(uses)] + [(n + k, den)]
        for k, (lo, hi) in enumerate(blocks)
        for u in uses[lo:hi]
    ]
    columns += [[(j, -den) for j in range(lo, hi)] for lo, hi in blocks]
    z = _lemke(columns, [sum(lines[e][0] for e in u) + den for u in uses] + [-den] * len(blocks))
    if z is None:
        return None
    # nonnegative by the LCP, of unit mass as checked
    flow = _trusted_profile(tuple(tuple(z[lo:hi]) for lo, hi in blocks))
    ys, dy = _int_flows(flow.flows)
    if any(sum(vec) != dy for vec in ys):
        return None
    return flow if verify_we(game, flow, state) == 0 else None


def _state_equilibria(game: GameSpec, state: str) -> list[FlowProfile]:
    """The equilibria of ``state`` that design grids, full disclosure and the
    ccwe grid gap start from, none when no solve converges: on affine
    congestion latencies, any number of populations, the exact one
    :func:`_affine_equilibrium` finds, with no numpy; else (higher degrees,
    or where that solve has no answer) the potential solve kept within its
    own ``tol``, or on a game without a potential the best-response
    multistart, each snapped where a rational one verifies, and listed
    once."""
    game.state_index(state)
    exact = _affine_equilibrium(game, state)
    if exact is not None:
        return [exact]
    if game.congestion is not None:
        tol = 1e-8
        result = solve_we_potential(game, state, tol)
        found = [result.flow] if result.max_violation <= tol else []
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
    image, the flow either polish returns from it, with no solver run. Other
    flows within an adaptive threshold of equilibrium are polished; kept
    flows are deduplicated within L-infinity 10*tol.

    A congestion-backed game's potential is convex: its minimizers are the
    equilibria, and every action costs the same at all of them. So the scan
    returns the exact lattice equilibria, or, when there is none, the first
    polish that verifies within ``tol``. With affine latencies the polish is
    the float image of the exact equilibrium :func:`_affine_equilibrium`
    finds, whatever the start, so it is solved at most once per call; where
    it has none the potential solver polishes instead. Other games are polished
    by best response, which stalls ~sqrt(tol) short of boundary equilibria:
    a polish that is new is replaced by the float image of a nearby exact
    equilibrium when one verifies. Heuristic by nature: exactness is only
    claimed for equilibria on or near the lattice.
    """
    _check_tol(tol)
    points = list(itertools.product(*_population_grids(game, resolution)))
    scores, spread = _lattice_scores(game, state, resolution, points)
    keep = max(tol, 4.0 * spread / resolution)
    table = [Fraction(i, resolution) for i in range(resolution + 1)]
    exact = functools.cache(lambda: _affine_equilibrium(game, state))
    result: list[FlowProfile] = []

    def known(flow):
        return any(flow_linf(flow, r) <= 10 * tol for r in result)

    # process best candidates first (a stable sort, in lattice order among
    # ties) so an exact lattice equilibrium, not a polished neighbor, is the
    # kept representative of its cluster
    for i in sorted(range(len(points)), key=scores.__getitem__):
        if scores[i] > keep or (scores[i] > 0 and result and game.congestion is not None):
            break
        # lattice entries are nonnegative Fractions summing to 1 by construction
        f = _trusted_profile(tuple(tuple(table[y] for y in vec) for vec in points[i]))
        if scores[i] == 0:
            candidate = _float_image(f)
        elif game.congestion is not None:
            if exact() is not None:
                candidate = _float_image(exact())
            else:
                polished = solve_we_potential(game, state, min(tol, 1e-10), start=f)
                if polished.max_violation > tol:
                    continue
                candidate = polished.flow
        else:
            polished = solve_we_br(game, state, f, tol)
            if polished.max_violation > tol or known(polished.flow):
                continue
            snapped = _snap_rational(game, polished.flow, state)
            candidate = polished.flow if snapped is polished.flow else _float_image(snapped)
        if known(candidate):
            continue
        result.append(candidate)
    result.sort(key=flow_sort_key)
    return result
