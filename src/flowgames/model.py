"""Core game objects: cost expressions, game specs, flows, and outcomes.

A game couples finitely many populations of infinitesimal players with a
finite state space. Each population splits a unit mass of players across
its actions; the cost of an action is a function of the whole flow profile
and the realized state, written in a small expression language that is
closed under exact rational evaluation.

The expression language supports rational constants, flow variables
``y[action]`` / ``y[pop][action]``, the state value ``theta`` (for games
whose states are named by rational literals), explicit per-state tables
``theta[s0=1, s1=0]``, the operators ``+ - *``, ``max``/``min``, and
nonnegative integer powers ``^``. Evaluation is type generic: rational
inputs produce exact rational outputs, float inputs produce floats.
"""

from __future__ import annotations

import math
import numbers
import operator
import re
from collections.abc import Mapping
from fractions import Fraction
from types import MappingProxyType

# How far a sum that must be 1 (flow entries, weights, sizes, the prior) may
# miss it; :func:`_check_unit` compares exactly, so rational sums get it too.
MASS_TOL = 1e-12
_TOL_NUM, _TOL_DEN = MASS_TOL.as_integer_ratio()


class EvaluationError(ArithmeticError):
    """A cost expression produced a non-finite or unresolvable value."""


class _Record:
    """Base of the frozen value types, whose methods it defines once for all.

    A subclass's fields are its annotated names, its bases' first; a class
    attribute gives a field its default. ``__init__`` sets the fields, by
    position or keyword, then calls ``__post_init__``. Records are equal only
    within one class, by their tuple of fields, hash as that tuple, print as
    ``Name(field=value!r, ...)`` and refuse to set or delete an attribute
    (``__post_init__`` may use ``object.__setattr__``).
    """

    _fields = ()

    def __init_subclass__(cls):
        own = cls.__dict__.get("__annotations__", ())
        fields = cls._fields = cls._fields + tuple(n for n in own if n not in cls._fields)
        cls._defaults = {n: getattr(cls, n) for n in fields if hasattr(cls, n)}
        # attrgetter returns a bare value for one name and wants at least one
        get = operator.attrgetter(*fields) if fields else lambda obj: ()
        cls._values = staticmethod(get if len(fields) != 1 else lambda obj: (get(obj),))

    def __init__(self, *args, **kwargs):
        fields = self._fields
        if kwargs or len(args) != len(fields):
            values = {**self._defaults, **dict(zip(fields, args)), **kwargs}
            repeated = kwargs.keys() & set(fields[: len(args)])
            if len(args) > len(fields) or repeated or values.keys() != set(fields):
                raise TypeError(
                    f"{type(self).__name__}() takes the fields {fields}, got "
                    f"{len(args)} by position and {list(kwargs)} by keyword"
                )
            args = [values[n] for n in fields]
        # one attribute at a time: a materialized __dict__ would slow every read
        for name, value in zip(fields, args):
            object.__setattr__(self, name, value)
        self.__post_init__()

    def __post_init__(self):
        pass

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values(self) == self._values(other)

    def __hash__(self):
        return hash(self._values(self))

    def __repr__(self):
        shown = ", ".join(f"{n}={v!r}" for n, v in zip(self._fields, self._values(self)))
        return f"{type(self).__qualname__}({shown})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot set {name!r} of a frozen {type(self).__name__}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete {name!r} of a frozen {type(self).__name__}")


# ---------------------------------------------------------------------------
# Cost expressions
# ---------------------------------------------------------------------------


class CostExpr(_Record):
    """Base class for cost expression nodes."""


class Const(CostExpr):
    """A rational constant."""

    value: Fraction

    def __post_init__(self):
        if not isinstance(self.value, Fraction):
            object.__setattr__(self, "value", Fraction(self.value))


class FlowVar(CostExpr):
    """The flow on one action; ``pop`` is None in single-population games."""

    pop: str | None
    action: str


class ThetaVal(CostExpr):
    """The numeric value of the current state.

    Resolvable only when the state's name parses as a rational literal,
    e.g. states named "0" and "1".
    """


class StateCoef(CostExpr):
    """A constant that depends on the state through an explicit table; its
    values are stored as ``Fraction``s, as in :class:`Const`."""

    table: tuple[tuple[str, Fraction], ...]

    def __post_init__(self):
        names = [s for s, _ in self.table]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate state in coefficient table: {names}")
        if not all(isinstance(v, Fraction) for _, v in self.table):
            table = tuple((s, Fraction(v)) for s, v in self.table)
            object.__setattr__(self, "table", table)


class Neg(CostExpr):
    arg: CostExpr


class Add(CostExpr):
    left: CostExpr
    right: CostExpr


class Sub(CostExpr):
    left: CostExpr
    right: CostExpr


class Mul(CostExpr):
    left: CostExpr
    right: CostExpr


class MaxOf(CostExpr):
    args: tuple[CostExpr, ...]

    def __post_init__(self):
        if len(self.args) < 2:
            raise ValueError("max needs at least two arguments")


class MinOf(CostExpr):
    args: tuple[CostExpr, ...]

    def __post_init__(self):
        if len(self.args) < 2:
            raise ValueError("min needs at least two arguments")


class Pow(CostExpr):
    """Integer power; the exponent is a fixed nonnegative integer."""

    base: CostExpr
    exponent: int

    def __post_init__(self):
        if not isinstance(self.exponent, int) or self.exponent < 0:
            raise ValueError(f"exponent must be a nonnegative integer, got {self.exponent!r}")


def format_expr(expr: CostExpr) -> str:
    """Render an expression in the mini-language (parseable canonical form)."""
    return _format(expr, 0)


def _format(expr: CostExpr, parent_prec: int) -> str:
    # precedence: + - (1), * (2), unary - (3), ^ (4), atoms (5)
    if isinstance(expr, Const):
        text = str(expr.value)
        prec = 5 if expr.value >= 0 else 3
    elif isinstance(expr, FlowVar):
        text = f"y[{expr.action}]" if expr.pop is None else f"y[{expr.pop}][{expr.action}]"
        prec = 5
    elif isinstance(expr, ThetaVal):
        text, prec = "theta", 5
    elif isinstance(expr, StateCoef):
        inner = ", ".join(f"{s}={v}" for s, v in expr.table)
        text, prec = f"theta[{inner}]", 5
    elif isinstance(expr, Neg):
        text, prec = f"-{_format(expr.arg, 3)}", 3
    elif isinstance(expr, Add):
        text, prec = f"{_format(expr.left, 1)} + {_format(expr.right, 2)}", 1
    elif isinstance(expr, Sub):
        text, prec = f"{_format(expr.left, 1)} - {_format(expr.right, 2)}", 1
    elif isinstance(expr, Mul):
        text, prec = f"{_format(expr.left, 2)}*{_format(expr.right, 3)}", 2
    elif isinstance(expr, MaxOf):
        text, prec = "max(" + ", ".join(_format(a, 0) for a in expr.args) + ")", 5
    elif isinstance(expr, MinOf):
        text, prec = "min(" + ", ".join(_format(a, 0) for a in expr.args) + ")", 5
    elif isinstance(expr, Pow):
        text, prec = f"{_format(expr.base, 5)}^{expr.exponent}", 4
    else:
        raise TypeError(f"unknown expression node {type(expr).__name__}")
    if prec < parent_prec:
        return f"({text})"
    return text


# ---------------------------------------------------------------------------
# Expression parser
# ---------------------------------------------------------------------------


class CostParseError(ValueError):
    """Raised on malformed expression text; carries a 0-based column."""

    def __init__(self, message: str, column: int):
        super().__init__(f"column {column + 1}: {message}")
        self.column = column
        self.bare_message = message


_TOKEN_RE = re.compile(
    r"\s*(?:(?P<num>\d+(?:\.\d+)?)|(?P<name>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>\*\*|[-+*/^\[\](),=]))"
)


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens = []
    pos = 0
    while pos < len(text):
        match = _TOKEN_RE.match(text, pos)
        if match is None:
            stripped = text[pos:].lstrip()
            if not stripped:
                break
            col = len(text) - len(stripped)
            raise CostParseError(f"unexpected character {stripped[0]!r}", col)
        if match.lastgroup == "num":
            tokens.append(("num", match.group("num"), match.start("num")))
        elif match.lastgroup == "name":
            tokens.append(("name", match.group("name"), match.start("name")))
        else:
            op = match.group("op")
            tokens.append(("op", "^" if op == "**" else op, match.start("op")))
        pos = match.end()
    tokens.append(("end", "", len(text)))
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.i = 0

    def peek(self):
        return self.tokens[self.i]

    def next(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect_op(self, op: str):
        kind, value, col = self.next()
        if kind != "op" or value != op:
            raise CostParseError(f"expected {op!r}", col)

    def fail(self, message: str):
        raise CostParseError(message, self.peek()[2])

    def parse(self) -> CostExpr:
        expr = self.expr()
        if self.peek()[0] != "end":
            self.fail(f"unexpected {self.peek()[1]!r}")
        return expr

    def expr(self) -> CostExpr:
        node = self.term()
        while self.peek()[:2] in (("op", "+"), ("op", "-")):
            op = self.next()[1]
            rhs = self.term()
            node = Add(node, rhs) if op == "+" else Sub(node, rhs)
        return node

    def term(self) -> CostExpr:
        node = self.factor()
        while self.peek()[:2] == ("op", "*"):
            self.next()
            node = Mul(node, self.factor())
        return node

    def factor(self) -> CostExpr:
        if self.peek()[:2] == ("op", "-"):
            self.next()
            return Neg(self.factor())
        return self.power()

    def power(self) -> CostExpr:
        base = self.atom()
        if self.peek()[:2] == ("op", "^"):
            self.next()
            kind, value, col = self.next()
            if kind != "num" or "." in value:
                raise CostParseError("exponent must be a nonnegative integer", col)
            return Pow(base, int(value))
        return base

    def atom(self) -> CostExpr:
        kind, value, col = self.next()
        if kind == "num":
            return Const(self.rational_tail(value, col))
        if kind == "op" and value == "(":
            node = self.expr()
            self.expect_op(")")
            return node
        if kind == "name":
            if value == "y":
                return self.flow_var()
            if value == "theta":
                if self.peek()[:2] == ("op", "["):
                    return self.state_table()
                return ThetaVal()
            if value in ("max", "min"):
                self.expect_op("(")
                args = [self.expr()]
                while self.peek()[:2] == ("op", ","):
                    self.next()
                    args.append(self.expr())
                self.expect_op(")")
                if len(args) < 2:
                    raise CostParseError(f"{value} needs at least two arguments", col)
                node_cls = MaxOf if value == "max" else MinOf
                return node_cls(tuple(args))
            raise CostParseError(f"unknown identifier {value!r}", col)
        raise CostParseError(f"expected a value, got {value!r}" if value else "unexpected end", col)

    def rational_tail(self, text: str, col: int) -> Fraction:
        # "3/4" is a rational literal, not a division operator
        if self.peek()[:2] == ("op", "/"):
            self.next()
            kind, denom, dcol = self.next()
            if kind != "num" or "." in denom or "." in text:
                raise CostParseError("fraction literals need integer parts", dcol)
            if int(denom) == 0:
                raise CostParseError("zero denominator", dcol)
            return Fraction(int(text), int(denom))
        return Fraction(text)

    def name_in_brackets(self) -> str:
        self.expect_op("[")
        kind, value, col = self.next()
        if kind not in ("name", "num"):
            raise CostParseError("expected a name", col)
        self.expect_op("]")
        return value

    def flow_var(self) -> FlowVar:
        first = self.name_in_brackets()
        if self.peek()[:2] == ("op", "["):
            second = self.name_in_brackets()
            return FlowVar(first, second)
        return FlowVar(None, first)

    def state_table(self) -> StateCoef:
        self.expect_op("[")
        items = []
        while True:
            kind, name, col = self.next()
            if kind not in ("name", "num"):
                raise CostParseError("expected a state name", col)
            self.expect_op("=")
            kind2, value, vcol = self.next()
            if kind2 != "num":
                raise CostParseError("expected a rational value", vcol)
            items.append((name, self.rational_tail(value, vcol)))
            kind3, punct, pcol = self.next()
            if punct == "]":
                break
            if punct != ",":
                raise CostParseError("expected ',' or ']'", pcol)
        return StateCoef(tuple(items))


def parse_cost(text: str) -> CostExpr:
    """Parse an expression string like ``max(2 - 4*y[b], 4*y[b] - 2)``.

    Raises:
        CostParseError: on malformed input, with the offending column.
    """
    return _Parser(text).parse()


def parse_rational(text: str) -> Fraction:
    """Parse "3", "3/4", or "0.5" into an exact rational."""
    try:
        return Fraction(text.strip())
    except (ValueError, ZeroDivisionError):
        raise ValueError(f"not a rational literal: {text!r}") from None


# ---------------------------------------------------------------------------
# Game containers
# ---------------------------------------------------------------------------


class Population(_Record):
    name: str
    actions: tuple[str, ...]

    def __post_init__(self):
        if not self.actions:
            raise ValueError(f"population {self.name!r} has no actions")
        if len(set(self.actions)) != len(self.actions):
            raise ValueError(f"population {self.name!r} has duplicate actions")


class CongestionSpec(_Record):
    """A resource-based game: action costs add up latencies of used resources.

    Fields:
        resources: resource names.
        latencies: (resource, state) -> polynomial coefficients in ascending
            powers, all nonnegative (hence nondecreasing load-cost maps).
        actions: (pop, action) -> the nonempty frozenset of resources used.
        populations: population structure shared with the derived game.
        states: state names.
        prior: per-state probabilities used when deriving a full game.

    Both tables are stored as read-only copies, with each action's resources
    made a frozenset, so the checks made here hold for the spec's lifetime.
    """

    resources: tuple[str, ...]
    latencies: Mapping
    actions: Mapping
    populations: tuple[Population, ...]
    states: tuple[str, ...]
    prior: tuple[Fraction, ...]

    def __post_init__(self):
        object.__setattr__(self, "latencies", MappingProxyType(dict(self.latencies)))
        actions = {key: frozenset(used) for key, used in self.actions.items()}
        object.__setattr__(self, "actions", MappingProxyType(actions))
        if not self.resources:
            raise ValueError("no resources")
        if len(set(self.resources)) != len(self.resources):
            raise ValueError("duplicate resource names")
        if not self.states:
            raise ValueError("no states")
        if len(self.prior) != len(self.states):
            raise ValueError("prior length does not match state count")
        known = set(self.resources)
        for pop in self.populations:
            for action in pop.actions:
                subset = self.actions.get((pop.name, action))
                if subset is None:
                    raise ValueError(f"no resource set for action ({pop.name!r}, {action!r})")
                if not subset:
                    raise ValueError(f"action ({pop.name!r}, {action!r}) uses no resources")
                if not subset <= known:
                    raise ValueError(f"action ({pop.name!r}, {action!r}) uses unknown resources")
        for e in self.resources:
            for s in self.states:
                coeffs = self.latencies.get((e, s))
                if coeffs is None:
                    raise ValueError(f"no latency for resource {e!r} in state {s!r}")
                if any(c < 0 for c in coeffs):
                    raise ValueError(f"negative latency coefficient on {e!r} in state {s!r}")


class GameSpec(_Record):
    """A finite-population anonymous game with state-dependent costs.

    Structural problems (missing costs, duplicate names) raise ValueError at
    construction; numeric invariants such as the prior summing to 1 are
    reported by :func:`validate_game` so that diagnostic tooling can inspect
    malformed instances.
    """

    populations: tuple[Population, ...]
    states: tuple[str, ...]
    prior: tuple[Fraction, ...]
    costs: dict
    congestion: CongestionSpec | None = None

    def __post_init__(self):
        if not self.populations:
            raise ValueError("no populations")
        names = [p.name for p in self.populations]
        if len(set(names)) != len(names):
            raise ValueError("duplicate population names")
        if not self.states:
            raise ValueError("no states")
        if len(set(self.states)) != len(self.states):
            raise ValueError("duplicate state names")
        if len(self.prior) != len(self.states):
            raise ValueError("prior length does not match state count")
        expected = {(p.name, a) for p in self.populations for a in p.actions}
        got = set(self.costs)
        if got != expected:
            missing = sorted(expected - got)
            extra = sorted(got - expected)
            raise ValueError(f"cost table mismatch: missing {missing}, extra {extra}")
        object.__setattr__(self, "_pop_index", {p.name: i for i, p in enumerate(self.populations)})
        object.__setattr__(
            self,
            "_act_index",
            {(p.name, a): j for p in self.populations for j, a in enumerate(p.actions)},
        )
        # (pop, action, state) -> compiled cost, (pop, action, state, int) -> its
        # integer backend, an affine integer function -> its (k0, terms); valid
        # only while ``costs`` is left as constructed. None of the three caches is a field.
        object.__setattr__(self, "_compiled", {})

    def population_index(self, pop: str) -> int:
        try:
            return self._pop_index[pop]
        except KeyError:
            raise ValueError(f"unknown population {pop!r}") from None

    def action_index(self, pop: str, action: str) -> int:
        try:
            return self._act_index[(pop, action)]
        except KeyError:
            raise ValueError(f"unknown action {action!r} in population {pop!r}") from None

    def state_index(self, state: str) -> int:
        try:
            return self.states.index(state)
        except ValueError:
            raise ValueError(f"unknown state {state!r}") from None

    def prior_of(self, state: str) -> Fraction:
        return self.prior[self.state_index(state)]


class FlowProfile(_Record):
    """One flow vector per population; each population's entries sum to 1."""

    flows: tuple
    # a lattice flow's resolution r, each entry an int count over r; set by
    # _trusted_profile, and not a field, so equality, hash and repr ignore it
    _resolution = None

    def __post_init__(self):
        flows = tuple(tuple(v for v in vec) for vec in self.flows)
        object.__setattr__(self, "flows", flows)
        if not flows:
            raise ValueError("empty flow profile")
        for k, vec in enumerate(flows):
            if not vec:
                raise ValueError(f"population {k} has an empty flow vector")
            for v in vec:
                if v < 0:
                    raise ValueError(f"negative flow entry {v!r} in population {k}")
            _check_unit(sum(vec), "population {} flow sums", k)


def _trusted_profile(flows: tuple, resolution=None) -> FlowProfile:
    """An unchecked FlowProfile of entries nonnegative and summing to 1 by
    construction; ``resolution``, when given, is an int r such that every
    entry is an int count over r, which lets the exact obedience builder
    read the counts with no lcm."""
    flow = object.__new__(FlowProfile)
    object.__setattr__(flow, "flows", flows)
    if resolution is not None:
        object.__setattr__(flow, "_resolution", resolution)
    return flow


def _check_tol(tol) -> None:
    """Raise ValueError unless ``tol`` is a finite positive real number; a
    bool is refused, not read as 1 or 0."""
    if isinstance(tol, bool) or not isinstance(tol, numbers.Real) or not (math.isfinite(tol) and tol > 0):
        raise ValueError("tol must be positive")


def _shown(x) -> str:
    """``repr(float(x))``, or ``str(x)`` when ``x`` is too large for a float."""
    try:
        return repr(float(x))
    except OverflowError:
        return str(x)


def _check_unit(total, what: str, *args) -> None:
    """Raise ValueError unless ``total`` is within ``MASS_TOL`` of 1, compared
    exactly: an int or ``Fraction`` n / d in ints, |n - d| * den > num * d for
    MASS_TOL = num / den. The message is ``what.format(*args)`` and the sum."""
    if type(total) in (int, Fraction):
        n, d = total.numerator, total.denominator
        off = abs(n - d) * _TOL_DEN > _TOL_NUM * d
    else:
        off = abs(total - 1) > MASS_TOL
    if off:
        raise ValueError(f"{what.format(*args)} to {_shown(total)}, expected 1")


def _fold(values):
    """``values`` added left to right onto the int 0, one ``+`` at a time.

    This is what ``sum`` gave before Python 3.12, which adds floats with
    compensation, so ``_fold([0.1] * 10)`` is 0.9999999999999999 where
    ``sum`` there gives 1.0."""
    total = 0
    for v in values:
        total = total + v
    return total


def _sum(values):
    """:func:`_fold` of ``values``; when every value is an int or a
    ``Fraction``, the same value as int numerators over their lcm, one ``Fraction``."""
    values = list(values)
    if not all(type(v) in (int, Fraction) for v in values):
        return _fold(values)
    den = math.lcm(*(v.denominator for v in values))
    return Fraction(sum(v.numerator * (den // v.denominator) for v in values), den)


def _check_shape(game: GameSpec, flow: FlowProfile, what: str = "flow") -> None:
    """Raise ValueError, naming ``what``, unless ``flow`` has the shape of ``game``'s flows."""
    if [len(v) for v in flow.flows] != [len(p.actions) for p in game.populations]:
        raise ValueError(f"{what} does not match the game's populations and actions")


def _check_states(game: GameSpec, table, what: str) -> None:
    """Raise ValueError unless the per-state ``table``, named ``what``, has
    exactly ``game``'s states as keys."""
    for s in game.states:
        if s not in table:
            raise ValueError(f"{what} missing state {s!r}")
    for s in table:
        if s not in game.states:
            raise ValueError(f"unknown state {s!r}")


def _floats(values) -> list:
    """``float(v)`` of each value. For an int or ``Fraction`` that is the
    correctly rounded int division ``v.numerator / v.denominator``, here
    taken directly rather than through ``numbers.Rational.__float__``."""
    return [v.numerator / v.denominator if type(v) in (int, Fraction) else float(v) for v in values]


def flow_sort_key(flow: FlowProfile) -> tuple:
    """Float key that orders profiles lexicographically by their entries."""
    return tuple(tuple(_floats(vec)) for vec in flow.flows)


def flow_linf(a: FlowProfile, b: FlowProfile) -> float:
    """L-infinity distance between two profiles with the same shape."""
    if len(a.flows) != len(b.flows):
        raise ValueError("profiles have different population counts")
    worst = 0.0
    for va, vb in zip(a.flows, b.flows):
        if len(va) != len(vb):
            raise ValueError("profiles have different action counts")
        for x, y in zip(va, vb):
            d = abs(float(x) - float(y))
            if d > worst:
                worst = d
    return worst


class Outcome(_Record):
    """Per state, a finite-support distribution over flow profiles."""

    per_state: dict

    def __post_init__(self):
        if not self.per_state:
            raise ValueError("empty outcome")
        normalized = {}
        for state, atoms in self.per_state.items():
            # canonical atom order makes structural equality order-free
            normalized[state] = tuple(
                sorted(_distribution(atoms, state), key=lambda fw: flow_sort_key(fw[0]))
            )
        object.__setattr__(self, "per_state", normalized)


def _distribution(atoms, state) -> tuple:
    """The (flow, weight) pairs of ``atoms`` in their order, once checked:
    some support, flows only, and nonnegative weights summing to 1."""
    atoms = tuple((f, w) for f, w in atoms)
    if not atoms:
        raise ValueError(f"state {state!r} has no support")
    for f, w in atoms:
        if not isinstance(f, FlowProfile):
            raise ValueError(f"support of state {state!r} contains a non-flow")
        if w < 0:
            raise ValueError(f"negative weight {w!r} in state {state!r}")
    _check_unit(_sum(w for _, w in atoms), "weights in state {!r} sum", state)
    return atoms


def _largest_remainder_counts(vector, denominator: int) -> list[int]:
    """Integer counts summing to ``denominator`` proportional to the vector.

    Each entry gets the floor of its scaled value (negatives count as 0),
    and the shortfall goes to the largest remainders, ties to the smaller
    index. An entry a rounding error below an integer has a remainder near
    1 and so is raised to that integer before any other. A vector of ints and
    ``Fraction``s is scaled as :func:`_int_flows` numerators, by int division.
    """
    if all(type(v) in (int, Fraction) for v in vector):
        (nums,), d = _int_flows((vector,))
        scaled = [k * denominator for k in nums]
        counts = [max(s // d, 0) for s in scaled]
        remainders = [s - c * d for s, c in zip(scaled, counts)]
    else:
        scaled = [v * denominator for v in vector]
        counts = [max(math.floor(s), 0) for s in scaled]
        remainders = [s - c for s, c in zip(scaled, counts)]
    order = sorted(range(len(vector)), key=lambda j: (-remainders[j], j))
    for j in order[: denominator - sum(counts)]:
        counts[j] += 1
    return counts


def _round_outcome(game: GameSpec, outcome: Outcome, counts) -> tuple[Outcome, object]:
    """``outcome`` rounded onto shares 1/n_k, n_k = ``counts[k]``, and the
    rounding distance delta, the largest |rounded - y| over every entry.

    In each state of ``game``, population k of every support flow y becomes
    :func:`_largest_remainder_counts` (y, n_k) / n_k, exact. Flows that round
    alike merge, their weights summed, zero weights included. An outcome
    missing a state of ``game`` or holding another raises ValueError.
    Exact entries are rounded in ints (a ``Fraction``'s gap by int
    cross-products) and flows merge by their counts, with one ``Fraction`` per
    count and one for delta; a float entry's gap is the float c / n_k - y.
    """
    _check_states(game, outcome.per_state, "outcome")
    delta = 0  # the first largest gap; an exact one is held as (numerator, denominator)
    shares = [{} for _ in counts]  # per population, c -> Fraction(c, n_k)
    per_state = {}
    for state in game.states:
        merged = {}
        for flow, w in outcome.per_state[state]:
            key = []
            for nk, vec, share in zip(counts, flow.flows, shares):
                cnt = _largest_remainder_counts(vec, nk)
                key.append(tuple(cnt))
                share.update((c, Fraction(c, nk)) for c in cnt if c not in share)
                for c, v in zip(cnt, vec):
                    if type(v) is Fraction:
                        q = v.denominator
                        gap, den = abs(c * q - v.numerator * nk), q * nk
                        top, bottom = delta if type(delta) is tuple else delta.as_integer_ratio()
                        if gap * bottom > top * den:
                            delta = (gap, den)
                    elif type(v) is not int or c != v * nk:
                        if type(delta) is tuple:
                            delta = Fraction(*delta)
                        gap = abs(Fraction(c, nk) - v if isinstance(v, Fraction) else c / nk - v)
                        if gap > delta:
                            delta = gap
            key = tuple(key)
            merged[key] = merged.get(key, 0) + w
        per_state[state] = tuple(
            (_trusted_profile(tuple(tuple(map(share.__getitem__, cnt)) for cnt, share in zip(key, shares))), w)
            for key, w in merged.items()
        )
    return Outcome(per_state), Fraction(*delta) if type(delta) is tuple else delta


# ---------------------------------------------------------------------------
# Operations
# ---------------------------------------------------------------------------


# The operator of each ``+ - * max min`` node (compile_int_cost writes ``+ - *`` inline).
_OPERATORS = {Add: operator.add, Sub: operator.sub, Mul: operator.mul, MaxOf: max, MinOf: min}


def compile_cost(game: GameSpec, expr: CostExpr, state: str):
    """Resolve ``expr`` against ``game`` in ``state`` into a function of ``flow.flows``.

    Every name is looked up here, once: a flow variable becomes a fixed
    (population, action) index, ``theta`` and state tables become their value
    in ``state``. The returned function keeps each node's operand order and
    folds no constants, so it computes what a walk of the tree would, bit for
    bit: exact on rational flows, floats otherwise. Where ``+ - *`` meets a
    constant leaf and a value of type ``float``, it uses ``float(constant)``,
    made here once; Python's ``Fraction`` converts to that same float itself.

    Raises:
        ValueError: a flow variable names an unknown population or action, or
            is bare (``y[a]``) in a multi-population game.
        EvaluationError: ``theta`` in a state whose name is not a rational
            literal, or a state table that misses ``state``.
    """

    def build(node):
        value = _constant(node, state)
        if value is not None:
            return lambda flows: value
        if isinstance(node, FlowVar):
            i, j = _flow_index(game, node)
            return lambda flows: flows[i][j]
        if isinstance(node, Neg):
            arg = build(node.arg)
            return lambda flows: -arg(flows)
        if isinstance(node, (Add, Sub, Mul)):
            return binary(_OPERATORS[type(node)], node.left, node.right)
        if isinstance(node, (MaxOf, MinOf)):
            args, pick = [build(a) for a in node.args], _OPERATORS[type(node)]
            return lambda flows: pick([f(flows) for f in args])
        if isinstance(node, Pow):
            base, exponent = build(node.base), node.exponent
            return lambda flows: base(flows) ** exponent
        raise TypeError(f"unknown expression node {type(node).__name__}")

    def binary(op, left_node, right_node):
        # A constant c meeting a float x computes float(c) op x in Python's
        # Fraction fallbacks, so x op float(c) made once here is the same
        # float; any other operand (exact, or a float subclass) meets c itself.
        left, right = build(left_node), build(right_node)
        lc, rc = _constant(left_node, state), _constant(right_node, state)
        fc = None
        if (lc is None) != (rc is None):
            try:
                fc = float(rc if lc is None else lc)
            except OverflowError:
                pass  # too large for a float: the operation raises as before
        if fc is None:
            return lambda flows: op(left(flows), right(flows))
        if lc is None:

            def constant_right(flows):
                x = left(flows)
                return op(x, fc) if type(x) is float else op(x, rc)

            return constant_right

        def constant_left(flows):
            x = right(flows)
            return op(fc, x) if type(x) is float else op(lc, x)

        return constant_left

    return build(expr)


def _constant(node: CostExpr, state: str):
    """The value in ``state`` of a leaf that does not read the flow, else None."""
    if isinstance(node, Const):
        return node.value
    if isinstance(node, ThetaVal):
        try:
            return Fraction(state)
        except ValueError:
            raise EvaluationError(
                f"state {state!r} is not a rational literal; 'theta' cannot be resolved"
            ) from None
    if isinstance(node, StateCoef):
        for name, value in node.table:
            if name == state:
                return value
        raise EvaluationError(f"state {state!r} missing from coefficient table")
    return None


def _flow_index(game: GameSpec, node: FlowVar) -> tuple[int, int]:
    """The fixed (population, action) index of a flow variable."""
    pop = node.pop
    if pop is None:
        if len(game.populations) != 1:
            raise ValueError(f"bare flow variable y[{node.action}] in a multi-population game")
        pop = game.populations[0].name
    return game.population_index(pop), game.action_index(pop, node.action)


def _int_flows(flows, dens=()) -> tuple[list, int]:
    """Exact ``flows`` as (yy, dy): integer numerators over the least common
    multiple of their denominators and ``dens``, the input of
    :func:`compile_int_cost`'s functions."""
    dy = math.lcm(*(v.denominator for vec in flows for v in vec), *dens)
    return [[v.numerator * (dy // v.denominator) for v in vec] for vec in flows], dy


def compile_int_cost(game: GameSpec, expr: CostExpr, state: str):
    """The integer backend of :func:`compile_cost`: ``(fn, deg, q)`` such that,
    at the flow whose entries are ``yy[i][j] / dy`` (ints, ``dy > 0``), the
    cost is ``fn(yy, dy) / (dy**deg * q)`` with ``fn(yy, dy)`` an int.

    Names resolve, and fail, as in :func:`compile_cost`, and every constant
    is the same ``Fraction``. ``deg`` and ``q`` are fixed per node: a
    constant p/q has degree 0 and q; a flow variable degree 1 and q 1;
    ``+ - max min`` bring their operands to the largest degree and the lcm
    of their q; ``*`` adds degrees and multiplies q, except that a product
    with the constant 0 is that constant; ``^e`` multiplies the degree by e
    and raises q to e. Subtrees that read no flow fold to ints.

    Each node's function is a homogeneous polynomial of degree ``deg`` in
    (yy, dy), except under ``max`` or ``min``. So a cost of degree 1 with no
    ``max`` or ``min`` is linear: it comes as one closure k0*dy + sum of
    k*yy[i][j] (:func:`_linear`), its coefficients read off the tree's own
    function, with ``deg``, ``q`` and every value the tree's. Its form (k0,
    terms), or (k0, ()) for a constant, is kept in ``game._compiled`` under it."""
    linear = True

    def build(node):
        nonlocal linear
        value = _constant(node, state)
        if value is not None:
            return value.numerator, 0, value.denominator
        if isinstance(node, FlowVar):
            i, j = _flow_index(game, node)
            return (lambda yy, dy: yy[i][j]), 1, 1
        if isinstance(node, Neg):
            f, deg, q = build(node.arg)
            return (-f if type(f) is int else lambda yy, dy: -f(yy, dy)), deg, q
        if isinstance(node, Pow):
            f, deg, q = build(node.base)
            e = node.exponent
            return (f**e if type(f) is int else lambda yy, dy: f(yy, dy) ** e), deg * e, q**e
        if isinstance(node, Mul):
            (a, da, qa), (b, db, qb) = build(node.left), build(node.right)
            if 0 in (a, b):  # as a latency's square in a state where it has none
                return 0, 0, 1
            if type(a) is int and type(b) is int:
                return a * b, da + db, qa * qb
            if type(a) is int:
                return (lambda yy, dy: a * b(yy, dy)), da + db, qa * qb
            if type(b) is int:
                return (lambda yy, dy: a(yy, dy) * b), da + db, qa * qb
            return (lambda yy, dy: a(yy, dy) * b(yy, dy)), da + db, qa * qb
        if isinstance(node, (Add, Sub, MaxOf, MinOf)):
            args = (node.left, node.right) if isinstance(node, (Add, Sub)) else node.args
            parts = [build(arg) for arg in args]
            deg, q = max(d for _, d, _ in parts), math.lcm(*(q for _, _, q in parts))
            fs = [_scaled(f, deg - d, q // fq) for f, d, fq in parts]
            if isinstance(node, (MaxOf, MinOf)):
                linear, pick = False, _OPERATORS[type(node)]
                if all(type(f) is int for f in fs):
                    return pick(fs), deg, q
                fs = [_call(f) for f in fs]
                return (lambda yy, dy: pick([f(yy, dy) for f in fs])), deg, q
            a, b = fs
            if type(a) is int and type(b) is int:
                return (a - b if isinstance(node, Sub) else a + b), deg, q
            a, b = _call(a), _call(b)
            if isinstance(node, Sub):
                return (lambda yy, dy: a(yy, dy) - b(yy, dy)), deg, q
            return (lambda yy, dy: a(yy, dy) + b(yy, dy)), deg, q
        raise TypeError(f"unknown expression node {type(node).__name__}")

    f, deg, q = build(expr)
    if type(f) is not int and (deg != 1 or not linear):
        return f, deg, q
    form = (f, ()) if type(f) is int else _form(f, [len(p.actions) for p in game.populations])
    fn = _linear(*form) if deg else _call(f)
    game._compiled[fn] = form
    return fn, deg, q


def _form(f, shape) -> tuple:
    """(k0, terms) of ``f``, linear in (yy, dy): k0 = f(0, 1) and (i, j, k) for
    each nonzero k = f(unit vector (i, j), 0), over ``shape``'s action counts."""
    point = [[0] * n for n in shape]
    k0, terms = f(point, 1), []
    for i, n in enumerate(shape):
        for j in range(n):
            point[i][j] = 1
            k = f(point, 0)
            point[i][j] = 0
            if k:
                terms.append((i, j, k))
    return k0, tuple(terms)


def _linear(k0: int, terms):
    """One closure k0*dy + sum of k*yy[i][j] over ``terms`` (i, j, k)."""
    if len(terms) == 1:
        # one flow read, as by every cost of a one-population parallel-edge
        # game: no list to build and sum, about 10% of a design op there
        [(i, j, k)] = terms
        return lambda yy, dy: k0 * dy + k * yy[i][j]
    return lambda yy, dy: k0 * dy + sum([k * yy[i][j] for i, j, k in terms])


def _scaled(f, k: int, m: int):
    """``f``, an int or a function of (yy, dy), times ``dy**k * m``."""
    if not k:
        if m == 1:
            return f
        return f * m if type(f) is int else lambda yy, dy: f(yy, dy) * m
    if type(f) is int:
        c = f * m
        return lambda yy, dy: c * dy**k
    return lambda yy, dy: f(yy, dy) * m * dy**k


def _call(f):
    """``f`` as a function of (yy, dy): an int becomes a constant function."""
    return (lambda yy, dy: f) if type(f) is int else f


def eval_cost(game: GameSpec, pop: str, action: str, flow: FlowProfile, state: str):
    """Cost of taking ``action`` in population ``pop`` at ``flow`` and ``state``.

    Exact on rational inputs; floats otherwise. Raises ValueError for unknown
    identifiers and EvaluationError if the expression fails to produce a
    finite value. Each (pop, action, state) is compiled once per game (see
    :func:`compile_cost`).
    """
    return _evaluate(_cost_fn(game, pop, action, state), flow.flows, pop, action)


def _cost_fn(game: GameSpec, pop: str, action: str, state: str):
    """The compiled cost of ``action`` in ``pop`` and ``state``, kept in the game."""
    return _kept_cost(game, (pop, action, state), compile_cost)


def _int_cost_fn(game: GameSpec, pop: str, action: str, state: str):
    """:func:`compile_int_cost` of ``action`` in ``pop`` and ``state``, kept in the game."""
    return _kept_cost(game, (pop, action, state, int), compile_int_cost)


def _lifted_costs(game: GameSpec, state: str, actions) -> tuple:
    """The integer costs in ``state`` of ``actions[k]`` in each population k
    over one common denominator: (fns, deg, q) such that the cost of
    ``actions[k][a]`` at the flow yy / dy is fns[k][a](yy, dy) / (dy**deg * q).
    Lifted once per game, kept like :func:`_kept_cost` under (state, actions);
    at ``deg`` <= 1 a cost with a kept form comes as one closure, its form kept."""
    key = (state, tuple(map(tuple, actions)))
    if key not in game._compiled:
        pops = game.populations
        compiled = [[_int_cost_fn(game, p.name, a, state) for a in acts] for p, acts in zip(pops, key[1])]
        deg = max((d for costs in compiled for _, d, _ in costs), default=0)
        q = math.lcm(*(cq for costs in compiled for _, _, cq in costs))

        def lift(f, d, cq):
            form, m = game._compiled.get(f), q // cq
            if deg > 1 or form is None or (d, m) == (deg, 1):
                return _scaled(f, deg - d, m)
            form = form[0] * m, tuple((i, j, k * m) for i, j, k in form[1])
            fn = _linear(*form) if deg else _call(form[0])
            game._compiled[fn] = form
            return fn

        game._compiled[key] = [[lift(*cost) for cost in costs] for costs in compiled], deg, q
    return game._compiled[key]


def _affine_form(game: GameSpec, state: str):
    """The costs in ``state`` as ints (k0, J, q), action a costing (k0[a] +
    sum_b J[a][b] y_b) / q over the populations' actions in order, read off
    the lifted costs' kept forms; None unless each cost is affine. A
    one-action population's costs 0, as ``verify_we`` never reads it, and its
    flow, which is 1, folds its terms into k0."""
    sizes = [len(p.actions) for p in game.populations]
    fns, _, q = _lifted_costs(game, state, [p.actions if n > 1 else () for p, n in zip(game.populations, sizes)])
    flat = [(i, j) for i, n in enumerate(sizes) for j in range(n)]
    forms = [game._compiled.get(fns[i][j]) if sizes[i] > 1 else (0, ()) for i, j in flat]
    if None in forms:
        return None
    rows = [{(i, j): k for i, j, k in terms if sizes[i] > 1} for _, terms in forms]
    k0 = [k0 + sum(k for i, _, k in terms if sizes[i] < 2) for k0, terms in forms]
    return k0, [[row.get(ij, 0) for ij in flat] for row in rows], q


def _kept_cost(game: GameSpec, key: tuple, compiler):
    """``compiler`` applied to the cost of key = (pop, action, state, ...),
    once per game: kept in ``game._compiled`` under ``key``."""
    cost = game._compiled.get(key)
    if cost is None:
        pop, action, state = key[:3]
        game.state_index(state)
        game.population_index(pop)
        game.action_index(pop, action)
        cost = game._compiled[key] = compiler(game, game.costs[(pop, action)], state)
    return cost


def _evaluate(fn, flows, pop: str, action: str):
    """``fn(flows)``, the compiled cost of ``action`` in ``pop``; an
    EvaluationError where it overflows a float or is a non-finite float."""
    try:
        value = fn(flows)
    except OverflowError:
        message = f"cost of ({pop!r}, {action!r}) is too large for a float at {flows}"
        raise EvaluationError(message) from None
    if isinstance(value, float) and not math.isfinite(value):
        raise EvaluationError(f"cost of ({pop!r}, {action!r}) is not finite at {flows}")
    return value


def social_cost(game: GameSpec, flow: FlowProfile, state: str):
    """Flow-weighted total cost: sum over populations and actions of y_a * c_a."""
    _check_shape(game, flow)
    total = 0
    for k, pop in enumerate(game.populations):
        for j, action in enumerate(pop.actions):
            y = flow.flows[k][j]
            if y == 0:
                continue  # skip so zero-mass actions cannot poison exactness
            total = total + y * eval_cost(game, pop.name, action, flow, state)
    return total


def congestion_to_game(spec: CongestionSpec) -> GameSpec:
    """Expand a congestion spec into a full game with expression-tree costs.

    The cost of an action is the sum over its resources of the latency
    polynomial evaluated at the resource load, where the load aggregates the
    flow of every action (of every population) using that resource.
    """
    loads = {}
    for e in spec.resources:
        users = []
        for pop in spec.populations:
            for action in pop.actions:
                if e in spec.actions[(pop.name, action)]:
                    users.append(FlowVar(pop.name, action))
        if users:
            expr = users[0]
            for extra in users[1:]:
                expr = Add(expr, extra)
            loads[e] = expr

    def coef_node(e, j):
        values = [spec.latencies[(e, s)] for s in spec.states]
        per_state = [v[j] if j < len(v) else Fraction(0) for v in values]
        if all(c == per_state[0] for c in per_state):
            return Const(Fraction(per_state[0]))
        return StateCoef(tuple(zip(spec.states, map(Fraction, per_state))))

    costs = {}
    for pop in spec.populations:
        for action in pop.actions:
            terms = []
            for e in sorted(spec.actions[(pop.name, action)], key=spec.resources.index):
                degree = max(len(spec.latencies[(e, s)]) for s in spec.states)
                for j in range(degree):
                    if all(
                        (j >= len(spec.latencies[(e, s)]) or spec.latencies[(e, s)][j] == 0)
                        for s in spec.states
                    ):
                        continue
                    coef = coef_node(e, j)
                    if j == 0:
                        terms.append(coef)
                    else:
                        base = loads[e] if j == 1 else Pow(loads[e], j)
                        if isinstance(coef, Const) and coef.value == 1:
                            terms.append(base)
                        else:
                            terms.append(Mul(coef, base))
            if not terms:
                expr: CostExpr = Const(Fraction(0))
            else:
                expr = terms[0]
                for extra in terms[1:]:
                    expr = Add(expr, extra)
            costs[(pop.name, action)] = expr
    return GameSpec(
        populations=spec.populations,
        states=spec.states,
        prior=spec.prior,
        costs=costs,
        congestion=spec,
    )


def load_profile(spec: CongestionSpec, flow: FlowProfile) -> dict:
    """Resource loads: each resource collects the flow of all actions using it."""
    loads = {e: 0 for e in spec.resources}
    for k, pop in enumerate(spec.populations):
        for j, action in enumerate(pop.actions):
            y = flow.flows[k][j]
            for e in spec.actions[(pop.name, action)]:
                loads[e] = loads[e] + y
    return loads


def validate_game(game: GameSpec) -> list[str]:
    """Collect every violated game invariant; an empty list means valid."""
    problems = []
    try:
        _check_unit(sum(game.prior), "prior sums")
    except ValueError as err:
        problems.append(str(err))
    for s, p in zip(game.states, game.prior):
        if p < 0:
            problems.append(f"prior of state {s!r} is negative")
        elif p == 0:
            problems.append(f"prior of state {s!r} is zero (full support required)")
    for (pop, action), expr in sorted(game.costs.items()):
        for state in game.states:
            try:
                compile_cost(game, expr, state)
            except (ValueError, EvaluationError) as err:
                problems.append(f"cost of ({pop!r}, {action!r}): {err}")
                break
    return problems


def uniform_flow(game: GameSpec) -> FlowProfile:
    """The profile splitting each population's mass evenly across actions."""
    return FlowProfile(
        tuple(
            tuple(Fraction(1, len(p.actions)) for _ in p.actions) for p in game.populations
        )
    )


def vertex_flow(game: GameSpec, choices: tuple[int, ...]) -> FlowProfile:
    """The profile putting all of population k's mass on action choices[k]."""
    return FlowProfile(
        tuple(
            tuple(Fraction(1) if j == choices[k] else Fraction(0) for j in range(len(p.actions)))
            for k, p in enumerate(game.populations)
        )
    )
