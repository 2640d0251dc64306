"""Plain-text game and outcome documents.

A game document is a strict INI-like file with sections ``[populations]``,
``[states]``, ``[prior]``, and exactly one of ``[costs]`` or
``[congestion]``. An outcome document holds one ``[outcome.STATE]`` section
per state whose keys are flow literals like ``(1/2, 1/2)`` (populations
separated by ``;``) and whose values are weights. Parsers reject unknown
sections and keys with line numbers; writers emit a canonical byte-stable
form that round-trips.

Example game document::

    [populations]
    crowd = a, b

    [states]
    names = 0, 1

    [prior]
    0 = 1/2
    1 = 1/2

    [costs]
    crowd.a = 3 - 3*theta
    crowd.b = 1
"""

from __future__ import annotations

import re
from fractions import Fraction

from .model import (
    CongestionSpec,
    CostParseError,
    FlowProfile,
    GameSpec,
    Outcome,
    Population,
    congestion_to_game,
    format_expr,
    parse_cost,
    parse_rational,
)

_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")
_PLAIN_RE = re.compile(r"[A-Za-z0-9_-]+\Z")  # states and resources (no dots)
_SECTION_RE = re.compile(r"\[([A-Za-z0-9_.-]+)\]\Z")

_GAME_SECTIONS = ("populations", "states", "prior", "costs", "congestion")


class GameFileError(ValueError):
    """Malformed document; carries the 1-based line (and column if known)."""

    def __init__(self, message: str, line: int | None = None, column: int | None = None):
        place = ""
        if line is not None:
            place = f"line {line}"
            if column is not None:
                place += f", column {column + 1}"
            place += ": "
        super().__init__(place + message)
        self.line = line
        self.column = column
        self.bare_message = message


def _scan(text: str):
    """Split a document into sections of (line, key, value, value_column)."""
    sections = []  # (name, header_line, entries)
    current = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if stripped.startswith("["):
            match = _SECTION_RE.match(stripped)
            if match is None:
                raise GameFileError(f"malformed section header {stripped!r}", lineno)
            current = (match.group(1), lineno, [])
            sections.append(current)
            continue
        if current is None:
            raise GameFileError("content before any section header", lineno)
        if "=" not in raw:
            raise GameFileError("expected 'key = value'", lineno)
        eq = raw.index("=")
        key = raw[:eq].strip()
        value_raw = raw[eq + 1 :]
        value = value_raw.strip()
        value_col = eq + 1 + (len(value_raw) - len(value_raw.lstrip()))
        if not key:
            raise GameFileError("missing key before '='", lineno)
        if not value:
            raise GameFileError(f"missing value for key {key!r}", lineno)
        current[2].append((lineno, key, value, value_col))
    return sections


def _split_list(value: str, lineno: int, what: str) -> list[str]:
    parts = [p.strip() for p in value.split(",")]
    if any(not p for p in parts):
        raise GameFileError(f"empty entry in {what} list", lineno)
    return parts


def _names(value: str, lineno: int, what: str, pattern, duplicate: str) -> tuple[str, ...]:
    """A list of distinct names that each match ``pattern``."""
    names = _split_list(value, lineno, what)
    for name in names:
        if not pattern.match(name):
            raise GameFileError(f"invalid {what} name {name!r}", lineno)
    if len(set(names)) != len(names):
        raise GameFileError(duplicate, lineno)
    return tuple(names)


def _rational(text: str, lineno: int, column: int | None = None) -> Fraction:
    """:func:`parse_rational` of ``text``, its error located at ``lineno``."""
    try:
        return parse_rational(text)
    except ValueError as err:
        raise GameFileError(str(err), lineno, column) from None


def _pop_action(pop_lookup, pop_name: str, action: str, lineno: int) -> tuple[str, str]:
    """The key (population, action), checked against the populations."""
    pop = pop_lookup.get(pop_name)
    if pop is None:
        raise GameFileError(f"unknown population {pop_name!r}", lineno)
    if action not in pop.actions:
        raise GameFileError(f"unknown action {action!r} in population {pop_name!r}", lineno)
    return pop_name, action


def parse_game_file(text: str) -> GameSpec:
    """Parse a game document; raises :class:`GameFileError` with positions."""
    sections = _scan(text)
    seen = {}
    for name, lineno, entries in sections:
        if name not in _GAME_SECTIONS:
            raise GameFileError(f"unknown section [{name}]", lineno)
        if name in seen:
            raise GameFileError(f"duplicate section [{name}]", lineno)
        seen[name] = (lineno, entries)
    for required in ("populations", "states", "prior"):
        if required not in seen:
            raise GameFileError(f"missing section [{required}]")
    if ("costs" in seen) == ("congestion" in seen):
        raise GameFileError("exactly one of [costs] or [congestion] is required")

    populations = []
    pop_names = set()
    for lineno, key, value, _col in seen["populations"][1]:
        if not _NAME_RE.match(key):
            raise GameFileError(f"invalid population name {key!r}", lineno)
        if key in pop_names:
            raise GameFileError(f"duplicate population {key!r}", lineno)
        actions = _names(value, lineno, "action", _NAME_RE, f"duplicate action in population {key!r}")
        pop_names.add(key)
        populations.append(Population(key, actions))
    if not populations:
        raise GameFileError("no populations defined", seen["populations"][0])

    states: tuple[str, ...] = ()
    states_line = seen["states"][0]
    got_names = False
    for lineno, key, value, _col in seen["states"][1]:
        if key != "names":
            raise GameFileError(f"unknown key {key!r} in [states]", lineno)
        if got_names:
            raise GameFileError("duplicate 'names' key", lineno)
        got_names = True
        states = _names(value, lineno, "state", _PLAIN_RE, "duplicate state name")
    if not got_names:
        raise GameFileError("missing 'names' key in [states]", states_line)

    prior_map = {}
    prior_line = seen["prior"][0]
    for lineno, key, value, col in seen["prior"][1]:
        if key not in states:
            raise GameFileError(f"unknown state {key!r} in [prior]", lineno)
        if key in prior_map:
            raise GameFileError(f"duplicate prior for state {key!r}", lineno)
        q = _rational(value, lineno, col)
        if q < 0:
            raise GameFileError(f"negative prior for state {key!r}", lineno)
        prior_map[key] = q
    missing = [s for s in states if s not in prior_map]
    if missing:
        raise GameFileError(f"missing prior for states {missing}", prior_line)
    total = sum(prior_map.values())
    if total != 1:
        raise GameFileError(f"prior sums to {total}, expected 1", prior_line)
    prior = tuple(prior_map[s] for s in states)

    if "costs" in seen:
        costs = {}
        costs_line = seen["costs"][0]
        pop_lookup = {p.name: p for p in populations}
        for lineno, key, value, col in seen["costs"][1]:
            if "." not in key:
                raise GameFileError(f"cost key {key!r} must be 'population.action'", lineno)
            pair = _pop_action(pop_lookup, *key.split(".", 1), lineno)
            if pair in costs:
                raise GameFileError(f"duplicate cost for {key!r}", lineno)
            try:
                costs[pair] = parse_cost(value)
            except CostParseError as err:
                raise GameFileError(err.bare_message, lineno, col + err.column) from None
        wanted = {(p.name, a) for p in populations for a in p.actions}
        absent = sorted(wanted - set(costs))
        if absent:
            raise GameFileError(f"missing cost expressions for {absent}", costs_line)
        try:
            return GameSpec(tuple(populations), states, prior, costs)
        except ValueError as err:
            raise GameFileError(str(err)) from None

    return _assemble_congestion(seen["congestion"], populations, states, prior)


def _assemble_congestion(section, populations, states, prior) -> GameSpec:
    header_line, entries = section
    resources: tuple[str, ...] = ()
    latencies = {}
    action_sets = {}
    pop_lookup = {p.name: p for p in populations}
    for lineno, key, value, col in entries:
        if key == "resources":
            if resources:
                raise GameFileError("duplicate 'resources' key", lineno)
            resources = _names(value, lineno, "resource", _PLAIN_RE, "duplicate resource name")
        elif key.startswith("latency."):
            parts = key.split(".")
            if len(parts) != 3:
                raise GameFileError(
                    f"latency key {key!r} must be 'latency.RESOURCE.STATE'", lineno
                )
            _, e, s = parts
            if s not in states:
                raise GameFileError(f"unknown state {s!r} in latency key", lineno)
            if (e, s) in latencies:
                raise GameFileError(f"duplicate latency for {key!r}", lineno)
            tokens = _split_list(value, lineno, "coefficient")
            latencies[(e, s)] = tuple(_rational(tok, lineno, col) for tok in tokens)
        elif key.startswith("action."):
            parts = key.split(".")
            if len(parts) != 3:
                raise GameFileError(
                    f"action key {key!r} must be 'action.POPULATION.ACTION'", lineno
                )
            pair = _pop_action(pop_lookup, *parts[1:], lineno)
            if pair in action_sets:
                raise GameFileError(f"duplicate resource set for {key!r}", lineno)
            action_sets[pair] = frozenset(_split_list(value, lineno, "resource"))
        else:
            raise GameFileError(f"unknown key {key!r} in [congestion]", lineno)
    if not resources:
        raise GameFileError("missing 'resources' key in [congestion]", header_line)
    try:
        spec = CongestionSpec(
            resources, latencies, action_sets, tuple(populations), states, prior
        )
    except ValueError as err:
        raise GameFileError(str(err), header_line) from None
    return congestion_to_game(spec)


# ---------------------------------------------------------------------------
# Outcome documents
# ---------------------------------------------------------------------------


def _parse_flow_literal(text: str, game: GameSpec, lineno: int) -> FlowProfile:
    body = text.strip()
    if not (body.startswith("(") and body.endswith(")")):
        raise GameFileError(f"flow literal {text!r} must be parenthesized", lineno)
    blocks = body[1:-1].split(";")
    if len(blocks) != len(game.populations):
        raise GameFileError(
            f"flow literal {text!r} has {len(blocks)} population blocks, "
            f"expected {len(game.populations)}",
            lineno,
        )
    flows = []
    for k, block in enumerate(blocks):
        parts = [p.strip() for p in block.split(",")]
        expected = len(game.populations[k].actions)
        if len(parts) != expected:
            raise GameFileError(
                f"population {game.populations[k].name!r} needs {expected} entries",
                lineno,
            )
        flows.append(tuple(_rational(p, lineno) for p in parts))
    try:
        return FlowProfile(tuple(flows))
    except ValueError as err:
        raise GameFileError(str(err), lineno) from None


def parse_outcome_file(text: str, game: GameSpec) -> Outcome:
    """Parse an outcome document against a game.

    Every game state must appear exactly once as an ``[outcome.STATE]``
    section, and each section's weights must sum to 1.
    """
    sections = _scan(text)
    per_state = {}
    for name, lineno, entries in sections:
        if not name.startswith("outcome."):
            raise GameFileError(f"unknown section [{name}] in outcome document", lineno)
        state = name[len("outcome.") :]
        if state not in game.states:
            raise GameFileError(f"unknown state {state!r}", lineno)
        if state in per_state:
            raise GameFileError(f"duplicate section for state {state!r}", lineno)
        atoms = []
        total = 0
        for entry_line, key, value, col in entries:
            flow = _parse_flow_literal(key, game, entry_line)
            w = _rational(value, entry_line, col)
            if w < 0:
                raise GameFileError("negative weight", entry_line)
            total = total + w
            atoms.append((flow, w))
        if not atoms:
            raise GameFileError(f"no flows for state {state!r}", lineno)
        if total != 1:
            raise GameFileError(
                f"weights for state {state!r} sum to {total}, expected 1", lineno
            )
        per_state[state] = tuple(atoms)
    missing = [s for s in game.states if s not in per_state]
    if missing:
        raise GameFileError(f"missing outcome sections for states {missing}")
    try:
        return Outcome(per_state)
    except ValueError as err:
        raise GameFileError(str(err)) from None


# ---------------------------------------------------------------------------
# Writers (canonical, byte-stable)
# ---------------------------------------------------------------------------


def format_quantity(x) -> str:
    """Rational values print exactly; floats use 12 significant digits."""
    if isinstance(x, Fraction):
        return str(x)
    if isinstance(x, int):
        return str(x)
    return f"{float(x):.12g}"


def write_game_file(game: GameSpec) -> str:
    lines = ["[populations]"]
    for pop in game.populations:
        lines.append(f"{pop.name} = {', '.join(pop.actions)}")
    lines.append("")
    lines.append("[states]")
    lines.append(f"names = {', '.join(game.states)}")
    lines.append("")
    lines.append("[prior]")
    for s in game.states:
        lines.append(f"{s} = {format_quantity(game.prior_of(s))}")
    lines.append("")
    if game.congestion is not None:
        spec = game.congestion
        lines.append("[congestion]")
        lines.append(f"resources = {', '.join(spec.resources)}")
        for e in spec.resources:
            for s in spec.states:
                coeffs = ", ".join(format_quantity(c) for c in spec.latencies[(e, s)])
                lines.append(f"latency.{e}.{s} = {coeffs}")
        for pop in game.populations:
            for a in pop.actions:
                used = sorted(spec.actions[(pop.name, a)], key=spec.resources.index)
                lines.append(f"action.{pop.name}.{a} = {', '.join(used)}")
    else:
        lines.append("[costs]")
        for pop in game.populations:
            for a in pop.actions:
                lines.append(f"{pop.name}.{a} = {format_expr(game.costs[(pop.name, a)])}")
    return "\n".join(lines) + "\n"


def format_flow_literal(flow: FlowProfile) -> str:
    blocks = []
    for vec in flow.flows:
        blocks.append(", ".join(format_quantity(v) for v in vec))
    return "(" + "; ".join(blocks) + ")"


def write_outcome_file(outcome: Outcome, game: GameSpec) -> str:
    lines = []
    for s in game.states:
        if s not in outcome.per_state:
            raise ValueError(f"outcome lacks state {s!r}")
        if lines:
            lines.append("")
        lines.append(f"[outcome.{s}]")
        for flow, w in outcome.per_state[s]:
            lines.append(f"{format_flow_literal(flow)} = {format_quantity(w)}")
    return "\n".join(lines) + "\n"
