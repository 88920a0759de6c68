"""Oval-scheme notation: parsing, canonical printing, deep-nest recognition.

A scheme for a plane real curve is written between angle brackets: "J" is the
one-sided component (odd degrees only), a bare count is that many empty ovals,
and "k<body>" is k disjoint ovals each containing the body.  Whitespace is
free; "+" separates items; an empty body is written "0".

Parsing normalizes to a canonical tree: empty-oval counts at one level are
merged, identical containers are grouped with a multiplicity, and children
are ordered deterministically, so parse -> print -> parse is the identity on
trees.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional


class SchemeSyntaxError(ValueError):
    """Malformed scheme text, with position information."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class InadmissibleSchemeError(ValueError):
    """Scheme violates a structural bound; carries the offending oval."""

    def __init__(self, message: str, oval: str):
        super().__init__(f"{message}: {oval}")
        self.oval = oval


@dataclass(frozen=True)
class OvalGroup:
    """`count` identical ovals; body None means they are empty, otherwise each
    contains the given child groups."""

    count: int
    body: Optional[tuple["OvalGroup", ...]] = None

    def ovals(self) -> int:
        inner = sum(g.ovals() for g in self.body) if self.body else 0
        return self.count * (1 + inner)

    def depth(self) -> int:
        inner = max((g.depth() for g in self.body), default=0) if self.body else 0
        return 1 + inner


@dataclass(frozen=True)
class RealScheme:
    degree: int
    pseudoline: bool
    groups: tuple[OvalGroup, ...]

    def oval_count(self) -> int:
        return sum(g.ovals() for g in self.groups)

    def component_count(self) -> int:
        return self.oval_count() + (1 if self.pseudoline else 0)


# ---------------------------------------------------------------------------
# parsing

class _Parser:
    def __init__(self, text: str, degree: int):
        self.text = text
        self.i = 0
        # Bezout with a line through the innermost oval: 2 * depth <= degree
        self.max_depth = degree // 2

    def error(self, msg: str):
        raise SchemeSyntaxError(msg, self.i)

    def skip_ws(self):
        while self.i < len(self.text) and self.text[self.i].isspace():
            self.i += 1

    def peek(self) -> str:
        self.skip_ws()
        return self.text[self.i] if self.i < len(self.text) else ""

    def expect(self, ch: str):
        if self.peek() != ch:
            self.error(f"expected {ch!r}")
        self.i += 1

    def number(self) -> int:
        self.skip_ws()
        start = self.i
        while self.i < len(self.text) and self.text[self.i].isdigit():
            self.i += 1
        if self.i == start:
            self.error("expected a count")
        return int(self.text[start:self.i])

    def body(self, depth: int) -> tuple[bool, list[OvalGroup]]:
        """Items until the closing '>'; returns (saw_pseudoline, groups)."""
        saw_j = False
        groups: list[OvalGroup] = []
        while True:
            item = self.item(depth)
            if item == "J":
                if depth > 0:
                    self.error("the one-sided component cannot lie inside an oval")
                if saw_j:
                    self.error("duplicate one-sided component")
                saw_j = True
            elif item is not None:
                groups.append(item)
            if self.peek() != "+":
                return saw_j, groups
            self.i += 1

    def item(self, depth: int):
        c = self.peek()
        if c == "J":
            self.i += 1
            return "J"
        if not c.isdigit():
            self.error("expected an item")
        if c == "0":
            nxt = self.i + 1
            if nxt < len(self.text) and self.text[nxt].isdigit():
                self.error("counts may not have leading zeros")
        start = self.i
        count = self.number()
        if depth >= self.max_depth and (count or self.peek() == "<"):
            raise SchemeSyntaxError(
                f"nest deeper than degree // 2 = {self.max_depth}", start)
        if self.peek() == "<":
            self.i += 1
            saw_j, groups = self.body(depth + 1)
            assert not saw_j
            self.expect(">")
            if count == 0:
                return None
            if not groups:
                return OvalGroup(count)  # "k<0>" is k empty ovals
            return OvalGroup(count, _canonical_children(groups))
        if count == 0:
            return None
        return OvalGroup(count)


def _canonical_children(groups: list[OvalGroup]) -> tuple[OvalGroup, ...]:
    empties = 0
    containers: dict[tuple[OvalGroup, ...], int] = {}
    for g in groups:
        if g.body is None:
            empties += g.count
        else:
            containers[g.body] = containers.get(g.body, 0) + g.count
    out: list[OvalGroup] = []
    if empties:
        out.append(OvalGroup(empties))
    ordered = sorted(containers.items(),
                     key=lambda kv: _print_body(list(kv[0])))
    out.extend(OvalGroup(count, body) for body, count in ordered)
    return tuple(out)


def parse_scheme(text: str, degree: int) -> RealScheme:
    p = _Parser(text, degree)
    p.expect("<")
    saw_j, groups = p.body(0)
    p.expect(">")
    p.skip_ws()
    if p.i != len(text):
        p.error("trailing input after scheme")
    if degree % 2 == 1 and not saw_j:
        raise SchemeSyntaxError("odd-degree scheme must contain J", 0)
    if degree % 2 == 0 and saw_j:
        raise SchemeSyntaxError("even-degree scheme cannot contain J", 0)
    return RealScheme(degree=degree, pseudoline=saw_j,
                      groups=_canonical_children(groups))


# ---------------------------------------------------------------------------
# printing

def _print_group(g: OvalGroup) -> str:
    if g.body is None:
        return str(g.count)
    return f"{g.count}<{_print_body(list(g.body))}>"


def _print_body(groups: list[OvalGroup]) -> str:
    if not groups:
        return "0"
    return " + ".join(_print_group(g) for g in groups)


def print_scheme(s: RealScheme) -> str:
    parts = (["J"] if s.pseudoline else []) + [_print_group(g) for g in s.groups]
    return "<" + (" + ".join(parts) if parts else "0") + ">"


# ---------------------------------------------------------------------------
# M-curves and the deep nest

def genus_bound(degree: int) -> int:
    return (degree - 1) * (degree - 2) // 2


def is_m_curve(s: RealScheme) -> bool:
    """Maximal number of components for the degree: g + 1 in total."""
    return s.component_count() == genus_bound(s.degree) + 1


@dataclass(frozen=True)
class DeepNestProfile:
    alpha: int       # empty ovals outside the nest
    beta: int        # empty ovals between the two nest ovals
    gamma: int       # empty ovals inside the inner nest oval
    nest_depth: int = 3

    def oval_count(self) -> int:
        return self.alpha + self.beta + self.gamma + 2


def classify_deep_nest(s: RealScheme) -> Optional[DeepNestProfile]:
    """Deep-nest profile of the scheme, None if no depth-3 nest is present.

    Raises InadmissibleSchemeError when the scheme cannot occur for the
    degree at all: an oval nested beyond depth 3, or a non-empty oval other
    than the two nest ovals (a transversal line or conic would then exceed
    the intersection bound with the degree-9 curve).
    """
    for g in s.groups:
        if g.depth() > 3:
            raise InadmissibleSchemeError("oval nested beyond depth 3",
                                          _print_group(_deep_child(g)))
    deep = [g for g in s.groups if g.depth() == 3]
    if not deep:
        return None
    if len(deep) > 1 or deep[0].count > 1:
        raise InadmissibleSchemeError("two disjoint depth-3 nests",
                                      _print_group(deep[0]))
    outer = deep[0]
    alpha = 0
    for g in s.groups:
        if g is outer:
            continue
        if g.body is not None:
            raise InadmissibleSchemeError(
                "non-empty oval outside the nest", _print_group(g))
        alpha += g.count
    beta = 0
    inner = None
    for g in outer.body:
        if g.body is None:
            beta += g.count
        elif inner is None and g.count == 1:
            inner = g
        else:
            raise InadmissibleSchemeError(
                "second non-empty oval inside the outer nest oval",
                _print_group(g))
    assert inner is not None  # depth()==3 guarantees a depth-2 child
    gamma = 0
    for g in inner.body:
        assert g.body is None  # depth bound already enforced
        gamma += g.count
    return DeepNestProfile(alpha=alpha, beta=beta, gamma=gamma)


def _deep_child(g: OvalGroup) -> OvalGroup:
    """A witness oval at excessive depth: descend three levels, return what
    is still a container."""
    node = g
    for _ in range(3):
        if node.body is None:
            break
        nxt = next((c for c in node.body if c.body is not None), None)
        if nxt is None:
            break
        node = nxt
    return node
