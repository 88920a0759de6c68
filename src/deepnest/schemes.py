"""Oval-scheme notation: reading, canonical printing, deep-nest recognition.

A scheme for a plane real curve is written between angle brackets: "J" is the
one-sided component (odd degrees only), a bare count is that many empty ovals,
and "k<body>" is k disjoint ovals each containing the body.  "+" separates
items; "0" is no ovals, and an empty body is written "0".  The signed notation
of `orientations` is the same grammar with a sign suffix on each count
("1_-<4_+>").  A token is a count with its suffix, or one other character;
whitespace only separates tokens.  `read_scheme` reads both with an explicit
stack and leaves each notation only the building of its items (a bare count
is a plain number); nothing recurses on a scheme tree, so only Bezout bounds
the nest depth.

Plain parsing normalizes to a canonical tree: empty-oval counts at one level
are merged, identical containers are grouped with a multiplicity, and
children are ordered by their canonical text, so parse -> print -> parse is
the identity on trees.
"""

from __future__ import annotations

import re
from typing import Any, Callable, NamedTuple, Optional, Sequence


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


class OvalGroup(NamedTuple):
    """`count` identical ovals; body None means they are empty, otherwise each
    contains the given child groups.  A tree is unhashable, so hash()
    raises TypeError at once at any depth; `==` and repr() recurse, and raise
    RecursionError a few hundred levels deep."""

    count: int
    body: Optional[tuple["OvalGroup", ...]] = None
    __hash__ = None

    def _walk(self) -> list:
        """(group, its depth, how many copies of it there are), every group
        of the tree once, breadth first."""
        walk = [(self, 1, self.count)]
        for g, depth, copies in walk:   # the list grows as it is read
            for c in g.body or ():
                walk.append((c, depth + 1, copies * c.count))
        return walk

    def ovals(self) -> int:
        total = 0
        for _, _, copies in self._walk():
            total += copies
        return total

    def depth(self) -> int:
        return self._walk()[-1][1]      # breadth first: the last is deepest


class RealScheme(NamedTuple):
    degree: int
    pseudoline: bool
    groups: tuple[OvalGroup, ...]
    __hash__ = None     # as its trees are, even when it has none

    def oval_count(self) -> int:
        total = 0
        for g in self.groups:
            total += g.ovals()
        return total

    def component_count(self) -> int:
        return self.oval_count() + (1 if self.pseudoline else 0)


# ---------------------------------------------------------------------------
# reading

# one string per token: a count with its optional sign suffix, or any other
# single character; counts are ASCII digits, as every integer the CLI reads
_TOKEN = re.compile(r"[0-9]+(?:_[+-])?|\S")


class _ItemError(ValueError):
    """An item builder's complaint; `read_scheme` adds the item's position."""


def _syntax_error(text: str, message: str, index: int,
                  shift: int = 0) -> SchemeSyntaxError:
    """The error at the index-th token of text, or at its end past the last
    token: the positions are found only when a rule fails."""
    for k, m in enumerate(_TOKEN.finditer(text)):
        if k == index:
            return SchemeSyntaxError(message, m.start() + shift)
    return SchemeSyntaxError(message, len(text) + shift)


def read_scheme(text: str, degree: int,
                node: Callable[..., Any]) -> tuple[bool, list]:
    """Read a scheme in either notation; return (saw J, top-level items).

    A token is one string: ASCII digits with their sign suffix if any
    ("12", "1_-"), or one other non-blank character.  node(count, sign,
    body) builds one item of the notation: sign is "+", "-" or "" for none,
    and body is None for a bare count, otherwise the items already built
    for "count<body>".  An item is whatever node returns, never looked
    into here; None holds no oval and is dropped.  node raises _ItemError
    for an item the notation does not allow.

    Raises SchemeSyntaxError at the first rule broken, in text order.  A
    line through the innermost oval of a nest meets each of its ovals
    twice, so by Bezout a nest is at most degree // 2 deep; the bound is
    checked at the count that would go deeper.
    """
    # a count starts with an ASCII digit, any other token is one character,
    # and "" stands for the end of the text
    tokens = _TOKEN.findall(text)
    tokens.append("")
    if tokens[0] != "<":
        raise _syntax_error(text, "expected '<'", 0)
    max_depth = degree // 2
    saw_j = False
    items: list = []     # the body being read
    open_: list = []     # (count, sign, token index, enclosing body) per oval
    i = 1
    while True:
        tok = tokens[i]
        if "0" <= tok < ":":
            digits, _, sign = tok.partition("_")
            if digits[0] == "0" and len(digits) > 1:
                raise _syntax_error(text, "counts may not have leading zeros",
                                    i)
            count = int(digits)
            opens = tokens[i + 1] == "<"
            if len(open_) >= max_depth and (count or opens):
                raise _syntax_error(
                    text, f"nest deeper than degree // 2 = {max_depth}", i)
            if opens:
                open_.append((count, sign, i, items))
                items = []
                i += 2
                continue
            try:
                item = node(count, sign, None)
            except _ItemError as exc:
                raise _syntax_error(text, str(exc), i) from None
            if item is not None:
                items.append(item)
        elif tok == "J":
            if open_:
                raise _syntax_error(
                    text, "the one-sided component cannot lie inside an oval",
                    i, 1)
            if saw_j:
                raise _syntax_error(text, "duplicate one-sided component",
                                    i, 1)
            saw_j = True
        else:
            raise _syntax_error(text, "expected an item", i)
        i += 1
        tok = tokens[i]
        while tok == ">" and open_:
            count, sign, start, enclosing = open_.pop()
            try:
                item = node(count, sign, items)
            except _ItemError as exc:
                raise _syntax_error(text, str(exc), start) from None
            items = enclosing
            if item is not None:
                items.append(item)
            i += 1
            tok = tokens[i]
        if tok == ">":
            break
        if tok != "+":
            raise _syntax_error(text, "expected '>'", i)
        i += 1
    if i + 2 != len(tokens):
        raise _syntax_error(text, "trailing input after scheme", i + 1)
    if degree % 2 == 1 and not saw_j:
        raise SchemeSyntaxError("odd-degree scheme must contain J", 0)
    if degree % 2 == 0 and saw_j:
        raise SchemeSyntaxError("even-degree scheme cannot contain J", 0)
    return saw_j, items


def _group(count: int, sign: str, body: Optional[list]):
    """A plain item: (None, count) for count empty ovals, else (canonical
    text of its body, OvalGroup)."""
    if sign:
        raise _ItemError("a plain scheme count takes no sign")
    if count == 0:
        return None
    if not body:  # a bare count, or "k<0>": k empty ovals
        return None, count
    key, groups = _canonical_children(body)
    return key, OvalGroup(count, groups)


def _canonical_children(items: list) -> tuple[str, tuple[OvalGroup, ...]]:
    """Add up the bare counts of `_group`'s items, group identical containers
    and order them by their canonical text; return (canonical text, groups)."""
    empties = 0
    containers: dict[str, OvalGroup] = {}
    for key, g in items:
        if key is None:
            empties += g
        else:
            seen = containers.get(key)
            containers[key] = (g if seen is None else
                               OvalGroup(seen.count + g.count, seen.body))
    groups = [OvalGroup(empties)] if empties else []
    parts = [str(empties)] if empties else []
    for key in sorted(containers):
        g = containers[key]
        groups.append(g)
        parts.append(f"{g.count}<{key}>")
    return " + ".join(parts) or "0", tuple(groups)


def parse_scheme(text: str, degree: int) -> RealScheme:
    saw_j, items = read_scheme(text, degree, _group)
    return RealScheme(degree=degree, pseudoline=saw_j,
                      groups=_canonical_children(items)[1])


# ---------------------------------------------------------------------------
# printing

def print_items(items: Sequence, node: Callable[[Any], tuple]) -> str:
    """Items joined by " + ", "0" for none.  A str item prints as itself;
    node(item) gives (head, children): head alone when children is None,
    else "head<children>"."""
    open_: list = []   # (head, items left, parts printed) per enclosing body
    head, rest, parts = "", iter(items), []
    while True:
        for item in rest:
            text, children = ((item, None) if isinstance(item, str)
                              else node(item))
            if children is not None:
                open_.append((head, rest, parts))
                head, rest, parts = text, iter(children), []
                break
            parts.append(text)
        else:
            text = " + ".join(parts) or "0"
            if not open_:
                return text
            inner = f"{head}<{text}>"
            head, rest, parts = open_.pop()
            parts.append(inner)


def _group_node(g: OvalGroup) -> tuple[str, Optional[tuple]]:
    return str(g.count), g.body


def _print_group(g: OvalGroup) -> str:
    return print_items([g], _group_node)


def print_scheme(s: RealScheme) -> str:
    items = (["J"] if s.pseudoline else []) + list(s.groups)
    return "<" + print_items(items, _group_node) + ">"


# ---------------------------------------------------------------------------
# M-curves and the deep nest

def genus_bound(degree: int) -> int:
    return (degree - 1) * (degree - 2) // 2


def is_m_curve(s: RealScheme) -> bool:
    """Maximal number of components for the degree: g + 1 in total."""
    return s.component_count() == genus_bound(s.degree) + 1


class DeepNestProfile(NamedTuple):
    alpha: int       # empty ovals outside the nest
    beta: int        # empty ovals between the two nest ovals
    gamma: int       # empty ovals inside the inner nest oval
    nest_depth: int = 3


def classify_deep_nest(s: RealScheme) -> Optional[DeepNestProfile]:
    """Deep-nest profile of the scheme, None if no depth-3 nest is present.

    Raises InadmissibleSchemeError when the scheme cannot occur for the
    degree at all: an oval nested beyond depth 3, or a non-empty oval other
    than the two nest ovals (a transversal line or conic would then exceed
    the intersection bound with the degree-9 curve).
    """
    deep = []
    for g in s.groups:
        depth = g.depth()
        if depth > 3:
            raise InadmissibleSchemeError("oval nested beyond depth 3",
                                          _print_group(_deep_child(g)))
        if depth == 3:
            deep.append(g)
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
    """A witness oval at excessive depth: the first group at depth 4 that
    still contains ovals, or failing one, the first such group at depth 3."""
    walk = g._walk()
    return next(h for d in (4, 3) for h, depth, _ in walk
                if depth == d and h.body is not None)
