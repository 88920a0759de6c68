"""Scheme grammar: parsing, canonical printing, deep-nest recognition."""

from __future__ import annotations

import os
import pathlib
import random
import subprocess
import sys

import pytest
import hypothesis as hyp
import hypothesis.strategies as hys

from deepnest.orientations import parse_signed
from deepnest.schemes import (
    DeepNestProfile,
    InadmissibleSchemeError,
    OvalGroup,
    SchemeSyntaxError,
    classify_deep_nest,
    genus_bound,
    is_m_curve,
    parse_scheme,
    print_scheme,
)


def test_parse_canonicalizes():
    s = parse_scheme("< J + 2 + 3 + 1<5> + 1 < 5 > >", 9)
    assert print_scheme(s) == "<J + 5 + 2<5>>"
    # zero counts and empty containers fold away
    s = parse_scheme("<J + 0 + 1<0> + 0<9>>", 9)
    assert print_scheme(s) == "<J + 1>"
    assert parse_scheme("<0>", 8).oval_count() == 0


def test_counts_multiply_through_nesting():
    s = parse_scheme("<2<3 + 2<1>>>", 8)
    # each of the 2 outer ovals holds 3 + 2*(1+1) = 7 ovals
    assert s.oval_count() == 2 * (1 + 3 + 2 * 2)


def test_parse_errors_carry_positions():
    for text, degree in [("<J + 26", 9), ("J + 26>", 9), ("<J + J>", 9),
                         ("<1<J>>", 8), ("<J + 1<2>", 9), ("<J + a>", 9),
                         ("<J + 07>", 9), ("<26>", 9), ("<J + 5>", 8),
                         ("<J + 26> extra", 9)]:
        with pytest.raises(SchemeSyntaxError):
            parse_scheme(text, degree)


@pytest.mark.parametrize("text, parse", [
    ("<J + \u0662\u0668>", parse_scheme),
    ("<J + \u0660\u0667 + 21>", parse_scheme),
    ("<J + 1<4 + 1<\u0662\u0662>>>", parse_scheme),
    ("<J + \u0662\u0668_+>", parse_signed),
    ("<J + 1_+<4_+ + 0_- + 1_-<\uff11\uff12_+ + 10_->>>", parse_signed)])
def test_counts_are_ascii_digits(text, parse):
    """A decimal digit of another script is no count: the reader stops at
    it, as at any other character that is not an item."""
    digit = next(k for k, c in enumerate(text) if c.isdigit()
                 and not "0" <= c <= "9")
    with pytest.raises(SchemeSyntaxError) as exc:
        parse(text, 9)
    assert exc.value.position == digit
    assert str(exc.value) == f"expected an item (at position {digit})"


@pytest.mark.parametrize("degree, parse, oval", [
    *(pytest.param(d, parse_scheme, "1", id=str(d)) for d in (2, 5, 8, 9)),
    *(pytest.param(d, parse_signed, "1_+", id=f"signed-{d}")
      for d in (2, 5, 8, 9))])
def test_nest_depth_is_bounded_by_half_the_degree(degree, parse, oval):
    """A line through the innermost oval of a depth-d nest meets the curve
    in at least 2d points, so the reader rejects d > degree // 2 at the
    count that goes deeper, in either notation."""
    j = "J + " if degree % 2 else ""
    d = degree // 2
    deepest = "<" + j + f"{oval}<" * (d - 1) + oval + ">" * (d - 1) + ">"
    assert parse(deepest, degree).oval_count() == d
    # k<0> at the deepest level is k empty ovals, not one level deeper
    innermost = f"<{oval}>"
    assert parse(deepest.replace(innermost, f"<{oval}<0>>"), degree) == \
        parse(deepest, degree)
    too_deep = "<" + j + f"{oval}<" * d + oval + ">" * d + ">"
    with pytest.raises(SchemeSyntaxError) as exc:
        parse(too_deep, degree)
    assert exc.value.position == too_deep.rindex(f"{oval}<{oval}>") \
        + len(oval) + 1


def test_is_m_curve():
    assert genus_bound(9) == 28
    assert is_m_curve(parse_scheme("<J + 28>", 9))
    assert is_m_curve(parse_scheme("<J + 1<4 + 1<22>>>", 9))
    assert not is_m_curve(parse_scheme("<J + 27>", 9))
    assert is_m_curve(parse_scheme("<22>", 8))  # genus 21 plus one


def test_deep_nest_profiles():
    assert classify_deep_nest(parse_scheme("<J + 28>", 9)) is None
    assert classify_deep_nest(parse_scheme("<J + 5 + 1<3>>", 9)) is None
    p = classify_deep_nest(parse_scheme("<J + 1<4 + 1<22>>>", 9))
    assert p == DeepNestProfile(alpha=0, beta=4, gamma=22)
    p = classify_deep_nest(parse_scheme("<J + 7 + 1<2 + 1<3>>>", 9))
    assert (p.alpha, p.beta, p.gamma) == (7, 2, 3)
    p = classify_deep_nest(parse_scheme("<J + 1<1<26>>>", 9))
    assert (p.alpha, p.beta, p.gamma) == (0, 0, 26)


def test_profile_counts_ovals():
    rng = random.Random(8)
    for _ in range(100):
        alpha = rng.randrange(0, 5)
        beta = rng.randrange(0, 12)
        gamma = rng.randrange(1, 12)  # an empty inner body would drop the nest
        text = f"<J + {alpha} + 1<{beta} + 1<{gamma}>>>"
        s = parse_scheme(text, 9)
        p = classify_deep_nest(s)
        assert (p.alpha, p.beta, p.gamma) == (alpha, beta, gamma)
        assert s.oval_count() == alpha + beta + gamma + 2
        assert p.nest_depth == 3


def test_inadmissible_schemes():
    cases = [
        ("<J + 1<1<1<5>>>>", "beyond depth 3"),
        ("<J + 2<1<5>>>", "depth-3 nests"),
        ("<J + 1<5> + 1<1<5>>>", "outside the nest"),
        ("<J + 1<1<5> + 1<6>>>", "inside the outer"),
        ("<J + 1<2<5>>>", "inside the outer"),
        # the witness is on the deep branch, not in the first container
        ("<J + 1<1<1> + 1<2<1>>>>", "beyond depth 3: 2<1>"),
    ]
    for text, fragment in cases:
        with pytest.raises(InadmissibleSchemeError) as exc:
            classify_deep_nest(parse_scheme(text, 9))
        assert fragment in str(exc.value)
        assert exc.value.oval  # a witness subtree is always reported


# --- round-trip property ---------------------------------------------------

def group_strategy(depth: int):
    count = hys.integers(min_value=1, max_value=9)
    if depth == 0:
        return hys.builds(OvalGroup, count, hys.none())
    child = group_strategy(depth - 1)
    body = hys.lists(child, min_size=1, max_size=3)
    return hys.one_of(
        hys.builds(OvalGroup, count, hys.none()),
        hys.builds(lambda c, b: OvalGroup(c, tuple(b)), count, body),
    )


def render(groups, pseudoline: bool, sign=lambda: "") -> str:
    def fmt(g: OvalGroup) -> str:
        head = f"{g.count}{sign()}"
        if g.body is None:
            return head
        return f"{head}<{' + '.join(fmt(c) for c in g.body) or '0'}>"
    items = (["J"] if pseudoline else []) + [fmt(g) for g in groups]
    return "<" + (" + ".join(items) if items else "0") + ">"


def unit_containers(g: OvalGroup) -> OvalGroup:
    """The same tree with every container count set to 1."""
    if g.body is None:
        return g
    return OvalGroup(1, tuple(unit_containers(c) for c in g.body))


@hyp.settings(max_examples=300, deadline=None)
@hyp.given(hys.lists(group_strategy(3), max_size=4), hys.randoms())
def test_print_parse_roundtrip(groups, rng):
    """parse(print(parse(text))) == parse(text), with shuffled input order."""
    groups = list(groups)
    rng.shuffle(groups)
    text = render(groups, pseudoline=True)
    s = parse_scheme(text, 9)
    again = parse_scheme(print_scheme(s), 9)
    assert s == again
    assert print_scheme(again) == print_scheme(s)
    assert again.oval_count() == sum(g.ovals() for g in groups)
    # one grammar: a sign on every count reads as the same curve
    units = [unit_containers(g) for g in groups]
    plain = parse_scheme(render(units, True), 9)
    signed = parse_signed(
        render(units, True, lambda: rng.choice(["_+", "_-"])), 9)
    assert (signed.oval_count(), signed.component_count(),
            signed.pseudoline) == (plain.oval_count(),
                                   plain.component_count(), plain.pseudoline)


@hyp.settings(max_examples=150, deadline=None)
@hyp.given(hys.lists(group_strategy(2), min_size=1, max_size=4), hys.randoms())
def test_canonical_form_is_order_independent(groups, rng):
    a = parse_scheme(render(list(groups), True), 9)
    shuffled = list(groups)
    rng.shuffle(shuffled)
    b = parse_scheme(render(shuffled, True), 9)
    assert a == b
    assert print_scheme(a) == print_scheme(b)


# a crash of the C stack kills the interpreter, so it runs in its own; it
# prints, per tree or scheme, the type of what hash() raised, or "hashed"
UNHASHABLE = """
from deepnest.orientations import (SignedEmpties, SignedOval, SignedScheme,
                                   parse_signed)
from deepnest.schemes import OvalGroup, RealScheme, parse_scheme

def nest(depth):
    group, oval = OvalGroup(1), SignedOval(1, SignedEmpties(0, 0))
    for _ in range(depth):
        group = OvalGroup(1, (group,))
        oval = SignedOval(-oval.sign, SignedEmpties(1, 0), (oval,))
    return group, oval

group, oval = nest(100_000)
for value in (*nest(0), group, oval,
              RealScheme(200_003, True, (group,)),
              SignedScheme(200_003, True, SignedEmpties(0, 0), (oval,)),
              parse_scheme("<J + 1<3 + 1<23>>>", 9), parse_scheme("<0>", 8),
              parse_signed("<J + 1_-<3_+ + 9_- + 1_-<10_+ + 4_->>>", 9),
              parse_signed("<J + 3_+ + 2_->", 9)):
    try:
        hash(value)
        print("hashed")
    except Exception as exc:
        print(type(exc).__name__)
"""


def test_a_tree_is_unhashable_at_any_depth():
    src = pathlib.Path(__file__).resolve().parent.parent / "src"
    done = subprocess.run([sys.executable, "-c", UNHASHABLE],
                          env=dict(os.environ, PYTHONPATH=str(src)),
                          capture_output=True, text=True, timeout=120)
    assert (done.returncode, done.stdout) == (0, "TypeError\n" * 10), \
        done.stderr
