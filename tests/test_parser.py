import pytest
from hypothesis import given, settings, strategies as st

from lawvere.builtin import ABELIAN_GROUP, MONOID, POINTED
from lawvere.parser import MAX_NESTING, ParseError, format_term, parse_term
from lawvere.terms import Var


def test_ring_three_ary_operation(ring):
    t = parse_term("ab+c", ring, 3)
    assert t == ring.normalize(parse_term("c+ab", ring, 3))


def test_single_letter():
    assert parse_term("a", MONOID, 1) == Var(0)


def test_product_of_sums_normalizes(ring):
    got = parse_term("(a+b)(c+d)", ring, 4)
    assert got == parse_term("ac+bc+ad+bd", ring, 4)


def test_explicit_star_and_whitespace():
    assert parse_term("a * b", MONOID, 2) == parse_term("ab", MONOID, 2)


def test_exponents():
    assert parse_term("a^3", MONOID, 1) == parse_term("aaa", MONOID, 1)
    assert parse_term("a^0", MONOID, 1) == parse_term("1", MONOID, 1)


def test_unary_minus():
    t = parse_term("-a+b", ABELIAN_GROUP, 2)
    assert t == parse_term("b-a", ABELIAN_GROUP, 2)


def test_point_constant():
    assert parse_term("1", POINTED, 0) == \
        parse_term("1", POINTED, 3)


def test_syntax_error_carries_position():
    with pytest.raises(ParseError) as err:
        parse_term("a+(b", ABELIAN_GROUP, 2)
    assert err.value.position == 4


def test_variable_outside_arity():
    with pytest.raises(ParseError):
        parse_term("c", MONOID, 2)


def test_operation_missing_from_theory():
    with pytest.raises(ParseError):
        parse_term("a+b", MONOID, 2)
    with pytest.raises(ParseError):
        parse_term("ab", ABELIAN_GROUP, 2)


def test_empty_and_trailing():
    with pytest.raises(ParseError):
        parse_term("   ", MONOID, 1)
    with pytest.raises(ParseError):
        parse_term("a)", MONOID, 1)
    with pytest.raises(ParseError):
        parse_term("a*", MONOID, 1)


def test_nesting_limit(ring):
    n = MAX_NESTING
    assert parse_term("(" * n + "a" + ")" * n, ring, 1) == Var(0)
    assert parse_term("-(" * (n // 2) + "a" + ")" * (n // 2), ring, 1) == \
        Var(0)
    spaced = "a+" + "( " * 5000 + "a" + ")" * 5000
    for text, position in [("(" * (n + 1) + "a" + ")" * (n + 1), n),
                           ("-" * (n + 1) + "a", n),
                           (spaced, 2 + 2 * n)]:
        with pytest.raises(ParseError, match="nests too deeply") as err:
            parse_term(text, ring, 1)
        assert err.value.position == position


def test_power_limit():
    # a^n nests n - 1 products; nested powers multiply their exponents
    n = MAX_NESTING
    assert parse_term(f"a^{n + 1}", MONOID, 1) == \
        parse_term("a" * (n + 1), MONOID, 1)
    assert parse_term("((a^10)^10)^10", MONOID, 1) == \
        parse_term("a" * 1000, MONOID, 1)
    assert parse_term("(a^500)^0", MONOID, 1) == parse_term("1", MONOID, 1)
    for text, position in [(f"a^{n + 2}", 2),
                           ("(a^40)^40", 7),
                           ("(a^40 b)^ 26", 10),
                           ("a^0^5000", 4),
                           ("b(a^2)^2^300", 9),
                           ("a^" + "9" * 30, 2)]:
        with pytest.raises(ParseError, match="power nests too deeply") as err:
            parse_term(text, MONOID, 2)
        assert err.value.position == position


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_print_parse_round_trip(ring, ps_monoid, data):
    spec = data.draw(st.sampled_from(
        [MONOID, ABELIAN_GROUP, ring, ps_monoid]))
    pool = spec.enumerate_normal(3, 6)
    t = data.draw(st.sampled_from(pool))
    assert parse_term(format_term(t), spec, 3) == t
