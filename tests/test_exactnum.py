import math
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from listvote import ParameterError, binomial, format_rational, parse_rational


class TestBinomial:
    def test_direct(self):
        assert binomial(4, 2) == 6

    def test_identity_case(self):
        assert binomial(7, 0) == 1

    def test_out_of_range_is_zero(self):
        assert binomial(3, 5) == 0
        assert binomial(3, -1) == 0

    def test_negative_a_rejected(self):
        with pytest.raises(ValueError):
            binomial(-1, 0)

    def test_lower_index_past_machine_range_rejected(self):
        # math.comb raises OverflowError once min(b, a - b) passes 2**63 - 1
        with pytest.raises(ParameterError, match="^binomial coefficient too large to compute"):
            binomial(2**64, 2**63)

    def test_pascal_recurrence(self):
        for a in range(1, 31):
            for b in range(0, a + 1):
                assert binomial(a, b) == binomial(a - 1, b - 1) + binomial(a - 1, b)


nonzero = st.integers(min_value=1, max_value=10**6)
anyint = st.integers(min_value=-(10**6), max_value=10**6)


class TestRationalExactness:
    """Fraction arithmetic against a naive big-integer cross-multiplication oracle."""

    @given(anyint, nonzero, anyint, nonzero)
    def test_addition(self, a, b, c, d):
        got = Fraction(a, b) + Fraction(c, d)
        num, den = a * d + c * b, b * d
        g = math.gcd(num, den)
        assert (got.numerator, got.denominator) == (num // g, den // g)

    @given(anyint, nonzero, anyint, nonzero)
    def test_multiplication(self, a, b, c, d):
        got = Fraction(a, b) * Fraction(c, d)
        num, den = a * c, b * d
        g = math.gcd(num, den)
        assert (got.numerator, got.denominator) == (num // g, den // g)

    @given(anyint, nonzero)
    def test_lowest_terms_positive_denominator(self, a, b):
        q = Fraction(a, -b)
        assert q.denominator > 0
        assert math.gcd(q.numerator, q.denominator) == 1

    def test_zero_is_canonical(self):
        assert Fraction(0, 7) == Fraction(0, 1)
        assert Fraction(0, 7).denominator == 1


class TestSerialization:
    @pytest.mark.parametrize(
        "text,value",
        [
            ("7/15", Fraction(7, 15)),
            ("3", Fraction(3)),
            ("-2/6", Fraction(-1, 3)),
            ("+4", Fraction(4)),
            ("0", Fraction(0)),
        ],
    )
    def test_parse(self, text, value):
        assert parse_rational(text) == value

    @pytest.mark.parametrize("bad", ["1.5", "", "1/0", "1/-3", "a/b", "1/2/3", "1e3", "١/٢",
                                     " 1/2", "1/2\n"])
    def test_parse_rejects(self, bad):
        with pytest.raises(ValueError):
            parse_rational(bad)

    def test_format_omits_unit_denominator(self):
        assert format_rational(Fraction(8, 15)) == "8/15"
        assert format_rational(Fraction(4, 2)) == "2"
        assert format_rational(Fraction(-1, 3)) == "-1/3"

    @given(anyint, nonzero)
    def test_round_trip(self, a, b):
        q = Fraction(a, b)
        assert parse_rational(format_rational(q)) == q
