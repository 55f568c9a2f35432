from __future__ import annotations

import random
from fractions import Fraction

import pytest

from rmlist import (
    AnfPolynomial,
    CodeParams,
    FunctionTable,
    GrmTable,
    InputError,
    ball,
    construct_low_weight_family,
    enumerate_weights,
)
from rmlist.formats import (
    anf_to_string,
    ball_csv,
    enumerator_csv,
    family_to_text,
    function_from_text,
    function_to_text,
    grm_table_from_text,
    parse_fraction,
    polynomial_to_text,
)

from conftest import random_table


def polynomial_from_text(text: str) -> AnfPolynomial:
    """Parse a polynomial record, the inverse of ``polynomial_to_text``."""
    lines = text.splitlines()
    if not lines or not lines[0].startswith("n "):
        raise InputError("polynomial record must start with an 'n <decimal>' header")
    try:
        n = int(lines[0][2:].strip())
    except ValueError as exc:
        raise InputError("malformed polynomial header") from exc
    return AnfPolynomial.from_variable_lists(n, [[int(tok) for tok in line.split()]
                                                 for line in lines[1:]])


def family_from_text(text: str) -> list[AnfPolynomial]:
    """Parse a family file, the inverse of ``family_to_text``."""
    return [polynomial_from_text(chunk.strip("\n"))
            for chunk in text.split("\n---\n") if chunk.strip()]


def grm_table_to_text(t: GrmTable) -> str:
    """An F_q table file, the inverse of ``grm_table_from_text``."""
    return f"q {t.q}\nn {t.n}\nvalues {''.join(str(v) for v in t.values)}\n"


class TestParseFraction:
    def test_plain_fraction(self):
        assert parse_fraction("3/8") == Fraction(3, 8)

    def test_integer(self):
        assert parse_fraction("2") == Fraction(2)

    def test_whitespace_tolerated(self):
        assert parse_fraction(" 1 / 2 ") == Fraction(1, 2)

    @pytest.mark.parametrize("bad", ["0.5", "1e-3", "a/b", "1/0", ""])
    def test_rejects_non_exact(self, bad):
        with pytest.raises(InputError):
            parse_fraction(bad)


class TestFunctionFile:
    def test_round_trip(self, rng: random.Random):
        for n in (1, 2, 4, 6):
            f = random_table(n, rng)
            assert function_from_text(function_to_text(f)) == f

    def test_fixed_width_hex(self):
        text = function_to_text(FunctionTable(4, 0b1000))
        assert "bits 0008" in text

    def test_single_hex_digit_for_tiny_tables(self):
        assert "bits 2" in function_to_text(FunctionTable(1, 0b10))

    def test_rejects_garbage(self):
        with pytest.raises(InputError):
            function_from_text("n 2\nbitz 8\n")
        with pytest.raises(InputError):
            function_from_text("n 2\n")


class TestPolynomialFile:
    def test_round_trip(self):
        p = AnfPolynomial.from_variable_lists(4, [[1, 2], [3], []])
        assert polynomial_from_text(polynomial_to_text(p)) == p

    def test_constant_monomial_is_empty_line(self):
        p = AnfPolynomial.from_variable_lists(3, [[]])
        text = polynomial_to_text(p)
        assert text == "n 3\n\n"
        assert polynomial_from_text(text) == p

    def test_zero_polynomial_is_header_only(self):
        p = AnfPolynomial(3, frozenset())
        assert polynomial_to_text(p) == "n 3\n"
        assert polynomial_from_text("n 3\n") == p

    def test_indices_sorted(self):
        p = AnfPolynomial.from_variable_lists(3, [[3, 1]])
        assert "1 3" in polynomial_to_text(p)

    def test_rejects_missing_header(self):
        with pytest.raises(InputError):
            polynomial_from_text("1 2\n")

    def test_rejects_out_of_range_variable(self):
        with pytest.raises(InputError):
            polynomial_from_text("n 2\n1 3\n")


class TestFamilyFile:
    def test_round_trip(self):
        fam = construct_low_weight_family(4, 2, 1, limit=6)
        text = family_to_text(fam)
        back = family_from_text(text)
        assert back == list(fam.members)


class TestGrmTableFile:
    def test_round_trip(self):
        t = GrmTable(3, 2, (0, 1, 2, 2, 1, 0, 0, 0, 1))
        assert grm_table_from_text(grm_table_to_text(t)) == t

    def test_rejects_bad_digits(self):
        with pytest.raises(InputError):
            grm_table_from_text("q 3\nn 1\nvalues 04x\n")


class TestCsv:
    def test_enumerator_csv_layout(self):
        text = enumerator_csv(enumerate_weights(CodeParams(2, 1)))
        lines = text.splitlines()
        assert lines[0] == "# n=2,d=1,dimension=3"
        assert lines[1] == "weight_count,relative_weight,multiplicity"
        assert lines[2:] == ["0,0,1", "2,1/2,6", "4,1,1"]

    def test_ball_csv_layout(self):
        params = CodeParams(2, 1)
        b = ball(FunctionTable.zero(2), Fraction(1, 2), params)
        lines = ball_csv(b).splitlines()
        assert lines[0].startswith("# n=2,radius=1/2")
        assert lines[1] == "distance_count,relative_distance,monomials"
        assert lines[2] == "0,0,0"

    def test_anf_strings(self):
        assert anf_to_string(AnfPolynomial(3, frozenset())) == "0"
        assert anf_to_string(AnfPolynomial.from_variable_lists(3, [[], [1, 3]])) \
            == "1+x1x3"
