"""Euler-characteristic arithmetic and the expression mini-language."""

import numpy as np
import pytest

import chernlab.euler as eu
from chernlab.errors import DomainError


# -- atoms and the flagship values ------------------------------------------------

def test_surface_chi():
    assert eu.euler_char(eu.Atom("Sigma", 0)) == 2
    assert eu.euler_char(eu.Atom("Sigma", 1)) == 0
    assert eu.euler_char(eu.Atom("Sigma", 3)) == -4


def test_sphere_chi():
    assert eu.euler_char(eu.Atom("Sphere", 2)) == 2
    assert eu.euler_char(eu.Atom("Sphere", 3)) == 0


def test_zero_chi_atoms():
    assert eu.euler_char(eu.Atom("P")) == 0
    assert eu.euler_char(eu.Atom("Torus", 5)) == 0
    assert eu.euler_char(eu.Atom("Hopf", 4)) == 0


def test_atom_refuses_a_negative_genus():
    with pytest.raises(DomainError, match="^genus must be nonnegative$"):
        eu.Atom("Sigma", -1)


@pytest.mark.parametrize("name, arg", [("P", 1), ("Sigma", None), ("Klein", 2)])
def test_atom_refuses_a_name_or_parameter_outside_the_table(name, arg):
    with pytest.raises(DomainError, match="^not an atom: "):
        eu.Atom(name, arg)


def test_flat_four_manifold_chi_is_four():
    m4 = eu.flat_four_manifold()
    assert m4.dimension == 4
    assert eu.euler_char(m4) == 4


def test_flat_six_manifold_chi_is_eight():
    m6 = eu.flat_six_manifold()
    assert m6.dimension == 6
    assert eu.euler_char(m6) == 8


def test_connected_sum_of_p_copies():
    # chi(P # ... # P), six copies: 0 - 2 * 5 = -10
    assert eu.euler_char(eu.ConnectedSum((eu.Atom("P"),) * 6)) == -10
    assert eu.euler_char(eu.ConnectedSum((eu.Atom("P"),) * 9)) == -16


# -- structural rules -------------------------------------------------------------

def random_even_expr(rng, dim_pool=(2, 4)):
    kind = int(rng.integers(0, 3))
    if kind == 0:
        return eu.Atom("Sigma", int(rng.integers(0, 4)))
    if kind == 1:
        return eu.Atom("Sphere", 2 * int(rng.integers(1, 3)))
    return eu.Atom("P")


def test_product_chi_is_multiplicative():
    rng = np.random.default_rng(3)
    for _ in range(40):
        parts = [random_even_expr(rng) for _ in range(int(rng.integers(2, 5)))]
        tree = eu.Product(tuple(parts))
        direct = 1
        for part in parts:
            direct *= eu.euler_char(part)
        assert eu.euler_char(tree) == direct
        assert tree.dimension == sum(p.dimension for p in parts)


def test_connected_sum_grouping_does_not_change_chi():
    rng = np.random.default_rng(5)
    for _ in range(30):
        k = int(rng.integers(3, 6))
        parts = tuple(eu.Atom("Sigma", int(rng.integers(0, 4))) for _ in range(k))
        flat = eu.euler_char(eu.ConnectedSum(parts))
        split = int(rng.integers(1, k - 1))
        nested = eu.ConnectedSum(
            (eu.ConnectedSum(parts[:split + 1])
             if split + 1 >= 2 else parts[0],)
            + parts[split + 1:]
        )
        assert eu.euler_char(nested) == flat


def test_connected_sum_rejects_mixed_or_odd_dimensions():
    with pytest.raises(DomainError):
        eu.ConnectedSum((eu.Atom("Sigma", 1), eu.Atom("P")))
    with pytest.raises(DomainError):
        eu.ConnectedSum((eu.Atom("Sphere", 3), eu.Atom("Sphere", 3)))


# -- smillie ------------------------------------------------------------------------

def test_smillie_four_and_six():
    expr4, chi4 = eu.smillie(4)
    assert chi4 == 4 and expr4.dimension == 4
    expr6, chi6 = eu.smillie(6)
    assert chi6 == 8 and expr6.dimension == 6


def test_smillie_ten():
    expr, chi = eu.smillie(10)
    assert chi == 32
    assert expr.dimension == 10


def test_smillie_every_even_dimension_has_nonzero_chi():
    for dim in range(4, 26, 2):
        expr, chi = eu.smillie(dim)
        assert chi != 0
        assert expr.dimension == dim


def test_smillie_rejects_bad_dimensions():
    for bad in (2, 3, 5, 0, -4, eu.MAX_SMILLIE_DIM + 2):
        with pytest.raises(DomainError):
            eu.smillie(bad)


# -- milnor_admissible -----------------------------------------------------------------

def test_admissible_basic():
    assert eu.milnor_admissible(2, 1)
    assert not eu.milnor_admissible(2, 2)


def test_admissible_tangent_degrees():
    # (g, 2 - 2g) admissible only for the torus
    for g in (0, 2, 3):
        assert not eu.milnor_admissible(g, 2 - 2 * g)
    assert eu.milnor_admissible(1, 0)


def test_admissible_boundary():
    assert eu.milnor_admissible(3, 2) and eu.milnor_admissible(3, -2)
    assert not eu.milnor_admissible(3, 3) and not eu.milnor_admissible(3, -3)


# -- parser ------------------------------------------------------------------------------

def test_parse_flat_four_manifold_expression():
    expr, chi = eu.evaluate_query("(Sigma(3)*Sigma(3)) # P^6")
    assert chi == 4
    assert expr.dimension == 4


def test_parse_six_manifold_expression():
    expr, chi = eu.evaluate_query("((Sigma(3)*Sigma(3)) # P^9) * Sigma(3)")
    assert chi == 8


def test_parse_single_atom():
    expr, chi = eu.evaluate_query("Sigma(1)")
    assert chi == 0
    assert str(expr) == "Sigma(1)"


def test_parse_smillie_form():
    expr, chi = eu.evaluate_query("smillie 10")
    assert chi == 32


def test_parse_precedence_power_product_sum():
    # '#' binds loosest: Sigma(2) * Sigma(0) # P^2 = (Sigma2 x Sigma0) # P # P
    expr, chi = eu.evaluate_query("Sigma(2) * Sigma(0) # P^2")
    # chi = (-2 * 2) + 0 + 0 - 2*2 = -8
    assert chi == -8


@pytest.mark.parametrize(
    "text, chi, dimension, normalized",
    [
        ("Sigma(0)", 2, 2, "Sigma(0)"),
        ("Sigma(3)", -4, 2, "Sigma(3)"),
        (" Sigma ( 007 ) ", 2 - 14, 2, "Sigma(7)"),
        ("Sphere(1)", 0, 1, "Sphere(1)"),
        ("Sphere(4)", 2, 4, "Sphere(4)"),
        ("Torus(1)", 0, 1, "Torus(1)"),
        ("Torus(5)", 0, 5, "Torus(5)"),
        ("Hopf(1)", 0, 1, "Hopf(1)"),
        ("Hopf(4)", 0, 4, "Hopf(4)"),
        ("P", 0, 4, "P"),
        ("Hopf(4) * P # Sphere(8)", 2 - 2, 8, "(Hopf(4) * P) # Sphere(8)"),
    ],
)
def test_each_atom_evaluates_through_the_query(text, chi, dimension, normalized):
    expr, got = eu.evaluate_query(text)
    assert (got, expr.dimension, str(expr)) == (chi, dimension, normalized)


@pytest.mark.parametrize(
    "text, message, position",
    [
        ("Sphere(0)", "sphere dimension must be positive", 0),
        ("Torus(0)", "torus dimension must be positive", 0),
        ("Hopf(0)", "Hopf dimension must be positive", 0),
        ("P * Hopf(0)", "Hopf dimension must be positive", 4),
        ("P(1)", "unexpected trailing input", 1),
        ("Sigma", "expected '('", 5),
        ("Sigma()", "expected an integer", 6),
        ("Q(2)", "expected an atom: Sigma(g), Sphere(n), Torus(n), Hopf(m) or P", 0),
    ],
)
def test_each_atom_refusal_carries_message_and_caret(text, message, position):
    with pytest.raises(eu.ParseError) as err:
        eu.evaluate_query(text)
    assert err.value.position == position
    assert str(err.value) == f"{message} (at position {position})"


def test_parse_errors_carry_position():
    with pytest.raises(eu.ParseError) as err:
        eu.parse_expression("Sigma(3) * Q(2)")
    assert err.value.position == 11
    with pytest.raises(eu.ParseError):
        eu.parse_expression("Sigma(3")
    with pytest.raises(eu.ParseError):
        eu.parse_expression("Sigma(3) *")
    with pytest.raises(eu.ParseError):
        eu.parse_expression("")
    with pytest.raises(eu.ParseError):
        eu.parse_expression("Sigma(3) Sigma(2)")


def test_parse_nesting_is_bounded_with_position():
    depth = eu.MAX_NESTING
    nested = "(" * depth + "Sigma(2)" + ")" * depth
    assert eu.euler_char(eu.parse_expression(nested)) == -2
    with pytest.raises(eu.ParseError) as err:
        eu.parse_expression("(" * 3000 + "P" + ")" * 3000)
    assert err.value.position == depth
    assert "nest deeper" in str(err.value)


@pytest.mark.parametrize(
    "text, position, message",
    [
        ("Sigma(\u00b2)", 6, "expected an integer"),
        ("P^\u00b2", 2, "expected an integer"),
        ("Sigma(" + "7" * 5000 + ")", 6, f"exceeds {eu.MAX_DIGITS} digits"),
        (f"P^{eu.MAX_POWER + 1}", 7, f"between 1 and {eu.MAX_POWER}"),
        ("(P^100)^1001", 12, f"more than {eu.MAX_TERMS} atoms"),
    ],
    ids=["superscript-genus", "superscript-power", "long-literal", "power-cap",
         "nested-power-cap"],
)
def test_parse_bounds_carry_position(text, position, message):
    with pytest.raises(eu.ParseError) as err:
        eu.parse_expression(text)
    assert err.value.position == position
    assert message in str(err.value)


def test_parse_bounds_admit_their_limits():
    assert eu.evaluate_query(f"P^{eu.MAX_POWER}")[1] == 2 - 2 * eu.MAX_POWER
    assert eu.evaluate_query("(P^100)^1000")[1] == 2 - 2 * eu.MAX_TERMS
    assert eu.evaluate_query("Sigma(" + "1" * eu.MAX_DIGITS + ")")[1] < 0


def test_chi_bit_length_is_bounded():
    big = "Sigma(" + "9" * 999 + ")"
    with pytest.raises(DomainError, match=f"exceeds {eu.MAX_CHI_BITS} bits"):
        eu.evaluate_query(" * ".join([big] * 6))


def test_parse_rejects_dimension_mismatch_with_position():
    with pytest.raises(DomainError):
        eu.parse_expression("Sigma(2) # P")


def test_normalized_echo_round_trips():
    text = "(Sigma(3) * Sigma(3)) # P # P"
    expr, chi = eu.evaluate_query(text)
    again, chi2 = eu.evaluate_query(str(expr))
    assert chi == chi2
    assert str(again) == str(expr)
