"""Euler-characteristic bookkeeping for products and connected sums.

Atoms are declared in one table, which gives each its parameter, least
parameter, dimension and characteristic (standard closed-manifold facts):
surfaces Sigma_g with 2 - 2g, spheres with 1 + (-1)^n, and the zero-chi
spaces P = S^1 x S^3, tori, and Hopf manifolds S^{m-1} x S^1.  Products
multiply chi; a connected sum of k closed even-dimensional pieces has
chi = sum(chi) - 2(k - 1).  Odd-dimensional connected sums are out of
scope for that formula and rejected.

The expression mini-language used by the CLI:

    expr    := sum
    sum     := product ('#' product)*
    product := power ('*' power)*
    power   := atom ('^' INT)          # k-fold connected sum of the atom
    atom    := Sigma(g) | Sphere(n) | Torus(n) | Hopf(m) | P | '(' expr ')'

so "(Sigma(3)*Sigma(3)) # P^6" is the four-manifold with chi = 4.
INT is ASCII digits, at most MAX_DIGITS of them.  Parentheses nest at most
MAX_NESTING deep, a '^' count is at most MAX_POWER, and the expression
expands to at most MAX_TERMS atoms; input beyond a bound is a ParseError.
A chi beyond MAX_CHI_BITS bits, and a smillie dimension beyond
MAX_SMILLIE_DIM, are DomainErrors.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass
from typing import NamedTuple

from .errors import DomainError, ParseError

MAX_CHI_BITS = 10_000     # bit length of an Euler characteristic
MAX_SMILLIE_DIM = 10_000  # dimension of a smillie example


class _Rule(NamedTuple):
    param: str | None    # the parameter's letter in the grammar; None if none
    least: int | None    # least admissible parameter
    refusal: str | None  # the message for a parameter below `least`
    dimension: Callable[[int | None], int]
    chi: Callable[[int | None], int]


# every atom, in the order the parser's error message lists them
_RULES = {
    "Sigma": _Rule("g", 0, "genus must be nonnegative",
                   lambda g: 2, lambda g: 2 - 2 * g),
    "Sphere": _Rule("n", 1, "sphere dimension must be positive",
                    lambda n: n, lambda n: 1 + (-1) ** n),
    "Torus": _Rule("n", 1, "torus dimension must be positive",
                   lambda n: n, lambda n: 0),
    "Hopf": _Rule("m", 1, "Hopf dimension must be positive",
                  lambda m: m, lambda m: 0),
    # P = S^1 x S^3, the glue piece of the flat four- and six-manifolds
    "P": _Rule(None, None, None, lambda _: 4, lambda _: 0),
}


@dataclass(frozen=True)
class Atom:
    """One row of the atom table with its parameter: Atom("Sigma", 3), Atom("P")."""
    name: str
    arg: int | None = None

    def __post_init__(self) -> None:
        rule = _RULES.get(self.name)
        if rule is None or (rule.param is None) != (self.arg is None):
            raise DomainError(f"not an atom: {self}")
        if self.arg is not None and self.arg < rule.least:
            raise DomainError(rule.refusal)

    @property
    def dimension(self) -> int:
        return _RULES[self.name].dimension(self.arg)

    def __str__(self) -> str:
        return self.name if self.arg is None else f"{self.name}({self.arg})"


@dataclass(frozen=True)
class Product:
    factors: tuple

    def __post_init__(self) -> None:
        if len(self.factors) < 2:
            raise DomainError("a product needs at least two factors")

    @property
    def dimension(self) -> int:
        return sum(f.dimension for f in self.factors)

    def __str__(self) -> str:
        return " * ".join(_wrap(f) for f in self.factors)


@dataclass(frozen=True)
class ConnectedSum:
    summands: tuple

    def __post_init__(self) -> None:
        if len(self.summands) < 2:
            raise DomainError("a connected sum needs at least two summands")
        dims = {s.dimension for s in self.summands}
        if len(dims) != 1:
            raise DomainError(
                f"connected-sum operands must share a dimension, got {sorted(dims)}"
            )
        (dim,) = dims
        if dim % 2 != 0:
            raise DomainError(
                "odd-dimensional connected sums are unsupported "
                "(the chi formula covers closed even-dimensional pieces)"
            )

    @property
    def dimension(self) -> int:
        return self.summands[0].dimension

    def __str__(self) -> str:
        return " # ".join(_wrap(s) for s in self.summands)


def _wrap(e) -> str:
    text = str(e)
    return f"({text})" if isinstance(e, (Product, ConnectedSum)) else text


def _bounded_chi(chi: int) -> int:
    if chi.bit_length() > MAX_CHI_BITS:
        raise DomainError(f"Euler characteristic exceeds {MAX_CHI_BITS} bits")
    return chi


def euler_char(e) -> int:
    """Recursive chi evaluation over the expression tree.

    Raises DomainError as soon as a partial product or a sum exceeds
    MAX_CHI_BITS bits, so a long product of large genera stops early."""
    if isinstance(e, Atom):
        return _RULES[e.name].chi(e.arg)
    if isinstance(e, Product):
        out = 1
        for f in e.factors:
            out = _bounded_chi(out * euler_char(f))
        return out
    if isinstance(e, ConnectedSum):
        k = len(e.summands)
        return _bounded_chi(sum(euler_char(s) for s in e.summands) - 2 * (k - 1))
    raise DomainError(f"not a space expression: {e!r}")


def flat_four_manifold() -> ConnectedSum:
    """(Sigma_3 x Sigma_3) # P # ... # P with six copies of P; chi = 4."""
    return ConnectedSum((Product((Atom("Sigma", 3),) * 2),) + (Atom("P"),) * 6)


def flat_six_manifold() -> Product:
    """((Sigma_3 x Sigma_3) # P^9) x Sigma_3; chi = 8."""
    core = ConnectedSum((Product((Atom("Sigma", 3),) * 2),) + (Atom("P"),) * 9)
    return Product((core, Atom("Sigma", 3)))


def smillie(dim: int):
    """A closed flat manifold of the requested even dimension >= 4 with
    nonzero chi: a product of copies of the four- and six-dimensional
    pieces (4a + 6b = dim), up to MAX_SMILLIE_DIM."""
    if dim % 2 != 0 or dim < 4:
        raise DomainError(
            "flat nonzero-chi examples exist for even dimensions >= 4 only"
        )
    if dim > MAX_SMILLIE_DIM:
        raise DomainError(f"smillie dimension exceeds {MAX_SMILLIE_DIM}")
    if dim % 4 == 0:
        a, b = dim // 4, 0
    else:
        a, b = (dim - 6) // 4, 1
    factors = [flat_four_manifold()] * a + [flat_six_manifold()] * b
    expr = factors[0] if len(factors) == 1 else Product(tuple(factors))
    return expr, euler_char(expr)


def milnor_admissible(genus: int, degree: int) -> bool:
    """Whether a degree-d rank-two bundle over a genus-g surface admits a
    flat connection: |d| < g."""
    if genus < 0:
        raise DomainError("genus must be nonnegative")
    return abs(degree) < genus


# -- expression parser -----------------------------------------------------------

MAX_NESTING = 100    # parentheses deeper than this are a parse error
MAX_DIGITS = 1000    # digits of an integer literal
MAX_POWER = 10_000   # count of a '^' connected-sum power
MAX_TERMS = 100_000  # atoms of the expression with every power expanded

_FORMS = [name if rule.param is None else f"{name}({rule.param})"
          for name, rule in _RULES.items()]
_ATOM_FORMS = ", ".join(_FORMS[:-1]) + " or " + _FORMS[-1]


class _Parser:
    def __init__(self, text: str) -> None:
        self.text = text
        self.pos = 0
        self.depth = 0
        self.atoms = 0  # atoms parsed so far, powers expanded

    def error(self, message: str) -> ParseError:
        return ParseError(message, self.pos)

    def count_atoms(self, n: int) -> None:
        self.atoms += n
        if self.atoms > MAX_TERMS:
            raise self.error(f"expression expands to more than {MAX_TERMS} atoms")

    def skip_ws(self) -> None:
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self) -> str:
        self.skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def expect(self, ch: str) -> None:
        if self.peek() != ch:
            raise self.error(f"expected '{ch}'")
        self.pos += 1

    def integer(self) -> int:
        self.skip_ws()
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos] in "0123456789":
            self.pos += 1
        if start == self.pos:
            raise self.error("expected an integer")
        if self.pos - start > MAX_DIGITS:
            raise ParseError(f"integer literal exceeds {MAX_DIGITS} digits", start)
        return int(self.text[start:self.pos])

    def name(self) -> str:
        self.skip_ws()
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos].isalpha():
            self.pos += 1
        return self.text[start:self.pos]

    def atom(self):
        ch = self.peek()
        if ch == "(":
            if self.depth == MAX_NESTING:
                raise self.error(f"parentheses nest deeper than {MAX_NESTING}")
            self.depth += 1
            self.pos += 1
            inner = self.sum()
            self.expect(")")
            self.depth -= 1
            return inner
        start = self.pos
        self.count_atoms(1)
        word = self.name()
        rule = _RULES.get(word)
        if rule is None:
            self.pos = start
            raise self.error(f"expected an atom: {_ATOM_FORMS}")
        if rule.param is None:
            return Atom(word)
        self.expect("(")
        value = self.integer()
        self.expect(")")
        try:
            return Atom(word, value)
        except DomainError as exc:
            self.pos = start
            raise self.error(str(exc)) from exc

    def power(self):
        before = self.atoms
        base = self.atom()
        if self.peek() == "^":
            self.pos += 1
            count = self.integer()
            if not 1 <= count <= MAX_POWER:
                raise self.error(
                    f"connected-sum power must be between 1 and {MAX_POWER}"
                )
            self.count_atoms((self.atoms - before) * (count - 1))
            if count == 1:
                return base
            return ConnectedSum((base,) * count)
        return base

    def product(self):
        factors = [self.power()]
        while self.peek() == "*":
            self.pos += 1
            factors.append(self.power())
        return factors[0] if len(factors) == 1 else Product(tuple(factors))

    def sum(self):
        summands = [self.product()]
        while self.peek() == "#":
            self.pos += 1
            summands.append(self.product())
        if len(summands) == 1:
            return summands[0]
        return ConnectedSum(tuple(summands))

    def parse(self):
        out = self.sum()
        if self.peek():
            raise self.error("unexpected trailing input")
        return out


def parse_expression(text: str):
    """Parse the mini-language; ParseError carries the failing position."""
    if not text.strip():
        raise ParseError("empty expression", 0)
    parser = _Parser(text)
    try:
        return parser.parse()
    except DomainError as exc:
        if isinstance(exc, ParseError):
            raise
        raise ParseError(str(exc), parser.pos) from exc


def evaluate_query(text: str):
    """CLI entry: either an expression or the form "smillie <dim>".

    Returns (expression, chi)."""
    words = text.split()
    if len(words) == 2 and words[0] == "smillie":
        try:
            dim = int(words[1])
        except ValueError as exc:
            raise ParseError("smillie needs an integer dimension",
                             len(words[0]) + 1) from exc
        return smillie(dim)
    expr = parse_expression(text)
    return expr, euler_char(expr)
