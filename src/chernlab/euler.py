"""Euler-characteristic bookkeeping for products and connected sums.

Atoms carry hard-coded characteristics (standard closed-manifold facts):
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
Parentheses nest at most MAX_NESTING deep; deeper input is a ParseError.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import DomainError


class ParseError(DomainError):
    """Grammar violation; carries the offending position."""

    def __init__(self, message: str, position: int) -> None:
        super().__init__(f"{message} (at position {position})")
        self.position = position


@dataclass(frozen=True)
class Surface:
    genus: int

    def __post_init__(self) -> None:
        if self.genus < 0:
            raise DomainError("genus must be nonnegative")

    @property
    def dimension(self) -> int:
        return 2

    def __str__(self) -> str:
        return f"Sigma({self.genus})"


@dataclass(frozen=True)
class Sphere:
    n: int

    def __post_init__(self) -> None:
        if self.n < 1:
            raise DomainError("sphere dimension must be positive")

    @property
    def dimension(self) -> int:
        return self.n

    def __str__(self) -> str:
        return f"Sphere({self.n})"


@dataclass(frozen=True)
class PSpace:
    """P = S^1 x S^3, the glue piece of the flat four- and six-manifolds."""

    @property
    def dimension(self) -> int:
        return 4

    def __str__(self) -> str:
        return "P"


@dataclass(frozen=True)
class Torus:
    n: int

    def __post_init__(self) -> None:
        if self.n < 1:
            raise DomainError("torus dimension must be positive")

    @property
    def dimension(self) -> int:
        return self.n

    def __str__(self) -> str:
        return f"Torus({self.n})"


@dataclass(frozen=True)
class Hopf:
    m: int

    def __post_init__(self) -> None:
        if self.m < 1:
            raise DomainError("Hopf dimension must be positive")

    @property
    def dimension(self) -> int:
        return self.m

    def __str__(self) -> str:
        return f"Hopf({self.m})"


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


SpaceExpr = (Surface, Sphere, PSpace, Torus, Hopf, Product, ConnectedSum)


def _wrap(e) -> str:
    text = str(e)
    return f"({text})" if isinstance(e, (Product, ConnectedSum)) else text


def euler_char(e) -> int:
    """Recursive chi evaluation over the expression tree."""
    if isinstance(e, Surface):
        return 2 - 2 * e.genus
    if isinstance(e, Sphere):
        return 1 + (-1) ** e.n
    if isinstance(e, (PSpace, Torus, Hopf)):
        return 0
    if isinstance(e, Product):
        out = 1
        for f in e.factors:
            out *= euler_char(f)
        return out
    if isinstance(e, ConnectedSum):
        k = len(e.summands)
        return sum(euler_char(s) for s in e.summands) - 2 * (k - 1)
    raise DomainError(f"not a space expression: {e!r}")


def flat_four_manifold() -> ConnectedSum:
    """(Sigma_3 x Sigma_3) # P # ... # P with six copies of P; chi = 4."""
    return ConnectedSum(
        (Product((Surface(3), Surface(3))),) + (PSpace(),) * 6
    )


def flat_six_manifold() -> Product:
    """((Sigma_3 x Sigma_3) # P^9) x Sigma_3; chi = 8."""
    core = ConnectedSum((Product((Surface(3), Surface(3))),) + (PSpace(),) * 9)
    return Product((core, Surface(3)))


def smillie(dim: int):
    """A closed flat manifold of the requested even dimension >= 4 with
    nonzero chi: a product of copies of the four- and six-dimensional
    pieces (4a + 6b = dim)."""
    if dim % 2 != 0 or dim < 4:
        raise DomainError(
            "flat nonzero-chi examples exist for even dimensions >= 4 only"
        )
    if dim % 4 == 0:
        a, b = dim // 4, 0
    else:
        a, b = (dim - 6) // 4, 1
    factors = [flat_four_manifold()] * a + [flat_six_manifold()] * b
    expr = factors[0] if len(factors) == 1 else Product(tuple(factors))
    chi = euler_char(expr)
    if chi == 0:
        raise DomainError("internal: assembled space has zero chi")
    return expr, chi


def milnor_admissible(genus: int, degree: int) -> bool:
    """Whether a degree-d rank-two bundle over a genus-g surface admits a
    flat connection: |d| < g."""
    if genus < 0:
        raise DomainError("genus must be nonnegative")
    return abs(degree) < genus


# -- expression parser -----------------------------------------------------------

_ATOMS = {"Sigma": Surface, "Sphere": Sphere, "Torus": Torus, "Hopf": Hopf}
MAX_NESTING = 100  # parentheses deeper than this are a parse error


class _Parser:
    def __init__(self, text: str) -> None:
        self.text = text
        self.pos = 0
        self.depth = 0

    def error(self, message: str) -> ParseError:
        return ParseError(message, self.pos)

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
        while self.pos < len(self.text) and self.text[self.pos].isdigit():
            self.pos += 1
        if start == self.pos:
            raise self.error("expected an integer")
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
        word = self.name()
        if word == "P":
            return PSpace()
        if word in _ATOMS:
            self.expect("(")
            value = self.integer()
            self.expect(")")
            try:
                return _ATOMS[word](value)
            except DomainError as exc:
                self.pos = start
                raise self.error(str(exc)) from exc
        self.pos = start
        raise self.error(
            "expected an atom: Sigma(g), Sphere(n), Torus(n), Hopf(m) or P"
        )

    def power(self):
        base = self.atom()
        if self.peek() == "^":
            self.pos += 1
            count = self.integer()
            if count < 1:
                raise self.error("connected-sum power must be >= 1")
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
