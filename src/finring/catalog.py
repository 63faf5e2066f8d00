"""A mini-language for naming small rings, and the standard test catalog.

Grammar (whitespace-insensitive)::

    spec := term ('x' term)*
    term := base ('[x]/(' poly ')')*
    base := 'Z/' INT | 'GF(' INT ')' | NAME
    poly := mono ('+' mono)*
    mono := INT | INT 'x' ('^' INT)? | 'x' ('^' INT)?

Exponents are at most ``EXPONENT_LIMIT`` = 4096.

``GF(q)`` resolves through a fixed table of irreducible moduli for
q in {4, 8, 9, 16, 25, 27} (prime q is plain Z/q), so element indexing is
reproducible across runs.  The only NAME forms are ``zero-ring-N``, the
non-unital rings with identically zero multiplication.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from functools import lru_cache
from typing import Union

from .core import (
    FiniteRing,
    make_product,
    make_quotient,
    make_zero_mul_ring,
    make_zn,
    render_poly,
)

__all__ = [
    "RingSpecError",
    "Zn",
    "Quotient",
    "Product",
    "TableRef",
    "RingSpecAst",
    "parse_ring_spec",
    "render_ring_spec",
    "parse_poly_text",
    "render_poly",
    "realize",
    "standard_catalog",
    "GF_MODULI",
]


class RingSpecError(ValueError):
    def __init__(self, message: str, position: int | None = None):
        if position is not None:
            message = f"{message} (at position {position})"
        super().__init__(message)
        self.position = position


@dataclass(frozen=True)
class Zn:
    n: int


@dataclass(frozen=True)
class Quotient:
    base: "RingSpecAst"
    modulus: tuple[int, ...]   # coefficient integers, constant first


@dataclass(frozen=True)
class Product:
    parts: tuple["RingSpecAst", ...]


@dataclass(frozen=True)
class TableRef:
    name: str


RingSpecAst = Union[Zn, Quotient, Product, TableRef]

# Fixed irreducible moduli (constant coefficient first).
GF_MODULI: dict[int, tuple[int, tuple[int, ...]]] = {
    4: (2, (1, 1, 1)),        # x^2 + x + 1
    8: (2, (1, 1, 0, 1)),     # x^3 + x + 1
    9: (3, (1, 0, 1)),        # x^2 + 1
    16: (2, (1, 1, 0, 0, 1)),  # x^4 + x + 1
    25: (5, (2, 0, 1)),       # x^2 + 2
    27: (3, (1, 2, 0, 1)),    # x^3 + 2x + 1
}

# The largest exponent a poly may name, checked before it is expanded into
# dense coefficients.  A witness that a check finds without --poly has degree
# below t + p, at most about 2 * ORDER_LIMIT, so it parses back.
EXPONENT_LIMIT = 4096

_TOKEN_RE = re.compile(
    r"(?P<ws>\s+)"
    r"|(?P<zero>zero-ring-\d+)"
    r"|(?P<gf>GF)"
    r"|(?P<zn>Z/)"
    r"|(?P<int>\d+)"
    r"|(?P<sym>[x+^()\[\]/])"
)


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise RingSpecError(f"unexpected character {text[pos]!r}", pos)
        kind = m.lastgroup
        if kind != "ws":
            tokens.append((kind, m.group(), pos))
        pos = m.end()
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.i = 0

    def peek(self):
        return self.tokens[self.i] if self.i < len(self.tokens) else (None, "", len(self.text))

    def take(self, kind: str, value: str | None = None) -> str:
        tk, tv, pos = self.peek()
        if tk != kind or (value is not None and tv != value):
            want = value or kind
            raise RingSpecError(f"expected {want!r}, found {tv!r}", pos)
        self.i += 1
        return tv

    def take_int(self) -> int:
        return int(self.take("int"))

    def parse_spec(self) -> RingSpecAst:
        parts = [self.parse_term()]
        while self.peek()[:2] == ("sym", "x"):
            self.i += 1
            parts.append(self.parse_term())
        if self.i != len(self.tokens):
            raise RingSpecError("trailing input", self.peek()[2])
        return parts[0] if len(parts) == 1 else Product(tuple(parts))

    def parse_term(self) -> RingSpecAst:
        node = self.parse_base()
        while self.peek()[:2] == ("sym", "["):
            self.take("sym", "[")
            self.take("sym", "x")
            self.take("sym", "]")
            self.take("sym", "/")
            self.take("sym", "(")
            coeffs = self.parse_poly()
            self.take("sym", ")")
            if len(coeffs) < 2:
                raise RingSpecError("modulus must have degree >= 1", self.peek()[2])
            node = Quotient(node, coeffs)
        return node

    def parse_base(self) -> RingSpecAst:
        tk, tv, pos = self.peek()
        if tk == "zn":
            self.i += 1
            n = self.take_int()
            if n < 2:
                raise RingSpecError(f"modulus must be >= 2, got {n}", pos)
            return Zn(n)
        if tk == "gf":
            self.i += 1
            self.take("sym", "(")
            q = self.take_int()
            self.take("sym", ")")
            return self._resolve_gf(q, pos)
        if tk == "zero":
            self.i += 1
            return TableRef(tv)
        raise RingSpecError(f"expected a ring, found {tv!r}", pos)

    @staticmethod
    def _resolve_gf(q: int, pos: int) -> RingSpecAst:
        if q >= 2 and all(q % d for d in range(2, int(q ** 0.5) + 1)):
            return Zn(q)
        if q in GF_MODULI:
            p, modulus = GF_MODULI[q]
            return Quotient(Zn(p), modulus)
        raise RingSpecError(f"unsupported field order {q}", pos)

    def parse_poly(self) -> tuple[int, ...]:
        coeffs: dict[int, int] = {}

        def mono():
            tk, tv, pos = self.peek()
            if tk == "int":
                c = self.take_int()
                if self.peek()[:2] == ("sym", "x"):
                    self.i += 1
                    e = self._exponent()
                else:
                    e = 0
            elif (tk, tv) == ("sym", "x"):
                self.i += 1
                c = 1
                e = self._exponent()
            else:
                raise RingSpecError(f"expected a monomial, found {tv!r}", pos)
            coeffs[e] = coeffs.get(e, 0) + c

        mono()
        while self.peek()[:2] == ("sym", "+"):
            self.i += 1
            mono()
        top = max(coeffs)
        return tuple(coeffs.get(e, 0) for e in range(top + 1))

    def _exponent(self) -> int:
        if self.peek()[:2] != ("sym", "^"):
            return 1
        self.i += 1
        pos = self.peek()[2]
        e = self.take_int()
        if e > EXPONENT_LIMIT:
            raise RingSpecError(f"exponent {e} exceeds the limit of {EXPONENT_LIMIT}", pos)
        return e


def parse_ring_spec(text: str) -> RingSpecAst:
    return _Parser(text).parse_spec()


def render_ring_spec(ast: RingSpecAst) -> str:
    if isinstance(ast, Zn):
        return f"Z/{ast.n}"
    if isinstance(ast, Quotient):
        return f"{render_ring_spec(ast.base)}[x]/({render_poly(ast.modulus)})"
    if isinstance(ast, Product):
        return " x ".join(render_ring_spec(p) for p in ast.parts)
    if isinstance(ast, TableRef):
        return ast.name
    raise TypeError(f"not a ring spec node: {ast!r}")


_ZERO_RING_RE = re.compile(r"zero-ring-(\d+)$")

# The largest ring a spec may name: its elements fit the function set's byte keys.
ORDER_LIMIT = 256


def _spec_order(ast: RingSpecAst) -> int:
    """The order of the ring a spec tree names, read from the tree alone and
    capped at ORDER_LIMIT + 1, so that no huge power is ever formed."""
    if isinstance(ast, Zn):
        order = ast.n
    elif isinstance(ast, Quotient):
        q = _spec_order(ast.base)
        # realize reads the modulus mod q, so high terms may vanish; 2^9 > ORDER_LIMIT
        order = q ** min(9, max((i for i, c in enumerate(ast.modulus) if c % q), default=0))
    elif isinstance(ast, Product):
        order = math.prod(map(_spec_order, ast.parts))
    elif isinstance(ast, TableRef):
        m = _ZERO_RING_RE.match(ast.name)
        if m is None:
            raise RingSpecError(f"unknown ring name {ast.name!r}")
        order = int(m.group(1))
    else:
        raise TypeError(f"not a ring spec node: {ast!r}")
    return min(order, ORDER_LIMIT + 1)


@lru_cache(maxsize=None)
def realize(ast: RingSpecAst) -> FiniteRing:
    """Build the ring a spec tree describes, or refuse one of more than
    ORDER_LIMIT elements before any table is built.

    Cached per AST node, so equal spec strings share one ring instance (and
    with it every per-ring cache downstream).
    """
    order = _spec_order(ast)
    if order > ORDER_LIMIT:
        raise RingSpecError(f"ring order exceeds the limit of {ORDER_LIMIT} elements")
    if isinstance(ast, Zn):
        return make_zn(ast.n)
    if isinstance(ast, Quotient):
        base = realize(ast.base)
        coeffs = tuple(c % base.order for c in ast.modulus)
        return make_quotient(base, coeffs)
    if isinstance(ast, Product):
        ring = realize(ast.parts[0])
        for part in ast.parts[1:]:
            ring = make_product(ring, realize(part))
        return ring
    return make_zero_mul_ring(order)


def parse_poly_text(text: str, ring: FiniteRing):
    """Parse grammar poly syntax into a polynomial over the given ring.

    Integer coefficients are reduced modulo the ring order, i.e. read as
    element indices (for Z/n these are the residues themselves).
    """
    from .polyfun import Polynomial

    parser = _Parser(text)
    coeffs = parser.parse_poly()
    if parser.i != len(parser.tokens):
        raise RingSpecError("trailing input", parser.peek()[2])
    return Polynomial(ring, tuple(c % ring.order for c in coeffs))


# ---------------------------------------------------------------------------
# the standard catalog
# ---------------------------------------------------------------------------

_QUOTIENT_SPECS = (
    "Z/2[x]/(x^2)",
    "Z/2[x]/(x^3)",
    "Z/3[x]/(x^2)",
    "Z/4[x]/(x^2+2)",
    "Z/2[x]/(x^2+x+1)",
)

_PRODUCT_SPECS = (
    "Z/2 x Z/2",
    "Z/2 x Z/3",
    "Z/2 x Z/4",
    "Z/4 x Z/3",
)


def standard_catalog(max_order: int) -> list[tuple[str, FiniteRing]]:
    """Named test rings of order <= max_order (max_order <= 32), each built once.

    Includes all Z/n, the fields GF(4)/GF(8)/GF(9), a handful of quotient
    and product rings, and the two non-unital zero-multiplication rings.
    GF(4) is built from GF_MODULI's x^2 + x + 1, so it is the same ring as
    Z/2[x]/(x^2+x+1) and every sweep checks it twice; the duplicate stays
    only because the benchmark pins the row count of a sweep.
    """
    if not 2 <= max_order <= 32:
        raise ValueError("max_order must be between 2 and 32")
    specs = [f"Z/{n}" for n in range(2, max_order + 1)]
    specs += ["GF(4)", "GF(8)", "GF(9)", *_QUOTIENT_SPECS, *_PRODUCT_SPECS, "zero-ring-2", "zero-ring-4"]
    # realize builds each Z/n once, also as the base of a quotient or product
    asts = {spec: parse_ring_spec(spec) for spec in specs}
    return [(spec, realize(ast)) for spec, ast in asts.items() if _spec_order(ast) <= max_order]
