"""Sparse exact polynomials and the generating functions built on tableaux.

`MultiPoly` is a fixed-arity multivariate polynomial over the x-variables
with two optional auxiliary exponents p and q carried per term; coefficients
are exact Python integers.  `UniPoly` is a dense single-variable polynomial.
On top of these sit the skeleton polynomials (descent generating functions
of quasi-Yamanouchi tableaux), bounded Schur polynomials, quasi-symmetric
truncations, fake degree polynomials, and the (p,q)-bifactorial.  The
identity checks of `verify` compare tallies of term keys and build no
`MultiPoly`; the arithmetic here (sums, products, embeddings) serves the
constructions above and the tests' oracles.
"""

from __future__ import annotations

from collections import Counter
from functools import cache
from itertools import accumulate, combinations, repeat
from typing import Iterable, NamedTuple

from .compositions import (
    Composition,
    Partition,
    _require_partition,
    depth as composition_depth,
    max_descent_length,
    partitions,
    refinements,
    trim,
)
from .tableaux import (
    semistandard_tableaux,
    weight,
    yamanouchi_table,
)

TermKey = tuple[tuple[int, ...], int, int]  # (x-exponents, p-exponent, q-exponent)


def _term_sort_key(key: TermKey):
    exponents, p, q = key
    trimmed = trim(exponents)
    return (len(trimmed), tuple(-e for e in trimmed), p, q)


def _power(var: str, e: int, latex: bool = False) -> str:
    """var to the power e >= 1: the bare variable at 1, LaTeX braces the exponent."""
    if e == 1:
        return var
    return f"{var}^{{{e}}}" if latex else f"{var}^{e}"


def _scaled(coeff: int, body: str, times: str) -> str:
    """coeff times a product of powers; a constant (empty body) prints as its coefficient."""
    if not body:
        return str(coeff)
    if coeff == 1:
        return body
    if coeff == -1:
        return "-" + body
    return f"{coeff}{times}{body}"


class MultiPoly:
    """Sparse polynomial in x_1..x_arity with optional p, q exponents per term."""

    __slots__ = ("arity", "terms")

    def __init__(self, arity: int, terms: dict[TermKey, int] | None = None):
        self.arity = arity
        cleaned: dict[TermKey, int] = {}
        for (exponents, p, q), coeff in (terms or {}).items():
            if coeff == 0:
                continue
            exponents = tuple(exponents)
            if len(exponents) != arity:
                raise ValueError(f"exponent arity {len(exponents)} != {arity}")
            cleaned[(exponents, p, q)] = coeff
        self.terms = cleaned

    @classmethod
    def zero(cls, arity: int) -> "MultiPoly":
        return cls(arity)

    @classmethod
    def one(cls, arity: int) -> "MultiPoly":
        return cls.monomial((0,) * arity)

    @classmethod
    def monomial(
        cls,
        exponents: Iterable[int],
        coeff: int = 1,
        p: int = 0,
        q: int = 0,
        arity: int | None = None,
    ) -> "MultiPoly":
        exponents = tuple(exponents)
        if arity is None:
            arity = len(exponents)
        if arity < len(exponents):
            raise ValueError(f"arity {arity} below exponent length {len(exponents)}")
        exponents = exponents + (0,) * (arity - len(exponents))
        return cls(arity, {(exponents, p, q): coeff})

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, MultiPoly):
            return NotImplemented
        return self.arity == other.arity and self.terms == other.terms

    @classmethod
    def sum(cls, polys: Iterable["MultiPoly"], arity: int) -> "MultiPoly":
        """Sum of `polys`, each in `arity` variables, merged into one dict in one pass."""
        terms: dict[TermKey, int] = {}
        for poly in polys:
            if poly.arity != arity:
                raise ValueError(f"arity mismatch: {arity} vs {poly.arity}")
            for key, coeff in poly.terms.items():
                terms[key] = terms.get(key, 0) + coeff
        return cls(arity, terms)

    def __add__(self, other: "MultiPoly") -> "MultiPoly":
        return MultiPoly.sum((self, other), self.arity)

    def __neg__(self) -> "MultiPoly":
        return MultiPoly(self.arity, {key: -c for key, c in self.terms.items()})

    def __sub__(self, other: "MultiPoly") -> "MultiPoly":
        return self + (-other)

    def __mul__(self, other) -> "MultiPoly":
        if isinstance(other, int):
            return MultiPoly(self.arity, {k: c * other for k, c in self.terms.items()})
        if self.arity != other.arity:
            raise ValueError(f"arity mismatch: {self.arity} vs {other.arity}")
        terms: dict[TermKey, int] = {}
        for (e1, p1, q1), c1 in self.terms.items():
            for (e2, p2, q2), c2 in other.terms.items():
                key = (tuple(a + b for a, b in zip(e1, e2)), p1 + p2, q1 + q2)
                terms[key] = terms.get(key, 0) + c1 * c2
        return MultiPoly(self.arity, terms)

    def __rmul__(self, other: int) -> "MultiPoly":
        return self * other

    def sorted_terms(self) -> list[tuple[TermKey, int]]:
        return sorted(self.terms.items(), key=lambda item: _term_sort_key(item[0]))

    def coefficient(self, exponents: Iterable[int], p: int = 0, q: int = 0) -> int:
        exponents = tuple(exponents)
        exponents = exponents + (0,) * (self.arity - len(exponents))
        return self.terms.get((exponents, p, q), 0)

    def support(self) -> set[tuple[int, ...]]:
        """Trimmed x-exponent vectors of the nonzero terms."""
        return {trim(exponents) for exponents, _, _ in self.terms}

    def embed(self, arity: int, offset: int = 0) -> "MultiPoly":
        """Reinterpret in `arity` variables, shifting x_i to x_(i+offset)."""
        if offset + self.arity > arity:
            raise ValueError("embedding does not fit")
        terms = {}
        for (exponents, p, q), coeff in self.terms.items():
            padded = (0,) * offset + exponents + (0,) * (arity - offset - self.arity)
            terms[(padded, p, q)] = coeff
        return MultiPoly(arity, terms)

    def reverse(self) -> "MultiPoly":
        """Substitute x_i -> x_(arity+1-i); an involution."""
        return MultiPoly(
            self.arity,
            {(exps[::-1], p, q): c for (exps, p, q), c in self.terms.items()},
        )

    def specialize(self, p: int | None = None, q: int | None = None) -> "MultiPoly":
        """Substitute integer values for p and/or q."""
        terms: dict[TermKey, int] = {}
        for (exps, pe, qe), coeff in self.terms.items():
            if p is not None:
                coeff *= p**pe
                pe = 0
            if q is not None:
                coeff *= q**qe
                qe = 0
            key = (exps, pe, qe)
            terms[key] = terms.get(key, 0) + coeff
        return MultiPoly(self.arity, terms)

    def evaluate(self, xs: Iterable[int] | None = None, p: int = 1, q: int = 1) -> int:
        """Value at the given point; x defaults to all ones, read without a tuple of them."""
        if xs is None:
            values: Iterable[int] = repeat(1)
        else:
            values = tuple(xs)
            if len(values) != self.arity:
                raise ValueError(f"expected {self.arity} values, got {len(values)}")
        total = 0
        for (exps, pe, qe), coeff in self.terms.items():
            term = coeff * p**pe * q**qe
            for value, e in zip(values, exps):
                if e:
                    term *= value**e
            total += term
        return total

    def _term_str(self, key: TermKey, coeff: int, latex: bool = False) -> str:
        exps, p, q = key
        factors = [_power(var, e, latex) for var, e in (("p", p), ("q", q)) if e]
        trimmed = trim(exps)
        if latex:
            factors += (_power(f"x_{{{i}}}", e, True) for i, e in enumerate(trimmed, 1) if e)
        elif trimmed and all(e <= 9 for e in trimmed):
            factors.append("x^" + "".join(map(str, trimmed)))
        elif trimmed:
            factors.append("*".join(_power(f"x{i}", e) for i, e in enumerate(trimmed, 1) if e))
        times = "" if latex else "·"
        return _scaled(coeff, times.join(factors), times)

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        return " + ".join(self._term_str(key, c) for key, c in self.sorted_terms())

    def __repr__(self) -> str:
        return f"MultiPoly({self})"

    def latex(self) -> str:
        if not self.terms:
            return "0"
        terms = "+".join(self._term_str(key, c, latex=True) for key, c in self.sorted_terms())
        return terms.replace("+-", "-")

    def to_json(self) -> dict:
        return {
            "arity": self.arity,
            "terms": [
                {"exponents": list(exps), "p": p, "q": q, "coefficient": coeff}
                for (exps, p, q), coeff in self.sorted_terms()
            ],
        }


class UniPoly:
    """Dense single-variable polynomial with exact integer coefficients."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[int] = ()):
        coeffs = list(coeffs)
        while coeffs and coeffs[-1] == 0:
            coeffs.pop()
        self.coeffs = tuple(coeffs)

    @classmethod
    def from_terms(cls, terms: dict[int, int]) -> "UniPoly":
        if not terms:
            return cls()
        top = max(terms)
        coeffs = [0] * (top + 1)
        for degree, coeff in terms.items():
            coeffs[degree] += coeff
        return cls(coeffs)

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, UniPoly):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def __add__(self, other: "UniPoly") -> "UniPoly":
        length = max(len(self.coeffs), len(other.coeffs))
        return UniPoly(
            (self.coefficient(i) + other.coefficient(i)) for i in range(length)
        )

    def __mul__(self, other: "UniPoly") -> "UniPoly":
        if not self.coeffs or not other.coeffs:
            return UniPoly()
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return UniPoly(out)

    def coefficient(self, degree: int) -> int:
        if 0 <= degree < len(self.coeffs):
            return self.coeffs[degree]
        return 0

    def degree(self) -> int:
        """Degree of the top term; -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    def support(self) -> tuple[int, ...]:
        return tuple(i for i, c in enumerate(self.coeffs) if c != 0)

    def __call__(self, x: int) -> int:
        total = 0
        for coeff in reversed(self.coeffs):
            total = total * x + coeff
        return total

    def __str__(self) -> str:
        if not self.coeffs:
            return "0"
        return " + ".join(
            _scaled(c, _power("q", d) if d else "", "·") for d, c in enumerate(self.coeffs) if c
        )

    def __repr__(self) -> str:
        return f"UniPoly({self})"


class InternalZeros(NamedTuple):
    count: int
    positions: tuple[int, ...]


def internal_zeros(g: UniPoly) -> InternalZeros:
    """Vanishing degrees strictly between the lowest and highest nonzero ones."""
    degrees = g.support()
    if len(degrees) < 2:
        return InternalZeros(0, ())
    lo, hi = degrees[0], degrees[-1]
    positions = tuple(k for k in range(lo + 1, hi) if g.coefficient(k) == 0)
    return InternalZeros(len(positions), positions)


def _padded(alpha: Composition, arity: int) -> tuple[int, ...]:
    return tuple(alpha) + (0,) * (arity - len(alpha))


@cache
def skeleton_poly(shape: Partition) -> MultiPoly:
    """Descent generating function of the quasi-Yamanouchi tableaux of `shape`.

    Homogeneous of the size of the shape, in as many variables as the
    maximal descent length; the coefficient of x^alpha counts the SYT of the
    shape with descent composition alpha.
    """
    _require_partition(shape)
    if not shape:
        return MultiPoly.one(0)
    arity = max_descent_length(shape)
    counts = Counter(row.descent_composition for row in yamanouchi_table(shape))
    return MultiPoly(arity, {(_padded(alpha, arity), 0, 0): c for alpha, c in counts.items()})


def skeleton_poly_i(shape: Partition, length: int) -> MultiPoly:
    """The part of the skeleton polynomial with descent compositions of `length` parts.

    Returned in `length` variables; zero outside [rows, maximal descent length].
    """
    arity = max(length, 0)
    if not shape or length < len(shape) or length > max_descent_length(shape):
        return MultiPoly.zero(arity)
    terms = {}
    for (exps, p, q), coeff in skeleton_poly(shape).terms.items():
        if len(trim(exps)) == length:
            terms[(exps[:length], p, q)] = coeff
    return MultiPoly(arity, terms)


def deep_skeleton(shape: Partition) -> MultiPoly:
    """Skeleton polynomial with each term graded in q by the depth of its exponent."""
    plain = skeleton_poly(shape)
    return MultiPoly(
        plain.arity,
        {(exps, 0, composition_depth(exps)): coeff for (exps, _, _), coeff in plain.terms.items()},
    )


def schur_poly(shape: Partition, num_vars: int) -> MultiPoly:
    """Weight generating function of SSYT with entries at most `num_vars`; symmetric in x."""
    if num_vars < 0:
        raise ValueError("number of variables must be nonnegative")
    weights = Counter(weight(t) for t in semistandard_tableaux(shape, num_vars))
    return MultiPoly(num_vars, {(_padded(w, num_vars), 0, 0): c for w, c in weights.items()})


def qsym_monomial(beta: Composition, num_vars: int) -> MultiPoly:
    """Sum of x^c over weak compositions c with `num_vars` parts flattening to `beta`."""
    if num_vars < 0:
        raise ValueError("number of variables must be nonnegative")
    terms: dict[TermKey, int] = {}
    for positions in combinations(range(num_vars), len(beta)):
        exps = [0] * num_vars
        for pos, part in zip(positions, beta):
            exps[pos] = part
        terms[(tuple(exps), 0, 0)] = 1
    return MultiPoly(num_vars, terms)


def qsym_fundamental(alpha: Composition, num_vars: int) -> MultiPoly:
    """Sum of the monomial quasi-symmetric truncations over all refinements."""
    return MultiPoly.sum(
        (qsym_monomial(beta, num_vars) for beta in sorted(refinements(tuple(alpha)))),
        num_vars,
    )


@cache
def fake_degree(shape: Partition) -> UniPoly:
    """Major-index generating function over the SYT of `shape`.

    Read off their descent tally: maj is the sum of the proper prefix sums of alpha.
    """
    if not shape:
        raise ValueError("empty partition")
    majs: Counter[int] = Counter()
    for alpha, count in Counter(row.descent_composition for row in yamanouchi_table(shape)).items():
        majs[sum(accumulate(alpha[:-1]))] += count
    return UniPoly.from_terms(majs)


def q_factorial(n: int) -> UniPoly:
    """Product of 1 + q + ... + q^(i-1) for i = 1..n."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    out = UniPoly((1,))
    for i in range(1, n + 1):
        out = out * UniPoly((1,) * i)
    return out


@cache
def bifactorial(n: int) -> MultiPoly:
    """Sum over shapes of size n of fake_degree(shape) in p times in q."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    terms: dict[TermKey, int] = {}
    for shape in partitions(n):
        f = fake_degree(shape) if shape else UniPoly((1,))
        for i, a in enumerate(f.coeffs):
            if a == 0:
                continue
            for j, b in enumerate(f.coeffs):
                if b == 0:
                    continue
                key = ((), i, j)
                terms[key] = terms.get(key, 0) + a * b
    return MultiPoly(0, terms)


def bifactorial_q_slice(g: MultiPoly, k: int) -> UniPoly:
    """Coefficient of q^k as a polynomial in p."""
    terms = {pe: coeff for (_, pe, qe), coeff in g.terms.items() if qe == k}
    return UniPoly.from_terms(terms)


def quasi_kostka_coefficient(shape: Partition, alpha: Composition) -> int:
    """Coefficient of x^alpha in the skeleton polynomial of `shape`."""
    poly = skeleton_poly(shape)
    if len(alpha) > poly.arity:
        return 0
    return poly.coefficient(alpha)
