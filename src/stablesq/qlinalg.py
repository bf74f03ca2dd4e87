"""Exact linear algebra over the rationals for non-monomial subspaces.

A subspace is the row space of integer vectors whose columns are the
degree-d monomials sorted descending in lex order.  No answer depends on
the order, so lex is the only one, and a JSON record naming another is
refused.
A subspace has one of two forms, fixed when it is built: full when the
rank modulo the prime 32749 is q = dim A_d; otherwise the exact reduced
form.  The modular rank never exceeds the rank over Q, so it certifies
only fullness and is computed only from q rows or more; a full space
builds its reduced form, the identity, on first use.  The modular
elimination is lazy and sparse.  It reads each row's leading column and
entry first: a row whose leading column is new and whose leading entry
is a unit modulo the prime is a pivot as it is, built only when a later
row meets it, and every other row is built and eliminated against the
pivots' sparse tails.  In lex the leading monomial of a product
is the product of the leading monomials, so a product's raw pivots are
known before anything is multiplied, and a pair of rows is multiplied
only when the elimination reads its product.
The prime is the largest below 2^15, so that elimination runs on
one-digit CPython ints; a smaller one changes only how often the exact
elimination is reached, never an answer.
The pivot columns of the reduced row echelon form are the initial
monomials of the space, and two subspaces are equal exactly when these
forms coincide.  Elimination is fraction-free over the integers, in one
forward loop (`_echelon`) that the reduced form follows with
back-substitution; Fractions are made only for the public `rows`,
`to_json` and `eliminate_variable`, and no floating point enters.
Every product is weighed against the default budget before it is built.
"""

from __future__ import annotations

import random
import re
from bisect import insort
from fractions import Fraction
from functools import cache, lru_cache
from itertools import combinations_with_replacement, compress, product
from math import comb, factorial, gcd, lcm, prod
from operator import add, mul
from typing import Callable, Iterator

from . import errors
from .errors import InvalidInputError
from .macaulay import HilbertFunction
from .monomial import dim_component, enumerate_monomials, exponent_tuple
from .subspace import MonomialSubspace, _hilbert_function, json_int

MAX_TRIES = 100  # draws before a random sampler gives up on degenerate samples

# Fraction's parser would expand a decimal exponent of more than
# errors.MAX_DIGITS digits in full, without bound
_EXPONENT = re.compile(r"E[-+]?([\d_]+)\s*\Z", re.IGNORECASE)


_EXACT = frozenset((int, Fraction))


def _coefficient(x):
    """An exact coefficient: ints and Fractions pass through, strings are
    parsed; floats and bools are refused, since neither is an exact coefficient."""
    if type(x) in _EXACT:  # one set lookup on the common path
        return x
    if isinstance(x, (bool, float)):
        raise InvalidInputError(
            f"bad coefficient: {x!r} is a {type(x).__name__}, not an int, Fraction or string"
        )
    if isinstance(x, str):
        exp = _EXPONENT.search(x)
        digits = exp[1].replace("_", "").lstrip("0") if exp else ""
        if len(digits) > len(str(errors.MAX_DIGITS)) or int(digits or 0) > errors.MAX_DIGITS:
            raise InvalidInputError(
                f"bad coefficient: exponent of {x[:40]!r} exceeds {errors.MAX_DIGITS} in magnitude"
            )
    try:
        return Fraction(x)
    except (ValueError, ZeroDivisionError, OverflowError) as exc:
        raise InvalidInputError(f"bad coefficient: {exc}") from exc


@lru_cache(maxsize=None)
def _columns(n: int, d: int) -> tuple[tuple[int, ...], ...]:
    return tuple(enumerate_monomials(n, d))


@lru_cache(maxsize=None)
def _column_index(n: int, d: int) -> dict:
    return {M: i for i, M in enumerate(_columns(n, d))}


def _all_int(r) -> bool:
    return {int}.issuperset(map(type, r))


def _integer_row(r) -> list[int]:
    """A row of ints or Fractions scaled to ints by the lcm of its denominators."""
    if _all_int(r):
        return r
    ratios = [x.as_integer_ratio() for x in r]
    scale = lcm(*(b for _, b in ratios))
    return [a * (scale // b) for a, b in ratios]


def _echelon(mat: list[list[int]], stop: int = 0) -> tuple[list[list[int]], list[int]]:
    """Integer rows in echelon form spanning the rows of mat, and their
    leading columns, ascending; the fold ends once `stop` rows are kept.

    Each row in turn is cross-multiplied at the leading column of each kept
    row, in ascending order of leading column, and is kept if anything is
    left; a row so crossed is divided by its gcd, an input row kept as it
    is is not."""
    kept: list[tuple[int, list[int]]] = []  # (leading column, row), ascending
    for row in mat:
        crossed = False
        for c, r in kept:
            f = row[c]
            if f:
                p = r[c]
                row = [p * a - f * b for a, b in zip(row, r)]
                crossed = True
        lead = next(compress(range(len(row)), row), None)
        if lead is None:  # a zero row, or one dependent on the kept rows
            continue
        if crossed:
            g = gcd(*row)
            if g > 1:
                row = [a // g for a in row]
        insort(kept, (lead, row))  # the leads differ, so no two rows are compared
        if len(kept) == stop:
            break
    return [r for _, r in kept], [c for c, _ in kept]


def _integer_rref(mat: list[list[int]]) -> tuple[list[list[int]], list[int]]:
    """Reduced row echelon form of integer rows, kept over the integers.

    The echelon form of `_echelon`, then back-substitution from the last
    pivot up: each pivot clears its column from the rows above it by
    cross-multiplication, and each updated row is divided by the gcd of its
    entries.  Returns the pivot rows and columns; each row is the reduced
    row scaled to primitive integers with a positive pivot, so the rows are
    as canonical as the reduced form.
    """
    rows, pivots = _echelon(mat)
    for j in range(len(rows) - 1, 0, -1):
        r, c = rows[j], pivots[j]
        p = r[c]
        for i in range(j):
            f = rows[i][c]
            if f:
                row = [p * a - f * b for a, b in zip(rows[i], r)]
                g = gcd(*row)
                rows[i] = row if g == 1 else [a // g for a in row]
    out = []
    for r, c in zip(rows, pivots):
        g = gcd(*r) if r[c] > 0 else -gcd(*r)
        out.append(r if g == 1 else [a // g for a in r])
    return out, pivots


def _fraction_row(r: list[int], c: int) -> list[Fraction]:
    """The integer row divided by its entry in column c."""
    zero = Fraction(0)
    return [Fraction(a, r[c]) if a else zero for a in r]


# the largest prime below 2^15: residues and the multiplier are below
# 2^15, so every a - f*b of the elimination is below 2^30 in magnitude, a
# one-digit CPython int.  A rank drop modulo it only costs an exact reduction.
_PRIME = 32749


def _rank_mod_p(leads: list[tuple[int, int]], row: Callable[[int], list[int]], q: int) -> int:
    """Rank modulo _PRIME of integer rows with q columns, built only when needed.

    Row i leads at column leads[i][0] with the nonzero entry leads[i][1];
    row(i) returns it as a list of q ints, which is not changed.  A first
    pass reads only the leads.  A row is a raw pivot, taken with no
    reduction and not built, when its leading column has no pivot yet and
    its leading entry is a unit modulo the prime: such rows are already in
    echelon form modulo the prime.  The scan stops once the rank reaches
    q, so rows that are not read are never built.  Every other row waits.
    The waiting rows are taken from the last leading column back, which
    shortens their scans; each is built, reduced modulo the prime into a
    list of residues and eliminated from its leading column up.  It meets a
    raw pivot only through the first row that needs it: that pivot is then
    built, its tail reduced once, divided by the leading entry, and kept as
    a sparse {column: multiplier} map.  A waiting row left with a nonzero
    residue at a column without a pivot becomes one, kept the same way.
    Rank does not depend on the order of the rows.  A minor that
    vanishes over Q vanishes modulo the prime, so the result never exceeds
    the rank over Q, and the caller trusts it only when it equals q.
    _PRIME < 2^15 keeps every product below 2^30.
    """
    p = _PRIME
    # column c -> the index of a raw pivot, or {j: row[j] / row[c]} for j
    # past c; a dict, as pair tuples would outlive the call in the tuple free list
    pivots: dict[int, int | dict[int, int]] = {}
    waiting = []
    for i, (c, a) in enumerate(leads):
        if c in pivots or not a % p:
            waiting.append((c, i))
            continue
        pivots[c] = i
        if len(pivots) == q:
            return q
    waiting.sort(reverse=True)
    for start, i in waiting:
        r = [a % p for a in row(i)]
        for c in range(start, q):
            f = r[c]
            if not f:
                continue
            tail = pivots.get(c)
            if tail is None:
                inv = pow(f, -1, p)
                pivots[c] = {j: r[j] * inv % p for j in compress(range(c + 1, q), r[c + 1:])}
                if len(pivots) == q:
                    return q
                break
            if type(tail) is int:  # a raw pivot's first use
                inv = pow(leads[tail][1], -1, p)
                tail = row(tail)
                tail = pivots[c] = {
                    j: b * inv % p
                    for j in compress(range(c + 1, q), tail[c + 1:])
                    if (b := tail[j] % p)
                }
            for j, b in tail.items():
                r[j] = (r[j] - f * b) % p
    return len(pivots)


def _leads(mat: list[list[int]], q: int) -> list[tuple[int, int]]:
    """The leading column and entry of each nonzero row of q columns."""
    return [(c := next(compress(range(q), r)), r[c]) for r in mat]


def _kernel(mat, q: int) -> list[list[int]]:
    """Integer basis of the right kernel of integer rows with q columns.

    Reduced from the last column, each row ends at its pivot, so the vector
    of a free column f is zero left of f and at the other free columns: the
    basis comes out as `_integer_rref` would return it, in reduced echelon
    form with primitive rows.  All vectors share the lcm of the pivots as scale.
    """
    rows, pivots = _integer_rref([r[::-1] for r in mat])
    scale = lcm(*(r[c] for r, c in zip(rows, pivots)))
    ends = [(r[::-1], q - 1 - c) for r, c in zip(rows, pivots)]
    out = []
    for f in sorted(set(range(q)).difference(p for _, p in ends)):
        vec = [0] * q
        vec[f] = scale
        for r, p in ends:
            if r[f]:
                vec[p] = -r[f] * (scale // r[p])
        g = gcd(*vec)
        out.append(vec if g == 1 else [a // g for a in vec])
    return out


def _normal_form(vec, echelon, scale: int) -> list[int]:
    """scale times the remainder of vec modulo the (rows, pivots) of
    `_integer_rref`; scale is a common multiple of the pivot entries."""
    out = [scale * a for a in vec]
    for row, p in zip(*echelon):
        f = vec[p]
        if f:
            f *= scale // row[p]
            out = [a - f * b for a, b in zip(out, row)]
    return out


class RationalSubspace:
    """Row space of coefficient vectors (lists or monomial dicts) over the columns.

    dim is certified on construction, and with it the reduced echelon form
    (`rows`, `pivots`), but for a full space, whose identity is built on
    first use.
    """

    __slots__ = ("n", "d", "dim", "_echelon")

    def __init__(self, n: int, d: int, rows):
        self._certify(n, d, [_integer_row(_as_vector(r, n, d)) for r in rows])

    @classmethod
    def _built(cls, n: int, d: int, mat: list[list[int]] | None, full: bool | None = None):
        """The row space of int rows of length dim A_d that this module built;
        the rows are certified (`_certify`) but not checked."""
        U = object.__new__(cls)
        U._certify(n, d, mat, full)
        return U

    def _certify(self, n: int, d: int, mat: list[list[int]] | None, full: bool | None = None):
        """Set the fields from checked int rows: full when there are q rows
        or more of rank q modulo the prime, else the exact reduced form.  A
        caller that has run the modular rank itself passes its verdict as
        `full`, and the rows only when it is False."""
        q = dim_component(n, d)
        if full is None:
            mat = [r for r in mat if any(r)]
            full = len(mat) >= q and _rank_mod_p(_leads(mat, q), mat.__getitem__, q) == q
        echelon = None if full else _integer_rref(mat)  # the identity is built on first use
        _set = object.__setattr__
        _set(self, "n", n)
        _set(self, "d", d)
        _set(self, "dim", q if full else len(echelon[1]))
        _set(self, "_echelon", echelon)

    def __setattr__(self, name, value):
        raise AttributeError("RationalSubspace is immutable")

    def _reduced(self) -> tuple[list[list[int]], list[int]]:
        """The reduced rows as primitive integer rows, and their pivot columns."""
        if self._echelon is None:  # full: the identity
            q = self.dim
            echelon = [[int(i == j) for j in range(q)] for i in range(q)], list(range(q))
            object.__setattr__(self, "_echelon", echelon)
        return self._echelon

    @property
    def rows(self) -> tuple[tuple[Fraction, ...], ...]:
        """The rows of the reduced echelon form, as exact Fractions."""
        mat, pivots = self._reduced()
        return tuple(tuple(_fraction_row(r, c)) for r, c in zip(mat, pivots))

    @property
    def pivots(self) -> tuple[int, ...]:
        return tuple(self._reduced()[1])

    @property
    def codim(self) -> int:
        return dim_component(self.n, self.d) - self.dim

    @property
    def columns(self) -> tuple[tuple[int, ...], ...]:
        return _columns(self.n, self.d)

    def contains(self, vector) -> bool:
        vec = _integer_row(_as_vector(vector, self.n, self.d))
        rows, pivots = self._reduced()
        scale = lcm(*(r[p] for r, p in zip(rows, pivots)))
        return not any(_normal_form(vec, (rows, pivots), scale))

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, RationalSubspace)
            and self.n == other.n
            and self.d == other.d
            and self.dim == other.dim
            # two full spaces are equal; anything else by its reduced rows
            and (self.codim == 0 or self._reduced()[0] == other._reduced()[0])
        )

    def __hash__(self) -> int:
        return hash((self.n, self.d, tuple(map(tuple, self._reduced()[0]))))

    def __repr__(self) -> str:
        return f"RationalSubspace(n={self.n}, d={self.d}, dim={self.dim})"

    def to_json(self) -> dict:
        rows = [[str(x) for x in r] for r in self.rows]
        return {"n": self.n, "d": self.d, "order": "lex", "rows": rows}


def rational_subspace_from_json(data: dict) -> RationalSubspace:
    """The subspace of a JSON record.  Its list rows are read on the lex
    columns, so an "order" other than "lex" (or none) is refused before
    any row is read."""
    if not isinstance(data, dict):
        raise InvalidInputError(
            f"bad rational subspace record: expected an object, got {type(data).__name__}"
        )
    try:
        n, d = json_int(data, "n"), json_int(data, "d")
        if data.get("order", "lex") != "lex":
            raise ValueError(f"order must be 'lex', got {data['order']!r}")
        return RationalSubspace(n, d, data["rows"])
    except (KeyError, TypeError, ValueError) as exc:
        raise InvalidInputError(f"bad rational subspace record: {exc}") from exc


def _as_vector(vector, n: int, d: int) -> list:
    """The one intake of a coefficient vector from outside: a new list over
    the degree-d columns.  n and d are checked first; a monomial dict has
    every key checked before the column index is built and is then placed
    by its keys; any other iterable is read in column order.  Every
    coefficient goes through `_coefficient` unless all are already ints or
    Fractions, and the length must be the column count."""
    q = dim_component(n, d)
    if isinstance(vector, dict):
        keys = [exponent_tuple(key, n, d) for key in vector]
        idx = _column_index(n, d)
        out = [0] * q
        for key, val in zip(keys, vector.values()):
            out[idx[key]] = val
    else:
        out = list(vector)
    if not _EXACT.issuperset(map(type, out)):
        out = [_coefficient(x) for x in out]
    if len(out) != q:
        raise InvalidInputError(f"coefficient vector has length {len(out)}, expected {q}")
    return out


def span(vectors, n: int, d: int) -> RationalSubspace:
    """Row space of the given coefficient vectors (lists or monomial dicts)."""
    return RationalSubspace(n, d, vectors)


def monomial_span(U: MonomialSubspace) -> RationalSubspace:
    """The same subspace, re-encoded as an echelon matrix."""
    return span([{M: 1} for M in U.members], U.n, U.d)


@lru_cache(maxsize=None)
def _apolar_weights(n: int, d: int) -> tuple[int, ...]:
    """<x^a, x^a> = prod a_i! for each degree-d column."""
    return tuple(prod(map(factorial, M)) for M in _columns(n, d))


def apolar_perp(vectors, n: int, d: int) -> RationalSubspace:
    """Orthogonal complement under the differentiation pairing.

    Monomials are orthogonal to each other and <x^a, x^a> = prod a_i!,
    so the perp is the kernel of one weighted row per input form.
    """
    weights = _apolar_weights(n, d)
    rows = [_integer_row(list(map(mul, weights, _as_vector(v, n, d)))) for v in vectors]
    return RationalSubspace._built(n, d, _kernel(rows, len(weights)))


def _linear(l, n: int) -> list:
    """The n checked coefficients of a linear form."""
    lvec = [_coefficient(x) for x in l]
    if len(lvec) != n:
        raise InvalidInputError(f"linear form needs {n} coefficients, got {len(lvec)}")
    return lvec


def linear_multiples(l, n: int, d: int) -> list[list]:
    """The forms l*mu for mu in the degree d-1 basis, as coefficient lists
    over the degree-d columns, each made by `_multiply`; l has n exact
    coefficients (ints, Fractions or rational strings)."""
    if d < 1:
        raise InvalidInputError(f"linear multiples need degree d >= 1, got d={d}")
    lpairs = _sparse(_linear(l, n)[::-1])  # lex lists x_n first
    table, q = _product_columns(n, d - 1, 1), dim_component(n, d)
    return [_multiply([(i, 1)], lpairs, table, q) for i in range(len(table))]


@lru_cache(maxsize=8)
def _product_columns(n: int, d1: int, d2: int) -> tuple:
    """Entry [i][j] is the degree-(d1 + d2) column of the product of the
    i-th degree-d1 and the j-th degree-d2 column; its size is weighed first."""
    errors.check_size(dim_component(n, d1) * dim_component(n, d2), "column products in a table")
    idx = _column_index(n, d1 + d2)
    right = _columns(n, d2)
    return tuple(tuple(idx[tuple(map(add, M, N))] for N in right) for M in _columns(n, d1))


def _sparse(r: list) -> list[tuple[int, int]]:
    return [(c, x) for c, x in enumerate(r) if x]


def _multiply(f: list, g: list, table: tuple, q: int) -> list:
    """The product of two forms given as nonzero (column, coefficient) pairs,
    over the q columns of table[i][j], the product of columns i and j."""
    row = [0] * q
    for i, x in f:
        to = table[i]
        for j, y in g:
            row[to[j]] += x * y
    return row


def _product_size(n: int, degree: int, a: int, b: int | None = None) -> int:
    """The coefficients of a rows times b rows, one row of the given degree
    per pair; b None is a square, each unordered pair of the a rows once."""
    return (comb(a + 1, 2) if b is None else a * b) * dim_component(n, degree)


def _products(pairs: list, table: tuple, q: int) -> tuple[list[tuple[int, int]], Callable]:
    """The leads of the products f*g of the (f, g) in pairs, and a function
    that builds product i by `_multiply` on its first call.

    f and g are nonzero (column, coefficient) pairs in ascending column
    order, so each leads with its first pair.  In lex the leading monomial
    of a product is the product of the leading monomials, and no other
    pair of terms reaches its column: f*g leads at table[f0][g0] with the
    entry a*b, for the leading terms (f0, a) of f and (g0, b) of g.
    """
    leads = [(table[f[0][0]][g[0][0]], f[0][1] * g[0][1]) for f, g in pairs]
    return leads, cache(lambda i: _multiply(*pairs[i], table, q))


def product_rational(U: RationalSubspace, V: RationalSubspace) -> RationalSubspace:
    """Span of all pairwise products of the reduced rows of U and V.

    The coefficients it builds (`_product_size`) are weighed against the
    default budget before anything is reduced or multiplied.  The reduced
    rows are taken as nonzero (column, coefficient) pairs, and a square (V
    equal to U) takes each unordered pair of rows once.  The raw pivots of
    the modular rank come from the products' leading monomials before any
    pair is multiplied (`_products`), and a pair is multiplied, by
    `_multiply` through the cached table of column products
    (`_product_columns`), only when that rank reads its row.  A full
    product is certified by the rank alone, often with most pairs never
    multiplied; any other is reduced exactly from all its rows once.  The
    rows are int lists that this module built, so the result is certified
    without the input checks of the public constructor.
    """
    if U.n != V.n:
        raise InvalidInputError(f"mixed variable counts {U.n} and {V.n}")
    dC = U.d + V.d
    square = V is U or V == U  # then each a_i * a_j once, i <= j
    size = _product_size(U.n, dC, U.dim, None if square else V.dim)
    errors.check_size(size, f"coefficients in a product of degree {dC}")
    table = _product_columns(U.n, U.d, V.d)
    # the integer reduced rows are sparse: 1 + codim entries for a dense U
    rows_U = [*map(_sparse, U._reduced()[0])]
    if square:
        pairs = [*combinations_with_replacement(rows_U, 2)]
    else:
        pairs = [*product(rows_U, map(_sparse, V._reduced()[0]))]
    qC = dim_component(U.n, dC)
    leads, row = _products(pairs, table, qC)
    full = len(pairs) >= qC and _rank_mod_p(leads, row, qC) == qC
    rows = None if full else [*map(row, range(len(pairs)))]
    return RationalSubspace._built(U.n, dC, rows, full)


def square_rational(U: RationalSubspace) -> RationalSubspace:
    return product_rational(U, U)


def initial_subspace(U: RationalSubspace) -> MonomialSubspace:
    """Monomial space spanned by the lex-initial monomials of the rows; its
    complement is the columns off the pivots."""
    pivots = set(U._reduced()[1])
    comp = [M for c, M in enumerate(U.columns) if c not in pivots]
    return MonomialSubspace._built(U.n, U.d, comp)


def quotient_by_linear_form(U: RationalSubspace, l) -> RationalSubspace:
    """The colon space (U : l) = {g of degree d-1 : l*g in U}."""
    if U.d < 1:
        raise InvalidInputError("cannot divide a degree-0 subspace")
    # (U : l) = (U : c*l) for c != 0, so l is taken integral
    l = _integer_row(_linear(l, U.n))
    if not any(l):
        raise InvalidInputError("the zero form does not define a colon space")
    n, d = U.n, U.d
    # (U : l) is the kernel of mu -> l*mu modulo U: column mu of its matrix
    # is the normal form of l*mu, all at one scale, so the matrix is a
    # multiple of the map
    rows, pivots = U._reduced()
    scale = lcm(*(r[p] for r, p in zip(rows, pivots)))
    forms = [_normal_form(f, (rows, pivots), scale) for f in linear_multiples(l, n, d)]
    return RationalSubspace._built(n, d - 1, _kernel(list(zip(*forms)), len(forms)))


def _ideal_codims(U: RationalSubspace) -> Iterator[int]:
    """The codimension of the ideal generated by U from degree d on, up to
    the first 0; each degree is the last one times the linear forms.  The
    coefficients of all the products so far are weighed against the
    default budget before each."""
    identity = [[int(i == j) for j in range(U.n)] for i in range(U.n)]
    linear = RationalSubspace._built(U.n, 1, identity)
    current, built = U, 0
    yield current.codim
    while current.codim:
        built += _product_size(U.n, current.d + 1, current.dim, U.n)
        errors.check_size(built, "coefficients in the degrees of a Hilbert function", seen=built)
        current = product_rational(current, linear)
        yield current.codim


def hilbert_function_rational(U: RationalSubspace, max_degree: int) -> HilbertFunction:
    """Hilbert function of the quotient by the ideal generated by U."""
    return _hilbert_function(U.n, U.d, max_degree, _ideal_codims(U))


def apolar_dual(U: RationalSubspace) -> list[list[int]]:
    """Basis of the annihilator of U under the differentiation pairing.

    The subspace U equals apolar_perp(apolar_dual(U)), and a point is a
    common zero of U exactly when the d-th power of the corresponding
    linear form lies in the span of the returned vectors.  The basis is
    the reduced echelon form of the annihilator with each row scaled to
    primitive integers with a positive lead.
    """
    weights = _apolar_weights(U.n, U.d)
    return _kernel([list(map(mul, weights, row)) for row in U._reduced()[0]], len(weights))


@lru_cache(maxsize=None)
def _catalecticant_plan(n: int, d: int) -> tuple:
    """Per degree-d column M, the triples (i, column of M / x_i, exponent of x_i)."""
    idx_lo = _column_index(n, d - 1)
    return tuple(
        tuple((i, idx_lo[M[:i] + (e - 1,) + M[i + 1 :]], e) for i, e in enumerate(M) if e)
        for M in _columns(n, d)
    )


def _catalecticant(vec: list, n: int, d: int) -> list[list]:
    """The n partial-derivative rows of a checked coefficient vector."""
    rows = [[0] * dim_component(n, d - 1) for _ in range(n)]
    for x, terms in zip(vec, _catalecticant_plan(n, d)):
        if x:
            # M -> M / x_i is injective, so each entry is written once
            for i, c, e in terms:
                rows[i][c] = x * e
    return rows


def _at_root(g: tuple, c: tuple) -> int:
    """g1^2 * c(-g0/g1) for a linear g0 + g1*u and a c0 + c1*u + c2*u^2 in
    Z[u]: zero exactly when c vanishes at the root of g."""
    g0, g1 = g[0], g[1]
    return c[0] * g1 * g1 - c[1] * g0 * g1 + c[2] * g0 * g0


def _rank_one(A: list[list[int]], i: int, k: int) -> bool:
    """Whether A, with A[i][k] != 0, has rank 1: whether every row j is
    A[j][k] / A[i][k] times row i, that is a*A[j][l] = A[j][k]*A[i][l]."""
    a, Ai = A[i][k], A[i]
    for Aj in A:
        f = Aj[k]
        if any(a * x != f * y for x, y in zip(Aj, Ai)):
            return False
    return True


def _pivot(row: list[int], n: int, d: int) -> tuple[int, int]:
    """(i, k) with the leading monomial M of row equal to x_i times column k
    of degree d - 1, for the first variable x_i of M; the catalecticant of
    the row is nonzero at [i][k]."""
    c = next(c for c, x in enumerate(row) if x)
    i, k, _ = _catalecticant_plan(n, d)[c][0]
    return i, k


def power_in_span(vectors, n: int, d: int) -> bool:
    """Whether a span of dimension at most 2 contains a d-th power.

    A nonzero form is a power of a linear form exactly when its first
    catalecticant has rank at most 1, which is tested along one nonzero
    pivot entry: every other row must be proportional to the pivot's row.
    The span is brought to echelon rows r0, r1 by `_echelon`, stopped at a
    third, and the pivot (i, k) is taken at the leading monomial of r0,
    where the catalecticant A of r0 is nonzero and the catalecticant B of
    r1 is zero, since r1 is zero at that column.  So A + u*B
    has the pivot entry A[i][k] for every u, and it has rank at most 1
    exactly when its pivot minors, one quadratic in Z[u] per other row and
    column, vanish at u.  The pencil holds a power exactly when B has rank
    at most 1 (the member at u = infinity) or those minors share a root.
    The minors are formed one at a time and the first nonzero one, g, is
    kept.  While g is quadratic, a later minor that is not a multiple of g
    can share only one root with it, the root of one linear elimination
    step in exact ints; from then on every minor must vanish there.  The
    scan returns False once no root is left.
    """
    mat = [_integer_row(_as_vector(v, n, d)) for v in vectors]
    return _reduced_power(_echelon(mat, 3)[0], n, d)


def _reduced_power(rows: list[list[int]], n: int, d: int) -> bool:
    """`power_in_span` on independent integer rows, the second zero at the
    first's leading column: echelon rows as `_echelon` returns them, or
    reduced rows as `_integer_rref` and `_kernel` return them.  More
    than two rows are refused when d > 1."""
    if not rows:
        return False
    if d == 1:
        return True
    if len(rows) > 2:
        raise InvalidInputError(
            "exact power detection covers spans of dimension at most 2"
        )
    # scaling a generator does not change which members are powers
    A, *rest = (_catalecticant(r, n, d) for r in rows)
    i, k = _pivot(rows[0], n, d)
    if not rest:
        return _rank_one(A, i, k)
    B = rest[0]
    if _rank_one(B, *_pivot(rows[1], n, d)):
        return True
    # B[i][k] == 0, so (A + u*B)[i][k] = a for every u; the pivot minors of
    # row j are a*(A + u*B)[j][l] - (A + u*B)[i][l] * (A + u*B)[j][k]
    a, Ai, Bi = A[i][k], A[i], B[i]
    g = None  # the first nonzero minor, then the linear factor of the one shared root
    for j in range(n):
        if j == i:
            continue
        Aj, Bj = A[j], B[j]
        f, h = Aj[k], Bj[k]
        for x, y, p, r in zip(Aj, Bj, Ai, Bi):
            c = (a * x - p * f, a * y - p * h - r * f, -r * h)
            if not any(c):
                continue
            if g is None:
                g = c
                if not (c[1] or c[2]):  # a nonzero constant has no root
                    return False
            elif g[2]:
                # c*g2 - g*c2 has degree at most 1 and the same common
                # roots with g as c; it is zero when c is a multiple of g
                e = (c[0] * g[2] - g[0] * c[2], c[1] * g[2] - g[1] * c[2], 0)
                if e[1]:
                    if _at_root(e, g):
                        return False
                    g = e
                elif e[0]:
                    return False
            elif _at_root(g, c):
                return False
    # every pivot minor vanishes identically, or they share a root
    return True


def has_base_point(U: RationalSubspace) -> bool:
    """Exact base-point test for subspaces of codimension at most 2.

    A point is a base point of U exactly when the d-th power of its
    linear form is apolar to U, so the test reduces to power detection
    inside the annihilator.  `apolar_dual` returns reduced rows, and these
    already meet the weaker contract of `_reduced_power` (the second row is
    zero at the first row's leading column), so they are taken as they are.
    """
    return _reduced_power(apolar_dual(U), U.n, U.d)


def _restriction(vector, n: int, d: int, l):
    """The restriction of a form to l = 0, scaled to integers.

    l is first scaled to a primitive integer vector, which leaves the
    hyperplane unchanged.  With den the lcm of the denominators of f, top
    the largest exponent of x_n in f and L = -(l_1 x_1 + ... + l_(n-1) x_(n-1)),
    returns den * l_n^top * f(x', L / l_n) as integer coefficients over the
    degree-d basis in n - 1 variables, and the scale den * l_n^top.  Horner's
    rule runs on int lists, each step h <- h*L by `_multiply`.
    """
    if n < 2:
        raise InvalidInputError("elimination needs at least 2 variables")
    lvec = _integer_row(_linear(l, n))
    g = gcd(*lvec) or 1
    *head, last = [x // g for x in lvec]
    if last == 0:
        raise InvalidInputError("last coefficient must be nonzero to eliminate")
    terms = zip(_columns(n, d), _as_vector(vector, n, d))
    terms = [(M, x) for M, x in terms if x]
    den = lcm(*(x.denominator for _, x in terms))
    # den * f = sum of f_e * x_n^e with f_e free of x_n and integral
    parts: dict = {}
    for M, x in terms:
        parts.setdefault(M[-1], []).append((M[:-1], x.numerator * (den // x.denominator)))
    top = max(parts, default=0)
    L = _sparse([-x for x in reversed(head)])  # lex lists x_(n-1) first
    # Horner's rule: h <- h * L + f_e * l_n^(top - e), of degree d - e, from e = top down
    h = [0] * dim_component(n - 1, d - top)
    for e in range(top, -1, -1):
        if e < top:
            table = _product_columns(n - 1, d - e - 1, 1)
            h = _multiply(_sparse(h), L, table, dim_component(n - 1, d - e))
        idx = _column_index(n - 1, d - e)
        for T, c in parts.get(e, ()):
            h[idx[T]] += c * last ** (top - e)
    return h, den * last**top


def eliminate_variable(vector, n: int, d: int, l):
    """Substitute the last variable using the relation l = 0.

    Returns the coefficients of f(x_1, ..., x_(n-1), s) with
    s = -(l_1 x_1 + ... + l_(n-1) x_(n-1)) / l_n over the degree-d basis in
    n - 1 variables, as a list of exact Fractions.  The form is a list
    over the degree-d columns or a {monomial: coefficient} dict, and l has
    n coefficients; both take ints, Fractions or rational strings.
    InvalidInputError is raised for n < 2, a linear form of the wrong
    length or with l_n = 0, and a bad monomial or coefficient.  The work
    is done over the integers by `_restriction`; each column c becomes
    Fraction(c, den * l_n^top) once, at the end.
    """
    row, scale = _restriction(vector, n, d, l)
    zero = Fraction(0)
    return [Fraction(c, scale) if c else zero for c in row]


def random_subspace(
    n: int, d: int, codim: int, rng: random.Random, bound: int = 100
) -> RationalSubspace:
    """Random subspace of the given codimension with integer coefficients.

    Degenerate samples (rank below the target) are redrawn, never returned.
    """
    q = dim_component(n, d)
    target = q - codim
    if not (0 <= target <= q):
        raise InvalidInputError(f"codimension {codim} out of range for dim {q}")
    for _ in range(MAX_TRIES):
        rows = [[rng.randint(-bound, bound) for _ in range(q)] for _ in range(target)]
        U = RationalSubspace(n, d, rows)
        if U.dim == target:
            return U
    raise InvalidInputError(f"could not sample a rank-{target} subspace in {MAX_TRIES} tries")


def random_linear_form(n: int, rng: random.Random, bound: int = 100) -> list[int]:
    """Random nonzero linear form; zero samples are redrawn up to MAX_TRIES times."""
    for _ in range(MAX_TRIES):
        l = [rng.randint(-bound, bound) for _ in range(n)]
        if any(x != 0 for x in l):
            return l
    raise InvalidInputError(f"could not sample a nonzero linear form in {MAX_TRIES} tries")
