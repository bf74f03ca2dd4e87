"""Seeded inputs, timed calls and answer checks for the four workloads.

Each workload is a class with three methods:

* ``make(seed, stats)`` builds the inputs from the seed.  This is set-up:
  it may call the library to reject degenerate draws, and counts every
  draw and every rejected draw in ``stats``.
* ``run(group, call)`` performs one group of operations in a closed loop.
  Every library call goes through ``call(fn, *args)``, which times it as
  one operation.  Functions are looked up on their modules at call time,
  so a tracer that rebinds them sees every call.
* ``check(group, answers)`` returns one bool per operation of the group.
  It runs outside the timed section and may call slow oracles.

Answers are plain data (ints, bools, tuples), so a traced and an untraced
pass can be compared for equality.
"""

from __future__ import annotations

import random
from collections import Counter
from math import comb, factorial

from stablesq import qlinalg, search, subspace, tables

MAX_TRIES = 50


def compositions(n: int, d: int) -> list[tuple[int, ...]]:
    """All exponent tuples of length n and sum d (the degree-d monomials)."""
    if n == 1:
        return [(d,)]
    return [(e,) + rest for e in range(d + 1) for rest in compositions(n - 1, d - e)]


def power_free(n: int, d: int) -> list[tuple[int, ...]]:
    return [t for t in compositions(n, d) if max(t) < d]


def _nonzero(rng: random.Random, bound: int) -> int:
    value = 0
    while value == 0:
        value = rng.randint(-bound, bound)
    return value


class Table:
    """The bundled 288-cell grid m(n, d, k), n=3..6, d=2..9, k=1..9.

    One operation per cell: ``search.table_cell``, diffed against the
    published value.  The grid is fixed, so the seed is unused.
    """

    name = "table"
    cells = tuple((n, d, k) for n in range(3, 7) for d in range(2, 10) for k in range(1, 10))

    def make(self, seed: int, stats: Counter) -> list:
        return list(self.cells)

    def run(self, cell, call) -> list:
        return [call(search.table_cell, *cell)]

    def check(self, cell, answers) -> list[bool]:
        return [answers[0] == tables.published_value(*cell)]


class MonoSquares:
    """Squares of seeded random monomial subspaces by divisor scan.

    Per (n, d) cell: 24 complements of codimension 1..4 (six each) and 8
    of large codimension, spread evenly from a third to two thirds of
    dim A(n)_d.  The codimensions are fixed, so the slowest squares, which
    set p95, are the same kind of square for every seed; the seed picks
    the monomials.
    """

    name = "mono-squares"
    cells = tuple(
        (n, d) for n in range(3, 7) for d in range(2, 6) if (n, d) != (6, 5)
    )
    small_per_k = 6
    large = 8

    def make(self, seed: int, stats: Counter) -> list:
        rng = random.Random(f"{seed}:{self.name}")
        groups = []
        for n, d in self.cells:
            basis = compositions(n, d)
            q = len(basis)
            ks = [k for k in range(1, 5) for _ in range(self.small_per_k)]
            ks += [q // 3 + (q // 3) * j // (self.large - 1) for j in range(self.large)]
            for k in ks:
                stats["draws"] += 1
                groups.append(subspace.MonomialSubspace(n, d, rng.sample(basis, k)))
        return groups

    def run(self, U, call) -> list:
        S = call(subspace.square, U)
        return [tuple(sorted(S.complement))]

    def check(self, U, answers) -> list[bool]:
        expected = subspace.product_naive(U, U)
        return [answers[0] == tuple(sorted(expected.complement))]


class RationalSquares:
    """Dense and sparse rational subspaces U, n = 3, codim 1-2.

    Per U: square_rational(U), V = quotient_by_linear_form(U, l) and
    product_rational(U, V); on sparse U also has_base_point(U).  Dense U,
    d in {3, 4}, have integer entries in [-9, 9]; draws of lower rank or
    with a base point are redrawn, so set-up already runs has_base_point on
    them.  Sparse U, d = 4, are spans of power-free monomial complements, so
    they are base point free and their square and base-point test have
    combinatorial oracles.  The form l is redrawn until V has codimension
    k, as for a generic l.
    """

    name = "rational-squares"
    # (kind, d, k, how many per pass).  Colons and base-point tests are
    # cheap; with them on fewer than half of the ops, p50 falls among the
    # d = 3 products, not on a lone slowest colon.  The 60 dense d = 3 U
    # put p95 among their squares, below the four d = 4 squares and
    # products, so p95 does not hang on one or two d = 4 draws; and the
    # 202 ops leave 10 above p95.
    mix = (
        ("dense", 3, 1, 30),
        ("dense", 3, 2, 30),
        ("dense", 4, 1, 1),
        ("dense", 4, 2, 1),
        ("sparse", 4, 1, 2),
        ("sparse", 4, 2, 2),
    )

    def make(self, seed: int, stats: Counter) -> list:
        rng = random.Random(f"{seed}:{self.name}")
        groups = []
        for kind, d, k, count in self.mix:
            for _ in range(count):
                if kind == "dense":
                    U, mono = self._dense(rng, d, k, stats), None
                else:
                    stats["draws"] += 1
                    mono = subspace.MonomialSubspace(3, d, rng.sample(power_free(3, d), k))
                    U = qlinalg.monomial_span(mono)
                groups.append({"d": d, "k": k, "U": U, "mono": mono, "l": self._form(rng, U, k, stats)})
        return groups

    @staticmethod
    def _dense(rng: random.Random, d: int, k: int, stats: Counter):
        q = comb(d + 2, 2)
        for _ in range(MAX_TRIES):
            stats["draws"] += 1
            rows = [[rng.randint(-9, 9) for _ in range(q)] for _ in range(q - k)]
            U = qlinalg.RationalSubspace(3, d, rows)
            if U.dim == q - k and not qlinalg.has_base_point(U):
                return U
            stats["resamples"] += 1
        raise RuntimeError(f"no base point free codim-{k} draw in degree {d} after {MAX_TRIES} tries")

    @staticmethod
    def _form(rng: random.Random, U, k: int, stats: Counter) -> list[int]:
        for _ in range(MAX_TRIES):
            stats["draws"] += 1
            l = [_nonzero(rng, 9) for _ in range(3)]
            if qlinalg.quotient_by_linear_form(U, l).codim == k:
                return l
            stats["resamples"] += 1
        raise RuntimeError(f"no generic linear form after {MAX_TRIES} tries")

    def run(self, g, call) -> list:
        U = g["U"]
        S = call(qlinalg.square_rational, U)
        V = call(qlinalg.quotient_by_linear_form, U, g["l"])
        P = call(qlinalg.product_rational, U, V)
        answers = [S.codim, V.codim, P.codim]
        if g["mono"] is not None:
            answers.append(call(qlinalg.has_base_point, U))
        return answers

    def check(self, g, answers) -> list[bool]:
        c_square, c_colon, c_product = answers[:3]
        d, k, mono = g["d"], g["k"], g["mono"]
        # codim U^2 never exceeds the tabulated maximum m(3, d, k); on a
        # monomial span it must equal the combinatorial square's codim
        square_ok = c_square <= tables.published_value(3, d, k)
        if mono is not None:
            square_ok = square_ok and c_square == subspace.square(mono).codim
        # colon bound for base point free U, k <= d: codim U^2 <= codim U(U:l)
        verdicts = [square_ok, c_colon == k, c_square <= c_product]
        if mono is not None:
            verdicts.append(answers[3] is (not subspace.is_base_point_free(mono)))
        return verdicts


class PowerScan:
    """power_in_span on restrictions of power-free monomial spans.

    Per (n, d, k) cell, n = 3..4, d = 3..5, k = 1..2: spans W of k
    power-free monomials, each restricted to two hyperplanes l = 0 with
    nonzero coefficients in [-30, 30] (draws whose restriction loses rank
    are redrawn), plus planted spans in n - 1 variables that contain the
    d-th power of a linear form.  A planted span must test True; the
    exceptional shape x_a^(d-1) * (variables) at n = k + 1 must test True
    on every draw; any other W must come out power-free on some draw.
    """

    name = "power-scan"
    cells = tuple((n, d, k) for n in (3, 4) for d in (3, 4, 5) for k in (1, 2))
    spans_per_cell = 48
    draws_per_span = 2
    planted_per_cell = 24

    def make(self, seed: int, stats: Counter) -> list:
        rng = random.Random(f"{seed}:{self.name}")
        groups = []
        for n, d, k in self.cells:
            free = power_free(n, d)
            for _ in range(self.spans_per_cell):
                W = tuple(sorted(rng.sample(free, k)))
                draws = [self._restrict(rng, W, n, d, stats) for _ in range(self.draws_per_span)]
                groups.append({"kind": "restricted", "n": n, "d": d, "W": W, "draws": draws})
            for _ in range(self.planted_per_cell):
                stats["draws"] += 1
                groups.append({"kind": "planted", "n": n, "d": d, "draws": [self._planted(rng, n - 1, d, k)]})
        return groups

    @staticmethod
    def _restrict(rng: random.Random, W, n: int, d: int, stats: Counter) -> list:
        for _ in range(MAX_TRIES):
            stats["draws"] += 1
            l = [_nonzero(rng, 30) for _ in range(n)]
            rows = [qlinalg.eliminate_variable({M: 1}, n, d, l) for M in W]
            if qlinalg.span(rows, n - 1, d).dim == len(W):
                return rows
            stats["resamples"] += 1
        raise RuntimeError(f"restriction of {W} kept losing rank after {MAX_TRIES} tries")

    @staticmethod
    def _planted(rng: random.Random, m: int, d: int, k: int) -> list[dict]:
        L = [rng.randint(-5, 5) for _ in range(m)]
        if not any(L):
            L[0] = 1
        power = {}
        for e in compositions(m, d):
            coeff = factorial(d)
            for ei in e:
                coeff //= factorial(ei)
            for li, ei in zip(L, e):
                coeff *= li**ei
            power[e] = coeff
        if k == 1:
            return [{e: 3 * c for e, c in power.items()}]
        other = {e: rng.randint(-9, 9) for e in compositions(m, d)}
        a, b, c, f = (_nonzero(rng, 9) for _ in range(4))
        if a * f == b * c:
            f += 1 if f != -1 else 2
        return [
            {e: a * power[e] + b * other[e] for e in power},
            {e: c * power[e] + f * other[e] for e in power},
        ]

    def run(self, g, call) -> list:
        n, d = g["n"], g["d"]
        return [call(qlinalg.power_in_span, rows, n - 1, d) for rows in g["draws"]]

    def check(self, g, answers) -> list[bool]:
        if g["kind"] == "planted":
            return [answers[0] is True]
        W, n, d = g["W"], g["n"], g["d"]
        if n == len(W) + 1 and _exceptional(W, n, d):
            return [a is True for a in answers]
        ok = any(a is False for a in answers)
        return [ok] * len(answers)


def _exceptional(W, n: int, d: int) -> bool:
    """Whether W is x_a^(d-1) times distinct single variables."""
    for a in range(n):
        quotients = set()
        for M in W:
            rest = list(M)
            rest[a] -= d - 1
            if min(rest) < 0 or sum(rest) != 1 or rest[a] != 0:
                break
            quotients.add(tuple(rest))
        else:
            if len(quotients) == len(W):
                return True
    return False


WORKLOADS = {w.name: w for w in (Table(), MonoSquares(), RationalSquares(), PowerScan())}
