"""Exact q-series machinery for the rank statistics.

Three independent exact routes to the same counts live here:

* ``pbar_eta`` -- counts with fixed alternating-parity rank, read off the
  pair counts p2 = coefficients of 1/(q;q)_oo^2; p and p2 are each one
  sparse division by (q;q)_oo (Euler's pentagonal number theorem), so
  p2 = (1/(q;q)_oo) / (q;q)_oo costs O(N^1.5) additions;
* ``pbar_abn_table`` (one class a) and ``pbar_abn_values`` (all b
  classes) -- counts refined by quotient rank mod b, summed from the crank
  generating function (Andrews-Garvan 1988): the coefficient of z^m in
  1/((zQ;Q)_oo (z^-1 Q;Q)_oo) is
  (1/(Q;Q)_oo^2) sum_{k>=1} (-1)^(k-1) Q^(k(k-1)/2 + k|m|) (1 - Q^k),
  so each residue class is O(sqrt N) shifted progression sums of p2.
  Classes a and b - a mirror each other and a class with
  min(a, b - a) > N/2 is zero, so at most min(b, N)/2 + 1 rows are built,
  checked row by row against ``pbar_values`` over all b classes, and
  ``pbar_abn_table`` places only its own;
* ``joint_table`` -- the (rank, size) table, one {m: count} dict per size n,
  by in-place division over Z[z, z^-1] by each factor of the product.

Every table is a series in Q = q^2 placed at rank j by one slice, from the
2-core size j(2j-1) in steps of 2 (``_placed``; ``joint_table`` for dicts).

``check_table_request`` is the one place the rules of a table request live
(0 <= a < b, b >= 2, n_max >= 0): the builders and ``cli``'s ``table`` call it.

``series_invert`` and ``euler_factor_product`` are the O(N^2) schoolbook
oracle behind the validation suite's series-inverse check.  Series are plain
coefficient lists, low degree first; all coefficients are arbitrary-precision
integers and floats never enter; ``bgrank.cli._STATS`` names the tables
and ``bgrank.cache`` holds their text.  The memos (p and p2) are
process-wide and take no lock: the package starts no thread, so callers
that do must not grow them from two threads at once.  The residue-class
tables keep none: each call builds its rows once.
"""

from __future__ import annotations

import operator
from bisect import bisect_right
from typing import Sequence

from .partitions import bg_core_size

_P: list[int] = [1]
_P2: list[int] = [1]


class OrthogonalityError(ArithmeticError):
    """Residue-class counts do not sum to the rank count; indicates a bug."""


# ---------------------------------------------------------------------------
# counting tables


def _gather(offsets: list[int]):
    """A function of a list returning its entries at ``offsets`` as one
    sequence: ``operator.itemgetter`` itself, except for one offset (it
    returns a bare entry), none (it refuses) and exactly 20 (CPython 3.11
    keeps each freed 20-item tuple on a free list it never takes from, up to
    2000 of them, about 0.4 MiB)."""
    if len(offsets) > 1 and len(offsets) != 20:
        return operator.itemgetter(*offsets)
    return lambda seq: [seq[o] for o in offsets]


def _grow_quotient(out: list[int], src: Sequence[int], n_max: int) -> None:
    """Extend ``out`` in place to the coefficients of src / (q;q)_oo through q^n_max.

    By the pentagonal number theorem (q;q)_oo = sum_k (-1)^k q^(k(3k-1)/2),
    so out[n] = src[n] + sum_{g in G+} out[n-g] - sum_{g in G-} out[n-g],
    G+ (G-) the generalized pentagonal numbers k(3k-1)/2, k(3k+1)/2 <= n
    with k odd (even).  Entries of ``src`` past its end count as zero.

    While ``out`` holds n entries, out[n - g] is out[-g]: for every n from
    one generalized pentagonal number up to the next, G+ and G- are the same
    and the terms sit at one fixed tuple of negative offsets.  One getter
    per side (``_gather``, an ``itemgetter``) collects them in C and ``sum``
    adds them, so no index arithmetic or list building runs per term; the
    two getters are rebuilt only when n passes a generalized pentagonal
    number, about 2 sqrt(2 n_max / 3) times.  What remains per step is the
    big-integer additions, whose share grows with n_max.
    """
    if len(out) > n_max:
        return
    plus: list[int] = []
    minus: list[int] = []
    k = 1
    while k * (3 * k - 1) // 2 <= n_max:
        dst = plus if k % 2 else minus
        dst += (k * (3 * k - 1) // 2, k * (3 * k + 1) // 2)
        k += 1
    n, cut = len(out), len(src)
    while n <= n_max:
        # plus and minus are ascending, so a bisection cuts each at n, and
        # the next entry of either is where the segment stops
        i, j = bisect_right(plus, n), bisect_right(minus, n)
        stop = min([*plus[i : i + 1], *minus[j : j + 1], n_max + 1])
        add, sub = _gather([-g for g in plus[:i]]), _gather([-g for g in minus[:j]])
        for m in range(n, stop):
            acc = sum(add(out)) - sum(sub(out))
            out.append(acc + src[m] if m < cut else acc)
        n = stop


def check_table_request(n_max: int, a: int | None = None, b: int | None = None) -> None:
    """Raise ValueError unless 0 <= a < b, b >= 2 and n_max >= 0, checked in
    that order; a selector passed as None is not checked."""
    if a is not None and not 0 <= a < b:
        raise ValueError("a must lie in [0, b)")
    if b is not None and b < 2:
        raise ValueError("b must be >= 2")
    if n_max < 0:
        raise ValueError("n_max must be >= 0")


def p_values(n_max: int) -> list[int]:
    """p(0..n_max) by the pentagonal-number recurrence."""
    check_table_request(n_max)
    _grow_quotient(_P, (1,), n_max)
    return _P[: n_max + 1]


def p2_values(n_max: int) -> list[int]:
    """Coefficients of 1/(q;q)_oo^2 (pairs of partitions): p divided by (q;q)_oo."""
    check_table_request(n_max)
    # p first: entries of _P past its end would count as zero
    _grow_quotient(_P, (1,), n_max)
    _grow_quotient(_P2, _P, n_max)
    return _P2[: n_max + 1]


def pbar_eta(j: int, n: int) -> int:
    """Number of partitions of n with alternating-parity rank exactly j:
    entry n of ``pbar_values(j, n)``."""
    if n < 0:
        raise ValueError("n must be >= 0")
    return pbar_values(j, n)[n]


def _placed(j: int, series: Sequence[int], n_max: int) -> list[int]:
    """``series`` in Q = q^2, through Q^nq for nq = (n_max - j(2j-1)) // 2
    (empty if nq < 0), as counts of size 0..n_max at rank j: Q^m is size
    j(2j-1) + 2m, and every other size is zero."""
    out = [0] * (n_max + 1)
    out[bg_core_size(j) :: 2] = series
    return out


def pbar_values(j: int, n_max: int) -> list[int]:
    """pbar_eta(j, n) for n = 0..n_max: the pair counts placed at rank j."""
    check_table_request(n_max)
    nq = (n_max - bg_core_size(j)) // 2
    return _placed(j, p2_values(nq) if nq >= 0 else [], n_max)


def ranks_with_support(n_max: int) -> list[int]:
    """All ranks j (both signs) whose 2-core fits inside n_max."""
    return [j for j in range(-n_max, n_max + 1) if bg_core_size(j) <= n_max]


# ---------------------------------------------------------------------------
# congruence-class tables from crank sums over p2

def _residue_rows(b: int, nq: int) -> list[list[int]]:
    """Rows[a][m] for a = 0..min(b // 2, nq): coefficient of Q^m, summed over
    quotient ranks = a mod b.

    The z^m coefficient of 1/((zQ;Q)_oo (z^-1 Q;Q)_oo) is
    p2(Q) sum_{k>=1} (-1)^(k-1) Q^(k(k-1)/2 + k|m|) (1 - Q^k); summing it over
    |m| = r, r + b, r + 2b, ... divides by 1 - Q^(kb).  Class a collects
    r = a (m >= 0) and r = b - a (m < 0; for a = 0, r = b).  Every offset is
    at least min(a, b - a), so a class with min(a, b - a) > nq is zero
    through Q^nq and gets no row.
    """
    p2 = p2_values(nq)
    half = [[0] * (nq + 1) for _ in range(min(b // 2, nq) + 1)]
    k = 1
    while k * (k - 1) // 2 <= nq:
        # d = p2 (1 - Q^k) / (1 - Q^(kb))
        d = p2[:]
        d[k:] = map(operator.sub, d[k:], p2[: nq + 1 - k])
        step = k * b
        for i in range(step, nq + 1, step):
            d[i : i + step] = map(operator.add, d[i : i + step], d[i - step : i])
        op = operator.add if k % 2 else operator.sub
        for a, row in enumerate(half):
            for r in (a, b - a):
                off = k * (k - 1) // 2 + k * r
                if off <= nq:
                    row[off:] = map(op, row[off:], d[: nq + 1 - off])
        k += 1
    # all b classes must sum to the rank count: m -> -m maps class a onto
    # class b - a, so row a stands for two classes unless a = -a mod b, and
    # the classes without a row add zero
    weights = [1 if (b - a) % b == a else 2 for a in range(len(half))]
    pb = pbar_values(0, 2 * nq)
    for m in range(nq + 1):
        if sum(w * row[m] for w, row in zip(weights, half)) != pb[2 * m]:
            raise OrthogonalityError(f"residue classes mod {b} do not sum to pbar(0, {2 * m})")
    return half


def pbar_abn_table(j: int, a: int, b: int, n_max: int) -> list[int]:
    """Counts of size 0..n_max with rank j and quotient rank = a mod b; the
    build's cost stops growing with b past n_max (see _residue_rows)."""
    check_table_request(n_max, a, b)
    nq = (n_max - bg_core_size(j)) // 2
    r = min(a, b - a)  # class b - a mirrors class a
    return _placed(j, _residue_rows(b, nq)[r] if r <= nq else [0] * (nq + 1), n_max)


def pbar_abn_values(j: int, b: int, n_max: int) -> list[list[int]]:
    """For each residue a, counts of size 0..n_max with rank j and quotient
    rank = a mod b.  Rows are shared: class b - a is the same list as class
    a, and every class that is zero through n_max is one list of zeros, so
    read, do not mutate."""
    check_table_request(n_max, b=b)
    nq = (n_max - bg_core_size(j)) // 2
    rows = _residue_rows(b, nq) if nq >= 0 else []
    for a, row in enumerate(rows):
        rows[a] = _placed(j, row, n_max)
    zero = [0] * (n_max + 1)
    return [rows[min(a, b - a)] if min(a, b - a) < len(rows) else zero for a in range(b)]


# ---------------------------------------------------------------------------
# bivariate (rank, size) table


JOINT_CAP = 60


def joint_table(j: int, n_max: int) -> list[dict[int, int]]:
    """Exact joint counts for fixed rank j: row n maps quotient rank m to the
    number of partitions of n with ranks (j, m); n_max <= 60."""
    check_table_request(n_max)
    if n_max > JOINT_CAP:
        raise ValueError(f"bivariate table capped at n_max = {JOINT_CAP}")
    shift = bg_core_size(j)
    nq = (n_max - shift) // 2
    rows: list[dict[int, int]] = [{} for _ in range(n_max + 1)]
    if nq < 0:
        return rows
    # 1 / prod_{i>=1} (1 - z Q^i)(1 - z^-1 Q^i) by in-place division, Q = q^2;
    # f[m] maps r to the coefficient of z^r Q^m
    f: list[dict] = [{} for _ in range(nq + 1)]
    f[0][0] = 1
    for i in range(1, nq + 1):
        for e in (1, -1):
            for m in range(i, nq + 1):
                dst = f[m]
                for r, c in f[m - i].items():
                    dst[r + e] = dst.get(r + e, 0) + c
    rows[shift::2] = f
    return rows


# ---------------------------------------------------------------------------
# O(N^2) oracle for the validation suite


def series_invert(a: Sequence[int]) -> list[int]:
    """Coefficients of 1/A through the degree of ``a``; a[0] must be +-1."""
    if not a or a[0] not in (1, -1):
        raise ValueError("constant term must be a unit (+1 or -1)")
    inv = [a[0]] + [0] * (len(a) - 1)
    for n in range(1, len(a)):
        acc = sum(map(operator.mul, a[1 : n + 1], reversed(inv[:n])))
        inv[n] = -a[0] * acc
    return inv


def euler_factor_product(n_max: int) -> list[int]:
    """Coefficients of (q^2;q^2)_oo^2 = prod_{i>=1} (1 - q^(2i))^2 through q^n_max."""
    out = [0] * (n_max + 1)
    out[0] = 1
    for i in range(2, n_max + 1, 2):
        for _ in range(2):
            for n in range(n_max, i - 1, -1):
                out[n] -= out[n - i]
    return out
