"""Exact q-series machinery for the rank statistics.

Three independent exact routes to the same counts live here:

* ``pbar_eta`` -- counts with fixed alternating-parity rank, via the
  pentagonal recurrence for p(n) and one big-integer self-convolution;
* ``pbar_abn_table`` -- counts refined by quotient rank mod b, read off a
  series with coefficients in the cyclic group ring Z[C_b] (slot a of each
  coefficient is the residue class a), built by dividing in place by each
  product factor and checked row by row against ``pbar_eta``;
* ``joint_table`` -- the full bivariate (rank, size) table, by the same
  in-place division over Z[z, z^-1] without reducing the rank mod b.

All coefficients are arbitrary-precision integers; floats never enter.
"""

from __future__ import annotations

import operator
import threading
from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

from .partitions import bg_core_size

_LOCK = threading.RLock()
_P: list[int] = [1]
_P2: list[int] = [1]


class OrthogonalityError(ArithmeticError):
    """Residue-class counts do not sum to the rank count; indicates a bug."""


# ---------------------------------------------------------------------------
# truncated integer power series


class IntSeries:
    """Power series over Z truncated at q^truncation inclusive."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Sequence[int], truncation: int | None = None):
        cs = [operator.index(c) for c in coeffs]
        if truncation is not None:
            if truncation < 0:
                raise ValueError("truncation must be >= 0")
            cs = cs[: truncation + 1] + [0] * (truncation + 1 - len(cs))
        if not cs:
            cs = [0]
        self.coeffs = cs

    @property
    def truncation(self) -> int:
        return len(self.coeffs) - 1

    def __getitem__(self, n: int) -> int:
        return self.coeffs[n]

    def __eq__(self, other) -> bool:
        return isinstance(other, IntSeries) and self.coeffs == other.coeffs

    def __repr__(self) -> str:
        head = ", ".join(str(c) for c in self.coeffs[:8])
        tail = ", ..." if len(self.coeffs) > 8 else ""
        return f"IntSeries([{head}{tail}], truncation={self.truncation})"

    def truncate(self, n: int) -> "IntSeries":
        return IntSeries(self.coeffs, truncation=n)

    def _binop(self, other, op):
        n = min(self.truncation, other.truncation)
        return IntSeries([op(a, b) for a, b in zip(self.coeffs, other.coeffs)], truncation=n)

    def __add__(self, other):
        return self._binop(other, operator.add)

    def __sub__(self, other):
        return self._binop(other, operator.sub)

    def __mul__(self, other):
        n = min(self.truncation, other.truncation)
        a, b = self.coeffs, other.coeffs
        out = [0] * (n + 1)
        for i, ai in enumerate(a[: n + 1]):
            if ai:
                for k in range(n - i + 1):
                    out[i + k] += ai * b[k]
        return IntSeries(out)


def series_invert(s: IntSeries) -> IntSeries:
    """Multiplicative inverse up to the truncation; constant term must be +-1."""
    a = s.coeffs
    if a[0] not in (1, -1):
        raise ValueError("constant term must be a unit (+1 or -1)")
    n_max = s.truncation
    inv = [a[0]] + [0] * n_max
    for n in range(1, n_max + 1):
        acc = sum(map(operator.mul, a[1 : n + 1], reversed(inv[:n])))
        inv[n] = -a[0] * acc
    return IntSeries(inv)


def euler_factor_product(n_max: int, step: int = 1, power: int = 1) -> IntSeries:
    """Truncation of prod_{i>=1} (1 - q^(step*i))^power."""
    if step < 1 or power < 0:
        raise ValueError("step must be >= 1 and power >= 0")
    out = [0] * (n_max + 1)
    out[0] = 1
    for _ in range(power):
        for i in range(step, n_max + 1, step):
            for n in range(n_max, i - 1, -1):
                out[n] -= out[n - i]
    return IntSeries(out)


# ---------------------------------------------------------------------------
# counting tables


def _grow_p(n_max: int) -> None:
    with _LOCK:
        while len(_P) <= n_max:
            n = len(_P)
            total = 0
            k = 1
            while True:
                g1 = n - k * (3 * k - 1) // 2
                if g1 < 0:
                    break
                term = _P[g1]
                g2 = g1 - k
                if g2 >= 0:
                    term += _P[g2]
                total += term if k % 2 else -term
                k += 1
            _P.append(total)


def p_values(n_max: int) -> list[int]:
    """p(0..n_max) by the pentagonal-number recurrence."""
    if n_max < 0:
        raise ValueError("n_max must be >= 0")
    _grow_p(n_max)
    with _LOCK:
        return _P[: n_max + 1]


def _grow_p2(m_max: int) -> None:
    _grow_p(m_max)
    with _LOCK:
        P = _P
        while len(_P2) <= m_max:
            m = len(_P2)
            c = (m + 1) // 2
            s2 = sum(map(operator.mul, P[:c], P[m : m - c : -1])) if c else 0
            _P2.append(2 * s2 + (P[m // 2] ** 2 if m % 2 == 0 else 0))


def p2_values(m_max: int) -> list[int]:
    """Coefficients of 1/(q;q)_oo^2 (pairs of partitions), by self-convolution."""
    if m_max < 0:
        raise ValueError("m_max must be >= 0")
    _grow_p2(m_max)
    with _LOCK:
        return _P2[: m_max + 1]


def _p2_at(m: int) -> int:
    _grow_p2(m)
    return _P2[m]


@dataclass
class StatTable:
    """A cached integer table with enough metadata to identify how it was built."""

    kind: str  # "p" | "p2" | "pbar_j" | "pbar_jab"
    params: dict[str, int]
    values: list[int]
    n_max: int
    route: str = ""

    def __post_init__(self):
        if len(self.values) != self.n_max + 1:
            raise ValueError("values must have length n_max + 1")
        if any(v < 0 for v in self.values):
            raise ValueError("tables hold counts; negative value found")

    def __getitem__(self, n: int) -> int:
        return self.values[n]


def p_table(n_max: int) -> StatTable:
    return StatTable("p", {}, p_values(n_max), n_max, route="pentagonal-recurrence")


def p2_table(n_max: int) -> StatTable:
    return StatTable("p2", {}, p2_values(n_max), n_max, route="p-self-convolution")


def pbar_eta(j: int, n: int) -> int:
    """Number of partitions of n with alternating-parity rank exactly j.

    Equals the pair count at (n - j(2j-1))/2; zero off the support (the rank
    fixes the 2-core, so n must match j(2j-1) in size and parity).
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    shift = bg_core_size(j)
    if n < shift or (n - shift) % 2:
        return 0
    return _p2_at((n - shift) // 2)


def pbar_values(j: int, n_max: int) -> list[int]:
    shift = bg_core_size(j)
    if shift <= n_max:
        _grow_p2((n_max - shift) // 2)
    return [pbar_eta(j, n) for n in range(n_max + 1)]


def pbar_table(j: int, n_max: int) -> StatTable:
    return StatTable("pbar_j", {"j": j}, pbar_values(j, n_max), n_max, route="eta-quotient-shift")


def ranks_with_support(n_max: int) -> list[int]:
    """All ranks j (both signs) whose 2-core fits inside n_max."""
    out = [j for j in range(-n_max, n_max + 1) if 0 <= bg_core_size(j) <= n_max]
    out.sort(key=lambda j: (bg_core_size(j), -j))
    return out


# ---------------------------------------------------------------------------
# congruence-class tables over the group ring Z[C_b]


@lru_cache(maxsize=32)
def _pbar_abn_cached(j: int, b: int, n_max: int) -> tuple[tuple[int, ...], ...]:
    """Rows of q^{j(2j-1)} / prod_{i>=1} (1 - g q^{2i})(1 - g^-1 q^{2i}), g^b = 1.

    Slot a of the q^n coefficient in Z[C_b] counts the partitions of n with
    rank j and quotient rank = a mod b; the result holds one row per a.
    """
    pb = pbar_values(j, n_max)
    shift = bg_core_size(j)
    nq = (n_max - shift) // 2 if n_max >= shift else -1
    tables = [[0] * (n_max + 1) for _ in range(b)]
    if nq < 0:
        return tuple(tuple(row) for row in tables)
    # divide the identity in place by each factor (1 - g^e Q^i), Q = q^2:
    # f[m] += g^e f[m - i] with m ascending, so f[m - i] is already divided
    f = [[0] * b for _ in range(nq + 1)]
    f[0][0] = 1
    for i in range(1, nq + 1):
        for e in (1, -1):
            to = [(r + e) % b for r in range(b)]
            for m in range(i, nq + 1):
                dst = f[m]
                for t, c in zip(to, f[m - i]):
                    dst[t] += c
    for m, row in enumerate(f):
        n = 2 * m + shift
        if sum(row) != pb[n]:
            raise OrthogonalityError(f"residue classes mod {b} do not sum to pbar({j}, {n})")
        for a in range(b):
            tables[a][n] = row[a]
    return tuple(tuple(row) for row in tables)


def pbar_abn_values(j: int, b: int, n_max: int) -> list[list[int]]:
    """For each residue a, counts with rank j and quotient rank = a mod b."""
    if b < 2:
        raise ValueError("b must be >= 2")
    return [list(row) for row in _pbar_abn_cached(j, b, n_max)]


def pbar_abn_table(j: int, a: int, b: int, n_max: int) -> StatTable:
    if b < 2:
        raise ValueError("b must be >= 2")
    if not 0 <= a < b:
        raise ValueError("a must lie in [0, b)")
    values = list(_pbar_abn_cached(j, b, n_max)[a])
    return StatTable(
        "pbar_jab",
        {"j": j, "a": a, "b": b},
        values,
        n_max,
        # the label of the former character-sum route, kept so that report
        # files and cache headers stay byte-identical
        route="roots-of-unity-orthogonality",
    )


# ---------------------------------------------------------------------------
# bivariate (rank, size) table


class BivariateSeries:
    """For each size n <= truncation, a sparse map {quotient rank m: count}."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Sequence[dict]):
        self.coeffs = [dict(c) for c in coeffs]

    @property
    def truncation(self) -> int:
        return len(self.coeffs) - 1

    def coefficient(self, m: int, n: int) -> int:
        return self.coeffs[n].get(m, 0)

    def row(self, n: int) -> dict:
        return dict(self.coeffs[n])

    def row_sum(self, n: int) -> int:
        return sum(self.coeffs[n].values())

    def row_sum_mod(self, n: int, a: int, b: int) -> int:
        return sum(c for m, c in self.coeffs[n].items() if m % b == a % b)


JOINT_CAP = 60


def joint_table(j: int, n_max: int) -> BivariateSeries:
    """Exact joint counts by (quotient rank, size) for fixed rank j; n_max <= 60."""
    if n_max < 0:
        raise ValueError("n_max must be >= 0")
    if n_max > JOINT_CAP:
        raise ValueError(f"bivariate table capped at n_max = {JOINT_CAP}")
    shift = bg_core_size(j)
    nq = (n_max - shift) // 2 if n_max >= shift else -1
    coeffs: list[dict] = [dict() for _ in range(n_max + 1)]
    if nq < 0:
        return BivariateSeries(coeffs)
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
    for m, row in enumerate(f):
        coeffs[2 * m + shift] = row
    return BivariateSeries(coeffs)
