"""Exact combinatorics of integer partitions: t-cores and t-quotients
(``littlewood_decompose`` and its inverse ``littlewood_compose``), and the
two alternating-parity rank statistics; the 2-quotient rank is read off the
two runners of the 2-abacus, without building the quotients.

Beta-set convention used by the core/quotient maps: a partition padded to
``s`` parts (``s`` a multiple of ``t``, zero parts allowed) is encoded as the
strictly decreasing set ``{part_i + s - i : 1 <= i <= s}``.  Residues mod
``t`` split the beta numbers into the ``t`` quotient components (the runners
of the t-abacus, built by ``_runners``); component ``r`` collects the numbers
congruent to ``r``, and cores are decided on the same abacus.  Padding by
further blocks of ``t`` zero parts leaves core, quotients and their labels
unchanged, so the map is well defined.  For ``t = 2`` this labeling gives
the two partitions of 2 the rank multiset ``{+1, -1}``, which is the
normalization the series module is calibrated against.
"""

from __future__ import annotations

import operator
from collections import Counter
from functools import cached_property
from typing import Iterator, Sequence


class Partition:
    """A weakly decreasing tuple of positive integers; () is the partition of 0.

    Immutable, equal and hashed by its parts."""

    parts: tuple[int, ...]

    def __init__(self, parts: Sequence[int] = ()):
        # tuple() of a list, not of a generator: a generator's tuple is made
        # with room for 10 items and then shrunk, so once freed it piles up on
        # a free list that new tuples seldom draw from
        parts = tuple([operator.index(x) for x in parts])
        for i, x in enumerate(parts):
            if x < 1:
                raise ValueError(f"parts must be positive integers, got {x}")
            if i and parts[i - 1] < x:
                raise ValueError(f"parts must be weakly decreasing: {parts}")
        self.__dict__["parts"] = parts

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to {name!r} of an immutable Partition")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete {name!r} of an immutable Partition")

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self.parts == other.parts
        return NotImplemented

    def __hash__(self):
        return hash(self.parts)

    def __repr__(self):
        return f"Partition(parts={self.parts!r})"

    @cached_property
    def size(self) -> int:
        return sum(self.parts)


def bg_core_size(j: int) -> int:
    """Size j(2j-1) of the 2-core forced by alternating-parity rank j."""
    return j * (2 * j - 1)


def beta_numbers(p: Partition, slots: int) -> list[int]:
    """First-column hook lengths of p padded to ``slots`` parts, largest first."""
    if slots < len(p.parts):
        raise ValueError("slots must cover every part")
    padded = p.parts + (0,) * (slots - len(p.parts))
    return [padded[i] + slots - 1 - i for i in range(slots)]


def _runners(p: Partition, t: int, slots: int) -> list[list[int]]:
    """The t-abacus of p at ``slots`` parts: runner r holds b // t for each beta number b = r mod t."""
    runners: list[list[int]] = [[] for _ in range(t)]
    for b in beta_numbers(p, slots):  # largest first, so each runner descends
        runners[b % t].append(b // t)
    return runners


def _parts_from_beta(beta_desc: Sequence[int]) -> list[int]:
    s = len(beta_desc)
    return [b - (s - 1 - i) for i, b in enumerate(beta_desc) if b > s - 1 - i]


def littlewood_decompose(p: Partition, t: int) -> tuple[Partition, tuple[Partition, ...]]:
    """Split p into its t-core and t quotient components.

    Returns (core, (q_0, ..., q_{t-1})) with |p| = |core| + t * sum |q_r|.
    """
    if t < 2:
        raise ValueError(f"t must be >= 2, got {t}")
    runners = _runners(p, t, t * -(-len(p.parts) // t))
    quotients = tuple([Partition(_parts_from_beta(ms)) for ms in runners])
    core_beta = sorted(
        (i * t + r for r, ms in enumerate(runners) for i in range(len(ms))),
        reverse=True,
    )
    return Partition(_parts_from_beta(core_beta)), quotients


def littlewood_compose(core: Partition, quotients: Sequence[Partition], t: int) -> Partition:
    """Inverse of littlewood_decompose under the same beta-set convention."""
    if t < 2:
        raise ValueError(f"t must be >= 2, got {t}")
    quotients = tuple(quotients)
    if len(quotients) != t:
        raise ValueError(f"expected {t} quotient components, got {len(quotients)}")
    widest = max((len(q.parts) for q in quotients), default=0)
    runners = _runners(core, t, t * (len(core.parts) + widest + 2))
    # a t-core is a partition whose beads sit flush at the foot of every
    # runner of its t-abacus (James-Kerber, 1981); 2t zero parts bead every runner
    if any(ms[0] >= len(ms) for ms in runners):
        raise ValueError("core argument is not a t-core")
    beta = sorted(
        (m * t + r for r, ms in enumerate(runners) for m in beta_numbers(quotients[r], len(ms))),
        reverse=True,
    )
    return Partition(_parts_from_beta(beta))


def bg_rank(p: Partition) -> int:
    """Alternating sum of part parities: +par(part_1) - par(part_2) + ..."""
    r = 0
    for i, x in enumerate(p.parts):
        if x % 2:
            r += 1 if i % 2 == 0 else -1
    return r


def two_quotient_rank(p: Partition) -> int:
    """len(q0) - len(q1) for the 2-quotient: each counts the beads above its runner's flush line."""
    ms0, ms1 = _runners(p, 2, len(p.parts) + len(p.parts) % 2)
    return len(_parts_from_beta(ms0)) - len(_parts_from_beta(ms1))


def enumerate_partitions(n: int) -> Iterator[Partition]:
    """All partitions of n in descending lexicographic order, each exactly once."""
    if n < 0:
        raise ValueError("n must be >= 0")

    def rec(remaining: int, cap: int, prefix: list[int]) -> Iterator[Partition]:
        if remaining == 0:
            yield Partition(tuple(prefix))
            return
        for first in range(min(remaining, cap), 0, -1):
            prefix.append(first)
            yield from rec(remaining - first, first, prefix)
            prefix.pop()

    yield from rec(n, n, [])


def rank_census(n: int) -> Counter:
    """Counter keyed (bg_rank, two_quotient_rank) over all partitions of n.

    Brute-force ground truth for the generating-function tables; exponential
    in n, intended for n up to roughly 40.
    """
    census: Counter = Counter()
    for p in enumerate_partitions(n):
        census[(bg_rank(p), two_quotient_rank(p))] += 1
    return census
