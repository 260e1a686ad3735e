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

    @classmethod
    def _made(cls, parts: tuple[int, ...]) -> Partition:
        """The one unchecked constructor, for parts this module built weakly decreasing and positive."""
        p = object.__new__(cls)
        p.__dict__["parts"] = parts
        return p

    @property
    def size(self) -> int:
        return sum(self.parts)


def bg_core_size(j: int) -> int:
    """Size j(2j-1) of the 2-core forced by alternating-parity rank j."""
    return j * (2 * j - 1)


def beta_numbers(p: Partition, slots: int) -> list[int]:
    """First-column hook lengths of p padded to ``slots`` parts, largest first."""
    if slots < len(p.parts):
        raise ValueError("slots must cover every part")
    # the zero parts' beads sit flush: a countdown after the parts' own beads
    return [*map(operator.add, p.parts, range(slots - 1, -1, -1)), *range(slots - len(p.parts) - 1, -1, -1)]


def _runners(p: Partition, t: int, slots: int) -> list[list[int]]:
    """The t-abacus of p at ``slots`` parts: runner r holds b // t for each beta number b = r mod t."""
    runners: list[list[int]] = [[] for _ in range(t)]
    for b in beta_numbers(p, slots):  # largest first, so each runner descends
        runners[b % t].append(b // t)
    return runners


def _beads_above_flush(beads: Sequence[int]) -> int:
    """How many of a runner's (or a beta set's) descending beads have a gap below them."""
    k = count = len(beads)
    while k and beads[k - 1] == count - k:
        k -= 1
    return k


def _parts_from_beta(beta_desc: Sequence[int]) -> tuple[int, ...]:
    s = len(beta_desc) - 1
    return tuple([beta_desc[i] - s + i for i in range(_beads_above_flush(beta_desc))])


def littlewood_decompose(p: Partition, t: int) -> tuple[Partition, tuple[Partition, ...]]:
    """Split p into its t-core and t quotient components.

    Returns (core, (q_0, ..., q_{t-1})) with |p| = |core| + t * sum |q_r|.
    """
    if t < 2:
        raise ValueError(f"t must be >= 2, got {t}")
    runners = _runners(p, t, t * -(-len(p.parts) // t))
    quotients = tuple([Partition._made(_parts_from_beta(ms)) for ms in runners])
    core_beta = sorted([i * t + r for r, ms in enumerate(runners) for i in range(len(ms))], reverse=True)
    return Partition._made(_parts_from_beta(core_beta)), quotients


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
        [m * t + r for r, ms in enumerate(runners) for m in beta_numbers(quotients[r], len(ms))],
        reverse=True,
    )
    return Partition._made(_parts_from_beta(beta))


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
    return _beads_above_flush(ms0) - _beads_above_flush(ms1)


def enumerate_partitions(n: int) -> Iterator[Partition]:
    """All partitions of n in descending lexicographic order, each exactly once.

    Zoghbi and Stojmenovic's ZS1, in constant amortized time: x holds the
    current m parts followed by 1s, and x[h] is its last part above 1.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    x, m, h = [n] + [1] * (n - 1), min(n, 1), 0
    yield Partition._made(tuple(x[:m]))
    while x[0] > 1:
        if x[h] == 2:  # the last 2 becomes 1 + 1
            x[h] = 1
            m += 1
            h -= 1
        else:  # lower x[h] by one and refill what follows with parts of that size
            r, rest = x[h] - 1, m - h
            x[h] = r
            while rest >= r:
                h, rest = h + 1, rest - r
                x[h] = r
            m = h + 1 + (rest > 0)  # a remainder left over is one more part
            if rest > 1:
                h += 1
                x[h] = rest
        yield Partition._made(tuple(x[:m]))


def rank_census(n: int) -> Counter:
    """Counter keyed (bg_rank, two_quotient_rank) over all partitions of n.

    Brute-force ground truth for the generating-function tables; exponential
    in n, intended for n <= 40 (the 37338 partitions of 40 take about 0.17 s).
    """
    return Counter([(bg_rank(p), two_quotient_rank(p)) for p in enumerate_partitions(n)])
