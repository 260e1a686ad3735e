"""Partition combinatorics against brute-force and hand-worked oracles."""

from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bgrank.partitions import (
    Partition,
    beta_numbers,
    bg_core_size,
    bg_rank,
    enumerate_partitions,
    littlewood_compose,
    littlewood_decompose,
    rank_census,
    two_quotient_rank,
)
from bgrank.series import p_values

EMPTY = Partition()


# The classical definition of a t-core through hook lengths, independent of the
# abacus that littlewood_compose decides cores on.


def conjugate(p):
    """Transpose of the Ferrers diagram: column lengths become parts."""
    parts = p.parts
    if not parts:
        return EMPTY
    return Partition(tuple(sum(1 for x in parts if x >= j) for j in range(1, parts[0] + 1)))


def hook_lengths(p):
    """Hook lengths h(k, j) = (row_k - j) + (col_j - k) + 1, one row per part."""
    parts = p.parts
    conj = conjugate(p).parts
    # row index k is 0-based, so (row_k - j) + (col_j - (k+1)) + 1 = parts[k] - j + conj[j-1] - k
    return tuple(
        tuple(parts[k] - j + conj[j - 1] - k for j in range(1, parts[k] + 1))
        for k in range(len(parts))
    )


def is_t_core(p, t):
    """True iff no hook length of p is divisible by t."""
    return not any(h % t == 0 for row in hook_lengths(p) for h in row)


def parts_strategy(max_part=12, max_len=10):
    return st.lists(st.integers(1, max_part), max_size=max_len).map(
        lambda xs: Partition(tuple(sorted(xs, reverse=True)))
    )


def test_partition_validation():
    assert Partition((3, 2, 2)).size == 7
    assert Partition(()).size == 0
    with pytest.raises(ValueError):
        Partition((2, 3))
    with pytest.raises(ValueError):
        Partition((0,))
    with pytest.raises(TypeError):
        Partition((1.5,))


def test_partition_value_semantics():
    p = Partition((3, 1))
    assert Partition([3, 1]) == p and hash(Partition([3, 1])) == hash(p)
    assert type(Partition([3, 1]).parts) is tuple
    assert p != (3, 1)
    assert repr(p) == "Partition(parts=(3, 1))"
    with pytest.raises(AttributeError):
        p.parts = (4,)


def test_conjugate_examples():
    assert conjugate(EMPTY) == EMPTY
    assert conjugate(Partition((2, 2))) == Partition((2, 2))
    # transpose of the (4,1) diagram, worked by hand
    assert conjugate(Partition((4, 1))) == Partition((2, 1, 1, 1))


@given(parts_strategy())
def test_conjugate_involution(p):
    assert conjugate(conjugate(p)) == p
    assert conjugate(p).size == p.size


def test_hook_examples():
    assert hook_lengths(EMPTY) == ()
    assert hook_lengths(Partition((2, 1))) == ((3, 1), (1,))
    assert hook_lengths(Partition((2, 2))) == ((3, 2), (2, 1))


def test_hook_corner_is_one():
    for n in range(1, 13):
        for p in enumerate_partitions(n):
            rows = hook_lengths(p)
            assert all(h >= 1 for row in rows for h in row)
            assert rows[0][-1] >= 1 and rows[-1][-1] == 1


def test_hook_multiset_conjugation_invariant():
    for n in range(13):
        for p in enumerate_partitions(n):
            hooks = sorted(h for row in hook_lengths(p) for h in row)
            assert hooks == sorted(h for row in hook_lengths(conjugate(p)) for h in row)


def test_is_t_core():
    assert is_t_core(EMPTY, 2)
    assert is_t_core(Partition((2, 1)), 2)  # hooks {3, 1, 1}
    assert not is_t_core(Partition((2, 2)), 2)  # hook 2 present


def test_staircases_are_2_cores():
    for k in range(7):
        assert is_t_core(Partition(tuple(range(k, 0, -1))), 2)


def test_littlewood_examples():
    core, quots = littlewood_decompose(EMPTY, 2)
    assert core == EMPTY and quots == (EMPTY, EMPTY)
    core, (q0, q1) = littlewood_decompose(Partition((2, 2)), 2)
    assert core == EMPTY and q0.size + q1.size == 2
    core, quots = littlewood_decompose(Partition((3, 2, 1)), 2)
    assert core == Partition((3, 2, 1)) and quots == (EMPTY, EMPTY)
    assert littlewood_compose(Partition((3, 2, 1)), (EMPTY, EMPTY), 2) == Partition((3, 2, 1))
    assert littlewood_compose(EMPTY, (EMPTY, EMPTY), 2) == EMPTY


def test_compose_rejects_non_core():
    with pytest.raises(ValueError, match="not a t-core"):
        littlewood_compose(Partition((2, 2)), (EMPTY, EMPTY), 2)
    with pytest.raises(ValueError):
        littlewood_compose(EMPTY, (EMPTY,), 2)
    with pytest.raises(ValueError):
        littlewood_compose(EMPTY, (EMPTY,), 1)


def test_compose_accepts_exactly_the_hook_defined_cores():
    # 1524 cases: every partition of n <= 14, each for t = 2, 3, 4
    for n in range(15):
        for p in enumerate_partitions(n):
            for t in (2, 3, 4):
                quots = (EMPTY,) * t
                if is_t_core(p, t):
                    assert littlewood_compose(p, quots, t) == p
                else:
                    with pytest.raises(ValueError, match="not a t-core"):
                        littlewood_compose(p, quots, t)


def test_littlewood_roundtrip_exhaustive():
    for n in range(21):
        for p in enumerate_partitions(n):
            for t in (2, 3):
                core, quots = littlewood_decompose(p, t)
                assert is_t_core(core, t)
                assert p.size == core.size + t * sum(q.size for q in quots)
                assert littlewood_compose(core, quots, t) == p


@given(parts_strategy(max_part=20, max_len=14), st.integers(2, 5))
@settings(max_examples=150)
def test_littlewood_roundtrip_random(p, t):
    core, quots = littlewood_decompose(p, t)
    assert p.size == core.size + t * sum(q.size for q in quots)
    assert littlewood_compose(core, quots, t) == p


@given(st.integers(2, 5), parts_strategy(max_part=9, max_len=6), st.data())
@settings(max_examples=150)
def test_littlewood_inverse_from_data(t, seed, data):
    # an arbitrary core with t arbitrary quotients composes to a partition that
    # decomposes back to exactly the same data: the map is onto and two-sided
    core, _ = littlewood_decompose(seed, t)
    quots = tuple(data.draw(parts_strategy(max_part=6, max_len=5)) for _ in range(t))
    composed = littlewood_compose(core, quots, t)
    assert composed.size == core.size + t * sum(q.size for q in quots)
    back_core, back_quots = littlewood_decompose(composed, t)
    assert back_core == core and back_quots == quots


def test_beta_numbers_strictly_decreasing():
    p = Partition((4, 4, 2, 1))
    for slots in (4, 6, 8):
        beta = beta_numbers(p, slots)
        assert all(a > b for a, b in zip(beta, beta[1:]))


def test_bg_rank_examples():
    assert bg_rank(EMPTY) == 0
    assert bg_rank(Partition((3, 2, 1))) == 2  # 1 - 0 + 1
    assert bg_rank(Partition((2, 1))) == -1  # 0 - 1


def test_bg_rank_determines_2core():
    for n in range(17):
        for p in enumerate_partitions(n):
            j = bg_rank(p)
            core, _ = littlewood_decompose(p, 2)
            assert core.size == bg_core_size(j)
            # 2-cores are staircases
            k = len(core.parts)
            assert core == Partition(tuple(range(k, 0, -1)))


def test_size_parity_matches_rank():
    for n in range(17):
        for p in enumerate_partitions(n):
            assert (p.size - bg_core_size(bg_rank(p))) % 2 == 0


def test_two_quotient_rank_multisets():
    # calibration: the two partitions of 2 realize {+1, -1}
    assert sorted(two_quotient_rank(p) for p in enumerate_partitions(2)) == [-1, 1]
    assert sorted(two_quotient_rank(p) for p in enumerate_partitions(4)) == [-2, -1, 0, 1, 2]
    assert two_quotient_rank(EMPTY) == 0


def _quotient_rank_by_definition(p):
    _, (q0, q1) = littlewood_decompose(p, 2)
    return len(q0.parts) - len(q1.parts)


def test_two_quotient_rank_reads_the_decomposition():
    # odd n included: the census fixtures in conftest.py cover only even n
    for n in range(19):
        for p in enumerate_partitions(n):
            assert two_quotient_rank(p) == _quotient_rank_by_definition(p)


@given(parts_strategy(max_part=20, max_len=15))
def test_two_quotient_rank_reads_the_decomposition_random(p):
    assert two_quotient_rank(p) == _quotient_rank_by_definition(p)


def test_rank_census_never_decomposes(monkeypatch):
    expected = rank_census(12)

    def refuse(p, t):
        raise AssertionError("rank_census called littlewood_decompose")

    monkeypatch.setattr("bgrank.partitions.littlewood_decompose", refuse)
    assert rank_census(12) == expected


def _enumerate_oracle(n):
    """Parts tuples of every partition of n in descending lexicographic order,
    by recursion on the largest part: the enumerator's former form."""

    def rec(remaining, cap, prefix):
        if remaining == 0:
            yield tuple(prefix)
            return
        for first in range(min(remaining, cap), 0, -1):
            prefix.append(first)
            yield from rec(remaining - first, first, prefix)
            prefix.pop()

    yield from rec(n, n, [])


def test_enumeration_matches_recursive_oracle():
    for n in range(31):
        assert [p.parts for p in enumerate_partitions(n)] == list(_enumerate_oracle(n))


def test_rank_census_matches_the_definitions():
    # odd n included: bg_rank and the 2-quotient lengths of littlewood_decompose
    for n in range(21):
        expected = Counter(
            (bg_rank(Partition(parts)), _quotient_rank_by_definition(Partition(parts)))
            for parts in _enumerate_oracle(n)
        )
        assert rank_census(n) == expected
    with pytest.raises(ValueError, match="n must be >= 0"):
        rank_census(-1)


@given(parts_strategy(max_part=9, max_len=8), st.integers(2, 4), st.integers(0, 16))
@settings(max_examples=60)
def test_the_layer_hands_out_checked_partitions(p, t, n):
    # enumerate_partitions and the Littlewood maps build their results from
    # parts they made themselves, without a second check: each must still be
    # a Partition that the validating constructor accepts as it is
    assert p.size == sum(p.parts)
    core, quots = littlewood_decompose(p, t)
    handed_out = [core, *quots, littlewood_compose(core, quots, t), *enumerate_partitions(n)]
    for q in handed_out:
        assert type(q) is Partition and type(q.parts) is tuple
        assert q == Partition(q.parts) and q.size == sum(q.parts)


def test_enumeration_counts_and_order():
    assert list(enumerate_partitions(0)) == [EMPTY]
    fours = [p.parts for p in enumerate_partitions(4)]
    assert fours == [(4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1)]
    pv = p_values(30)
    for n in (4, 10, 17, 24, 30):
        seen = list(enumerate_partitions(n))
        assert len(seen) == pv[n]
        assert len(set(seen)) == len(seen)
        assert all(a.parts > b.parts for a, b in zip(seen, seen[1:]))
    with pytest.raises(ValueError, match="n must be >= 0"):
        next(enumerate_partitions(-1))


def test_rank_census_totals():
    pv = p_values(24)
    for n in range(25):
        census = rank_census(n)
        assert sum(census.values()) == pv[n]


def test_rank_class_sizes_partition_p():
    pv = p_values(30)
    for n in range(31):
        by_rank = {}
        for p in enumerate_partitions(n):
            j = bg_rank(p)
            by_rank[j] = by_rank.get(j, 0) + 1
        assert sum(by_rank.values()) == pv[n]
        assert all(bg_core_size(j) <= n for j in by_rank)
