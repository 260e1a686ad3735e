"""Exact series machinery: tables, inverses, crank-sum and bivariate routes."""

import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bgrank.cache import StatTable
from bgrank.partitions import rank_census
from bgrank.series import (
    OrthogonalityError,
    _grow_quotient,
    check_table_request,
    euler_factor_product,
    joint_table,
    p2_values,
    p_values,
    pbar_abn_table,
    pbar_abn_values,
    pbar_eta,
    pbar_values,
    ranks_with_support,
    series_invert,
)

# frozen by hand convolution of p(0..10) = 1,1,2,3,5,7,11,15,22,30,42
P2_HAND = [1, 2, 5, 10, 20, 36, 65, 110, 185, 300, 481]


def test_p_values_pentagonal():
    assert p_values(0) == [1]
    pv = p_values(10)
    assert pv[4] == 5 and pv[10] == 42
    assert pv == [1, 1, 2, 3, 5, 7, 11, 15, 22, 30, 42]


def test_p_values_against_enumeration():
    from bgrank.partitions import enumerate_partitions

    pv = p_values(30)
    for n in range(31):
        assert pv[n] == sum(1 for _ in enumerate_partitions(n))


def test_p2_hand_values():
    assert p2_values(10) == P2_HAND
    pv, p2 = p_values(40), p2_values(40)
    assert all(p2[m] >= pv[m] for m in range(41))


def test_p2_matches_self_convolution():
    pv, p2 = p_values(400), p2_values(400)
    for m in range(401):
        assert p2[m] == sum(pv[i] * pv[m - i] for i in range(m + 1))


def test_quotient_growth_in_steps_matches_one_step():
    # pentagonal offsets must carry across each growth boundary, and the
    # getters are rebuilt exactly at pentagonal numbers: from an empty list
    # and from a prefix, land on, just before and just after each one
    for src in ((1,), p_values(300)):
        fresh: list[int] = []
        _grow_quotient(fresh, src, 300)
        for start in (0, 1, 6):
            stepped = fresh[:start]
            for g in _pentagonal_upto(300):
                for n_max in (g - 1, g, g + 1):
                    reach = max(len(stepped), n_max + 1)
                    _grow_quotient(stepped, src, n_max)
                    assert stepped == fresh[:reach]
            _grow_quotient(stepped, src, 300)
            assert stepped == fresh
    assert fresh == p2_values(300)


def _pentagonal_upto(n_max):
    """The generalized pentagonal numbers k(3k -+ 1)/2 <= n_max, ascending."""
    pairs = ((k * (3 * k - 1) // 2, k * (3 * k + 1) // 2) for k in range(1, n_max + 1))
    return sorted(g for pair in pairs for g in pair if g <= n_max)


def _grow_quotient_oracle(out, src, n_max):
    """The list-comprehension form of the pentagonal recurrence: each step
    indexes out[n - g] for every generalized pentagonal g <= n."""
    gs = _pentagonal_upto(n_max)
    for n in range(len(out), n_max + 1):
        # signs + + - - + + ... in ascending order: k odd adds, k even subtracts
        acc = sum([out[n - g] if i % 4 < 2 else -out[n - g] for i, g in enumerate(gs) if g <= n])
        out.append(acc + src[n] if n < len(src) else acc)


def test_pentagonal_numbers_are_the_known_ones():
    assert _pentagonal_upto(40) == [1, 2, 5, 7, 12, 15, 22, 26, 35, 40]


def test_p_and_p2_ramanujan_congruences_to_20000():
    # exact at full scale, and independent of any other route to p and p2:
    # Ramanujan's congruences for p, and p2(5k + r) = 0 mod 5 for r = 2, 3, 4
    # (1/(q;q)^2 = (q;q)^3 / (q;q)^5 with (q;q)^5 = (q^5;q^5) mod 5, and in
    # Jacobi's (q;q)^3 = sum (-1)^k (2k+1) q^(k(k+1)/2) an exponent = 3 mod 5
    # has k = 2 mod 5, so 2k + 1 = 0 mod 5: only exponents 0, 1 mod 5 survive)
    pv, p2 = p_values(20000), p2_values(20000)
    assert all(v % 5 == 0 for v in pv[4::5])
    assert all(v % 7 == 0 for v in pv[5::7])
    assert all(v % 11 == 0 for v in pv[6::11])
    assert all(v % 5 == 0 for n, v in enumerate(p2) if n % 5 in (2, 3, 4))


def test_growth_edge_cases():
    out: list[int] = []
    _grow_quotient(out, (1,), 0)
    assert out == [1]
    _grow_quotient(out, (1,), 0)  # already long enough: no change
    assert out == [1]
    out = []
    _grow_quotient(out, (7,), 0)
    assert out == [7]
    # a src shorter than n_max + 1 reads as zero past its end
    short = [1, 1, 2]
    out = []
    _grow_quotient(out, short, 40)
    want: list[int] = []
    _grow_quotient(want, short + [0] * 38, 40)
    assert out == want
    oracle: list[int] = []
    _grow_quotient_oracle(oracle, short, 40)
    assert out == oracle


@settings(max_examples=60, deadline=None)
@given(
    src=st.lists(st.integers(-(10**30), 10**30), max_size=60),
    start=st.integers(0, 80),
    n_max=st.integers(0, 160),
)
def test_growth_matches_list_comprehension_oracle(src, start, n_max):
    prefix: list[int] = []
    _grow_quotient_oracle(prefix, src, start - 1)
    got, want = prefix[:], prefix[:]
    _grow_quotient(got, src, n_max)
    _grow_quotient_oracle(want, src, n_max)
    assert got == want


def test_growth_holds_only_its_values():
    # a grow allocates its values and keeps nothing else: no gathered tuple
    # may outlive its step (a free list that is pushed but never popped
    # would hold one per step of a 20-offset segment)
    warm: list[int] = []
    _grow_quotient(warm, (1,), 1000)
    for src in ((1,), warm):
        before = sys.getallocatedblocks()
        out: list[int] = []
        _grow_quotient(out, src, 1000)
        assert sys.getallocatedblocks() - before <= len(out) + 50


def test_p_and_p2_match_oracle_to_3000():
    for src in ((1,), p_values(3000)):
        want: list[int] = []
        _grow_quotient_oracle(want, src, 3000)
        got: list[int] = []
        _grow_quotient(got, src, 3000)
        assert got == want
    assert got == p2_values(3000)


def _mul(a, b):
    """Schoolbook product of two coefficient lists, truncated to the shorter."""
    n = min(len(a), len(b))
    return [sum(a[i] * b[k - i] for i in range(k + 1)) for k in range(n)]


def test_series_invert_geometric():
    assert series_invert([1, -1] + [0] * 8) == [1] * 10


def test_series_invert_rejects_non_unit():
    with pytest.raises(ValueError):
        series_invert([2, 1])
    with pytest.raises(ValueError):
        series_invert([])


@given(
    st.lists(st.integers(-9, 9), min_size=0, max_size=20),
    st.sampled_from([1, -1]),
)
@settings(max_examples=120)
def test_series_invert_properties(tail, unit):
    s = [unit] + tail
    inv = series_invert(s)
    assert _mul(s, inv) == [1] + [0] * len(tail)
    assert series_invert(inv) == s


def test_inverse_of_squared_even_product_is_pair_counts():
    s = euler_factor_product(24)
    inv = series_invert(s)
    p2 = p2_values(12)
    for m in range(13):
        assert inv[2 * m] == p2[m]
    for m in range(12):
        assert inv[2 * m + 1] == 0


def test_pbar_eta_anchors():
    assert pbar_eta(0, 2) == 2
    assert pbar_eta(0, 4) == 5
    assert pbar_eta(0, 12) == 65
    assert pbar_eta(2, 6) == 1  # the lone staircase (3,2,1)
    assert pbar_eta(2, 8) == 2
    # off-support: parity and minimum size
    assert pbar_eta(0, 3) == 0
    assert pbar_eta(2, 4) == 0
    assert pbar_eta(-2, 9) == 0
    with pytest.raises(ValueError):
        pbar_eta(0, -1)


def test_pbar_matches_enumeration():
    for n in range(15):
        census = rank_census(n)
        by_rank = {}
        for (j, _m), c in census.items():
            by_rank[j] = by_rank.get(j, 0) + c
        for j in range(-3, 4):
            assert pbar_eta(j, n) == by_rank.get(j, 0)


def test_rank_counts_partition_p():
    pv = p_values(40)
    for n in range(41):
        assert sum(pbar_eta(j, n) for j in ranks_with_support(n)) == pv[n]


def test_stat_tables():
    t = StatTable("p", {}, p_values(6))
    assert t.kind == "p" and t.values == [1, 1, 2, 3, 5, 7, 11]
    assert t.csv == "n,value\n0,1\n1,1\n2,2\n3,3\n4,5\n5,7\n6,11\n"
    # built from its text, as the loader builds it, a table parses the same values
    back = StatTable._from_csv("p", {}, t.csv, 6)
    assert (back.kind, back.params, back.csv, back.n_max) == (t.kind, t.params, t.csv, t.n_max)
    assert back.values == t.values
    tb = StatTable("pbar_j", {"j": 0}, pbar_values(0, 12))
    assert tb.values[12] == 65 and tb.params == {"j": 0}
    # a table made from values reads n_max off their count
    assert tb.n_max == 12 and StatTable("p", {}, [1]).n_max == 0
    with pytest.raises(ValueError):
        StatTable("p", {}, [1, -2])


# ---------------------------------------------------------------------------
# crank-sum route


def test_orthogonality_failure_is_loud(monkeypatch):
    import bgrank.series as series_mod

    real = series_mod.pbar_values

    def off_by_one(j, n_max):
        values = real(j, n_max)
        values[4] += 1
        return values

    monkeypatch.setattr(series_mod, "pbar_values", off_by_one)
    with pytest.raises(OrthogonalityError, match="pbar"):
        series_mod.pbar_abn_values(0, 5, 8)


def test_pbar_abn_examples():
    t = pbar_abn_values(0, 2, 4)
    assert (t[0][2], t[1][2]) == (0, 2)
    t5 = pbar_abn_values(0, 5, 4)
    assert [t5[a][4] for a in range(5)] == [1, 1, 1, 1, 1]


def test_pbar_abn_sums_to_pbar():
    for j in (0, 1, 2, -2):
        for b in (2, 3, 4, 5):
            tables = pbar_abn_values(j, b, 30)
            want = pbar_values(j, 30)
            for n in range(31):
                assert sum(tables[a][n] for a in range(b)) == want[n]


def test_pbar_abn_matches_enumeration_including_composite_b(censuses_even_30):
    for n in range(0, 15, 2):
        census = censuses_even_30[n]
        for b in (2, 3, 4, 6):
            tables = pbar_abn_values(0, b, n)
            for a in range(b):
                enum = sum(c for (j, m), c in census.items() if j == 0 and m % b == a)
                assert tables[a][n] == enum


def test_pbar_abn_serves_prefix_of_larger_build():
    large = pbar_abn_values(1, 7, 120)
    small = pbar_abn_values(1, 7, 41)
    assert small == [row[:42] for row in large]
    assert [row[:121] for row in pbar_abn_values(1, 7, 201)] == large


def test_pbar_abn_builds_once_per_call(monkeypatch):
    import bgrank.series as series_mod

    builds = []
    real = series_mod._residue_rows

    def spy(b, nq):
        builds.append((b, nq))
        return real(b, nq)

    monkeypatch.setattr(series_mod, "_residue_rows", spy)
    # no memo: every call builds once, a repeated call builds again
    for _ in range(2):
        pbar_abn_values(1, 7, 41)
        pbar_abn_table(0, 3, 7, 40)
    assert builds == [(7, 20), (7, 20)] * 2
    # zero classes and cores past n_max build nothing
    assert pbar_abn_table(0, 30, 70, 40) == [0] * 41
    assert pbar_abn_table(3, 0, 7, 10) == [0] * 11
    assert pbar_abn_values(3, 7, 10) == [[0] * 11] * 7
    assert len(builds) == 4


def test_pbar_abn_values_shares_rows_and_stays_small():
    import tracemalloc

    b = 10**5
    p2_values(20)  # the memo the build reads
    tracemalloc.start()
    try:
        v = pbar_abn_values(0, b, 40)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # one list per class would peak at some 37 MiB
    assert peak < 4 * 1024 * 1024, peak
    assert all(v[a] is v[b - a] for a in range(1, b))
    assert v[30] is v[b // 2]
    assert [sum(t[n] for t in v) for n in range(41)] == pbar_values(0, 40)


@given(j=st.integers(-3, 3), b=st.integers(2, 12), data=st.data())
@settings(max_examples=60, deadline=None)
def test_pbar_abn_matches_bivariate_and_enumeration(j, b, data, censuses_even_30):
    a = data.draw(st.integers(0, b - 1), label="a")
    n = data.draw(st.integers(0, 60), label="n")
    count = pbar_abn_values(j, b, n)[a][n]
    assert count == class_sum(joint_table(j, n)[n], a, b)
    if n in censuses_even_30:
        census = censuses_even_30[n]
        assert count == sum(c for (jj, m), c in census.items() if jj == j and m % b == a)


def test_pbar_abn_table_wrapper():
    t = pbar_abn_table(0, 1, 2, 6)
    assert t == pbar_abn_values(0, 2, 6)[1]
    assert t[2] == 2
    with pytest.raises(ValueError):
        pbar_abn_table(0, 2, 2, 6)


@pytest.mark.parametrize("b", [50, 97, 10**6])
def test_pbar_abn_large_b_classes(b):
    # classes a with min(a, b - a) > n/2 are zero through n and build no row
    for j in (0, 1, -2):
        joint = joint_table(j, 40)
        for a in (0, 1, 2, 20, 21, b // 2, b - 1, b - 20):
            assert pbar_abn_table(j, a, b, 40) == [class_sum(row, a, b) for row in joint]
    if b < 100:
        tables = pbar_abn_values(-1, b, 40)
        assert [sum(t[n] for t in tables) for n in range(41)] == pbar_values(-1, 40)


def test_pbar_abn_table_memory_does_not_grow_with_b(monkeypatch):
    import tracemalloc

    import bgrank.series as series_mod

    p2_values(5)  # the memo the build reads
    tracemalloc.start()
    try:
        row = pbar_abn_table(0, 0, 10**6, 10)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # building all b classes would peak at some 200 MB
    assert peak < 64 * 1024, peak
    assert row == [class_sum(r, 0, 10**6) for r in joint_table(0, 10)]


# ---------------------------------------------------------------------------
# bivariate route


def class_sum(row, a, b):
    """Joint-table row summed over quotient ranks m = a mod b."""
    return sum(c for m, c in row.items() if m % b == a)


def test_joint_examples():
    joint = joint_table(0, 8)
    assert len(joint) == 9
    assert joint[4] == {-2: 1, -1: 1, 0: 1, 1: 1, 2: 1}
    assert joint[1] == {}


def test_joint_symmetry_and_collapse():
    for j in (0, 2, -2):
        joint = joint_table(j, 30)
        for n, row in enumerate(joint):
            for m, c in row.items():
                assert row.get(-m) == c
            assert sum(row.values()) == pbar_eta(j, n)


def test_joint_matches_enumeration():
    for n in range(13):
        census = rank_census(n)
        row = joint_table(0, n)[n]
        assert row == {m: c for (j, m), c in census.items() if j == 0}


def test_joint_cap():
    with pytest.raises(ValueError):
        joint_table(0, 61)


def _refusal(call):
    """The message of the ValueError ``call()`` raises, or None."""
    try:
        call()
    except ValueError as exc:
        return str(exc)
    return None


@given(a=st.integers(-3, 8), b=st.integers(-3, 8), n_max=st.integers(-3, 60))
@settings(max_examples=120, deadline=None)
def test_builders_refuse_exactly_what_check_table_request_refuses(a, b, n_max):
    # each builder states the request rules through the one check: it refuses
    # a request exactly when the check does, with its message, else it builds;
    # a case is (the check's arguments, the builder, the rows of its table)
    cases = [
        ((n_max,), lambda: p_values(n_max), n_max + 1),
        ((n_max,), lambda: p2_values(n_max), n_max + 1),
        ((n_max,), lambda: pbar_values(0, n_max), n_max + 1),
        ((n_max, a, b), lambda: pbar_abn_table(0, a, b, n_max), n_max + 1),
        ((n_max, None, b), lambda: pbar_abn_values(0, b, n_max), b),
        ((n_max,), lambda: joint_table(0, n_max), n_max + 1),
    ]
    for request, build, rows in cases:
        refused = _refusal(lambda: check_table_request(*request))
        assert _refusal(build) == refused, request
        if refused is None:
            assert len(build()) == rows, request


def test_dual_route_agreement_to_cap():
    # crank sums vs bivariate sieve over the whole bivariate range
    for j in (0, 2):
        joint = joint_table(j, 60)
        from bgrank.partitions import bg_core_size

        shift = bg_core_size(j)
        for b in (2, 3, 5):
            tables = pbar_abn_values(j, b, 60)
            for n in range(61):
                if (n - shift) % 2 or n < shift:
                    assert all(tables[a][n] == 0 for a in range(b))
                    continue
                for a in range(b):
                    assert tables[a][n] == class_sum(joint[n], a, b), (j, b, n, a)


def test_triple_route_agreement_small(censuses_even_30):
    from bgrank.partitions import bg_core_size

    for n in range(0, 17, 2):
        census = censuses_even_30[n]
        for j in (0, 2, -2):
            if bg_core_size(j) > n:
                continue
            row = joint_table(j, n)[n]
            for b in (2, 3, 5):
                tables = pbar_abn_values(j, b, n)
                for a in range(b):
                    enum = sum(c for (jj, m), c in census.items() if jj == j and m % b == a)
                    assert enum == tables[a][n] == class_sum(row, a, b)
