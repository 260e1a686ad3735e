"""Jensen/Sturm/Hermite machinery: exact certificates and float limits."""

import math
import operator
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bgrank import turan
from bgrank.series import p2_values, p_values, pbar_abn_table, pbar_abn_values
from bgrank.turan import (
    TURAN_ORDERS,
    _distinct_real_roots,
    _exact_sign,
    _float_signs,
    _floats,
    _hermite_probes,
    _signs_alternate,
    hermite,
    hermite_distance,
    hyperbolicity_onset,
    is_hyperbolic,
    jensen_poly,
    onset_atlas,
    renorm_sequences_step2,
    renormalized_jensen,
    sturm_chain,
    turan_report,
)

PI = math.pi


@pytest.fixture(scope="module")
def p2_seq():
    return p2_values(520)


def test_jensen_examples(p2_seq):
    assert jensen_poly(p2_seq, 1, 0) == (1, 2)
    assert jensen_poly(p2_seq, 2, 2) == (5, 20, 20)  # pair counts 5, 10, 20
    assert jensen_poly(p2_seq, 2, 0) == (1, 4, 5)
    with pytest.raises(ValueError):
        jensen_poly([1, 2], 2, 1)
    with pytest.raises(ValueError):
        jensen_poly(p2_seq, 0, 0)


def _distinct(coeffs):
    return _distinct_real_roots(sturm_chain(coeffs))


def test_sturm_examples():
    assert _distinct([-2, 0, 1]) == 2  # X^2 - 2
    assert _distinct([1, 0, 1]) == 0  # X^2 + 1
    assert _distinct([5, 20, 20]) == 1  # double root
    assert _distinct([3]) == 0
    with pytest.raises(ValueError):
        sturm_chain([0, 0])


def test_sturm_chain_invariant():
    # X^2 - 2, 2X -> X, remainder -2 negated and made primitive
    assert sturm_chain([-2, 0, 1]) == ((-2, 0, 1), (0, 1), (1,))
    assert _distinct([-2, 0, 1]) == 2
    # 5 (2X + 1)^2: the last member is gcd(p, p') = 2X + 1
    assert sturm_chain([5, 20, 20]) == ((1, 4, 4), (1, 2))
    assert _distinct([5, 20, 20]) == 1
    # integer coefficients only: no rational or float input path
    for coeffs in ([Fraction(-1, 2), 0, Fraction(1, 4)], [-2.0, 0, 1]):
        with pytest.raises(TypeError):
            sturm_chain(coeffs)
        with pytest.raises(TypeError):
            is_hyperbolic(coeffs)


def test_is_hyperbolic_examples(p2_seq):
    assert is_hyperbolic(jensen_poly(p2_seq, 1, 7))  # any degree 1
    assert is_hyperbolic(jensen_poly(p2_seq, 2, 2))  # double root
    assert not is_hyperbolic(jensen_poly(p2_seq, 2, 0))  # discriminant 16 - 20 < 0
    assert is_hyperbolic([6, 5, 1])  # (X+2)(X+3)
    assert is_hyperbolic([0, 0, 0, 1])  # X^3, triple root at 0
    assert not is_hyperbolic([1, 1, 1, 1, 0, 1])


def test_zero_polynomial_is_hyperbolic_without_a_chain(monkeypatch):
    # real-rooted by convention (Borcea-Branden), so the zero derivative of a
    # constant keeps Rolle's inheritance sound; sturm_chain still refuses it
    chains = _chain_spy(monkeypatch)
    assert is_hyperbolic([0, 0, 0]) and is_hyperbolic([0]) and is_hyperbolic([])
    assert chains == []
    with pytest.raises(ValueError, match="zero polynomial has no Sturm chain"):
        sturm_chain([0, 0, 0])
    with pytest.raises(TypeError):
        is_hyperbolic([0.0, 0.0])


def _chain_spy(monkeypatch):
    """The list of every polynomial handed to sturm_chain from here on."""
    chains = []

    def spy(coeffs):
        chains.append(coeffs)
        return sturm_chain(coeffs)

    monkeypatch.setattr(turan, "sturm_chain", spy)
    return chains


def test_one_chain_per_certificate(monkeypatch):
    chains = _chain_spy(monkeypatch)
    assert is_hyperbolic([0, 0, 0, 1])  # X^3
    assert not is_hyperbolic([1, 0, 2, 0, 1])  # (X^2 + 1)^2
    assert len(chains) == 2


@given(st.integers(-50, 50), st.integers(-50, 50), st.integers(-50, 50))
@settings(max_examples=200)
def test_hyperbolic_iff_discriminant_on_quadratics(a, b, c):
    if c == 0:
        return
    disc = b * b - 4 * a * c
    assert is_hyperbolic([a, b, c]) == (disc >= 0)
    want_distinct = 2 if disc > 0 else (1 if disc == 0 else 0)
    assert _distinct([a, b, c]) == want_distinct


def _poly_mul(p, q):
    out = [0] * (len(p) + len(q) - 1)
    for i, x in enumerate(p):
        for k, y in enumerate(q):
            out[i + k] += x * y
    return out


# (r, a, mult): the factor (aX - r)^mult
linear_factors = st.tuples(st.integers(-6, 6), st.integers(1, 3), st.integers(1, 3))
# (b, c, mult): the factor (X^2 + bX + c)^mult with b^2 < 4c, no real root
complex_quadratics = st.tuples(st.integers(-4, 4), st.integers(1, 3)).flatmap(
    lambda bm: st.integers(bm[0] ** 2 // 4 + 1, 20).map(lambda c: (bm[0], c, bm[1]))
)


@given(
    st.lists(linear_factors, max_size=3),
    st.lists(complex_quadratics, max_size=2),
    st.integers(-9, 9).filter(bool),
)
@settings(max_examples=300, deadline=None)
def test_planted_roots(linears, quadratics, const):
    poly = [const]
    for r, a, mult in linears:
        for _ in range(mult):
            poly = _poly_mul(poly, [-r, a])
    for b, c, mult in quadratics:
        for _ in range(mult):
            poly = _poly_mul(poly, [c, b, 1])
    distinct = len({Fraction(r, a) for r, a, _ in linears})
    assert _distinct(poly) == distinct
    assert is_hyperbolic(poly) == (not quadratics)


def test_hermite_values():
    assert hermite(0) == [1]
    assert hermite(1) == [0, 1]
    assert hermite(2) == [-2, 0, 1]
    assert hermite(3) == [0, -6, 0, 1]
    assert hermite(4) == [12, 0, -12, 0, 1]
    with pytest.raises(ValueError):
        hermite(-1)


def test_hermite_distance_needs_d_plus_one_coefficients():
    assert hermite_distance([-2.0, 0.5, 1.0], 2) == 0.5
    for coeffs in ([-2.0, 0.0], [-2.0, 0.0, 1.0, 0.0]):
        with pytest.raises(ValueError):
            hermite_distance(coeffs, 2)


def test_hermite_recurrence_and_hyperbolicity():
    for d in range(1, 9):
        lhs = hermite(d + 1)
        rhs = [0] + hermite(d)
        for i, c in enumerate(hermite(d - 1)):
            rhs[i] -= 2 * d * c
        assert lhs == rhs
    for d in range(1, 7):
        assert is_hyperbolic(hermite(d))


def test_step2_pair_consistency():
    # the step-2 pair is the doubled closed-form leading pair at 2n,
    # A = pi/sqrt(12n) and delta^2 = pi sqrt(2/3)/8 (2n)^(-3/2), plus the
    # exact 1/n correction
    for n in (100, 1000):
        lead_a = PI / math.sqrt(12 * n)
        lead_d2 = PI * math.sqrt(2 / 3) / 8 * (2 * n) ** -1.5
        a, delta = renorm_sequences_step2(n)
        assert a == pytest.approx(2 * lead_a - 1.25 / n, rel=1e-12)
        assert delta**2 == pytest.approx(4 * lead_d2 - 0.625 / n**2, rel=1e-12)
    assert renorm_sequences_step2(2)[1] > 0
    with pytest.raises(ValueError, match="n = 1"):
        renorm_sequences_step2(1)  # quadratic coefficient goes negative
    with pytest.raises(ValueError, match="n must be >= 1"):
        renorm_sequences_step2(0)


def test_renormalized_degree1_approaches_identity(p2_seq):
    coeffs = renormalized_jensen(p2_seq, 1, 500, renorm_sequences_step2(500))
    assert abs(coeffs[0]) < 0.01
    assert coeffs[1] == pytest.approx(1.0, abs=1e-4)


def test_renormalized_rejects_nonpositive():
    with pytest.raises(ValueError):
        renormalized_jensen([1, 0, 2], 2, 0, renorm_sequences_step2(5))


def test_renormalized_leading_coefficient_tends_to_one(p2_big):
    for d in (2, 3, 4):
        lead = []
        for n in (1000, 10000):
            coeffs = renormalized_jensen(p2_big, d, n, renorm_sequences_step2(n))
            lead.append(coeffs[-1])
        assert abs(lead[1] - 1) < abs(lead[0] - 1)
        assert lead[1] == pytest.approx(1.0, abs=1e-4)


def test_turan_order2_pattern(p2_seq):
    rep = turan_report(p2_seq, "2", (1, 500))
    # genuine exceptional set: 2^2 < 1*5 at m=1 and 36^2 = 1296 < 20*65 = 1300 at m=5
    assert rep.failures == (1, 5)
    assert rep.equalities == (3,)  # 10^2 = 5*20
    assert not rep.holds
    rep = turan_report(p2_seq, "2", (6, 500))
    assert rep.holds


def test_turan_order3_onset(p2_seq):
    rep = turan_report(p2_seq, "3", (24, 496))
    assert rep.holds
    rep = turan_report(p2_seq, "3", (0, 23))
    assert 23 in rep.failures and 0 in rep.failures


def test_turan_geometric_sequence_is_all_equalities():
    # a_m = 3^m makes both sides of each inequality equal, for either order
    seq = [3**k for k in range(12)]
    for order in ("2", "3"):
        rep = turan_report(seq, order, (1, 5))
        assert (rep.holds, rep.failures, rep.equalities) == (True, (), (1, 2, 3, 4, 5))
    rep = turan_report(seq, "3", (0, 5))
    assert (rep.holds, rep.failures, rep.equalities) == (True, (), (0, 1, 2, 3, 4, 5))


def test_turan_convexity_pattern(p2_seq):
    rep = turan_report(p2_seq, "convexity", (1, 100))
    assert rep.failures == ((1, 1), (1, 2), (1, 3))
    assert not rep.holds
    rep = turan_report(p2_seq, "convexity", (2, 100))
    assert rep.holds


def _convexity_oracle(seq, lo, hi):
    """The convexity scan over every pair n1 <= n2: the reference."""
    failures, equalities = [], []
    for n1 in range(lo, hi + 1):
        for n2 in range(n1, hi + 1):
            lhs, rhs = seq[n1] * seq[n2], seq[n1 + n2]
            if lhs <= rhs:
                failures.append((n1, n2))
                if lhs == rhs:
                    equalities.append((n1, n2))
    return (not failures, tuple(failures), tuple(equalities))


def _p2_moved(case):
    """p2(0..2h) with entry i (counted down from 2h) scaled by num/den: a dip
    breaks order 2 at i, a bump next to it, a zero or a sign flip positivity."""
    h, back, (num, den) = case
    seq = p2_values(2 * h)
    i = max(0, 2 * h - back)
    seq[i] = seq[i] * num // den
    return seq


convexity_sequences = st.one_of(
    st.lists(st.integers(-3, 12), min_size=1, max_size=41),
    st.tuples(
        st.integers(1, 30),
        st.integers(0, 60),
        st.sampled_from([(1, 1), (0, 1), (-1, 1), (1, 10**9), (1, 2), (3, 2), (10**6, 1)]),
    ).map(_p2_moved),
)


@given(convexity_sequences, st.data())
@settings(max_examples=400, deadline=None)
def test_convexity_scan_equals_the_pairwise_oracle(seq, data):
    hi = (len(seq) - 1) // 2
    lo = data.draw(st.sampled_from(sorted({0, min(1, hi), data.draw(st.integers(0, hi))})))
    assert tuple(turan_report(seq, "convexity", (lo, hi))) == _convexity_oracle(seq, lo, hi)


def test_convexity_scan_equals_the_pairwise_oracle_on_class_sequences(p2_seq):
    # p and p̄_0(0, 2; 2m), which has zeros, besides the pair counts
    for seq in (p2_seq, p_values(300), pbar_abn_values(0, 2, 600)[0][0::2]):
        for lo, hi in ((0, 150), (1, 150), (2, 120)):
            assert tuple(turan_report(seq, "convexity", (lo, hi))) == _convexity_oracle(seq, lo, hi)


class _CountingList(list):
    """A list that counts the entries read through indexing."""

    reads = 0

    def __getitem__(self, i):
        got = super().__getitem__(i)
        self.reads += len(got) if isinstance(i, slice) else 1
        return got


def test_convexity_scan_reads_linearly_many_entries():
    hi = 2000
    seq = _CountingList(p2_values(2 * hi))
    assert turan_report(seq, "convexity", (2, hi)).holds
    # 13 hi: 5 reads an index of [1, 2 hi] for the log-concave tail and 3 an
    # n1 for the pairs, where the pairwise scan reads about 3 hi^2 / 2
    assert seq.reads <= 16 * hi


def test_turan_constant_sequence():
    rep = turan_report([7] * 30, "2", (1, 28))
    assert rep.holds
    assert rep.equalities == tuple(range(1, 29))


def test_turan_report_is_frozen():
    rep = turan_report([7] * 5, "2", (1, 3))
    assert repr(rep) == "TuranReport(holds=True, failures=(), equalities=(1, 2, 3))"
    with pytest.raises(AttributeError):
        rep.holds = False


def test_turan_validation():
    with pytest.raises(ValueError):
        turan_report([1, 2, 3], "2", (0, 1))
    with pytest.raises(ValueError):
        turan_report([1, 2, 3], "4", (1, 1))
    with pytest.raises(ValueError):
        turan_report([1, 2, 3], "2", (2, 1))


def test_order2_verdict_equals_degree2_hyperbolicity(p2_seq):
    # J^{2,m} hyperbolic iff log-concavity holds at m+1 (same discriminant)
    for m in range(0, 60):
        rep = turan_report(p2_seq, "2", (m + 1, m + 1))
        assert is_hyperbolic(jensen_poly(p2_seq, 2, m)) == rep.holds


def test_hyperbolicity_onsets_exact(p2_seq):
    t0 = time.time()
    onsets = {d: hyperbolicity_onset(p2_seq, d, 500) for d in (2, 3, 4, 5)}
    assert onsets == {2: 5, 3: 24, 4: 61, 5: 121}
    # the boundary cases certify the onset is sharp
    for d, m0 in onsets.items():
        assert not is_hyperbolic(jensen_poly(p2_seq, d, m0 - 1))
        assert is_hyperbolic(jensen_poly(p2_seq, d, m0))
    assert time.time() - t0 < 60


def test_hyperbolicity_onset_windows(p2_seq):
    for d in (2, 3):
        hyp = [is_hyperbolic(jensen_poly(p2_seq, d, m)) for m in range(41)]
        for hi in range(41):
            # smallest m0 >= 0 with every m in [m0, hi] hyperbolic
            want = next((m0 for m0 in range(hi + 1) if all(hyp[m0 : hi + 1])), None)
            assert hyperbolicity_onset(p2_seq, d, hi) == want


def test_hyperbolicity_onset_window_validation(p2_seq):
    # an empty window has no onset
    assert hyperbolicity_onset(p2_seq, 2, -1) is None
    # a sequence too short for J^{d,hi}, or a degree below 1, is refused
    # before any shift is settled
    for d in (1, 3):
        with pytest.raises(ValueError, match=rf"sequence must be defined on \[8, {8 + d}\]"):
            hyperbolicity_onset(p2_seq[: 8 + d], d, 8)
    with pytest.raises(ValueError, match="d must be >= 1"):
        hyperbolicity_onset(p2_seq, 0, 8)


def _sturm_onset(seq, d, hi):
    """hyperbolicity_onset with one Sturm chain per shift: the reference."""
    for m in range(hi, -1, -1):
        if not is_hyperbolic(jensen_poly(seq, d, m)):
            return None if m == hi else m + 1
    return 0 if hi >= 0 else None


def test_onset_equals_sturm_only_scan(p2_seq):
    for d in range(2, 9):
        assert hyperbolicity_onset(p2_seq, d, 500) == _sturm_onset(p2_seq, d, 500)
    # a class sequence with a zero entry: p̄_0(0, 2; 2m)
    class_seq = pbar_abn_values(0, 2, 500)[0][0::2]
    assert class_seq[1] == 0
    for d in range(2, 6):
        assert hyperbolicity_onset(class_seq, d, 240) == _sturm_onset(class_seq, d, 240)


def test_onset_of_a_sequence_with_an_all_zero_window():
    # alpha = p̄_0(3, 7; 2m) starts 0, 0, 0, 1, 2, 4, 8, 14, so J^{d,0} is
    # the zero polynomial for d <= 2 and J^{d,m} has zero coefficients near 0
    alpha = pbar_abn_table(0, 3, 7, 3012)[0::2]
    assert alpha[:8] == [0, 0, 0, 1, 2, 4, 8, 14]
    for d in range(2, 7):
        assert hyperbolicity_onset(alpha, d, 1500) == _sturm_onset(alpha, d, 1500)
    assert onset_atlas(alpha, 6, 1500) == _atlas_oracle(alpha, 6, 1500)


def test_onset_builds_few_chains(p2_seq, monkeypatch):
    chains = _chain_spy(monkeypatch)
    assert hyperbolicity_onset(p2_seq, 6, 500) == 202
    # 299 certified shifts; the failing one (m = 201) always needs its chain
    assert len(chains) <= 20
    assert jensen_poly(p2_seq, 6, 201) in chains


def test_degree1_onset_is_sturm_only(p2_seq, monkeypatch):
    want = [_sturm_onset(p2_seq, 1, hi) for hi in range(41)]
    chains = _chain_spy(monkeypatch)
    assert [hyperbolicity_onset(p2_seq, 1, hi) for hi in range(41)] == want
    assert len(chains) == sum(hi + 1 for hi in range(41))  # one chain per shift


def _atlas_oracle(seq, max_d, hi):
    """onset_atlas with one Sturm chain per shift and no inheritance: the
    reference."""
    rows = []
    for d in range(2, max_d + 1):
        m0 = _sturm_onset(seq, d, hi)
        below = None if m0 is None else [m for m in range(m0) if not is_hyperbolic(jensen_poly(seq, d, m))]
        rows.append((d, m0, below))
    return rows


def test_onset_atlas_equals_the_sturm_only_rows(p2_seq):
    p2 = p2_values(524)
    assert onset_atlas(p2, 24, 500) == _atlas_oracle(p2, 24, 500)
    p = p_values(420)
    assert onset_atlas(p, 8, 400) == _atlas_oracle(p, 8, 400)
    # rows with a None onset, and an empty window
    assert onset_atlas(p2_seq, 6, 100) == _atlas_oracle(p2_seq, 6, 100)
    assert onset_atlas(p2_seq, 4, -1) == [(d, None, None) for d in (2, 3, 4)]


@given(st.lists(st.integers(1, 60), min_size=16, max_size=16))
@settings(max_examples=300, deadline=None)
def test_onset_atlas_equals_the_sturm_only_rows_on_positive_sequences(seq):
    # the inheritance must hold for any sequence: on p2 an unsound one, a
    # failure at (d - 1, m - 1) taken as one at (d, m), gives the same rows
    assert onset_atlas(seq, 5, 10) == _atlas_oracle(seq, 5, 10)


@given(st.lists(st.one_of(st.just(0), st.integers(0, 60)), min_size=16, max_size=16))
@settings(max_examples=300, deadline=None)
def test_onset_atlas_equals_the_sturm_only_rows_on_sequences_with_zeros(seq):
    # zero windows make zero Jensen polynomials, and runs of zeros make
    # constants whose derivative is zero
    assert onset_atlas(seq, 5, 10) == _atlas_oracle(seq, 5, 10)


def test_onset_atlas_inherits_failures_below_by_rolle(monkeypatch):
    seq = p2_values(524)
    chains = _chain_spy(monkeypatch)
    rows = onset_atlas(seq, 24, 500)
    below = {jensen_poly(seq, d, m) for d, m0, _ in rows if m0 is not None for m in range(m0)}
    # 702 of the 1162 shifts below the onsets fail at d - 1 and m + 1 and
    # take no chain, and the Turan inequalities settle d = 2 and 3 with none,
    # so every chain below the onsets is one of the 432 other shifts at d >= 4
    assert sum(c in below for c in chains) <= 432
    assert len(chains) <= 500


def _value(coeffs, x):
    return sum(c * x**k for k, c in enumerate(coeffs))


def test_hermite_probes_separate_the_zeros():
    assert _hermite_probes(2) == [0.0]
    for d in range(2, 13):
        probes = _hermite_probes(d)
        assert len(probes) == d - 1 and probes == sorted(probes)
        # H_d's signs at -oo, at the probes and at +oo alternate: a zero
        # between each two
        signs = [(-1) ** d, *(_sign_at(hermite(d), x) for x in probes), 1]
        assert all(u == -v for u, v in zip(signs, signs[1:]))


def _hermite_zeros(d, probes):
    """H_d's zeros, by bisection between the probes and out to 2 sqrt(2d + 1)."""
    h, bound = hermite(d), 2 * math.sqrt(2 * d + 1)
    zeros = []
    for lo, hi in zip([-bound, *probes], [*probes, bound]):
        for _ in range(60):
            mid = (lo + hi) / 2
            if (_value(h, mid) > 0) == (_value(h, lo) > 0):
                lo = mid
            else:
                hi = mid
        zeros.append((lo + hi) / 2)
    return zeros


def test_float_gate_is_set_by_the_interior_probes():
    # min |H_d| over the midpoints is never above its value one gap beyond
    # an end zero, so those two points would not move the gate, and the
    # certificate reads each degree's gate and probes from one cached tuple
    for d in range(2, 25):
        probes = _hermite_probes(d)
        zeros = _hermite_zeros(d, probes)
        outer = [2 * zeros[0] - zeros[1], *probes, 2 * zeros[-1] - zeros[-2]]
        outer_gate = turan._float_gate(d, outer)
        assert turan._float_gate(d, probes) == outer_gate < math.inf
        binoms = tuple(math.comb(d, k) for k in range(d + 1))
        assert turan._jensen_certificate(d) == (binoms, tuple(map(float, binoms)), tuple(probes), outer_gate)


def test_certificate_settles_hyperbolic_jensen_polynomials(p2_seq):
    probes = _hermite_probes(4)
    assert _signs_alternate(jensen_poly(p2_seq, 4, 300), p2_seq[300:303], probes)
    # d - 2 points between -oo and +oo would show only d - 1 roots, and the
    # intermediate value theorem needs the points in increasing order
    for wrong in (probes[1:], probes[::-1]):
        assert not _signs_alternate(jensen_poly(p2_seq, 4, 300), p2_seq[300:303], wrong)
    # J^{4,60} is not hyperbolic: unsettled, never rejected
    assert not _signs_alternate(jensen_poly(p2_seq, 4, 60), p2_seq[60:63], probes)


def test_certificate_reads_the_leading_coefficients_sign(p2_seq):
    # -p has p's roots and the opposite sign at every point and at +-oo
    for d in range(2, 7):
        probes = _hermite_probes(d)
        p = jensen_poly(p2_seq, d, 300)
        assert _signs_alternate(p, p2_seq[300:303], probes)
        assert _signs_alternate([-c for c in p], p2_seq[300:303], probes)
        assert not _signs_alternate([-c for c in jensen_poly(p2_seq, d, 0)], p2_seq[0:3], probes)


def test_degree2_certificate_has_one_probe(p2_seq):
    # J^{2,m}: +-oo and the one point x = -1/e^A; hyperbolic iff order 2
    # holds at m + 1, and the certificate settles the strict case
    assert _hermite_probes(2) == [0.0]
    for m in (0, 1, 4, 5, 300):
        certified = _signs_alternate(jensen_poly(p2_seq, 2, m), p2_seq[m : m + 3], [0.0])
        assert certified == (m not in (0, 4)) == turan_report(p2_seq, "2", (m + 1, m + 1)).holds
        assert not _signs_alternate(jensen_poly(p2_seq, 2, m), p2_seq[m : m + 3], [])


def _planted_quadratic(x1, x2, x3):
    """(X - r1)(X - r2), r1 and r2 dyadic in (x1, x2) and (x2, x3), with
    integer coefficients: signs +, -, + at x1 < x2 < x3."""
    k = 1 + max(Fraction(x).denominator for x in (x1, x2, x3)).bit_length()
    n1, n2 = (int((u + v) / 2 * 2**k) for u, v in ((x1, x2), (x2, x3)))
    return [n1 * n2, -(n1 + n2) * 2**k, 4**k]


def test_zero_leading_coefficient_is_never_settled(p2_seq, monkeypatch):
    # padded to degree 4, (X - r1)(X - r2) has the signs +, -, + at the
    # three points of J^{4,300}, the pattern four roots give with c_4 < 0;
    # with c_4 = 0 it has two roots and is left unsettled
    probes, alpha = _hermite_probes(4), p2_seq[300:303]
    a0, a1, a2 = alpha
    l1, l2 = math.log(a1 / a0), math.log(a2 / a0)
    delta, scale = math.sqrt(l1 - l2 / 2), math.exp(-(l1 + l1 - l2 / 2))
    xs = [(delta * eta - 1) * scale for eta in probes]
    quadratic = _planted_quadratic(*xs)
    assert [_sign_at(quadratic, x) for x in xs] == [1, -1, 1]
    assert not _signs_alternate([*quadratic, 0, 0], alpha, probes)
    # a window with alpha(m + d) = 0: J^{4,300} loses its X^4 term, and the
    # onset scan settles it by its chain alone
    seq = list(p2_seq)
    seq[304] = 0
    assert not _signs_alternate(jensen_poly(seq, 4, 300), seq[300:303], probes)
    chains = _chain_spy(monkeypatch)
    assert hyperbolicity_onset(seq, 4, 300) == _sturm_onset(seq, 4, 300)
    assert chains[0] == jensen_poly(seq, 4, 300)


# a degree-d list with c_d = 0: a Jensen polynomial of p2 with its top
# coefficient zeroed, or any integers
zero_lead = st.one_of(
    st.tuples(st.integers(2, 6), st.integers(0, 400)).map(
        lambda dm: ([*jensen_poly(p2_values(420), *dm)[:-1], 0], p2_values(420)[dm[1] : dm[1] + 3])
    ),
    st.tuples(
        st.integers(2, 6).flatmap(lambda d: st.lists(st.integers(-(10**6), 10**6), min_size=d, max_size=d)),
        st.lists(st.integers(-5, 10**6), min_size=3, max_size=3),
    ).map(lambda ca: ([*ca[0], 0], ca[1])),
)


@given(zero_lead)
@settings(max_examples=300, deadline=None)
def test_certificate_never_settles_a_zero_leading_coefficient(case):
    coeffs, alpha = case
    assert not _signs_alternate(coeffs, alpha, _hermite_probes(len(coeffs) - 1))


# a Jensen polynomial of p2 with each coefficient c moved to c + c t / 10^s,
# |t| <= 50: s = 3 breaks most, s = 11 few, so both verdicts occur
perturbed_jensen = st.tuples(st.integers(2, 6), st.integers(0, 400), st.integers(3, 11)).flatmap(
    lambda dms: st.tuples(st.just(dms), st.lists(st.integers(-50, 50), min_size=dms[0] + 1, max_size=dms[0] + 1))
)


@given(perturbed_jensen)
@settings(max_examples=300, deadline=None)
def test_certificate_never_accepts_a_non_hyperbolic_perturbation(case):
    (d, m, s), moves = case
    seq = p2_values(420)
    coeffs = [c + c * t // 10**s for c, t in zip(jensen_poly(seq, d, m), moves)]
    if _signs_alternate(coeffs, seq[m : m + 3], _hermite_probes(d)):
        assert is_hyperbolic(coeffs)


@given(
    st.integers(2, 6).flatmap(lambda d: st.lists(st.integers(-(10**6), 10**6), min_size=d + 1, max_size=d + 1)),
    st.lists(st.integers(-5, 10**6), min_size=3, max_size=3),
)
@settings(max_examples=300, deadline=None)
def test_certificate_never_accepts_a_non_hyperbolic_polynomial(coeffs, alpha):
    if _signs_alternate(coeffs, alpha, _hermite_probes(len(coeffs) - 1)):
        assert is_hyperbolic(coeffs)


def _signs_alternate_exact(coeffs, alpha, probes):
    """_signs_alternate with every sign at a point by exact integer Horner,
    and c_d's at +-oo: the oracle."""
    p = [operator.index(c) for c in coeffs]
    a0, a1, a2 = alpha
    if not p or p[-1] == 0 or a0 <= 0 or a1 <= 0 or a2 <= 0:
        return False
    try:
        l1, l2 = math.log(a1 / a0), math.log(a2 / a0)
        d2 = l1 - l2 / 2
        if not d2 > 0:
            return False
        delta, scale = math.sqrt(d2), math.exp(-(l1 + d2))
        xs = [(delta * eta - 1) * scale for eta in probes]
    except (OverflowError, ValueError):
        return False
    ascending = all(u < v for u, v in zip(xs, xs[1:]))
    if not 0 < len(xs) == len(p) - 2 or not ascending or not all(map(math.isfinite, xs)):
        return False
    d, lead = len(p) - 1, (p[-1] > 0) - (p[-1] < 0)
    signs = [(-1) ** d * lead]
    for x in xs:
        num, den = x.as_integer_ratio()
        acc, power = p[-1], 1
        for c in reversed(p[:-1]):
            power *= den
            acc = acc * num + c * power
        signs.append((acc > 0) - (acc < 0))
    signs.append(lead)
    return all(u * v == -1 for u, v in zip(signs, signs[1:]))


@given(perturbed_jensen)
@settings(max_examples=300, deadline=None)
def test_certificate_equals_the_exact_only_oracle_on_perturbations(case):
    (d, m, s), moves = case
    seq = p2_values(420)
    coeffs = [c + c * t // 10**s for c, t in zip(jensen_poly(seq, d, m), moves)]
    probes = _hermite_probes(d)
    assert _signs_alternate(coeffs, seq[m : m + 3], probes) == _signs_alternate_exact(coeffs, seq[m : m + 3], probes)


@given(
    st.integers(2, 6).flatmap(lambda d: st.lists(st.integers(-(10**6), 10**6), min_size=d + 1, max_size=d + 1)),
    st.lists(st.integers(-5, 10**6), min_size=3, max_size=3),
)
@settings(max_examples=300, deadline=None)
def test_certificate_equals_the_exact_only_oracle_on_any_polynomial(coeffs, alpha):
    probes = _hermite_probes(len(coeffs) - 1)
    assert _signs_alternate(coeffs, alpha, probes) == _signs_alternate_exact(coeffs, alpha, probes)


def _sign_at(coeffs, x):
    value = sum(c * Fraction(x) ** k for k, c in enumerate(coeffs))
    return (value > 0) - (value < 0)


# dyadic points, a few of them tiny enough for the filter's underflow rule
dyadic = st.builds(
    lambda n, k: n / 2**k, st.integers(-(2**30), 2**30), st.one_of(st.integers(0, 40), st.integers(40, 1080))
)
big_coefficient = st.one_of(st.integers(-(10**60), 10**60), st.integers(-(10**6), 10**6))


@given(
    st.integers(2, 12).flatmap(lambda d: st.lists(big_coefficient, min_size=d + 1, max_size=d + 1)),
    st.lists(dyadic, min_size=1, max_size=13),
    st.sampled_from([None, 10**400, -(10**309)]),
    st.integers(0, 12),
)
@settings(max_examples=400, deadline=None)
def test_float_filter_settles_only_exact_signs(coeffs, xs, huge, at):
    if huge is not None:  # a coefficient past the float range: every point defers
        coeffs[at % len(coeffs)] = huge
        assert _float_signs(_floats(coeffs), xs) == [0] * len(xs)
        return
    for x, sign in zip(xs, _float_signs(_floats(coeffs), xs), strict=True):
        assert sign == 0 or sign == _sign_at(coeffs, x) == _exact_sign(coeffs, x)


@given(
    st.integers(0, 9).flatmap(lambda d: st.lists(big_coefficient, min_size=d + 1, max_size=d + 1)),
    st.integers(1, 3),
    st.integers(-(2**40), 2**40),
    st.integers(0, 60),
    st.lists(st.integers(-64, 64), max_size=6),
)
@settings(max_examples=300, deadline=None)
def test_float_filter_defers_at_an_exact_dyadic_root(cofactor, power, num, k, ulps):
    # (2^k X - num)^power q(X) vanishes exactly at x = num / 2^k; the points a
    # few ulps away are where float Horner loses the most digits, and x / 256
    # keeps the bound's X = max |x_i| apart from min |x_i|
    x = num / 2**k
    assert Fraction(x) == Fraction(num, 2**k)
    coeffs = cofactor
    for _ in range(power):
        coeffs = [a * 2**k - num * b for a, b in zip([0, *coeffs], [*coeffs, 0])]
    if not any(coeffs) or len(coeffs) < 3:
        return
    points = sorted({x, x / 256, *(x + u * math.ulp(x) for u in ulps)})
    signs = _float_signs(_floats(coeffs), points)
    assert signs[points.index(x)] == 0
    assert _exact_sign(coeffs, x) == _sign_at(coeffs, x) == 0
    for y, sign in zip(points, signs):
        assert sign == 0 or sign == _sign_at(coeffs, y)


def test_float_signs_agree_with_exact_on_jensen_polynomials():
    settled = points = 0
    for seq in (p2_values(1020), p_values(1020)):
        for d in range(2, 15):
            probes = _hermite_probes(d)
            for m in range(30, 1000, 7):  # both log-concave from m = 26
                a0, a1, a2 = seq[m : m + 3]
                l1, l2 = math.log(a1 / a0), math.log(a2 / a0)
                d2 = l1 - l2 / 2
                delta, scale = math.sqrt(d2), math.exp(-(l1 + d2))
                xs = [(delta * eta - 1) * scale for eta in probes]
                p = jensen_poly(seq, d, m)
                points += len(xs)
                for x, sign in zip(xs, _float_signs(_floats(p), xs)):
                    if sign:
                        settled += 1
                        assert sign == _exact_sign(p, x)
    # 13757 of the 25298 points; every one at d <= 5
    assert settled > 0.46 * points


def _route_spies(monkeypatch):
    """Counts of float filter runs, of the points they are given, of the
    signs they settle, and of exact integer evaluations."""
    counts = {"filters": 0, "points": 0, "float": 0, "exact": 0}

    def float_spy(fcs, xs):
        signs = _float_signs(fcs, xs)
        counts["filters"] += 1
        counts["points"] += len(xs)
        counts["float"] += sum(map(bool, signs))
        # the d - 1 probes of degree d; +-oo take no evaluation
        assert len(xs) == len(fcs) - 2
        return signs

    def exact_spy(p, x):
        counts["exact"] += 1
        return _exact_sign(p, x)

    monkeypatch.setattr(turan, "_float_signs", float_spy)
    monkeypatch.setattr(turan, "_exact_sign", exact_spy)
    return counts


def test_onset_routes_signs_by_the_bound_and_the_gate(p2_seq, monkeypatch):
    counts = _route_spies(monkeypatch)
    # certify's scale: float64 settles every sign at every point of every
    # shift scanned
    assert [hyperbolicity_onset(p2_seq, d, 500) for d in range(2, 7)] == [5, 24, 61, 121, 202]
    assert counts["exact"] == 0 and counts["float"] == counts["points"] > 0 and counts["filters"] > 0
    # d = 8 over m <= 1200: delta is at or below the gate at every shift, so
    # no filter runs, and each of the 734 shifts certified of the 761 scanned
    # takes 7 exact signs
    counts.update(filters=0, points=0, float=0, exact=0)
    assert hyperbolicity_onset(p2_values(1210), 8, 1200) == 441
    assert counts["filters"] == 0 and counts["exact"] >= 7 * 734


def test_onset_of_non_integer_sequences_raises_type_error(p2_seq):
    for seq in ([Fraction(v, 2) for v in p2_seq[:40]], [float(v) for v in p2_seq[:40]]):
        for d in (2, 3):
            with pytest.raises(TypeError):
                hyperbolicity_onset(seq, d, 30)
        with pytest.raises(TypeError):
            onset_atlas(seq, 4, 30)
        with pytest.raises(TypeError):
            _signs_alternate(jensen_poly(seq, 3, 30), seq[30:33], _hermite_probes(3))
    # turan_report takes integers only, as the onset scan does: float entries
    # compare inexactly, and a float square leaves float64 from p2(10289)
    hand = [1.0, 2.0, 3.0, 3.5, 3.9]
    for seq in ([float(v) for v in p2_seq[:40]], hand, [Fraction(v).limit_denominator(10) for v in hand]):
        for order in TURAN_ORDERS:
            with pytest.raises(TypeError):
                turan_report(seq, order, (1, 1))


def test_degree2_and_degree3_onsets_take_no_probe_float_or_chain(p2_seq, monkeypatch):
    chains = _chain_spy(monkeypatch)
    counts = _route_spies(monkeypatch)
    certified, alternates = [], turan._alternates
    monkeypatch.setattr(turan, "_hermite_probes", lambda d: certified.append(d) or _hermite_probes(d))
    monkeypatch.setattr(turan, "_alternates", lambda *args: certified.append(args) or alternates(*args))
    assert [hyperbolicity_onset(p2_seq, d, 500) for d in (2, 3)] == [5, 24]
    assert chains == [] and certified == []
    assert counts == {"filters": 0, "points": 0, "float": 0, "exact": 0}


def _turan_failures(seq, d, hi):
    """Every m in [0, hi] with J^{d,m} not hyperbolic, d = 2 or 3, read off
    turan_report: order 2 at m + 1, order 3 at m."""
    shift = 3 - d
    return [m - shift for m in turan_report(seq, str(d), (shift, hi + shift)).failures]


def _assert_turan_route_is_sturms(seq, hi):
    for d in (2, 3):
        want = _turan_failures(seq, d, hi)
        assert want == [m for m in range(hi + 1) if not is_hyperbolic(jensen_poly(seq, d, m))]
        # the scan stops at a failure at hi, which leaves no onset
        assert list(turan._failures(seq, d, hi, frozenset()))[::-1] == ([hi] if hi in want else want)
        assert hyperbolicity_onset(seq, d, hi) == _sturm_onset(seq, d, hi)
    assert onset_atlas(seq, 3, hi) == _atlas_oracle(seq, 3, hi)


def test_degree2_and_degree3_failures_are_the_turan_failures(p2_seq):
    alpha = pbar_abn_table(0, 3, 7, 3012)[0::2]  # starts 0, 0, 0, 1, 2, 4
    for seq, hi in ((p_values(910), 900), (p2_seq, 500), (alpha, 1500)):
        _assert_turan_route_is_sturms(seq, hi)
    # alpha(m + d) = 0 with alpha(m + d - 1) != 0: J^{2,1} = 3 + 2X and
    # J^{3,0} = 2 + 9X + 3X^2 drop a degree and are hyperbolic, and
    # J^{3,0} = 1 + 15X + 90X^2 drops one and is not
    _assert_turan_route_is_sturms([2, 3, 1, 0, 0, 0, 0], 3)
    _assert_turan_route_is_sturms([1, 5, 30, 0, 0, 7, 0, 0], 4)


@given(st.lists(st.one_of(st.just(0), st.integers(-20, 20)), min_size=4, max_size=20))
@settings(max_examples=300, deadline=None)
def test_degree2_and_degree3_failures_are_the_turan_failures_on_any_sequence(seq):
    # zeros make windows whose Jensen polynomials drop degree, and negative
    # entries make leading coefficients of either sign
    _assert_turan_route_is_sturms(seq, len(seq) - 4)


def test_onset_of_non_positive_or_wild_sequences_is_sturms(p2_seq):
    seqs = [
        [0, 5] * 6,
        [1, 0, 3, 0, 5, 0, 7, 0, 9, 0, 11, 0],
        [-v for v in p2_seq[:12]],
        [v if m % 4 else -v for m, v in enumerate(p2_seq[:12])],
        [10 ** (400 * m) for m in range(12)],  # ratios beyond float64
        [10 ** (400 * (m % 2)) for m in range(12)],
        [1] * 12,  # delta^2 = 0
        [v * 10**400 for v in p2_seq[:12]],  # entries beyond float64, ratios within
    ]
    for seq in seqs:
        for d in (2, 3, 4):
            assert hyperbolicity_onset(seq, d, 7) == _sturm_onset(seq, d, 7)


def test_onset_of_p_matches_the_literature():
    # J^{d,n} of p(n) is hyperbolic from n = 25, 94, 206, 381 for d = 2..5:
    # log-concavity from n = 26 (Nicolas; DeSalvo-Pak), d = 3 (Chen-Jia-Wang),
    # d = 4, 5 (Larson-Wagner); the recentring pair is read off p itself
    p = p_values(1000)
    assert [hyperbolicity_onset(p, d, 900) for d in range(2, 6)] == [25, 94, 206, 381]
