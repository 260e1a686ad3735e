"""Jensen polynomials of integer sequences, exact real-rootedness
certificates by integer Sturm chains, Hermite polynomials, and scanning
checks of the order-2/order-3 inequalities and superadditivity.

Conventions (fixed here, documented once):

* degree-d Jensen coefficients are binom(d, k) * alpha(n + k), k = 0..d;
* Hermite normalization is fixed by sum_d H_d(X) t^d / d! = exp(Xt - t^2),
  so H_0 = 1, H_1 = X, H_2 = X^2 - 2, H_3 = X^3 - 6X, H_4 = X^4 - 12X^2 + 12;
* hyperbolic means every root real, counted with multiplicity.

Polynomials are coefficient lists, low degree first, and a Sturm chain is a
tuple of integer coefficient tuples.  Root counting is exact and takes
integer coefficients only (anything else raises TypeError).  The Sturm chain
is a primitive pseudo-remainder sequence, each member a positive multiple of
the classical one over the rationals, and its last member is g = gcd(p, p').
p has deg p - deg g distinct complex roots, so one chain certifies
hyperbolicity: p is hyperbolic iff the chain counts that many distinct real
roots.  Onset scans (``_failures``) settle degrees 2 and 3 by the exact
order-2 and order-3 inequalities (``_turan_scan``); at higher degree they
first try the cheaper exact certificate of ``_alternates`` and build a
chain only where it fails.  The renormalized-limit comparisons are floating
point.
"""

from __future__ import annotations

import functools
import math
import operator
from typing import Iterator, NamedTuple, Sequence


# ---------------------------------------------------------------------------
# exact polynomial helpers (integer coefficients, low -> high)


def _trim(cs: list[int]) -> list[int]:
    while cs and cs[-1] == 0:
        cs.pop()
    return cs


def _degree(cs: Sequence[int]) -> int:
    return len(cs) - 1


def _prim(cs: list[int]) -> list[int]:
    """Primitive part: divided by the positive gcd of the coefficients."""
    g = math.gcd(*cs)
    return cs if g == 1 else [c // g for c in cs]


def _neg_prem(a: Sequence[int], b: Sequence[int]) -> list[int]:
    """-prim of the remainder of c * a by b, for some integer c > 0.

    Each step multiplies the running remainder by |lc(b)| / g and subtracts
    a multiple of b, g the gcd of |lc(b)| with the leading coefficient
    being cancelled, so only positive factors enter and no division leaves
    the integers.
    """
    r = list(a)
    n = len(b) - 1
    lead = abs(b[-1])
    sgn = 1 if b[-1] > 0 else -1
    for top in range(len(r) - 1, n - 1, -1):
        c = r.pop()
        if c:
            g = math.gcd(lead, c)
            s, t = lead // g, sgn * c // g
            shift = top - n
            if s != 1:
                r = [s * x for x in r]
            for i in range(n):
                r[shift + i] -= t * b[i]
    r = _trim(r)
    return [-c for c in _prim(r)] if r else r


def sturm_chain(coeffs: Sequence) -> tuple[tuple[int, ...], ...]:
    """prim(p), prim(p'), then negated primitive pseudo-remainders, all with
    integer coefficients.  Each member is a positive multiple of the
    classical Sturm member (p, p', negated remainders over the rationals), so
    the sign variations are the same.  The last member is gcd(p, p') up to a
    constant."""
    p = _trim([operator.index(c) for c in coeffs])
    if not p:
        raise ValueError("zero polynomial has no Sturm chain")
    chain = [_prim(p)]
    if _degree(p) >= 1:
        chain.append(_prim([i * c for i, c in enumerate(p)][1:]))
    while _degree(chain[-1]) >= 1:
        r = _neg_prem(chain[-2], chain[-1])
        if not r:
            break
        chain.append(r)
    # tuple() of a list, not of a generator: see partitions.Partition.__init__
    return tuple([tuple(c) for c in chain])


def _distinct_real_roots(chain: Sequence[Sequence[int]]) -> int:
    """Sign variations of a Sturm chain at -oo minus those at +oo."""

    def variations(at_minus_infinity: bool) -> int:
        # sign at -oo flips for odd degree, i.e. an even number of coefficients
        signs = [(poly[-1] > 0) != (at_minus_infinity and len(poly) % 2 == 0) for poly in chain]
        return sum(u != v for u, v in zip(signs, signs[1:]))

    return variations(True) - variations(False)


# ---------------------------------------------------------------------------
# Jensen polynomials


def jensen_poly(seq: Sequence[int], d: int, n: int) -> tuple[int, ...]:
    """Coefficients binom(d, k) * alpha(n + k), k = 0..d, of the degree-d
    Jensen polynomial at shift n."""
    if d < 1:
        raise ValueError("d must be >= 1")
    if n < 0:
        raise ValueError("n must be >= 0")
    if n + d >= len(seq):
        raise ValueError(f"sequence must be defined on [{n}, {n + d}]")
    # tuple() of a list, not of a generator: see partitions.Partition.__init__
    return tuple([math.comb(d, k) * seq[n + k] for k in range(d + 1)])


def is_hyperbolic(coeffs: Sequence) -> bool:
    """True iff every root is real (counted with multiplicity); exact, from
    one Sturm chain, whose first and last members are p and gcd(p, p').  The
    zero polynomial counts as hyperbolic (Borcea-Branden), which keeps
    hyperbolicity closed under d/dX, and takes no chain."""
    p = tuple(map(operator.index, coeffs))  # TypeError off the integers, as in sturm_chain
    chain = any(p) and sturm_chain(p)
    return not chain or _distinct_real_roots(chain) == len(chain[0]) - len(chain[-1])


# ---------------------------------------------------------------------------
# renormalization toward the Hermite limit


def renorm_sequences_step2(n: int) -> tuple[float, float]:
    """Recentring pair (A, delta) for reading a two-arc Wright-shaped count at
    every second argument: the first and (negated half) second
    log-derivatives at n of 2 sqrt(g n) - (5/4) log n, g = pi^2/3.

    Equivalently 2*A(2n) and 2*delta(2n) from the leading-order pair
    A(m) = pi/sqrt(6m), delta(m)^2 = pi sqrt(2/3)/8 * m^(-3/2) at m = 2n, with
    the exact 1/n correction from the n^(-5/4) prefactor folded in; the
    correction is what makes desk-scale Hermite convergence visible.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    growth, power = math.pi**2 / 3.0, -1.25
    a = math.sqrt(growth / n) + power / n
    d2 = math.sqrt(growth) / (4.0 * n**1.5) + power / (2.0 * n * n)
    if d2 <= 0:
        raise ValueError(f"second-order coefficient is not positive at n = {n}")
    return a, math.sqrt(d2)


def renormalized_jensen(seq: Sequence[int], d: int, n: int, rs: tuple[float, float]) -> list[float]:
    """Coefficients (low -> high) of delta^{-d}/alpha(n) * J((delta X - 1)/e^A)
    for the pair rs = (A, delta).

    The integer Jensen coefficients are divided by alpha(n) exactly and only
    then rounded; the composition itself is floating point, and a ValueError
    naming d and n is raised when it leaves the float64 range.
    """
    coeffs = jensen_poly(seq, d, n)
    if any(v <= 0 for v in seq[n : n + d + 1]):
        raise ValueError("sequence must be positive on [n, n+d]")
    alpha0 = seq[n]
    a, delta = rs
    e_a = math.exp(a)
    overflow = f"renormalized Jensen polynomial at d = {d}, n = {n} overflows float64"
    out = []
    try:
        weights = [c / alpha0 * e_a**-k for k, c in enumerate(coeffs)]
        for i in range(d + 1):
            s = 0.0
            for k in range(i, d + 1):
                s += weights[k] * math.comb(k, i) * (-1) ** (k - i)
            out.append(s * delta ** (i - d))
    except OverflowError as exc:
        raise ValueError(overflow) from exc
    if not all(map(math.isfinite, out)):
        raise ValueError(overflow)
    return out


def hermite(d: int) -> list[int]:
    """H_d in the exp(Xt - t^2) normalization: H_{m+1} = X H_m - 2m H_{m-1}."""
    if d < 0:
        raise ValueError("d must be >= 0")
    h_prev, h_cur = [1], [0, 1]
    if d == 0:
        return h_prev
    for m in range(1, d):
        nxt = [0] + h_cur
        for i, c in enumerate(h_prev):
            nxt[i] -= 2 * m * c
        h_prev, h_cur = h_cur, nxt
    return h_cur


def hermite_distance(coeffs: Sequence[float], d: int) -> float:
    """Coefficient-wise max distance to H_d; ``coeffs`` holds its d + 1
    coefficients, lowest degree first, and any other length raises ValueError."""
    return max(abs(x - y) for x, y in zip(coeffs, hermite(d), strict=True))


# ---------------------------------------------------------------------------
# inequality scans


class TuranReport(NamedTuple):
    """Exact scan of an inequality over an index window of a sequence."""

    holds: bool
    failures: tuple
    equalities: tuple


def _turan_scan(seq: Sequence[int], order: int, ms: range) -> tuple[list[int], list[int]]:
    """The failures and the equalities, in the order of ``ms``, of the
    order-2 or order-3 inequality of ``turan_report`` at each m of ``ms``.

    Up to a positive factor these are the discriminants of J^{2,m-1} and
    J^{3,m}: 4 (alpha(m)^2 - alpha(m-1) alpha(m+1)) for the quadratic and 27
    times the order-3 gap for the cubic.  So on integers the inequality at m
    holds iff J^{2,m-1}, resp. J^{3,m}, is hyperbolic, also where the leading
    coefficient vanishes.  J^{2,m-1} is then at most linear, so hyperbolic,
    and the order-2 gap is alpha(m)^2 >= 0.  J^{3,m} is then at most
    quadratic, and the order-3 gap is alpha(m+2)^2 times its discriminant
    over 3, or 0 where it is at most linear.
    """
    failures: list[int] = []
    equalities: list[int] = []
    for m in ms:
        if order == 2:
            lhs = seq[m] * seq[m]
            rhs = seq[m - 1] * seq[m + 1]
        else:
            a0, a1, a2, a3 = seq[m], seq[m + 1], seq[m + 2], seq[m + 3]
            lhs = 4 * (a1 * a1 - a0 * a2) * (a2 * a2 - a1 * a3)
            rhs = (a1 * a2 - a0 * a3) ** 2
        if lhs < rhs:
            failures.append(m)
        elif lhs == rhs:
            equalities.append(m)
    return failures, equalities


# order -> (least lo, the largest index a scan of [lo, hi] reads, the message
# for a sequence too short to hold it)
TURAN_ORDERS = {
    "2": (1, lambda hi: hi + 1, "order-2 scan needs indices [lo-1, hi+1] inside the sequence"),
    "3": (0, lambda hi: hi + 3, "order-3 scan needs indices [lo, hi+3] inside the sequence"),
    "convexity": (0, lambda hi: 2 * hi, "convexity scan needs indices up to 2*hi inside the sequence"),
}


def turan_report(seq: Sequence[int], order: str, index_range: tuple[int, int]) -> TuranReport:
    """Scan the order-2 or order-3 inequality, or pairwise superadditivity.

    order 2 at m:  alpha(m)^2 >= alpha(m-1) alpha(m+1)        (m in [lo, hi])
    order 3 at m:  4 (a_{m+1}^2 - a_m a_{m+2})(a_{m+2}^2 - a_{m+1} a_{m+3})
                     >= (a_{m+1} a_{m+2} - a_m a_{m+3})^2
    convexity:     alpha(n1) alpha(n2) > alpha(n1 + n2), lo <= n1 <= n2 <= hi

    ``TURAN_ORDERS`` holds each order's least lo, the largest index a scan
    reads and its message for a sequence too short for it.  All comparisons
    are exact integer arithmetic, and an entry up to that index that is not
    an integer raises TypeError.  The convexity scan first finds the least t
    with alpha > 0 on [t - 1, 2 hi] and order 2 at every m in [t, 2 hi - 1],
    then leaves each n1's scan at its first success with n2 >= t.  This is
    exact: on that window alpha(k + 1)/alpha(k) does not increase, so
    alpha(n1 + n2)/alpha(n2), a product of n1 such ratios, does not grow
    with n2, and a success stays one up to n2 = hi.  For a sequence positive
    and log-concave past a fixed index the scan is O(hi + failures) products.
    """
    lo, hi = index_range
    if lo > hi:
        raise ValueError("empty range")
    if order not in TURAN_ORDERS:
        raise ValueError("order must be 2, 3 or 'convexity'")
    least, reach, short = TURAN_ORDERS[order]
    if lo < least or reach(hi) >= len(seq):
        raise ValueError(short)
    seq = list(map(operator.index, seq[: reach(hi) + 1]))  # TypeError off the integers, as in sturm_chain
    if order != "convexity":
        failures, equalities = _turan_scan(seq, int(order), range(lo, hi + 1))
    else:
        # least t with seq > 0 on [t - 1, 2 hi], then raised past the last
        # order-2 failure in [t, 2 hi - 1]
        t = next((k + 2 for k in range(2 * hi, -1, -1) if seq[k] <= 0), 1)
        tail_failures = _turan_scan(seq, 2, range(2 * hi - 1, t - 1, -1))[0]
        if tail_failures:
            t = tail_failures[0] + 1
        failures, equalities = [], []
        for n1 in range(lo, hi + 1):
            a = seq[n1]
            for n2 in range(n1, hi + 1):
                lhs = a * seq[n2]
                rhs = seq[n1 + n2]
                if lhs > rhs:
                    if n2 >= t:
                        break
                else:
                    failures.append((n1, n2))
                    if lhs == rhs:
                        equalities.append((n1, n2))
    return TuranReport(holds=not failures, failures=tuple(failures), equalities=tuple(equalities))


# ---------------------------------------------------------------------------
# hyperbolicity onsets

_U = 2.0**-53  # unit roundoff of float64


def _hermite_probes(d: int) -> list[float]:
    """d - 1 increasing floats that separate the zeros of H_d (d >= 2): the
    midpoints of consecutive zeros.

    The zeros are found by bisection on the count of sign changes of
    H_0(x), ..., H_d(x), which is the number of zeros above x (the recurrence
    H_{k+1} = X H_k - 2k H_{k-1} makes the sequence a Sturm chain of H_d).
    They are symmetric about 0 and lie inside 2 sqrt(2d + 1), so only the
    positive ones are sought, each to 2^-32 of that bound: the points need
    not be exact.
    """

    def zeros_above(x: float) -> int:
        h_prev, h, pos = 1.0, x, x > 0
        count = int(not pos)  # H_0 = 1; a zero value counts as negative
        for k in range(1, d):
            h_prev, h = h, x * h - 2 * k * h_prev
            count += (h > 0) != pos
            pos = h > 0
        return count

    bound = 2.0 * math.sqrt(2 * d + 1)
    upper = []
    for i in range(d // 2 - 1, -1, -1):  # i zeros above the one sought: ascending
        lo, hi = 0.0, bound
        for _ in range(32):
            mid = 0.5 * (lo + hi)
            if zeros_above(mid) > i:
                lo = mid
            else:
                hi = mid
        upper.append(0.5 * (lo + hi))
    zeros = [-z for z in reversed(upper)] + [0.0] * (d % 2) + upper
    return [(u + v) / 2 for u, v in zip(zeros, zeros[1:])]


def _float_gate(d: int, probes: Sequence[float]) -> float:
    """The delta at or below which ``_alternates`` tries no float for these
    d - 1 >= 1 probes of degree d.  Near the Hermite limit p(x_i) is about
    alpha(n) delta^d H_d(eta_i) and the bound of ``_float_signs`` about
    (4d + 10) u alpha(n) 2^d, so every point clears it only if
    (delta/2)^d min_i |H_d(eta_i)| > (4d + 10) u: delta^d above about 2^-48
    at d = 2..6, 2^-50 at d = 8, 2^-54.5 at d = 12.  It picks a route, never
    a sign.
    """
    h = hermite(d)
    low = min(abs(sum(c * eta**k for k, c in enumerate(h))) for eta in probes)
    return 2 * ((4 * d + 10) * _U / low) ** (1 / d) if low else math.inf


@functools.cache
def _jensen_certificate(d: int) -> tuple[tuple[int, ...], tuple[float, ...], tuple[float, ...], float]:
    """What ``_alternates`` reads at every shift of degree d, made once: the
    weights binom(d, k), k = 0..d, as integers and as floats, the probes of
    ``_hermite_probes(d)`` and their ``_float_gate``."""
    binoms = tuple([math.comb(d, k) for k in range(d + 1)])
    probes = tuple(_hermite_probes(d))
    return binoms, tuple(map(float, binoms)), probes, _float_gate(d, probes)


def _floats(values: Sequence[int]) -> list[float]:
    """float64 of each integer, inf past 2^1023 (TypeError off the integers)."""
    return [float(v) if v.bit_length() < 1024 else math.inf for v in map(operator.index, values)]


def _exact_sign(p: Sequence[int], x: float) -> int:
    """Sign of p at the dyadic x = num/2^k: 2^(kd) p(x) by integer Horner,
    each power of 2^k a shift."""
    num, den = x.as_integer_ratio()
    k = den.bit_length() - 1
    acc, shift = p[-1], 0
    for c in p[-2::-1]:
        shift += k
        acc = acc * num + (c << shift)
    return (acc > 0) - (acc < 0)


def _float_signs(fcs: Sequence[float], xs: Sequence[float]) -> list[int]:
    """Sign of p at each x where float64 Horner settles it, 0 where it defers.

    ``fcs`` holds p's integer coefficients c_k as integer-valued floats within
    a relative 3u of them (u = 2^-53; at most three roundings: the integer,
    a binomial, their product), or inf.  By Higham (Accuracy and Stability,
    5.1), the float Horner value p^(x) has |p(x) - p^(x)| <=
    (gamma_2d + gamma_3/(1 - gamma_3)) sum |c^_k| |x|^k, gamma_n = nu/(1 - nu).
    The sum is at most S = sum |c^_k| X^k, X = max |x_i|, whose float Horner
    value S^ is at least (1 - gamma_2d) S, so for d < 2^20 the error is below
    (2d + 4) u S^, and a sign counts only where |p^(x)| > (4d + 10) u S^ as
    rounded.  A settled sign is therefore p's, and at a root of p the filter
    defers.  Outside the hypotheses every point defers: S^ must be finite
    (no inf coefficient and no overflow, as |p^| <= S^ at every Horner step
    by monotone rounding), and nothing may underflow: each nonzero Horner
    partial of integer-valued coefficients is at least 2^-53 min(1, |x|)^k,
    k <= d, so min(1, min |x_i|)^d > 2^-900 keeps every product normal.
    """
    d = len(fcs) - 1
    top = max(map(abs, xs))
    s = 0.0
    for c in reversed(fcs):
        s = s * top + abs(c)
    if not (s < math.inf and min(1.0, min(map(abs, xs))) ** d > 2.0**-900):
        return [0] * len(xs)
    bound = (4 * d + 10) * _U * s
    lead, rest = fcs[-1], fcs[-2::-1]
    signs = []
    for x in xs:
        v = lead
        for c in rest:
            v = v * x + c
        signs.append((v > bound) - (v < -bound))
    return signs


def _alternates(window: Sequence[int], fwindow: Sequence[float], cert: tuple) -> bool:
    """True only if p = sum_k binom(d, k) window[k] X^k, the Jensen
    polynomial of alpha(n..n + d) with d >= 2, has d distinct real roots;
    False means unsettled, not non-hyperbolic.  ``fwindow`` is
    ``_floats(window)`` and ``cert`` is ``_jensen_certificate(d)``.

    The recentring pair is read off window[:3], delta^2 = l1 - l2/2 and
    A = l1 + delta^2 with l_k = log(alpha(n + k)/alpha(n)), and each probe
    eta maps to the dyadic float x = (delta eta - 1)/e^A.  So recentred,
    J^{d,n} tends to a multiple of H_d (Griffin-Ono-Rolen-Zagier), whose
    zeros the probes separate.  The signs at -oo and +oo are (-1)^d sign(c_d)
    and sign(c_d), read off the integer c_d, so signs that alternate from
    -oo through the points to +oo give d sign changes: d distinct real roots
    by the intermediate value theorem.  The points do not descend (delta > 0,
    e^-A > 0, monotone rounding), and two equal ones carry equal signs, which
    fail to alternate.  Each sign at a point is p's own: ``_float_signs`` on
    weight times window entry in float64 where delta > gate (``_float_gate``),
    else ``_exact_sign`` on p's integer coefficients, formed only then.  Left
    unsettled: c_d = 0, an entry of window[:3] that is not positive, ratios
    beyond float64 and points that are not finite.
    """
    weights, fweights, probes, gate = cert
    lead = weights[-1] * window[-1]
    a0, a1, a2 = window[:3]
    if not lead or a0 <= 0 or a1 <= 0 or a2 <= 0:
        return False
    try:
        l1, l2 = math.log(a1 / a0), math.log(a2 / a0)
        d2 = l1 - l2 / 2
        if not d2 > 0:
            return False
        delta, scale = math.sqrt(d2), math.exp(-(l1 + d2))
        xs = [(delta * eta - 1) * scale for eta in probes]
    except (OverflowError, ValueError):  # a ratio or e^-A beyond float64
        return False
    if not -math.inf < xs[0] <= xs[-1] < math.inf:
        return False
    signs = _float_signs(list(map(operator.mul, fweights, fwindow)), xs) if delta > gate else [0] * len(xs)
    # the sign at the first point is the opposite of (-1)^d sign(c_d), the
    # one at -oo; d - 1 flips from it end at -sign(c_d), the opposite of the
    # one at +oo
    p, want = None, 1 if (lead > 0) == (len(window) % 2 == 0) else -1
    for x, sign in zip(xs, signs):
        if not sign:
            p = p or list(map(operator.mul, weights, window))
            sign = _exact_sign(p, x)
        if sign != want:
            return False
        want = -sign
    return True


def _failures(seq: Sequence[int], d: int, hi: int, inherited: frozenset[int]) -> Iterator[int]:
    """Every m with J^{d,m} not hyperbolic, from hi down to 0, or just hi
    when it fails, as it leaves no onset (none for hi < 0); seq[0..hi + d]
    must be integers.

    ``inherited`` holds failures of degree d - 1: d/dX J^{d,m} = d J^{d-1,m+1},
    and a hyperbolic polynomial has a hyperbolic derivative (Rolle, the zero
    polynomial counted hyperbolic), so m + 1 in it makes m a failure with no
    check.  At d = 2 and 3 every shift is settled by its exact Turan
    inequality (``_turan_scan``), with no probe, float or chain; being exact,
    those failures already hold every one Rolle passes on.  Down to the
    first failure, a shift of degree d >= 4 tries ``_alternates``, and every
    shift it leaves unsettled gets the Sturm verdict of ``is_hyperbolic``.
    Below the first failure a shift goes straight to its chain: there the
    certificate saves few chains and costs more time than they take.
    """
    if hi < 0:
        return
    jensen_poly(seq, d, hi)  # jensen_poly's ValueError for a bad d or a short seq
    if d in (2, 3):
        # J^{2,m} is hyperbolic iff order 2 holds at m + 1, J^{3,m} iff order 3 at m
        failed = [i + d - 3 for i in turan_report(seq, str(d), (3 - d, hi + 3 - d)).failures][::-1]
        yield from failed[:1] if failed[:1] == [hi] else failed
        return
    certify = d >= 4
    if certify:
        cert, fseq = _jensen_certificate(d), _floats(seq[: hi + d + 1])
    for m in range(hi, -1, -1):
        if m + 1 in inherited or not (
            certify
            and _alternates(seq[m : m + d + 1], fseq[m : m + d + 1], cert)
            or is_hyperbolic(jensen_poly(seq, d, m))
        ):
            yield m
            if m == hi:
                return
            certify = False


def hyperbolicity_onset(seq: Sequence[int], d: int, hi: int) -> int | None:
    """Smallest m0 >= 0 with J^{d,m} hyperbolic for every m in [m0, hi]; None
    if even m = hi fails or hi < 0: one more than the first failure of
    ``_failures``, whose verdicts are exact, so the onset is the Sturm-only
    scan's.
    """
    m0 = next(_failures(seq, d, hi, frozenset()), -1) + 1
    return None if m0 > hi else m0


def onset_atlas(seq: Sequence[int], max_d: int, hi: int) -> list[tuple[int, int | None, list[int] | None]]:
    """Rows (d, onset, failures_below) for d = 2..max_d: the onset is
    ``hyperbolicity_onset(seq, d, hi)``, and failures_below lists, ascending,
    every m below it with J^{d,m} not hyperbolic (None with a None onset).
    Each degree is one ``_failures`` scan that inherits degree d - 1's
    failures by Rolle.
    """
    rows, failures = [], []
    for d in range(2, max_d + 1):
        failures = list(_failures(seq, d, hi, frozenset(failures)))
        m0 = failures[0] + 1 if failures else 0
        rows.append((d, m0, failures[::-1]) if m0 <= hi else (d, None, None))
    return rows
