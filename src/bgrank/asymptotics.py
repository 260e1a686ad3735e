"""Floating-point asymptotics for the rank statistics.

Covers the Lerch sum Phi(z,2,1) on the unit circle away from z = 1, direct
evaluation of the q-Pochhammer factor and of the congruence-class generating
functions (all b classes from one set of products), the leading term of a
coefficient in Wright's normal form alpha z^B e^(A/z), and numeric checks
that the near-(+/-1) arcs dominate sampled off-axis points.  The leading
constant of the rank counts is fitted by ``bgrank asympt``, not restated here.

Everything here works in 64-bit binary floating point; the exact-arithmetic
counterparts live in the series module.

numpy serves only ``lerch_phi_unit`` and is imported on that function's
first call, not with this module: the exact tables, the Turan and Jensen
scans and every CLI command but ``validate`` (and ``report``, which runs it)
start without loading it.
"""

from __future__ import annotations

import cmath
import math
from fractions import Fraction
from typing import NamedTuple

_UNIT_TOL = 1e-12
_CUTOFF = 1e-16


def _require_unit(z: complex) -> complex:
    z = complex(z)
    r = abs(z)
    if abs(r - 1.0) > _UNIT_TOL:
        raise ValueError(f"|z| must equal 1 (got {r!r})")
    return z / r


def lerch_phi_unit(z: complex, tol: float = 1e-12) -> complex:
    """Sum_{n>=0} z^n / (n+1)^2 for |z| = 1, z != 1, to absolute accuracy ~tol.

    Partial sum with a rigorously bounded tail: one summation-by-parts step
    leaves a remainder below 2*(a_K - a_{K+1})/|1-z|^2, which fixes the
    cutoff.  Accuracy bottoms out near accumulated double rounding (~1e-14).
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    z = _require_unit(z)
    if abs(z - 1.0) <= _UNIT_TOL:
        raise ValueError("z = 1 is excluded")
    gap = abs(1.0 - z)
    m_terms = int((4.0 / (tol * gap * gap)) ** (1.0 / 3)) + 8
    if m_terms > 50_000_000:
        raise ValueError("z too close to 1 for the requested tolerance")
    theta = math.atan2(z.imag, z.real)
    # imported here, not at module level: no other bgrank path uses numpy, and
    # its import is most of what a CLI process would otherwise spend starting
    import numpy as np

    # in place, so the temporaries that set the report's peak memory stay few:
    # at most one float and one complex array of m_terms + 1 entries
    n = np.arange(0, m_terms + 1, dtype=np.float64)
    terms = (1j * theta) * n
    np.exp(terms, out=terms)
    n += 1.0
    n *= n
    terms /= n
    partial = complex(np.sum(terms))
    big_k = m_terms + 1
    a_k = 1.0 / ((big_k + 1) * (big_k + 1))
    partial += a_k * cmath.exp(1j * theta * big_k) / (1.0 - z)
    return partial


def dilog_identity_residual(zeta: complex) -> float:
    """|Li2(z) + Li2(1/z) + pi^2/6 + log(-z)^2 / 2| at unit-modulus z != 1.

    The inversion identity makes this zero; the residual measures evaluation
    error.  z = 1 is rejected (both dilogarithms coincide and the identity
    degenerates at the log branch point).
    """
    zeta = _require_unit(zeta)
    if abs(zeta - 1.0) <= _UNIT_TOL:
        raise ValueError("zeta = 1 is excluded")
    # Li_2(z) = z * Phi(z, 2, 1) on the unit circle
    lhs = sum(z * lerch_phi_unit(z) for z in map(_require_unit, (zeta, 1.0 / zeta)))
    log_neg = cmath.log(-zeta)
    rhs = -math.pi**2 / 6 - 0.5 * log_neg * log_neg
    return abs(lhs - rhs)


# ---------------------------------------------------------------------------
# direct product evaluation


def f1_truncated_product(zeta: complex, z: complex) -> complex:
    """prod_{n>=1} (1 - zeta e^{-n z}); keeps factors while |e^{-nz}| > _CUTOFF."""
    z = complex(z)
    if z.real <= 0:
        raise ValueError("Re z must be positive")
    n_factors = int(-math.log(_CUTOFF) / z.real) + 1
    q = cmath.exp(-z)
    qn = 1.0 + 0j
    out = 1.0 + 0j
    for _ in range(n_factors):
        qn *= q
        out *= 1.0 - zeta * qn
    return out


def h_congruence_numeric(b: int, z: complex) -> list[complex]:
    """Generating functions of the rank-0 congruence-class counts at q = e^{-z},
    entry a for quotient rank = a mod b, a = 0..b-1.

    (1/b) [ (q^2;q^2)^{-2} + sum_{k=1}^{b-1} w^{-ak} / (F(w^k) F(w^-k)) ]
    with w = e^{2 pi i / b} and F the product above evaluated in the
    variable q^2.  The products do not depend on a, so each is evaluated
    once for all b classes.
    """
    if b < 2:
        raise ValueError("b must be >= 2")
    z = complex(z)
    e2 = f1_truncated_product(1.0, 2 * z)
    rank_only = 1 / (e2 * e2)
    pairs = []
    for k in range(1, b):
        w = cmath.exp(2j * math.pi * k / b)
        pairs.append(f1_truncated_product(w, 2 * z) * f1_truncated_product(w.conjugate(), 2 * z))
    out = []
    for a in range(b):
        total = rank_only
        for k, pair in enumerate(pairs, 1):
            total += cmath.exp(-2j * math.pi * a * k / b) / pair
        out.append(total / b)
    return out


# ---------------------------------------------------------------------------
# Wright-form coefficient asymptotics


class WrightParams:
    """Leading singular data: F(e^{-z}) ~ alpha z^B e^{A/z}, with arc_factor
    counting the dominant arcs that contribute equally."""

    def __init__(self, A: float, B: float, alpha: float, arc_factor: int = 1):
        if A <= 0:
            raise ValueError("A must be positive")
        if arc_factor < 1:
            raise ValueError("arc_factor must be >= 1")
        self.A = A
        self.B = B
        self.alpha = alpha
        self.arc_factor = arc_factor


def wright_coefficient(A: float, B: float) -> float:
    """Leading coefficient c_{0,0} = sqrt(A)^(B+1/2) / (2 sqrt pi) of the
    expansion."""
    if A <= 0:
        raise ValueError("A must be positive")
    return math.sqrt(A) ** (B + 0.5) / (2.0 * math.sqrt(math.pi))


def wright_asymptotic(n: int, params: WrightParams) -> float:
    """Leading term arc_factor * alpha * c_{0,0} * n^{(-2B-3)/4} e^{2 sqrt(A n)}."""
    if n < 1:
        raise ValueError("n must be >= 1")
    envelope = params.arc_factor * n ** ((-2 * params.B - 3) / 4) * math.exp(2 * math.sqrt(params.A * n))
    return envelope * (params.alpha * wright_coefficient(params.A, params.B))


HR_PARAMS = WrightParams(A=math.pi**2 / 6, B=0.5, alpha=1 / math.sqrt(2 * math.pi), arc_factor=1)


def rank_count_params(b: int = 1) -> WrightParams:
    """Wright data for the rank counts: A = pi^2/6, B = 1, alpha = 1/(b pi),
    two contributing arcs (q = 1 and q = -1)."""
    if b < 1:
        raise ValueError("b must be >= 1")
    return WrightParams(A=math.pi**2 / 6, B=1.0, alpha=1 / (b * math.pi), arc_factor=2)


# ---------------------------------------------------------------------------
# arc dominance report


class ArgInequalityCheck(NamedTuple):
    k: int
    angle_over_pi: Fraction  # arg(-w^k)/pi reduced to (-1, 1]
    holds: bool


class ArcSample(NamedTuple):
    a: int
    slope: int
    x: float
    ratio: float
    ok: bool


def minus_root_angle_over_pi(b: int, k: int) -> Fraction:
    """arg(-w^k)/pi for w = e^{2 pi i / b}, as an exact rational in (-1, 1]."""
    r = Fraction((b + 2 * k) % (2 * b), b)
    if r > 1:
        r -= 2
    return r


_ARC_SLOPES = (2, 5)
_ARC_XS = (0.05, 0.02)


def arc_dominance_check(b: int) -> tuple[list[ArgInequalityCheck], list[ArcSample]]:
    """Exact angle inequality per root plus sampled off-axis magnitudes.

    (i) verifies pi^2 - 3 arg(-w^k)^2 < 2 pi^2 in exact rational arithmetic
    (angles are rational multiples of pi);
    (ii) samples the rank-0 |H| at z = x(1 + i*slope) and compares against
    the on-axis point of the same |z|, for every residue class a.
    """
    if b < 2:
        raise ValueError("b must be >= 2")
    arg_checks = []
    for k in range(1, b):
        r = minus_root_angle_over_pi(b, k)
        holds = 1 - 3 * r * r < 2  # exact: divide the inequality by pi^2
        arg_checks.append(ArgInequalityCheck(k=k, angle_over_pi=r, holds=holds))
    samples = []
    for slope in _ARC_SLOPES:
        for x in _ARC_XS:
            minor = h_congruence_numeric(b, complex(x, slope * x))
            major = h_congruence_numeric(b, complex(x * math.hypot(1.0, slope), 0.0))
            for a in range(b):
                ratio = abs(minor[a]) / abs(major[a])
                samples.append(ArcSample(a=a, slope=slope, x=x, ratio=ratio, ok=ratio < 1.0))
    return arg_checks, samples
