"""Acceptance gate: one test per criterion, each printing a PASS line.

Three sub-claims in the agreed criteria are contradicted by exact integer
arithmetic (verified here by two independent routes); the tests asserting
those claims are expected to fail and say exactly why:

* the pair-count sequence is NOT log-concave at m = 5 (36^2 = 1296 < 20*65);
* consequently the degree-2 Jensen onset is m0 = 5, not 2 (J at shift 4 has
  discriminant 72^2 - 4*20*65 = -16 < 0);
* the renormalized degree-3/4 Jensen distance to the Hermite limit at
  n = 10^4 is ~0.455 / ~1.853 (decaying like n^{-1/4} from the cubic
  log-ratio term), far above the 0.2 bound that only degree 2 attains.

Each such claim has a "measured" twin asserting the exact truth.
"""

import cmath
import math
import time
from fractions import Fraction

import pytest

from bgrank.asymptotics import (
    HR_PARAMS,
    arc_dominance_check,
    dilog_identity_residual,
    wright_asymptotic,
    wright_coefficient,
)
from bgrank.cli import main
from bgrank.partitions import bg_core_size, bg_rank, enumerate_partitions
from bgrank.series import (
    joint_table,
    p_values,
    pbar_abn_values,
    pbar_eta,
    ranks_with_support,
)
from bgrank.turan import (
    hermite_distance,
    hyperbolicity_onset,
    is_hyperbolic,
    jensen_poly,
    renorm_sequences_step2,
    renormalized_jensen,
    turan_report,
)

CANDIDATE_DIRECT = 6.0**-0.75
CANDIDATE_PRINTED = math.sqrt(2.0) * 6.0**-0.75


def _announce(name: str, detail: str = ""):
    print(f"[acceptance] {name}: PASS  {detail}")


# 1 -------------------------------------------------------------------------


def test_triple_oracle_agreement(censuses_even_30):
    t0 = time.time()
    checked = 0
    for n in range(0, 31, 2):
        census = censuses_even_30[n]
        for j in (0, 2, -2, 4):
            if bg_core_size(j) > n:
                continue
            row = joint_table(j, n)[n]
            for b in (2, 3, 5):
                tables = pbar_abn_values(j, b, n)
                for a in range(b):
                    enum = sum(c for (jj, m), c in census.items() if jj == j and m % b == a)
                    sieve = sum(c for m, c in row.items() if m % b == a)
                    assert enum == tables[a][n] == sieve, (n, j, a, b)
                    checked += 1
    elapsed = time.time() - t0
    assert elapsed < 300
    _announce("triple-oracle-agreement", f"{checked} class counts, 3 routes, {elapsed:.1f}s")


# 2 -------------------------------------------------------------------------


def test_exactness_anchors():
    assert pbar_eta(0, 2) == 2
    assert pbar_eta(0, 4) == 5
    assert pbar_eta(0, 12) == 65
    assert pbar_eta(2, 6) == 1
    witnesses = [p for p in enumerate_partitions(6) if bg_rank(p) == 2]
    assert [w.parts for w in witnesses] == [(3, 2, 1)]
    tables = pbar_abn_values(0, 5, 4)
    assert [tables[a][4] for a in range(5)] == [1] * 5
    pv = p_values(40)
    for n in range(41):
        assert sum(pbar_eta(j, n) for j in ranks_with_support(n)) == pv[n]
    _announce("exactness-anchors", "fixed counts + rank counts partition p(n) for n <= 40")


# 3 -------------------------------------------------------------------------


def test_wright_calibration():
    constant = HR_PARAMS.alpha * wright_coefficient(HR_PARAMS.A, HR_PARAMS.B)
    err = abs(constant - 1.0 / (4.0 * math.sqrt(3.0)))
    assert err <= 1e-12
    ratio = wright_asymptotic(5000, HR_PARAMS) / p_values(5000)[5000]
    assert abs(ratio - 1) <= 0.02
    _announce("wright-calibration", f"constant error {err:.1e}; ratio at 5000 = {ratio:.5f}")


# 4 -------------------------------------------------------------------------


def test_constant_adjudication(p2_big):
    r = {}
    for n in (1000, 2000, 4000, 8000):
        count = pbar_eta(0, n)
        r[n] = math.exp(math.log(count) + 1.25 * math.log(n) - math.pi * math.sqrt(2 * n / 3))
    near_direct = abs(r[8000] - CANDIDATE_DIRECT) <= 0.1 * CANDIDATE_DIRECT
    near_printed = abs(r[8000] - CANDIDATE_PRINTED) <= 0.1 * CANDIDATE_PRINTED
    assert near_direct != near_printed, "exactly one candidate must be within 10%"
    assert abs(r[8000] - r[4000]) < abs(r[4000] - r[2000]), "R(n) must be converging"
    winner = "6^(-3/4) (direct evaluation)" if near_direct else "sqrt(2)*6^(-3/4) (printed)"
    _announce(
        "constant-adjudication",
        f"R: {r[1000]:.6f} {r[2000]:.6f} {r[4000]:.6f} {r[8000]:.6f}; winner = {winner}",
    )


# 5 -------------------------------------------------------------------------


def test_equidistribution(pbar_ab_b5):
    devs = {}
    for n in (500, 1000, 2000):
        total = pbar_eta(0, n)
        devs[n] = max(abs(Fraction(5 * pbar_ab_b5[a][n], total) - 1) for a in range(5))
    assert devs[2000] <= Fraction(1, 1000)
    assert devs[500] >= devs[1000] >= devs[2000]
    _announce(
        "equidistribution",
        "max |5 count/total - 1| = "
        + " ".join(f"{n}:{float(devs[n]):.2e}" for n in (500, 1000, 2000)),
    )


# 6 -------------------------------------------------------------------------


def test_log_concavity_claimed_window(p2_big):
    """Claimed pattern: fails only at m = 1 on [1, 500], equality at m = 3.

    Exact arithmetic refutes the 'holds on [2, 500]' part at m = 5:
    36^2 = 1296 < 20 * 65 = 1300 (values confirmed by brute-force
    enumeration of partitions of 8, 10, 12 by rank).  Expected to FAIL.
    """
    rep = turan_report(p2_big, "2", (2, 500))
    assert rep.holds, (
        "log-concavity is violated inside [2, 500]: "
        f"failures at {rep.failures} (at m=5: 36^2 = 1296 < 20*65 = 1300)"
    )
    _announce("log-concavity-claimed-window")


def test_log_concavity_measured(p2_big):
    t0 = time.time()
    rep = turan_report(p2_big, "2", (1, 500))
    assert rep.failures == (1, 5)
    assert rep.equalities == (3,)
    assert turan_report(p2_big, "2", (6, 500)).holds
    elapsed = time.time() - t0
    assert elapsed < 1.0
    _announce(
        "log-concavity-measured",
        f"fails exactly at m in {{1, 5}}, equality at m = 3, holds on [6, 500]; {elapsed:.2f}s",
    )


# 7 -------------------------------------------------------------------------


def test_convexity(p2_big):
    # even sizes 4..200 are halved indices 2..100
    rep = turan_report(p2_big, "convexity", (2, 100))
    assert rep.holds
    # the pair at even size 2 (halved index 1) genuinely fails: 2*2 < 5
    assert pbar_eta(0, 2) * pbar_eta(0, 2) < pbar_eta(0, 4)
    _announce("convexity", "strict superadditivity on even sizes [4, 200]; fails at 2+2 as expected")


# 8 -------------------------------------------------------------------------


def test_hyperbolicity_onsets(p2_big):
    onsets = {}
    for d in (2, 3, 4, 5):
        m0 = hyperbolicity_onset(p2_big, d, 500)
        assert m0 is not None, f"degree {d} never stabilizes by 500"
        onsets[d] = m0
        assert not is_hyperbolic(jensen_poly(p2_big, d, m0 - 1))
    assert onsets[2] == 5 and onsets[3] == 24 and onsets[4] == 61 and onsets[5] == 121
    _announce(
        "hyperbolicity-onsets",
        "certified onsets m0(d): " + " ".join(f"d={d}:{m}" for d, m in onsets.items()),
    )


def test_hyperbolicity_claimed_degree2_onset(p2_big):
    """Claimed: degree-2 Jensen polynomials are hyperbolic from m = 2 on.

    J at shift 4 has coefficients (20, 72, 65) and discriminant -16 < 0, so
    the true onset is m0(2) = 5.  Expected to FAIL.
    """
    bad = [m for m in range(2, 501) if not is_hyperbolic(jensen_poly(p2_big, 2, m))]
    assert not bad, (
        f"degree-2 Jensen polynomial is not hyperbolic at shifts {bad}: "
        "coefficients (20, 72, 65) at shift 4 give discriminant -16 < 0"
    )
    _announce("hyperbolicity-claimed-degree2-onset")


# 9 -------------------------------------------------------------------------


def _hermite_distances(p2_big):
    out = {}
    for d in (2, 3, 4):
        for n in (1000, 10000):
            coeffs = renormalized_jensen(p2_big, d, n, renorm_sequences_step2(n))
            out[(d, n)] = hermite_distance(coeffs, d)
    return out


def test_hermite_convergence_claimed_bound(p2_big):
    """Claimed: renormalized distance to the Hermite limit <= 0.2 at n = 10^4
    for degrees 2, 3, 4.

    The cubic term of the log-ratio leaks into the parity-breaking
    coefficients at rate ~ n^{-1/4}; degree 2 reaches 0.003 but degree 3
    and 4 sit at ~0.455 and ~1.853 (0.2 would need n ~ 2.7e5 / 7e7).
    Expected to FAIL.
    """
    dist = _hermite_distances(p2_big)
    for d in (2, 3, 4):
        assert dist[(d, 10000)] <= 0.2, (
            f"degree {d}: distance at n=10^4 is {dist[(d, 10000)]:.4f} > 0.2 "
            f"(rate ~ n^(-1/4): measured {dist[(d, 1000)]:.4f} at n=10^3)"
        )
    _announce("hermite-convergence-claimed-bound")


def test_hermite_convergence_measured(p2_big):
    dist = _hermite_distances(p2_big)
    for d in (2, 3, 4):
        assert dist[(d, 10000)] < dist[(d, 1000)], f"degree {d} not improving"
    assert dist[(2, 10000)] <= 0.2
    assert dist[(2, 10000)] == pytest.approx(0.003014, abs=2e-4)
    assert dist[(3, 10000)] == pytest.approx(0.4554, abs=2e-3)
    assert dist[(4, 10000)] == pytest.approx(1.8534, abs=5e-3)
    _announce(
        "hermite-convergence-measured",
        "distance(10^3 -> 10^4): "
        + " ".join(f"d={d}:{dist[(d,1000)]:.4f}->{dist[(d,10000)]:.4f}" for d in (2, 3, 4)),
    )


# 10 ------------------------------------------------------------------------


def test_dilog_identity_and_arc_dominance():
    worst = 0.0
    for b in range(2, 13):
        for k in range(1, b):
            if math.gcd(k, b) == 1:
                worst = max(worst, dilog_identity_residual(cmath.exp(2j * math.pi * k / b)))
    assert worst <= 1e-10
    for b in range(2, 13):
        arg_checks, _ = arc_dominance_check(b)
        assert all(c.holds for c in arg_checks)
    _, samples5 = arc_dominance_check(5)
    ratios = [s.ratio for s in samples5 if s.x == 0.02]
    assert ratios and all(r < 1 for r in ratios)
    _announce(
        "dilog-identity-and-arc-dominance",
        f"worst residual {worst:.2e}; b=5 x=0.02 worst minor/major ratio {max(ratios):.2e}",
    )


# 11 ------------------------------------------------------------------------


def test_report_determinism_and_cache_transparency(tmp_path):
    cache_dir = tmp_path / "cache"
    out1, out2, out3 = (tmp_path / d for d in ("r1", "r2", "r3"))
    assert main(["--cache-dir", str(cache_dir), "report", "--out", str(out1)]) == 0
    assert main(["--cache-dir", str(cache_dir), "report", "--out", str(out2)]) == 0
    assert main(["--no-cache", "report", "--out", str(out3)]) == 0
    names1 = sorted(p.name for p in out1.iterdir())
    assert names1 == sorted(p.name for p in out2.iterdir()) == sorted(p.name for p in out3.iterdir())
    for name in names1:
        bytes1 = (out1 / name).read_bytes()
        assert bytes1 == (out2 / name).read_bytes(), f"{name} differs between warm-cache runs"
        assert bytes1 == (out3 / name).read_bytes(), f"{name} differs with cache disabled"
    _announce(
        "report-determinism-and-cache",
        f"{len(names1)} files byte-identical across two cached runs and one uncached run",
    )
