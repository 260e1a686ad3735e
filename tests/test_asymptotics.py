"""Floating-point asymptotics against closed forms and exact tables."""

import cmath
import math

import pytest

from bgrank.asymptotics import (
    HR_PARAMS,
    WrightParams,
    arc_dominance_check,
    dilog_identity_residual,
    f1_truncated_product,
    h_congruence_numeric,
    lerch_phi_unit,
    minus_root_angle_over_pi,
    rank_count_params,
    wright_asymptotic,
    wright_coefficient,
)
from bgrank.series import p_values, pbar_abn_values, pbar_eta

PI = math.pi


def root(b, k):
    return cmath.exp(2j * PI * k / b)


CATALAN = 0.915965594177219015054603514932384110774


def test_lerch_closed_forms():
    assert abs(lerch_phi_unit(-1.0, 1e-12) - PI**2 / 12) <= 1e-12
    # Li2(i) = -pi^2/48 + i G, so Phi(i,2,1) = Li2(i)/i = G + i pi^2/48
    assert abs(lerch_phi_unit(1j, 1e-12) - complex(CATALAN, PI**2 / 48)) <= 1e-12
    # Li2(-1) = -pi^2/12 via z * Phi(z,2,1)
    z = -1.0 + 0j
    assert abs(z * lerch_phi_unit(z, 1e-12) - (-(PI**2) / 12)) <= 1e-12


def test_lerch_rejects_bad_input():
    with pytest.raises(ValueError):
        lerch_phi_unit(0.5)
    with pytest.raises(ValueError):
        lerch_phi_unit(-1.0, tol=0.0)
    with pytest.raises(ValueError):
        lerch_phi_unit(1.0)


def test_lerch_tail_stability():
    # tightening the tolerance (longer partial sums) moves the value < tol
    for z in (-1.0, root(5, 1), root(12, 5)):
        coarse = lerch_phi_unit(z, 1e-8)
        fine = lerch_phi_unit(z, 1e-13)
        assert abs(coarse - fine) <= 1e-8


def test_dilog_identity_examples():
    assert dilog_identity_residual(-1.0) <= 1e-10
    assert dilog_identity_residual(1j) <= 1e-10
    assert dilog_identity_residual(root(5, 1)) <= 1e-10
    with pytest.raises(ValueError):
        dilog_identity_residual(1.0)


def major_arc(zeta, z):
    """Leading small-z form (1 - zeta)^(-1/2) exp(-zeta Phi(zeta,2,1) / z) of the product."""
    return cmath.exp(-zeta * lerch_phi_unit(zeta) / z) / cmath.sqrt(1.0 - zeta)


def test_f1_major_arc_ratio_converges():
    # direct product over leading singular form: error shrinks like z
    for zeta in (-1.0 + 0j, root(3, 1)):
        errors = []
        for z in (0.2, 0.1, 0.05):
            ratio = f1_truncated_product(zeta, z) / major_arc(zeta, z)
            errors.append(abs(ratio - 1))
        assert errors[0] > errors[1] > errors[2]
        assert errors[2] < 0.005
    # frozen first-run values, loose ulp margin
    got = abs(f1_truncated_product(-1.0 + 0j, 0.2) / major_arc(-1.0 + 0j, 0.2) - 1)
    assert got == pytest.approx(0.0083741, rel=1e-3)


def test_f1_major_arc_finite_off_axis():
    v = major_arc(-1.0 + 0j, 0.1 + 0.05j)
    assert v != 0 and abs(v) < math.inf
    with pytest.raises(ValueError):
        f1_truncated_product(-1.0, -0.1)


def test_wright_coefficient_anchors():
    A = PI**2 / 6
    assert wright_coefficient(A, 0.5) == pytest.approx(math.sqrt(PI) / (2 * math.sqrt(6)), rel=1e-13)
    assert wright_coefficient(A, 1.0) == pytest.approx(PI / (2 * 6**0.75), rel=1e-13)
    with pytest.raises(ValueError):
        wright_coefficient(-1.0, 0.5)


def test_hardy_ramanujan_calibration():
    got = HR_PARAMS.alpha * wright_coefficient(HR_PARAMS.A, HR_PARAMS.B)
    assert abs(got - 1 / (4 * math.sqrt(3))) <= 1e-12


def test_wright_vs_exact_p():
    pv = p_values(5000)
    for n in (1000, 5000):
        ratio = wright_asymptotic(n, HR_PARAMS) / pv[n]
        assert abs(ratio - 1) <= 0.02


def test_wright_vs_exact_rank_counts_monotone(p2_big):
    params = rank_count_params(1)
    assert params.alpha * wright_coefficient(params.A, params.B) * 2 == pytest.approx(
        6**-0.75, rel=1e-13
    )
    errors = []
    for n in (1000, 2000, 4000, 8000):
        ratio = wright_asymptotic(n, params) / pbar_eta(0, n)
        errors.append(abs(ratio - 1))
    assert errors[0] > errors[1] > errors[2] > errors[3]


def test_wright_params_validation():
    with pytest.raises(ValueError):
        WrightParams(A=-1.0, B=0.5, alpha=1.0)
    with pytest.raises(ValueError):
        WrightParams(A=1.0, B=0.5, alpha=1.0, arc_factor=0)
    with pytest.raises(ValueError):
        wright_asymptotic(0, HR_PARAMS)


def test_minus_root_angles_exact():
    from fractions import Fraction

    assert minus_root_angle_over_pi(2, 1) == 0  # -(-1) = 1
    assert minus_root_angle_over_pi(4, 1) == Fraction(-1, 2)  # -i
    assert minus_root_angle_over_pi(4, 3) == Fraction(1, 2)
    for b in range(2, 13):
        for k in range(1, b):
            r = minus_root_angle_over_pi(b, k)
            assert -1 < r <= 1
            z = -root(b, k)
            assert cmath.phase(z) == pytest.approx(float(r) * PI, abs=1e-12)


def test_arc_dominance_small():
    arg_checks, samples = arc_dominance_check(3)
    assert all(c.holds for c in arg_checks)
    assert all(s.ratio < 1 for s in samples)
    with pytest.raises(ValueError):
        arc_dominance_check(1)


def test_arc_dominance_results_are_frozen():
    arg_checks, samples = arc_dominance_check(2)
    assert repr(arg_checks[0]) == "ArgInequalityCheck(k=1, angle_over_pi=Fraction(0, 1), holds=True)"
    with pytest.raises(AttributeError):
        arg_checks[0].holds = False
    assert repr(samples[0]).startswith("ArcSample(a=0, slope=2, x=0.05, ratio=")
    with pytest.raises(AttributeError):
        samples[0].ok = False


def test_h_congruence_numeric_consistency():
    # summing the numeric class series over a recovers the rank-only series
    z = 0.3 + 0.1j
    total = sum(h_congruence_numeric(4, z))
    e2 = f1_truncated_product(1.0, 2 * z)
    assert total == pytest.approx(1 / (e2 * e2), rel=1e-10)


@pytest.mark.parametrize("z", [0.3, 0.3 + 0.1j])
@pytest.mark.parametrize("b", [2, 3, 4, 5, 7])
def test_h_congruence_class_values_match_exact_tables(b, z):
    # sizes past 400 weigh below e^{-120} against the exact class counts
    tables = pbar_abn_values(0, b, 400)
    got = h_congruence_numeric(b, z)
    assert len(got) == b
    for a, counts in enumerate(tables):
        want = sum(c * cmath.exp(-n * z) for n, c in enumerate(counts) if c)
        assert abs(got[a] - want) <= 1e-12 * abs(want), a
