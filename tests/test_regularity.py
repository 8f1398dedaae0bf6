import math
from fractions import Fraction as F

import numpy as np
import pytest

from fraclab import (
    Ball,
    HypothesisViolation,
    ParameterError,
    build_domain,
    exponent_range,
    lp_norm,
    p31_case1_threshold,
    power_law_cell_average,
    regularity_probe,
)
from fraclab.grids import centered_ball_domain, node_radii


def test_p31_case1_spec_value():
    r = exponent_range("P3.1", 2, F(3, 4), F(1, 2), 1)
    assert r.case_index == 1
    assert r.upper == F(2)
    assert not r.upper_inclusive


def test_p31_case3_spec_value():
    r = exponent_range("P3.1", 2, F(3, 4), F(1, 2), 2)
    assert r.case_index == 3
    assert r.upper == F(8)
    assert not r.upper_inclusive


def test_llpps_case1_spec_value():
    r = exponent_range("L-LPPS", 2, F(3, 4), None, 1)
    assert r.case_index == 1
    assert r.upper == F(4)
    assert not r.upper_inclusive


def test_p31_case2_inclusive():
    # 1 < m < N/2s: interior case carries an inclusive bound
    r = exponent_range("P3.1", 3, F(3, 5), F(1, 2), F(6, 5))
    assert r.case_index == 2
    assert r.upper == F(6, 5) * 3 / (3 - F(6, 5) * (F(6, 5) - F(1, 2)))
    assert r.upper_inclusive


def test_p31_case4_unbounded():
    r = exponent_range("P3.1", 2, F(3, 4), F(1, 2), 10)
    assert r.case_index == 4
    assert r.upper == math.inf
    assert r.contains(1000)


def test_cor_ts_equals_p31_at_t_equals_s():
    for (N, s, m) in ((2, F(3, 4), 1), (2, F(3, 4), F(3, 2)), (3, F(5, 8), 2), (2, F(7, 10), 50)):
        a = exponent_range("Cor-t=s", N, s, None, m)
        b = exponent_range("P3.1", N, s, s, m)
        assert a.upper == b.upper
        assert a.upper_inclusive == b.upper_inclusive
        assert a.case_index == b.case_index


def test_p31_case2_at_t_one_recovers_lap_bound():
    # the t -> 1 limit of the case-2 formula is the W^{1,p} bound of L-AP
    N, s, m = 3, F(4, 5), F(5, 4)  # m < N/2s = 15/8 and m < N/(2s-1) = 5
    p31 = exponent_range("P3.1", N, s, 1 - F(1, 10**9), m)
    lap = exponent_range("L-AP", N, s, None, m)
    assert abs(float(p31.upper) - float(lap.upper)) < 1e-6
    exact_at_one = m * N / (N - m * (2 * s - 1))
    assert lap.upper == exact_at_one


def test_bound_monotone_in_m():
    # P3.1 cases 1-2: upper bound nondecreasing in m
    N, s, t = 2, F(3, 4), F(1, 2)
    uppers = []
    for m in (1, F(11, 10), F(12, 10), F(13, 10)):
        uppers.append(exponent_range("P3.1", N, s, t, m).upper)
    assert all(a <= b for a, b in zip(uppers, uppers[1:]))


def test_hypothesis_rejections_named():
    with pytest.raises(HypothesisViolation) as ei:
        exponent_range("P3.1", 1, F(3, 4), F(1, 2), 1)
    assert ei.value.condition == "N >= 2"
    with pytest.raises(HypothesisViolation) as ei:
        exponent_range("P3.1", 2, F(2, 5), F(1, 2), 1)
    assert "s in (1/2, 1)" == ei.value.condition
    with pytest.raises(HypothesisViolation):
        exponent_range("P-cr2", 2, F(3, 4), F(4, 5), 2)  # t >= s
    with pytest.raises(HypothesisViolation):
        exponent_range("P-cr2", 2, F(3, 4), F(1, 2), 1)  # m < N/2s
    with pytest.raises(HypothesisViolation):
        exponent_range("P-cr3", 2, F(3, 4), F(1, 2), 2)  # t <= s
    with pytest.raises(HypothesisViolation):
        exponent_range("L-LPPS", 2, F(3, 4), F(1, 2), 1)  # takes no t


def test_exact_rational_arithmetic():
    r = exponent_range("P-rg1", 3, F(7, 10), F(7, 10), F(3, 2))
    # mN/(N - m(2s - t)) = (3/2)*3 / (3 - (3/2)*(7/10)) = (9/2)/(39/20) = 30/13
    assert r.upper == F(30, 13)
    assert r.upper_inclusive
    assert r.contains(F(30, 13)) and not r.contains(F(31, 13))


@pytest.mark.parametrize("s", ["abc", "1/0", None, math.inf])
def test_malformed_rational_refused_by_name(s):
    # "1/0" raised ZeroDivisionError and inf OverflowError
    with pytest.raises(ParameterError, match=r"^cannot interpret .* as an exact rational$"):
        exponent_range("P3.1", 2, s, F(1, 2), 1)


def test_exact_rational_from_any_number():
    assert exponent_range("P3.1", 2, "3/4", 0.5, 1) == exponent_range("P3.1", 2, F(3, 4), F(1, 2), 1)


def test_overlap_window_both_surfaced():
    # P3.1 case 3 and P-cr2 case 1 both apply for N/2s <= m < N/(2s-t), t < s,
    # with different bounds for the same membership; both rows are reported
    # and no winner is chosen
    N, s, t, m = 2, F(3, 4), F(1, 2), F(3, 2)
    rows = {prop: exponent_range(prop, N, s, t, m) for prop in ("P3.1", "P-cr2")}
    assert rows["P3.1"].upper == F(24, 5)  # mN/(t(N - m(2s-1)))
    assert rows["P-cr2"].upper == F(6)  # mN/(N - m(2s-t))
    assert rows["P3.1"].upper != rows["P-cr2"].upper


def test_p31_case1_threshold_helper():
    assert p31_case1_threshold(1, 0.6, 0.5) == pytest.approx(1.0 / 0.3, rel=1e-12)
    assert p31_case1_threshold(1, 0.75, 0.5) == math.inf  # degenerate denominator


def test_power_law_cell_average_mass():
    dom = build_domain(Ball(center=(0.0,), radius=1.0), 200, margin_cells=20)
    beta = 0.8
    f = power_law_cell_average(dom, beta)
    exact = 2.0 / (1.0 - beta)  # int_{-1}^{1} |x|^-0.8
    assert lp_norm(f, 1.0) == pytest.approx(exact, rel=1e-2)


# measured: 4.4e-3 at beta = 0.8 and 2.4e-2 at beta = 1.2 (2D, n = 32)
@pytest.mark.parametrize("beta, bound", [(0.8, 6e-3), (1.2, 3e-2)])
def test_power_law_cell_average_2d(beta, bound):
    dom = centered_ball_domain(2, 32, 1.0)
    f = power_law_cell_average(dom, beta).interior
    r = node_radii(dom)
    far = r >= 4.0 * dom.h
    assert np.array_equal(f[far], r[far] ** -beta)
    # the near-origin cells against a 64-per-axis midpoint average
    off = ((np.arange(64) + 0.5) / 64 - 0.5) * dom.h
    pts = np.stack([g.ravel() for g in np.meshgrid(off, off, indexing="ij")], axis=1)
    y = dom.interior_coords[~far][:, None, :] + pts[None, :, :]
    ref = (np.linalg.norm(y, axis=-1) ** -beta).mean(axis=1)
    assert np.abs(f[~far] / ref - 1.0).max() <= bound


def test_probe_smooth_data_bounded():
    rep = regularity_probe(0.0, 0.6, 0.5, 2.6, (32, 128, 512), m=1.0, N=1)
    assert rep.classification == "bounded"
    assert rep.route == "seminorm"


def test_probe_validation():
    with pytest.raises(ParameterError):
        regularity_probe(1.5, 0.6, 0.5, 2.0, (32, 128, 512), N=1)  # beta >= N
    with pytest.raises(ParameterError):
        regularity_probe(0.5, 0.6, 0.5, 2.0, (32,), N=1)  # single level
