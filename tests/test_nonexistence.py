import math

import numpy as np
import pytest

from fraclab import (
    Ball,
    ParameterError,
    build_domain,
    bump_family,
    lambda_star_star,
    optimality_obstruction,
    radial_bump,
    sample,
)

S = 0.75


@pytest.fixture(scope="module")
def setup2d():
    dom = build_domain(Ball(center=(0.0, 0.0), radius=1.0), 32, margin_cells=3)
    f = sample(lambda x, y: np.ones_like(x), dom)
    phi = radial_bump(dom, (0.0, 0.0), 0.6)
    return dom, f, phi


def _one(phi):
    return [("phi", phi)]


def test_lambda_star_star_scale_invariance(setup2d):
    dom, f, phi = setup2d
    c1 = lambda_star_star(f, 1.0, S, _one(phi))
    c3 = lambda_star_star(f, 1.0, S, _one(3.0 * phi))
    assert abs(c3.value - c1.value) <= 1e-10 * c1.value
    assert c1.value > 0.0


def test_lambda_star_star_mu_halving(setup2d):
    dom, f, phi = setup2d
    c1 = lambda_star_star(f, 1.0, S, _one(phi))
    c2 = lambda_star_star(f, 2.0, S, _one(phi))
    assert c2.value == c1.value / 2.0  # exact formula structure


def test_lambda_star_star_antitone_in_f(setup2d):
    dom, f, phi = setup2d
    f_big = sample(lambda x, y: 2.0 + x, dom)  # pointwise >= f
    c_small = lambda_star_star(f_big, 1.0, S, _one(phi))
    c = lambda_star_star(f, 1.0, S, _one(phi))
    assert c_small.value < c.value


def test_lambda_star_star_widening_bump_decreases(setup2d):
    dom, f, _ = setup2d
    vals = [
        lambda_star_star(f, 1.0, S, _one(radial_bump(dom, (0.0, 0.0), rho))).value
        for rho in (0.3, 0.5, 0.7, 0.9)
    ]
    assert all(a > b for a, b in zip(vals, vals[1:]))


def test_lambda_star_star_needs_positive_pairing(setup2d):
    dom, _, phi = setup2d
    f_neg = sample(lambda x, y: -np.ones_like(x), dom)
    with pytest.raises(ParameterError):
        lambda_star_star(f_neg, 1.0, S, _one(phi))
    with pytest.raises(ParameterError):
        lambda_star_star(dom.zeros(), 0.0, S, _one(phi))


@pytest.mark.parametrize("mu1", [math.nan, math.inf, 0.0, -1.0])
def test_bad_mu1_is_named_not_skipped(setup2d, mu1):
    # a NaN mu1 gave a NaN certificate, and the family minimum skipped every member
    # over a nonpositive one, then reported that all pairings were nonpositive
    dom, f, phi = setup2d
    message = f"^mu1 must be positive and finite, got {mu1}$"
    with pytest.raises(ParameterError, match=message):
        lambda_star_star(f, mu1, S, _one(phi))
    with pytest.raises(ParameterError, match=message):
        lambda_star_star(f, mu1, S, bump_family(dom, [(0.0, 0.0)], [0.5]))


def test_certify_names_a_bad_order(setup2d):
    dom, f, _ = setup2d
    with pytest.raises(ParameterError, match=r"^s must lie in \(0,1\), got 1.2$"):
        lambda_star_star(f, 1.0, 1.2, bump_family(dom, [(0.0, 0.0)], [0.5]))


def test_certify_names_a_member_on_another_domain():
    # the member's domain error was skipped like a nonpositive pairing, and the family
    # minimum reported that all pairings were nonpositive
    dom = build_domain(Ball(center=(0.0,), radius=1.0), 40, margin_cells=4)
    other = build_domain(Ball(center=(0.0,), radius=1.0), 44, margin_cells=4)
    f = sample(lambda x: np.ones_like(x), dom)
    with pytest.raises(ParameterError, match="^f and phi must live on the same domain$"):
        lambda_star_star(f, 1.0, 0.6, bump_family(other, [(0.0,)], [0.5]))


def test_certify_monotone_in_lambda(setup2d):
    dom, f, _ = setup2d
    family = bump_family(dom, [(0.0, 0.0), (0.2, 0.1)], [0.4, 0.6, 0.8])
    best = lambda_star_star(f, 1.0, S, family)
    # lambda is certified iff it exceeds the family minimum: not at half of it, and at
    # every larger multiple (a NaN or nonpositive minimum fails this)
    assert [lam > best.value for lam in (0.5 * best.value, 2.0 * best.value, 4.0 * best.value)] == [False, True, True]
    # the minimum is attained by a member and no member lies below it
    values = [lambda_star_star(f, 1.0, S, [member]).value for member in family]
    assert best.value == min(values)
    assert best.phi_id == family[values.index(min(values))][0]


def test_certify_growing_family_never_increases_min(setup2d):
    dom, f, _ = setup2d
    fam1 = bump_family(dom, [(0.0, 0.0)], [0.4])
    fam2 = fam1 + bump_family(dom, [(0.1, -0.1)], [0.5, 0.7])
    b1 = lambda_star_star(f, 1.0, S, fam1)
    b2 = lambda_star_star(f, 1.0, S, fam2)
    assert b2.value <= b1.value


def test_certify_empty_family_raises(setup2d):
    # an empty family and one with no positive pairing are told apart
    dom, f, _ = setup2d
    with pytest.raises(ParameterError, match="the family is empty"):
        lambda_star_star(f, 1.0, S, [])
    f_neg = sample(lambda x, y: -np.ones_like(x), dom)
    with pytest.raises(ParameterError, match="all pairings were nonpositive"):
        lambda_star_star(f_neg, 1.0, S, bump_family(dom, [(0.0, 0.0)], [0.5]))


def test_obstruction_hypothesis_gate():
    with pytest.raises(ParameterError):
        # (N - eps)/m = 1.7/2 < 2s
        optimality_obstruction(2, 0.6, 2.0, 0.3, [1.0, 0.5], nodes_per_axis=24)


def test_obstruction_quotients_decrease():
    table = optimality_obstruction(2, 0.55, 1.0, 0.25, [1.0, 0.5, 0.25], nodes_per_axis=48)
    quotients = [q for _, q in table]
    assert all(a > b for a, b in zip(quotients, quotients[1:]))


def test_obstruction_flat_near_exponent_boundary():
    # (N-eps)/m just above 2s: decay rate approaches 1
    steep = optimality_obstruction(2, 0.55, 1.0, 0.25, [1.0, 0.5], nodes_per_axis=40)
    flat = optimality_obstruction(2, 0.55, 1.0, 0.88, [1.0, 0.5], nodes_per_axis=40)
    decay_steep = steep[0][1] / steep[1][1]
    decay_flat = flat[0][1] / flat[1][1]
    assert decay_flat < decay_steep
