import math
import re

import numpy as np
import pytest

from fraclab import (
    Ball,
    ParameterError,
    ThresholdConstants,
    apply_B_sq,
    ball_membership,
    build_domain,
    gagliardo_double_sum,
    lemma_g_root,
    lp_norm,
    optimality_obstruction,
    radial_bump,
    regularity_probe,
    threshold_from_constants,
)
from fraclab import grids
from fraclab.kernels import origin_cell_moment

nan = math.nan


@pytest.fixture(scope="module")
def u():
    dom = build_domain(Ball(center=(0.0,), radius=1.0), 40, margin_cells=4)
    return radial_bump(dom, (0.0,), 0.7)


@pytest.fixture
def domain_builds(monkeypatch):
    """Nodes per axis of every GridDomain built during the test."""
    builds = []
    init = grids.GridDomain.__init__

    def counted(self, *args, **kwargs):
        init(self, *args, **kwargs)
        builds.append(self.nodes_per_axis)

    monkeypatch.setattr(grids.GridDomain, "__init__", counted)
    return builds


# each call returned a value, or refused naming another cause than its argument
@pytest.mark.parametrize(
    "call, message",
    [
        (lambda u: lemma_g_root(nan, 1.0, 2.0), "a must be positive and finite, got nan"),
        (lambda u: lemma_g_root(1.0, 1.0, nan), "p must exceed 1, got nan"),
        (
            lambda u: threshold_from_constants(
                ThresholdConstants(reg_constant=1.0, mu_inf=nan, f_norm=1.0, embed_constant=1.0), "P_lambda"
            ),
            "mu_inf must be positive and finite, got nan",
        ),
        (lambda u: ball_membership(u, 0.6, 0.1, 2.0, nan), "radius must be positive and finite, got nan"),
        (lambda u: lp_norm(u, nan), "p must be >= 1, got nan"),
        (lambda u: regularity_probe(0.0, 0.6, 0.5, 2.0, (32, 64), m=nan, N=1), "m must be >= 1, got nan"),
        (lambda u: regularity_probe(0.0, 0.6, 0.5, nan, (32, 64, 128), N=1), "p must be >= 1, got nan"),
        (lambda u: regularity_probe(nan, 0.6, 0.5, 2.0, (32, 64), N=1), "beta must be below 1, got nan"),
        (lambda u: optimality_obstruction(2, 0.55, nan, 0.25, [1.0, 0.5]), "m must be >= 1, got nan"),
        (lambda u: origin_cell_moment(0.1, 2, nan), "power must exceed -2, got nan"),
        (lambda u: radial_bump(u.domain, (0.0,), nan), "rho must be positive and finite, got nan"),
        (lambda u: apply_B_sq(u, 0.6, nan), "q must exceed 1, got nan"),
        (lambda u: gagliardo_double_sum(u, nan, 0.6), "p must be >= 1, got nan"),
    ],
    ids=[
        "lemma_g_root-a",
        "lemma_g_root-p",
        "threshold-mu_inf",
        "ball_membership-radius",
        "lp_norm-p",
        "regularity_probe-m",
        "regularity_probe-p",
        "regularity_probe-beta",
        "optimality_obstruction-m",
        "origin_cell_moment-power",
        "radial_bump-rho",
        "apply_B_sq-q",
        "gagliardo_double_sum-p",
    ],
)
def test_nan_argument_is_refused_by_name(u, table_builds, domain_builds, call, message):
    with pytest.raises(ParameterError, match=f"^{re.escape(message)}$"):
        call(u)
    assert table_builds == []
    assert domain_builds == []


@pytest.mark.parametrize("value", [math.inf, -math.inf, None])
def test_infinite_or_missing_argument_is_refused_by_name(value):
    with pytest.raises(ParameterError, match=f"^embed_constant must be positive and finite, got {value}$"):
        threshold_from_constants(
            ThresholdConstants(reg_constant=1.0, mu_inf=1.0, f_norm=1.0, embed_constant=value), "P_lambda"
        )
