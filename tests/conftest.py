import math
import sys
from fractions import Fraction
from pathlib import Path
from typing import List

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import pytest

from freewalk import (WeightedFreeGroup, default_params, uniform_ps_measure,
                      measure_constants)
from freewalk.measures import _length_counts


# the oracle for `measures._length_counts` shared by test_measures and
# test_properties
def weighted_shell_counts(group: WeightedFreeGroup, horizon: int) -> List[int]:
    """S_k = number of gamma with ||gamma|| in the annulus (k-1/2, k+1/2],
    for k = 0..horizon (orbit of the identity)."""
    counts = [0] * (horizon + 1)
    for length, cnt in _length_counts(group, Fraction(2 * horizon + 1, 2)).items():
        counts[math.ceil(length - Fraction(1, 2))] += cnt
    return counts


def refine_to(f, leaves):
    """f on the partition `leaves`, which refines f's cells."""
    return f.over(f.group, {w: f.num_at(w) for w in leaves}, f.den)


def materialize_depth(nu, depth: int):
    """nu stored on the cells of the depth-`depth` sphere."""
    return nu.materialize(nu.group.sphere(depth))


@pytest.fixture(scope="session")
def f2():
    return WeightedFreeGroup(2)


@pytest.fixture(scope="session")
def f3():
    return WeightedFreeGroup(3)


@pytest.fixture(scope="session")
def params2(f2):
    return default_params(f2)


@pytest.fixture(scope="session")
def nu2(f2, params2):
    return uniform_ps_measure(f2, params2)


@pytest.fixture(scope="session")
def constants2(nu2, params2):
    return measure_constants(nu2, params2, max_len=3, ds=(0, 1))
