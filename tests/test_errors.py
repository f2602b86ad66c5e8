"""The convergence-region gate shared by every evaluator."""

import math
from fractions import Fraction

import numpy as np
import pytest

from chebsum.errors import DomainError, require_below


def test_require_below_accepts_the_region():
    require_below("rho", 0.5, strict=True)
    require_below("rho", Fraction(-9, 10), strict=True)
    require_below("x_i", [1.0, -1.0, Fraction(1, 2)], strict=False)
    require_below("x_i", [np.array([]), np.array([[0.5], [-1.0]])], strict=False)
    require_below("rho", np.empty((0, 3)), strict=True)  # an empty array passes


@pytest.mark.parametrize("name, values, strict, message", [
    ("rho", 1.0, True, r"\|rho\| must be < 1, got 1.0"),
    ("rho_23", math.nan, True, r"\|rho_23\| must be < 1, got nan"),
    ("x_m", (0.2, 1.5), False, r"\|x_m\| must be <= 1, got 1.5"),
    ("x_i", [np.array([0.5, -1.5])], False, r"\|x_i\| must be <= 1, got 1.5"),
    ("rho", np.array([0.1, math.nan]), True, r"\|rho\| must be < 1, got nan"),
    ("q", Fraction(-1), True, r"\|q\| must be < 1, got -1"),
])
def test_require_below_refuses(name, values, strict, message):
    with pytest.raises(DomainError, match=message):
        require_below(name, values, strict)
