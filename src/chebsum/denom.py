"""Common denominator polynomials w_n(x_1..x_n | rho).

Two independent constructions are provided and must agree exactly:

* ``build_w``: the sign-vector product.  Over sign vectors (i_1..i_n) with
  i_1 = +1 (cos is even, so flipping every sign repeats a factor) the product

      prod (1 - 2*rho*cos(i_1 a_1 + ... + i_n a_n) + rho^2)

  has 2**(n-1) quadratic factors; each cosine is expanded into the x/s basis
  by angle addition (x_i = cos a_i, marker s_i = sin a_i) and the sine
  markers cancel in the full product.

* ``build_w_recursive``: doubling.  w_n is obtained from w_{n-1} by replacing
  its last variable with cos(a + b) in one factor and cos(a - b) in the other
  and multiplying, which introduces two fresh variables.

w_n is symmetric in x_1..x_n, has degree 2**(n-1) in every x_i and degree
2**n in rho, and is strictly positive for x_i in [-1, 1], |rho| < 1.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .errors import ChebsumError, ScaleError
from .poly import Poly

MAX_ARITY = 5


@dataclass(frozen=True)
class WPoly:
    """A denominator polynomial together with its arity."""

    n: int
    poly: Poly


def _check_arity(n: int) -> None:
    if n < 1:
        raise ScaleError(f"arity must be >= 1, got {n}")
    if n > MAX_ARITY:
        raise ScaleError(f"arity {n} exceeds the supported maximum {MAX_ARITY}")


def _cos_of_sum(signs: list[int]) -> Poly:
    """cos(sum_i signs[i-1] a_i) by angle addition, skipping zero signs."""
    cos_acc, sin_acc = Poly.const(1), Poly.zero()
    for i, sign in enumerate(signs, start=1):
        if sign == 0:
            continue
        cos_p = Poly.variable(f"x{i}")
        sin_p = sign * Poly.variable(f"s{i}", (f"x{i}", f"s{i}"))
        cos_acc, sin_acc = (cos_acc * cos_p - sin_acc * sin_p,
                            sin_acc * cos_p + cos_acc * sin_p)
    return cos_acc


def _balanced_product(factors: list[Poly]) -> Poly:
    """Multiply pairwise in a balanced tree to keep intermediates small."""
    while len(factors) > 1:
        nxt = [factors[i] * factors[i + 1] for i in range(0, len(factors) - 1, 2)]
        if len(factors) % 2:
            nxt.append(factors[-1])
        factors = nxt
    return factors[0]


def _finish(n: int, w: Poly) -> WPoly:
    """w_n from a product in which the sine markers must have cancelled."""
    if any(w.uses(f"s{i}") for i in range(1, n + 1)):
        raise ChebsumError(f"sine markers must cancel in the product for w_{n}")
    w = w.drop_vars([v for v in w.vars if v.startswith("s")])
    # Re-embed so every x1..xn is present even where it cancelled (n=1 edge).
    return WPoly(n, w.embed([f"x{i}" for i in range(1, n + 1)] + ["rho"]))


@lru_cache(maxsize=None)
def build_w(n: int) -> WPoly:
    """Sign-vector product construction of w_n."""
    _check_arity(n)
    rho = Poly.variable("rho")
    factors = []
    for bits in range(2 ** (n - 1)):
        signs = [1] + [1 if (bits >> j) & 1 else -1 for j in range(n - 1)]
        factors.append(1 - 2 * rho * _cos_of_sum(signs) + rho * rho)
    return _finish(n, _balanced_product(factors))


@lru_cache(maxsize=None)
def build_w_recursive(n: int) -> WPoly:
    """Doubling construction; must equal build_w(n) exactly."""
    _check_arity(n)
    if n == 1:
        return build_w(1)
    prev = build_w_recursive(n - 1).poly
    a = n - 1
    plus = _cos_of_sum([0] * (a - 1) + [1, 1])    # cos(a_{n-1} + a_n)
    minus = _cos_of_sum([0] * (a - 1) + [1, -1])  # cos(a_{n-1} - a_n)
    return _finish(n, prev.subs(f"x{a}", plus) * prev.subs(f"x{a}", minus))


def w_specialize_one(n: int) -> Poly:
    """w_n with x_1 set to 1; equals the square of w_{n-1}(x_2..x_n)."""
    if n < 2:
        raise ScaleError("specialization needs arity >= 2")
    return build_w(n).poly.subs("x1", 1)


def w_shifted(n: int) -> Poly:
    """w_n on variables x_2..x_{n+1}, for comparisons against specializations."""
    mapping = {f"x{i}": f"x{i + 1}" for i in range(1, n + 1)}
    return build_w(n).poly.rename(mapping)


@lru_cache(maxsize=None)
def w_rho_coeff_polys(n: int) -> tuple[Poly, ...]:
    """Coefficients of rho^0..rho^(2^n) of w_n, in the x variables only."""
    return tuple(build_w(n).poly.coeff_of("rho", m) for m in range(2 ** n + 1))
