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

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Iterable, Sequence

from .errors import ChebsumError, ScaleError
from .poly import Poly, Scalar

MAX_ARITY = 5
# A packed image key holds one _IMAGE_BITS field per slot: an index offset plus _IMAGE_BIAS,
# so offsets moved by less than _IMAGE_BIAS stay inside their fields.
_IMAGE_BITS = 32
_IMAGE_BIAS = 1 << (_IMAGE_BITS - 2)
_IMAGE_FIELD = (1 << _IMAGE_BITS) - 1


@dataclass(frozen=True)
class WPoly:
    """A denominator polynomial together with its arity."""

    n: int
    poly: Poly

    @cached_property
    def image(self) -> tuple[int, tuple[dict[int, Scalar], ...]]:
        """``chebyshev_image`` of the rho-coefficients, made on first use and kept on this
        w_n, so a cold round that clears ``build_w`` makes it again."""
        return chebyshev_image(self.poly.coeffs("rho"))


def image_key(offsets: Iterable[int]) -> int:
    """The packed key of per-slot index offsets, unbiased: added to an image key, it moves
    slot s by offsets[s]."""
    key = 0
    for s, o in enumerate(offsets):
        key += o << (_IMAGE_BITS * s)
    return key


def image_offsets(key: int, slots: int) -> list[int]:
    """The per-slot index offsets of an image key."""
    return [((key >> (_IMAGE_BITS * s)) & _IMAGE_FIELD) - _IMAGE_BIAS for s in range(slots)]


def chebyshev_image(coeffs: Sequence[Poly]) -> tuple[int, tuple[dict[int, Scalar], ...]]:
    """(D, images): each polynomial sum c x^a of ``coeffs``, all on x1..xK, as a shift of
    the Chebyshev-product basis, scaled by 2^D, D the largest |a| of any of them.

    2 x C_i = C_{i+1} + C_{i-1} holds for T and U at every integer i under the index
    rules, so 2^|a| x^a prod_s C_{s,i_s} = sum_k prod_s binom(a_s, k_s) C_{s,i_s+a_s-2k_s}:
    images[m] maps the offsets o = (a_s - 2k_s), packed by ``image_key`` with a bias, to
    the summed weights c 2^(D-|a|) prod_s binom(a_s, k_s), nonzero only.  The offsets are
    spread one slot at a time, so equal ones merge before the next slot.
    """
    D = max((sum(a) for coeff in coeffs for a in coeff.terms), default=0)
    images = []
    for coeff in coeffs:
        out = {image_key(_IMAGE_BIAS + e for e in a): c * 2 ** (D - sum(a))
               for a, c in coeff.terms.items()}
        for s in range(len(coeff.vars)):
            at, spread = _IMAGE_BITS * s, out
            out = {}
            for key, v in spread.items():
                e = ((key >> at) & _IMAGE_FIELD) - _IMAGE_BIAS  # still x_s's exponent
                for k in range(e + 1):
                    moved = key - (2 * k << at)
                    out[moved] = out.get(moved, 0) + v * math.comb(e, k)
        images.append({key: v for key, v in out.items() if v})
    return D, tuple(images)


def _check_arity(n: int) -> None:
    if n < 1:
        raise ScaleError(f"arity must be >= 1, got {n}")
    if n > MAX_ARITY:
        raise ScaleError(f"arity {n} exceeds the supported maximum {MAX_ARITY}")


_UNIT = (Poly.const(1), Poly.zero())  # (cos, sin) of the empty angle sum


def _angle_step(pair: tuple[Poly, Poly], i: int, sign: int):
    """The cos, then the sin, of an angle sum after adding sign * a_i, by angle addition;
    a caller that takes only the first makes no sine."""
    cos_acc, sin_acc = pair
    cos_p = Poly.variable(f"x{i}")
    sin_p = sign * Poly.variable(f"s{i}", (f"x{i}", f"s{i}"))
    yield cos_acc * cos_p - sin_acc * sin_p
    yield sin_acc * cos_p + cos_acc * sin_p


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
    # The angle steps to the sign prefixes (+1, i_2 .. i_{j+1}), indexed by the bits
    # j-1 .. 0 of i_{j+1} .. i_2 = +1, each one step from its parent's (cos, sin): 2^n - 1
    # steps, of which the last level's make only the cosines of the full sign vectors.
    steps = [_angle_step(_UNIT, 1, 1)]
    for j in range(n - 1):
        pairs = [tuple(step) for step in steps]
        steps = [_angle_step(pairs[bits % len(pairs)], j + 2, 1 if bits >> j else -1)
                 for bits in range(2 * len(pairs))]
    rho = Poly.variable("rho")
    two_rho, rho2 = 2 * rho, rho * rho
    return _finish(n, _balanced_product([1 - two_rho * next(step) + rho2 for step in steps]))


@lru_cache(maxsize=None)
def build_w_recursive(n: int) -> WPoly:
    """Doubling construction; must equal build_w(n) exactly."""
    _check_arity(n)
    if n == 1:
        return build_w(1)
    prev = build_w_recursive(n - 1).poly
    a = n - 1
    pair = tuple(_angle_step(_UNIT, a, 1))  # (cos, sin) of a_{n-1}
    plus, minus = (next(_angle_step(pair, n, sign)) for sign in (1, -1))  # cos(a_{n-1} +- a_n)
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
    return build_w(n).poly.coeffs("rho")
