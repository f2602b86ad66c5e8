"""Chebyshev polynomials of both kinds and geometric trigonometric sums.

``roll`` is the package's one three-term recurrence loop, for floats,
Fractions, ``Poly`` objects and numpy arrays alike: ``recur`` fills a table
from it, ``cheb_eval`` takes its n-th value, each Chebyshev row rolls once,
and ``genfun``'s series oracle steps all slots at once in two reused
buffers.  T_n, U_n and the q-families h_n, b_n of ``qseries`` all run on it.
The Chebyshev step is P_{n+1} = 2x P_n - P_{n-1} with (T_0, T_1) = (x^0, x)
and (U_0, U_1) = (x^0, 2x), so arguments outside [-1, 1] are legal.
Negative indices are mapped first:

    T_{-i} = T_i          U_{-1} = 0,  U_{-i} = -U_{i-2}  (i >= 2)

which is exactly what the recurrence run backwards produces.

The geometric sums evaluate sum_{n>=0} rho^n cos(n*alpha + beta) (and the
sin analog) in closed form, for the angle path of ``genfun``, and their
multi-index generalization over subset expansions of any number of geometric
directions, for the lattice sums of ``kibble``.  ``sign_vector_sum`` is the
product-to-sum expansion over sign vectors that both angle forms share.
"""

from __future__ import annotations

import itertools
import math
from functools import lru_cache
from typing import NamedTuple, Sequence

from .errors import (ArityError, ConvergenceError, DomainError, ScaleError, SingularAngle,
                     require_below)
from .poly import MAX_DEGREE, Poly

MAX_MULTI_DIRECTIONS = 10  # C(5, 2) pairs: the shared step list holds at most 1023 entries
# A seed P_n takes n recurrence steps: about 3 s at this index with float arguments.
MAX_SEED_INDEX = 10 ** 7


class ChebIndex(NamedTuple):
    kind: str  # "T" or "U"
    index: int


def _mapped(kind: str, n: int) -> tuple[int, int]:
    """(sign, nonnegative index) after the negative-index rules."""
    if kind == "T":
        return 1, abs(n)
    if kind == "U":
        if n >= 0:
            return 1, n
        if n == -1:
            return 0, 0
        return -1, -n - 2
    raise ValueError(f"kind must be T or U, got {kind!r}")


def roll(p0, p1, step):
    """Yield p0, p1, then value m+1 = step(m, value m, value m-1), keeping two values.

    If ``step`` writes into its third argument, each value yielded from the third
    on is one of two reused buffers, valid until the next value is drawn.
    """
    yield p0
    yield p1
    for m in itertools.count(1):
        p0, p1 = p1, step(m, p1, p0)
        yield p1


def recur(out, p0, p1, step):
    """Fill ``out`` (a list or a preallocated numpy array) from ``roll`` and return it."""
    for m, p in enumerate(itertools.islice(roll(p0, p1, step), len(out))):
        out[m] = p
    return out


def _cheb_step(x):
    x2 = 2 * x  # 2 * x * p1 is (2 * x) * p1: made once, the same bits
    return lambda m, p1, p0: x2 * p1 - p0


def _cheb_roll(kind: str, x, step, top: int):
    """P_0(x), P_1(x), ... from (x ** 0, x) or (x ** 0, 2x), if P_top is within the index limit."""
    if top > MAX_SEED_INDEX:  # checked before any work: the steps grow as O(top)
        raise ScaleError(f"Chebyshev index {top} exceeds the supported limit {MAX_SEED_INDEX}")
    return roll(x ** 0, x if kind == "T" else 2 * x, step)


def _cheb_nth(kind: str, n: int, x):
    """P_n(x), n >= 0, rolled two values at a time."""
    return next(itertools.islice(_cheb_roll(kind, x, _cheb_step(x), n), n, None))


def cheb_eval(c: ChebIndex, x):
    """T_n or U_n at a number, Fraction, numpy array or ``Poly`` x, of x's type: U_{-1} is 0 * x."""
    sign, n = _mapped(c.kind, c.index)
    return sign * _cheb_nth(c.kind, n, x) if sign else 0 * x


def cheb_seq(kind: str, start: int, count: int, x) -> list:
    """[P_{start}, ..., P_{start+count-1}]: from start >= 0 a slice of one roll from P_0; below,
    the recurrence, which holds for all integer n, from both seeds ``cheb_eval`` gives, one roll."""
    if count <= 0:
        return []
    step = _cheb_step(x)
    if start >= 0:
        return list(itertools.islice(_cheb_roll(kind, x, step, start + 1), start, start + count))
    (s0, n0), (s1, n1) = _mapped(kind, start), _mapped(kind, start + 1)
    top = max(n0, n1)
    near = list(itertools.islice(_cheb_roll(kind, x, step, top), max(top - 1, 0), top + 1))
    p0, p1 = (s * near[n - top - 1] if s else 0 * x for s, n in ((s0, n0), (s1, n1)))  # n: top or top-1
    return recur([None] * count, p0, p1, step)


@lru_cache(maxsize=None)
def _cheb_poly_cached(kind: str, n: int, var: str) -> Poly:
    m = _mapped(kind, n)[1]
    if m > MAX_DEGREE:  # checked before any work: the recurrence would run for hours
        raise ScaleError(f"Chebyshev degree {m} exceeds the supported limit {MAX_DEGREE}")
    return cheb_eval(ChebIndex(kind, n), Poly.variable(var))


def cheb_poly(c: ChebIndex, var: str = "x1") -> Poly:
    """T_n or U_n as an exact univariate polynomial in ``var``."""
    return _cheb_poly_cached(c.kind, c.index, var)


def geom_trig_sum(kind: str, rho: float, alpha: float, beta: float) -> float:
    """Closed form of sum_{n>=0} rho^n trig(n*alpha + beta) for |rho| < 1."""
    if kind not in ("sin", "cos"):
        raise ValueError(f"kind must be sin or cos, got {kind!r}")
    require_below("rho", rho, strict=True)
    f = math.sin if kind == "sin" else math.cos
    den = 1 - 2 * rho * math.cos(alpha) + rho * rho
    if den == 0:
        raise ConvergenceError(f"the geometric denominator rounds to 0 at rho = {rho}")
    return (f(beta) - rho * f(beta - alpha)) / den


def multi_trig_sum(kind: str, rhos: Sequence[float],
                   sets: Sequence[tuple[Sequence[float], float]]) -> list[float]:
    """Closed forms of the multi-geometric sums

        sum_{k_1..k_n >= 0} (prod rho_i^{k_i}) trig(beta + sum k_i alpha_i)

    for one list of ratios and each ``(alphas, beta)`` in ``sets``, in order.
    Each is a signed subset sum over the direction set divided by the product
    of the individual geometric denominators.  Subsets are walked in Gray-code
    order so each step updates the running product and angle by one factor;
    the running products depend on the ratios only, so they are made once and
    every set walks the same steps.
    """
    if kind not in ("sin", "cos"):
        raise ValueError(f"kind must be sin or cos, got {kind!r}")
    if len(rhos) > MAX_MULTI_DIRECTIONS:
        raise DomainError(f"at most {MAX_MULTI_DIRECTIONS} directions supported")
    for alphas, _ in sets:
        if len(rhos) != len(alphas):
            raise ArityError(f"{len(rhos)} ratios vs {len(alphas)} angles")
    require_below("rho_i", rhos, strict=True)
    f = math.sin if kind == "sin" else math.cos
    # Directions with rho = 0 only contribute through the empty subset.
    live = [i for i, r in enumerate(rhos) if r != 0]
    # Per Gray step: the product signed by the subset's sign (-1)^i (adding
    # -p * v is subtracting p * v), the live direction, and whether it joins.
    steps = []
    prod = 1.0
    gray = 0
    for i in range(1, 2 ** len(live)):
        step = i & -i  # the Gray-code bit that step i flips
        k = step.bit_length() - 1
        gray ^= step
        add = bool(gray & step)
        prod = prod * rhos[live[k]] if add else prod / rhos[live[k]]
        steps.append((-prod if i & 1 else prod, k, add))
    out = []
    for alphas, beta in sets:
        den = 1.0
        for r, a in zip(rhos, alphas):
            den *= 1 + r * r - 2 * r * math.cos(a)
        if den == 0:
            raise ConvergenceError(f"the geometric denominator rounds to 0 at ratios {list(rhos)}")
        angles = [alphas[i] for i in live]
        total = f(beta)  # empty subset
        angle = 0.0
        for signed, k, add in steps:
            angle = angle + angles[k] if add else angle - angles[k]
            total += signed * f(beta - angle)
        out.append(total / den)
    return out


def left_sum(terms) -> float:
    """The terms added left to right from 0.0.

    The built-in ``sum`` adds floats with compensation from Python 3.12 on,
    so float sums use this to keep their bits on every version.
    """
    total = 0.0
    for v in terms:
        total += v
    return total


def sign_vector_sum(alphas: Sequence[float], u_slots: Sequence[int], values_of) -> float:
    """Product-to-sum expansion of K angle factors over the sign vectors i in {+1, -1}^K.

    The slots in ``u_slots`` (the U slots) carry a sine divided by
    sin(alpha_s), the others a cosine.  Each sign vector contributes
    (-1)^(number of U slots with i_s = +1) times a value that ``values_of``
    computes: it takes the list of (signed angles i_s * alpha_s, their sum A)
    for the half of the vectors with last sign -1 and returns one float each,
    in one batch.  The vectors i and -i give equal contributions (the angles
    negate and the U-slot parity moves to n minus itself), so each value is
    added twice, in the order of all 2^K vectors.  The total carries the sign
    (-1)^((n+1)//2) for n U slots and is divided by 2^K and by the sines of
    the U-slot angles.  Every sum is a ``left_sum``.  A non-finite angle
    raises DomainError, a U-slot angle whose cosine rounds to +-1 SingularAngle.
    """
    if not all(map(math.isfinite, alphas)):
        raise DomainError(f"angles must be finite, got {list(alphas)}")
    singular = [s for s in u_slots if abs(math.cos(alphas[s])) == 1.0]
    if singular:
        raise SingularAngle(f"cos(alpha_{singular[0] + 1}) = +-1: the angle form divides by its sine")
    sines = [math.sin(alphas[s]) for s in u_slots]
    K = len(alphas)
    u_mask = sum(1 << s for s in u_slots)
    vectors, flips = [], []
    for bits in range(2 ** (K - 1)):
        signed = [a if (bits >> s) & 1 else -a for s, a in enumerate(alphas)]
        vectors.append((signed, left_sum(signed)))
        flips.append((-1) ** (bits & u_mask).bit_count())
    halves = [f * v for f, v in zip(flips, values_of(vectors))]
    total = left_sum(halves + halves[::-1])  # all 2^K vectors in order: -i mirrors i
    return (-1) ** ((len(u_slots) + 1) // 2) * total / (2 ** K * math.prod(sines))


def cheb_values_row(kind: str, x: float, count: int) -> "object":
    """numpy array [P_0(x), ..., P_{count-1}(x)] for lattice summations, rolled on a float."""
    import numpy as np

    return np.array(cheb_seq(kind, 0, count, float(x)))


def cheb_seq_grid(kind: str, start: int, count: int, x):
    """``cheb_seq`` over a numpy array of arguments, stacked to shape (count, *x.shape)."""
    import numpy as np

    return np.array(cheb_seq(kind, start, count, np.asarray(x, dtype=float)))
