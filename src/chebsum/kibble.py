"""Chebyshev lattice sums over symmetric correlation matrices.

For a symmetric n x n matrix with zero diagonal and entries rho_ij, the sums

    f_T = sum_S prod rho_ij^{s_ij} * prod_m T_{s_m}(x_m)
    f_U = sum_S prod rho_ij^{s_ij} * prod_m U_{s_m}(x_m)

run over all symmetric nonnegative-integer matrices S with zero diagonal,
where s_m is the m-th row sum.  Both are rational in the x_m with common
denominator prod_{i<j} w_2(x_i, x_j | rho_ij).

Closed-form evaluation composes the product-to-sum expansion with the
multi-geometric subset sums: each of the 2^n sign vectors contributes one
multi-direction geometric sum whose directions are the n(n-1)/2 pairs with
angles beta_ij = i_i*a_i + i_j*a_j.  The f_U branch uses the sin sum with
beta = sum i_j*a_j when n is odd and the cos sum when n is even (the parity
of the number of sine factors in the product-to-sum step).

The oracle sums the defining lattice directly.  It is organized as a
vertex-elimination pass: pair exponents are accumulated axis by axis with
per-level partial products, and a vertex's Chebyshev factor is contracted as
soon as all its pairs have been absorbed.  This is an exact reorganization
of the nested loops over the truncated lattice (associativity only, no
closed-form shortcuts), with per-pair caps chosen so the dropped geometric
tails are negligible.  The first vertex's contraction is an outer product
of its pair powers times one row value per column (its exponent is the sum
of theirs); later pairs are shift-added in row blocks that keep each
element's terms in ascending shift order (``_shift_add``).
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from itertools import accumulate
from typing import Mapping, Sequence

from .cheb import cheb_values_row, multi_trig_sum, sign_vector_sum
from .denom import build_w
from .errors import DomainError, ScaleError, require_below
from .poly import Poly

MAX_KIBBLE_N = 5
BUDGET = 6.0e8
CAP_EPS = 1e-16
_BLOCK = 2 ** 14  # elements per row block of the oracle's shifted adds


@dataclass(frozen=True)
class CorrMatrix:
    """Upper-triangular store of pairwise correlations rho_ij, |rho_ij| < 1."""

    n: int
    entries: tuple[tuple[tuple[int, int], object], ...]

    @classmethod
    def from_dict(cls, n: int, values: Mapping[tuple[int, int], object]) -> CorrMatrix:
        if n < 1:
            raise DomainError("matrix dimension must be >= 1")
        if n > MAX_KIBBLE_N:
            raise ScaleError(f"n = {n} exceeds the supported maximum {MAX_KIBBLE_N}")
        ent = {}
        for (i, j), v in values.items():
            if not 1 <= i < j <= n:
                raise DomainError(f"pair ({i},{j}) out of range for n={n}")
            require_below(f"rho_{i}{j}", v, strict=True)
            ent[(i, j)] = v
        for i in range(1, n + 1):
            for j in range(i + 1, n + 1):
                ent.setdefault((i, j), 0)
        return cls(n, tuple(sorted(ent.items())))

    def pairs(self) -> list[tuple[int, int]]:
        return [p for p, _ in self.entries]

    def values(self) -> list:
        return [v for _, v in self.entries]


# --------------------------------------------------------------- closed form


def kibble_closed_eval(kind: str, alphas: Sequence[float], K: CorrMatrix) -> float:
    """Sign-vector plus subset-sum evaluation of f_T / f_U at x_m = cos(a_m).

    ``sign_vector_sum`` expands the product over the vertices, every one a U
    slot for f_U and none for f_T; the vectors it hands over go to one
    batched ``multi_trig_sum`` call with the pair angles s_i a_i + s_j a_j.
    """
    if kind not in ("T", "U"):
        raise ValueError(f"kind must be T or U, got {kind!r}")
    n = K.n
    if len(alphas) != n:
        raise DomainError(f"need {n} angles, got {len(alphas)}")
    pairs = K.pairs()
    rhos = [float(v) for v in K.values()]
    trig = "sin" if n % 2 and kind == "U" else "cos"

    def values_of(vectors):
        return multi_trig_sum(trig, rhos, [
            ([signed[i - 1] + signed[j - 1] for i, j in pairs], A if kind == "U" else 0.0)
            for signed, A in vectors])

    return sign_vector_sum(alphas, range(n) if kind == "U" else (), values_of)


# -------------------------------------------------------------------- oracle


def _edge_caps(K: CorrMatrix, cutoff: int) -> dict[tuple[int, int], int]:
    caps = {}
    for (i, j), v in K.entries:
        r = abs(float(v))
        if r == 0.0:
            caps[(i, j)] = 0
        else:
            caps[(i, j)] = min(cutoff, max(1, math.ceil(math.log(CAP_EPS) / math.log(r))))
    return caps


def _plan_cost(n: int, order: list[int], caps: dict) -> float:
    """Work estimate for the elimination pass under a vertex order."""
    extents = {v: 1 for v in order}
    done = set()
    cost = 0.0
    for v in order:
        done.add(v)
        for u in order:
            if u in done or u == v:
                continue
            e = (min(v, u), max(v, u))
            c = caps[e]
            extents[v] += c
            extents[u] += c
            size = reduce(lambda a, b: a * b, (extents[w] for w in order if w not in done or w == v), 1.0)
            cost += (c + 1) * size
        extents.pop(v)
    return cost


def _in_c_order(arr):
    """``arr`` in C order, rewritten over its base if it is a permuted view.

    A view here permutes the axes after the first of a C-contiguous base, so
    the two orders agree on axis 0 and the base is rewritten one slice along
    it at a time, without a second full-size array.
    """
    if arr.flags.c_contiguous:
        return arr
    out = arr.base.reshape(arr.shape)
    for i in range(len(arr)):
        out[i] = arr[i].copy()
    return out


def _shift_add(arr, ws):
    """sum_s ws[s] * arr shifted by s along axes 0 and 1, into a new array.

    Row blocks of about _BLOCK elements run from the last down, the shifts
    ascending in each, so every element takes its terms in ascending s.
    """
    import numpy as np

    sa, sb = arr.shape[:2]
    out = np.zeros((sa + len(ws) - 1, sb + len(ws) - 1) + arr.shape[2:])
    rows = max(1, _BLOCK // (arr.size // sa))
    tmp = np.empty((min(rows, sa),) + arr.shape[1:])
    for lo in reversed(range(0, sa, rows)):
        block = arr[lo:lo + rows]
        for s, w in enumerate(ws):
            out[lo + s:lo + s + len(block), s:s + sb] += np.multiply(block, w, out=tmp[:len(block)])
    return out


def kibble_series_oracle(kind: str, xs: Sequence[float], K: CorrMatrix,
                         cutoff: int) -> float:
    """Direct truncated lattice sum of the defining series.

    Every pair exponent runs from 0 up to min(cutoff, the point where the
    geometric factor |rho_ij|^s drops below CAP_EPS).  The dropped tail is
    geometrically dominated: per pair it is at most
    |rho|^{cap+1} / (1 - |rho|) times the largest surviving row product.
    ScaleError is raised, before any summing, when the elimination-pass work
    estimate exceeds BUDGET elementary operations.
    """
    import numpy as np

    if kind not in ("T", "U"):
        raise ValueError(f"kind must be T or U, got {kind!r}")
    n = K.n
    if len(xs) != n:
        raise DomainError(f"need {n} coordinates, got {len(xs)}")
    require_below("x_m", list(xs), strict=False)
    if n == 1:
        return 1.0
    if cutoff < 0:
        raise DomainError("cutoff must be nonnegative")
    caps = _edge_caps(K, cutoff)
    order = sorted(range(1, n + 1),
                   key=lambda v: sum(c for e, c in caps.items() if v in e))
    cost = _plan_cost(n, order, caps)
    if cost > BUDGET:
        raise ScaleError(f"estimated work {cost:.3g} exceeds budget {BUDGET:.3g}")

    # [1.0, r, r*r, ...] by repeated multiplication, up to each pair's cap
    powers = {e: np.fromiter(accumulate([float(r)] * caps[e], operator.mul, initial=1.0), float)
              for e, r in K.entries}
    # The first vertex's index is the sum of its pair exponents, so each
    # contracted column holds one term: the powers in edge order times a row value.
    v = order[0]
    edges = [(min(v, u), max(v, u)) for u in order[1:]]
    row = cheb_values_row(kind, float(xs[v - 1]), 1 + sum(caps[e] for e in edges))
    arr = 0.0 + (reduce(np.multiply.outer, (powers[e] for e in edges))
                 * row[reduce(np.add.outer, (np.arange(caps[e] + 1) for e in edges))])
    axis_of = {u: i for i, u in enumerate(order[1:])}
    for stage, v in enumerate(order[1:], 1):
        # v's axis is 0: the vertices before it in ``order`` are summed out.
        for u in order[stage + 1:]:
            e = (min(v, u), max(v, u))
            if caps[e] == 0:
                continue
            # u's axis moves next to v's in a C-contiguous copy, so each
            # shifted add runs over contiguous blocks.
            ax_u = axis_of[u]
            arr = np.ascontiguousarray(np.moveaxis(arr, ax_u, 1))
            arr = np.moveaxis(_shift_add(arr, powers[e]), 1, ax_u)
        # tensordot sums in an order set by the memory layout: C order, as
        # on a freshly allocated array.
        arr = _in_c_order(arr)
        row = cheb_values_row(kind, float(xs[v - 1]), arr.shape[0])
        arr = np.tensordot(arr, row, axes=([0], [0]))
        dropped = axis_of.pop(v)
        for u in axis_of:
            if axis_of[u] > dropped:
                axis_of[u] -= 1
    return float(arr)


# --------------------------------------------------------------- denominator


def kibble_denominator(K: CorrMatrix, symbolic: bool = False) -> Poly:
    """prod over pairs of w_2(x_i, x_j | rho_ij) as an exact polynomial.

    With ``symbolic`` the correlations stay as variables rho_ij; otherwise
    the matrix entries (which must then be exact) are substituted.
    """
    if K.n == 1:
        return Poly.const(1, ("x1",))
    w2 = build_w(2).poly
    out = Poly.const(1)
    for (i, j), v in K.entries:
        factor = w2.rename({"x1": f"x{i}", "x2": f"x{j}"})
        if symbolic:
            factor = factor.rename({"rho": f"rho{i}{j}"})
        else:
            factor = factor.subs("rho", v if isinstance(v, (int, Fraction)) else Fraction(v))
        out = out * factor
    return out


# ----------------------------------------------------- published n=3 formula


def f_U3_closed(x: float, y: float, z: float,
                r12: float, r13: float, r23: float, symmetrized: bool = False) -> float:
    """The published explicit three-variable f_U expression, transcribed literally.

    Known to deviate from the closed evaluator and the oracle away from
    symmetric special cases; ``f_U3_compare`` reports the discrepancy.  With
    ``symmetrized`` the z**2 coefficient uses (r12 - r13*r23) instead of the
    printed (r12 - r12*r23), the value forced by coordinate-permutation
    symmetry; that reading matches the closed evaluator to rounding at every
    sampled point.
    """
    require_below("x_m", (x, y, z), strict=False)
    require_below("rho", (r12, r13, r23), strict=True)
    p = r12 * r13 * r23
    zc = r12 - r13 * r23 if symmetrized else r12 - r12 * r23
    num = (4 * r12 * r13 * (r23 - r12 * r13) * (1 - r23 ** 2) * x ** 2
           + 4 * r12 * r23 * (r13 - r12 * r23) * (1 - r13 ** 2) * y ** 2
           + 4 * r13 * r23 * zc * (1 - r12 ** 2) * z ** 2
           - 4 * (r13 - r12 * r23) * (r23 - r12 * r13) * (1 + p) * x * y
           - 4 * (r12 - r13 * r23) * (r23 - r12 * r13) * (1 + p) * x * z
           - 4 * (r13 - r12 * r23) * (r12 - r23 * r13) * (1 + p) * y * z
           + (1 - r12 ** 2) * (1 - r13 ** 2) * (1 - r23 ** 2) * (1 - p))
    w2 = build_w(2).poly
    den = (w2.eval({"x1": x, "x2": y, "rho": r12})
           * w2.eval({"x1": x, "x2": z, "rho": r13})
           * w2.eval({"x1": y, "x2": z, "rho": r23}))
    return num / den


@dataclass(frozen=True)
class FU3Comparison:
    published: float
    symmetrized: float
    closed: float

    @property
    def published_deviation(self) -> float:
        return abs(self.published - self.closed)

    @property
    def symmetrized_deviation(self) -> float:
        return abs(self.symmetrized - self.closed)


def f_U3_compare(x: float, y: float, z: float,
                 r12: float, r13: float, r23: float) -> FU3Comparison:
    """Published formula and its symmetrized reading against the closed form.

    No lattice is summed here; the kibble suite's counterexample records
    check the closed form and the series oracle at the published point.
    """
    K = CorrMatrix.from_dict(3, {(1, 2): r12, (1, 3): r13, (2, 3): r23})
    require_below("x_m", (x, y, z), strict=False)  # before acos
    alphas = [math.acos(x), math.acos(y), math.acos(z)]
    return FU3Comparison(
        f_U3_closed(x, y, z, r12, r13, r23),
        f_U3_closed(x, y, z, r12, r13, r23, symmetrized=True),
        kibble_closed_eval("U", alphas, K),
    )
