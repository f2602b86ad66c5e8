"""Closed forms for the mixed Chebyshev generating functions.

A spec (k, n, t) describes the power series in rho whose j-th coefficient is

    prod_{s=1..k} T_{j+t_s}(x_s) * prod_{s=k+1..k+n} U_{j+t_s}(x_s)

(first-kind slots first).  The series sums to a rational function l / w where
w = w_{k+n} is the common denominator of arity k+n and the numerator l is the
rho-truncation of the convolution of w's rho-coefficients with the Chebyshev
product sequence:

    l = sum_{j=0}^{2^(k+n)-1} rho^j sum_{m=0}^{j} [rho^m](w) * P_{j-m},
    P_i = prod T_{i+t_s}(x_s) prod U_{i+t_s}(x_s)

with negative shifted indices mapped by T_{-i} = T_i, U_{-i} = -U_{i-2}.
The same convolution must vanish identically at every order above
2^(k+n) - 1, which ``series_convolution_residual`` checks in the basis
prod_s C_{s,i_s}(x_s): x C_i = (C_{i+1} + C_{i-1}) / 2 holds at every integer
i, so each monomial of w times P_i is a short sum of basis elements.
It vanishes below order 0 too: the index rules continue cos(i a) and
sin((i+1) a) / sin a, so P_i is a combination of lambda^i over the
lambda = e^{i sigma.a}, sigma in {+1,-1}^K, and w = prod (1 - rho lambda).
So c_j = sum_{m<=j} [rho^m](w) P_{j-m}, the rho^j coefficient of l, equals
-sum_{m>j}; ``numerator_l`` takes the shorter side.

Three independent evaluation paths are provided: the closed form, a
truncated-series oracle, and a sign-vector expansion over angles.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Sequence

from .cheb import (ChebIndex, _mapped, cheb_poly, cheb_seq, cheb_seq_grid, geom_trig_sum,
                   left_sum, roll, sign_vector_sum)
from .denom import build_w, image_key, image_offsets, w_rho_coeff_polys
from .errors import ConvergenceError, DomainError, ScaleError, require_below
from .poly import Poly, Scalar

MAX_SLOTS = 4
# The exact builders refuse shifts whose numerator would run for minutes or more:
# about prod(|t_s| + 1) monomials with coefficients of max(|t_s| + 1) bits.
MAX_SHIFT_WORK = 2 ** 22
# chi_series_tail_bound sums at most about this many terms before its geometric majorant.
MAX_TAIL_TERMS = 10 ** 6
# The rho values at which the marginal and positivity grids evaluate chi_{n,0}.
GRID_RHOS = (-0.9, -0.5, 0.5, 0.9)
MAX_MARGINAL_POINTS = 128 ** 3  # mesh points of a marginal check: (n, j) = (3, 3) at 128 nodes


@dataclass(frozen=True)
class GenSpec:
    """k first-kind slots, n second-kind slots, one integer shift per slot."""

    k: int
    n: int
    t: tuple[int, ...]

    def __post_init__(self):
        if not isinstance(self.t, Sequence):
            raise DomainError(f"the shifts must be a sequence of integers, got {self.t!r}")
        object.__setattr__(self, "t", tuple(self.t))
        if not all(type(v) is int for v in (self.k, self.n, *self.t)):  # refuses a bool too
            raise DomainError(f"k, n and the shifts must be integers, got {(self.k, self.n, self.t)}")
        if self.k < 0 or self.n < 0 or self.k + self.n < 1:
            raise DomainError("need k, n >= 0 and k + n >= 1")
        if len(self.t) != self.k + self.n:
            raise DomainError(f"shift vector has {len(self.t)} entries, need {self.k + self.n}")

    @property
    def slots(self) -> int:
        return self.k + self.n

    def kind(self, s: int) -> str:
        """Kind of 1-based slot s."""
        return "T" if s <= self.k else "U"


def _check_scale(spec: GenSpec, exact: bool = False) -> GenSpec:
    """``spec``, unless k + n exceeds MAX_SLOTS or, for an exact builder, the shifts MAX_SHIFT_WORK."""
    if spec.slots > MAX_SLOTS:
        raise ScaleError(f"k + n = {spec.slots} exceeds the supported maximum {MAX_SLOTS}")
    sizes = [abs(t) + 1 for t in spec.t]
    if exact and math.prod(sizes) * max(sizes) > MAX_SHIFT_WORK:
        raise ScaleError(f"shifts {spec.t} exceed the work limit {MAX_SHIFT_WORK}")
    return spec


def _cheb_factors(spec: GenSpec, i: int) -> list[Poly]:
    """C_{1,i} .. C_{K,i}: the univariate Chebyshev factors of P_i, one per slot."""
    return [cheb_poly(ChebIndex(spec.kind(s), i + spec.t[s - 1]), var=f"x{s}")
            for s in range(1, spec.slots + 1)]


@lru_cache(maxsize=512)
def _numerator_cached(k: int, n: int, t: tuple[int, ...]) -> Poly:
    # With h = 2^(K-1), c_j takes m <= j for j < h and m > j for j >= h.  By the
    # index i of P_i, with [w]_{<d}, [w]_{>=d} the terms of w below and from rho^d,
    #   l = sum_{0<=i<h} rho^i [w]_{<h-i} P_i - sum_{1<=i<=h} rho^-i [w]_{>=h+i} P_-i.
    # Each band rho^(+-i) [w]_... is a slice of w's terms with their rho exponents
    # moved, multiplied one Chebyshev factor at a time, no index past h + 2.
    spec = GenSpec(k, n, t)
    K = spec.slots
    h = 2 ** (K - 1)
    w = build_w(K).poly
    bands = [(i, w.band("rho", 0, h - i, i)) for i in range(h)]
    bands += [(-i, -w.band("rho", h + i, 2 * h + 1, -i)) for i in range(1, h + 1)]
    acc = Poly.sum(math.prod(_cheb_factors(spec, i), start=band) for i, band in bands)
    return acc.embed([f"x{i}" for i in range(1, K + 1)] + ["rho"])


def numerator_l(spec: GenSpec) -> Poly:
    """Exact numerator polynomial of the closed form."""
    _check_scale(spec, exact=True)
    return _numerator_cached(spec.k, spec.n, spec.t)


def series_convolution_residual(spec: GenSpec, order: int) -> Poly:
    """sum_m [rho^m](w) * P_{order-m}; identically zero for order >= 2^(k+n).

    This is the rho^order coefficient of w * chi - l as a formal power series,
    summed by ``_basis_convolution`` from w's Chebyshev image: a zero residual
    runs no Poly product.
    """
    _check_scale(spec, exact=True)
    acc = _basis_convolution(spec, build_w(spec.slots).image, order)
    if order < 2 ** spec.slots:
        acc = acc - numerator_l(spec).coeff_of("rho", order)
    return acc


def _basis_convolution(spec: GenSpec, image: tuple[int, Sequence[dict[int, Scalar]]],
                       order: int) -> Poly:
    """sum_{m <= order} coeffs[m] * P_{order-m}, a polynomial in x1..xK, from
    ``image = denom.chebyshev_image`` of the coeffs.

    Each entry of images[m] moves by t_s - m in slot s, one integer add on its
    packed key (|t_s| < 2^11 under MAX_SHIFT_WORK, far inside the key's fields).
    The moved entries are summed; each that survives, at index order + o_s in
    slot s, is folded slot by slot by the index rules into the basis
    prod_s C_{s,j_s}(x_s), keyed by (j_1..j_K).  The sum is zero exactly when
    every key cancels; only a nonzero one is expanded back into monomials.
    """
    D, images = image
    K = spec.slots
    xs = tuple(f"x{s}" for s in range(1, K + 1))
    moved: dict[int, Scalar] = {}
    get = moved.get
    for m, entries in enumerate(images[:order + 1]):
        by = image_key(t - m for t in spec.t)
        for key, v in entries.items():
            key += by
            c = get(key, 0) + v
            if c:
                moved[key] = c
            else:
                del moved[key]
    tables: list[dict[int, tuple[int, int]]] = [{} for _ in xs]  # per slot: o -> (sign, j)
    acc: dict[tuple[int, ...], Scalar] = {}
    for key, v in moved.items():
        folded = []
        for s, (o, table) in enumerate(zip(image_offsets(key, K), tables), 1):
            hit = table.get(o)
            if hit is None:
                hit = table[o] = _mapped(spec.kind(s), order + o)
            v *= hit[0]
            folded.append(hit[1])
        if v:
            folded = tuple(folded)
            acc[folded] = acc.get(folded, 0) + v
    back = [math.prod((cheb_poly(ChebIndex(spec.kind(s), j), var=f"x{s}")
                       for s, j in enumerate(key, 1)), start=Poly.const(v, xs))
            for key, v in acc.items() if v]
    return Poly.sum([Poly.zero(xs)] + back) * Fraction(1, 2 ** D)


# ----------------------------------------------------------- numeric closed form


def _check_point(spec: GenSpec, xs, rho) -> None:
    """The arity and the convergence region: |x_i| <= 1 and |rho| < 1, numbers or arrays."""
    if len(xs) != spec.slots:
        raise DomainError(f"need {spec.slots} coordinates, got {len(xs)}")
    require_below("rho", rho, strict=True)
    require_below("x_i", list(xs), strict=False)


def chi_closed_value(spec: GenSpec, xs: Sequence, rho):
    """Evaluate the closed form at a point without expanding the numerator.

    The denominator's rho-coefficients and the Chebyshev products are
    evaluated first and convolved numerically, which is the same l / w value
    the symbolic path produces.  Exact inputs give an exact value.
    """
    _check_scale(spec)
    _check_point(spec, xs, rho)
    K = spec.slots
    point = {f"x{i + 1}": xs[i] for i in range(K)}
    wc = [c.eval(point) for c in w_rho_coeff_polys(K)]
    return _ratio(_coeffs(wc, _product_values(spec, 2 ** K, xs), 2 ** K), wc, rho)


def _coeffs(wc, prods, order: int) -> list:
    """c_j = sum_m wc[m] * P_{j-m} for j < order: the rho-free half of l / w.

    Shared by the scalar and the grid evaluators, like ``_ratio``.  Each sum starts
    from the integer 0 (exact inputs stay exact, a -0.0 becomes 0.0), then adds in place.
    """
    cs = []
    for j in range(order):
        cj = 0 + wc[0] * prods[j]
        for m in range(1, j + 1):
            cj += wc[m] * prods[j - m]
        cs.append(cj)
    return cs


def _ratio(cs, wc, rho):
    """l / w = sum_j c_j rho^j / sum_m wc[m] rho^m, a Fraction when both sums are ints.

    Each sum starts from the integer 0 as in ``_coeffs``; its first two terms are
    added out of place, since rho may carry extra leading axes (``marginal_check``).
    """
    sums = []
    for coeffs in (cs, wc):
        total = 0 + coeffs[0] + rho * coeffs[1]
        rp = rho * rho
        for c in coeffs[2:]:
            total += rp * c
            rp *= rho
        sums.append(total)
    num, den = sums
    if isinstance(den, float) and den == 0:
        raise ConvergenceError(f"the float denominator w rounds to 0 at rho = {rho}")
    return Fraction(num, den) if isinstance(num, int) and isinstance(den, int) else num / den


def _product_values(spec: GenSpec, count: int, xs: Sequence) -> list:
    """[P_0, ..., P_{count-1}] at numbers, Fractions or numpy arrays, the slots multiplied in order."""
    rows = [cheb_seq(spec.kind(s), spec.t[s - 1], count, xs[s - 1])
            for s in range(1, spec.slots + 1)]
    return list(map(math.prod, zip(*rows)))


def _grid_point(spec: GenSpec, xs_arrays, rho_array) -> tuple:
    """(xs, rho, grid): both grid evaluators' inputs as float arrays, checked by
    ``_check_point``, and the broadcast shape of the xs."""
    import numpy as np

    xs = [np.asarray(a, dtype=float) for a in xs_arrays]
    rho = np.asarray(rho_array, dtype=float)
    _check_point(spec, xs, rho)
    return xs, rho, np.broadcast_shapes(*(a.shape for a in xs))


_BLOCK_POINTS = 2 ** 15


def _leading_slice(a, ndim: int, sl):
    """``a`` cut to ``sl`` along the leading axis of an ndim-dimensional broadcast.

    Axes align from the right, so an array with fewer axes, or with length 1
    on that axis, is broadcast there and passes unchanged.
    """
    axis = a.ndim - ndim
    if axis < 0 or sl is ... or a.shape[axis] == 1:
        return a
    return a[(slice(None),) * axis + (sl,)]


def chi_closed_values_grid(spec: GenSpec, xs_arrays, rho_array):
    """Vectorized float closed form l / w over numpy arrays.

    The x arrays broadcast to one grid shape G.  ``rho_array`` broadcasts
    against G, and may carry extra leading axes: rho of shape (R, 1, ..., 1)
    evaluates R values of rho over the whole grid in one call.  The result has
    shape ``np.broadcast_shapes(rho.shape, G)``.

    The result is walked along the grid's leading axis in blocks of about 2^15 values.
    Everything that does not depend on rho (the rho-coefficients of w over one
    table of powers, the Chebyshev products P_i and the convolution coefficients
    c_j) is computed once per block and shared by every rho value, so working
    memory is bounded by the block and not by the grid.  Each element goes
    through the same floating-point operations in the same order as an
    unblocked evaluation, so the values do not depend on the block size.
    """
    import numpy as np

    _check_scale(spec)
    K = spec.slots
    xs, rho, grid = _grid_point(spec, xs_arrays, rho_array)
    out = np.empty(np.broadcast_shapes(rho.shape, grid))
    lead = (slice(None),) * (out.ndim - len(grid))
    rows = out.shape[len(lead)] if grid else 1  # the result's axis, not the grid's: rho may be longer
    step = max(1, _BLOCK_POINTS * rows // max(1, out.size))
    coeff_polys = w_rho_coeff_polys(K)
    for start in range(0, rows, step):
        sl = slice(start, start + step) if grid else ...
        xb = [_leading_slice(a, len(grid), sl) for a in xs]
        arrays, powers = {f"x{i + 1}": a for i, a in enumerate(xb)}, {}
        wc = [c.eval_grid(arrays, powers) for c in coeff_polys]
        cs = _coeffs(wc, _product_values(spec, 2 ** K, xb), 2 ** K)
        out[lead + (sl,)] = _ratio(cs, wc, _leading_slice(rho, len(grid), sl))
    return out


# ------------------------------------------------------------------ series oracle


def chi_series_tail_bound(spec: GenSpec, rho: float, J: int) -> float:
    """Upper bound on the truncation error of ``chi_series_oracle_grid``.

    For |x_i| <= 1, |P_j| <= prod_s (j + |t_s| + 1), so the error is at most
    sum_{j>J} |rho|^j prod_s (j + |t_s| + 1).  That sum is closed by a
    geometric majorant; where the majorant holds only past index MAX_TAIL_TERMS
    (|rho| within about 2K / MAX_TAIL_TERMS of 1), ConvergenceError is raised.
    """
    require_below("rho", rho, strict=True)
    if J < 0:
        raise DomainError(f"series order J must be >= 0, got {J}")
    r = abs(rho)
    if r == 0:
        return 0.0
    shifts = [abs(t) for t in spec.t]
    q = (1 + r) / 2
    gap = (q / r) ** (1 / len(shifts)) - 1
    # term(j + 1) / term(j) <= r (1 + 1/(j + 1))^K, which is below q once j + 1 > 1 / gap.
    if gap * MAX_TAIL_TERMS <= 1:
        raise ConvergenceError(f"at |rho| = {r} the tail's geometric majorant holds only "
                               f"past index {MAX_TAIL_TERMS}")
    j_max = max(J + 1, math.ceil(1 / gap))
    term_at = lambda j: r ** j * math.prod(j + ts + 1 for ts in shifts)
    # Sum explicitly until the polynomial factor is dominated, then close
    # with a geometric majorant.
    total = 0.0
    for j in range(J + 1, j_max + 1):
        t = term_at(j)
        total += t
        grow = term_at(j + 1)
        if j == j_max or (grow < t and grow / t < q):
            return total + grow / (1 - q)


def chi_series_oracle_grid(spec: GenSpec, xs_arrays, rho_array, J: int):
    """Truncated defining series sum_{j<=J} rho^j P_j(xs), over numpy arrays.

    The x arrays are broadcast to one grid and stacked on a leading slot
    axis, and ``roll`` steps every slot's Chebyshev pair at once in two
    reused buffers, so working memory is a few grids whatever J is.  rho
    broadcasts against the grid; scalars give a 0-d array.
    """
    import numpy as np

    if J < 0:
        raise DomainError(f"series order J must be >= 0, got {J}")
    xs, rho, grid = _grid_point(spec, xs_arrays, rho_array)
    x = np.stack([np.broadcast_to(a, grid) for a in xs])
    p0, p1 = np.stack([cheb_seq_grid(spec.kind(s), spec.t[s - 1], 2, x[s - 1])
                       for s in range(1, spec.slots + 1)], axis=1)
    x2, scratch = 2 * x, np.empty_like(x)
    step = lambda m, p1, p0: np.subtract(np.multiply(x2, p1, scratch), p0, p0)  # into p0
    total = np.zeros(np.broadcast_shapes(rho.shape, grid))
    rp = np.ones(rho.shape)
    prod = np.empty(grid)
    for row in itertools.islice(roll(p0, p1, step), J + 1):
        np.multiply.reduce(row, 0, None, prod)  # the product in slot order, as math.prod
        total += rp * prod
        rp *= rho
    return total


# ----------------------------------------------------------------- angle formula


def chi_angle_eval(spec: GenSpec, alphas: Sequence[float], rho: float) -> float:
    """Sign-vector closed form evaluated directly from angles.

    Agrees with the closed form at x_i = cos(alpha_i).  ``sign_vector_sum``
    expands the product over the slots; every sign vector i contributes

        geom_trig_sum(trig, rho, A, B')

    with A = sum i_s alpha_s and B' shifting U slots by t_s + 1 and T slots by
    t_s; trig is sin for an odd number of U slots and cos otherwise.
    """
    _check_scale(spec)
    if len(alphas) != spec.slots:
        raise DomainError(f"need {spec.slots} angles, got {len(alphas)}")
    trig = "sin" if spec.n % 2 else "cos"
    shifts = [t + (s >= spec.k) for s, t in enumerate(spec.t)]

    def values_of(vectors):
        return [geom_trig_sum(trig, rho, A, left_sum(map(operator.mul, shifts, signed)))
                for signed, A in vectors]

    return sign_vector_sum(alphas, range(spec.k, spec.slots), values_of)


# ------------------------------------------------------------- marginal checks


@dataclass(frozen=True)
class MarginalReport:
    """Quadrature check of the weighted integrals of chi_{n,0}."""

    max_abs_dev_from_one: float
    max_abs_dev_from_lower_order: float | None
    tol: float

    @property
    def passed(self) -> bool:
        return self.max_abs_dev_from_one <= self.tol


def _grid_chi(axes: Sequence):
    """chi_{n,0} over the sparse mesh of n axes at each rho of GRID_RHOS (the leading axis)."""
    import numpy as np

    n = len(axes)
    mesh = np.meshgrid(*axes, indexing="ij", sparse=True)
    rhos = np.asarray(GRID_RHOS, dtype=float).reshape((-1,) + (1,) * n)
    return chi_closed_values_grid(GenSpec(n, 0, (0,) * n), mesh, rhos)


def check_marginal(n: int, j: int, nodes: int) -> None:
    """Refuse a marginal check that ``marginal_check`` cannot run, before any array is made."""
    if not 1 <= j <= n:
        raise DomainError(f"need 1 <= j <= n, got n = {n}, j = {j}")
    if n > 3:
        raise ScaleError("marginal checks supported for n <= 3")
    if nodes < 1:
        raise DomainError(f"quadrature needs nodes >= 1, got {nodes}")
    if nodes ** j * 7 ** (n - j) > MAX_MARGINAL_POINTS:
        raise ScaleError(f"{nodes} nodes in {j} of {n} coordinates exceed the supported "
                         f"{MAX_MARGINAL_POINTS} mesh points")


def marginal_check(n: int, j: int, nodes: int = 128) -> MarginalReport:
    """Integrate chi_{n,0} against the first-kind weight in j coordinates.

    Orthogonality kills every positive-order term of the series, so the
    weighted j-fold integral equals 1 identically in the remaining
    coordinates and rho; the report also records how far the integral sits
    from the lower-order function chi_{n-j,0} of the remaining coordinates
    (an alternative reading that the data rejects; it is reported, not
    asserted).
    """
    import numpy as np

    check_marginal(n, j, nodes)
    cos_nodes = np.cos((2 * np.arange(1, nodes + 1) - 1) * math.pi / (2 * nodes))
    rest = np.linspace(-0.95, 0.95, 7)
    integrals = [v.mean(axis=tuple(range(j))) for v in _grid_chi([cos_nodes] * j + [rest] * (n - j))]
    dev = lambda ref: max(float(np.max(np.abs(i - r))) for i, r in zip(integrals, ref))
    lower = dev(_grid_chi([rest] * (n - j))) if j < n else None
    return MarginalReport(dev([1.0] * len(integrals)), lower, 1e-9)


def positivity_grid_min(n: int) -> float:
    """Minimum of chi_{n,0} over an 11-point grid on [-1,1]^n x GRID_RHOS."""
    import numpy as np

    return min(float(v.min()) for v in _grid_chi([np.linspace(-1.0, 1.0, 11)] * n))
