"""q-deformation of the Chebyshev engine.

The continuous q-Hermite family h_n satisfies

    h_{n+1}(x|q) = 2x h_n(x|q) - (1 - q^n) h_{n-1}(x|q),   h_0 = 1, h_1 = 2x

and reduces to U_n at q = 0.  The reversed family is

    b_n(x|q) = (-1)^n q^C(n,2) h_n(x|q^{-1}),
    b_{n+1} = -2 q^n x b_n + q^{n-1}(1 - q^n) b_{n-1},    b_0 = 1, b_1 = -2x

(the recurrence's printed seed b_1 = 1 contradicts the defining relation;
b_0 = 1, b_1 = -2x is forced and closes the recurrence).  Both families run
on the package's one three-term recurrence, ``cheb.recur``: ``hb_values``
rolls them at a float, Fraction or polynomial argument, and ``hb_poly``
keeps the exact polynomials on ``QContext.roll``, the one roll that resumes.

b_n is, up to (q)_n, the n-th Taylor coefficient in rho of the infinite
product W_1(x|rho,q) = prod_j (1 - 2 x rho q^j + rho^2 q^{2j}); the bivariate
analog d2_n comes from W_2 = W_1(cos(a+b)) W_1(cos(a-b)), so

    d2_n(x,y|q) = sum_m qbinom(n,m) b_m(cos(a+b)) b_{n-m}(cos(a-b)).

With cos(a -/+ b) = x1 x2 -/+ s1 s2 the factors are conjugate halves
A_m +/- s1 s2 B_m, free of markers; the parts odd in s1 s2 cancel between m
and n - m, and s1^2 s2^2 = D = (1 - x1^2)(1 - x2^2), so ``d2_coeff`` forms
d2_n = sum_m qbinom(n,m) (A_m A_{n-m} - D B_m B_{n-m}), one product per pair.

A companion weight for a first-kind q-analog is

    f_t(x|q) = c/(pi sqrt(1-x^2)) * sum_{k>=1} (-1)^(k-1) q^C(k,2) U_{2k-2}(x),
    c = 1/d(q),   d(q) = sum_{k>=1} (-1)^(k-1) q^C(k,2)

whose orthogonal polynomials have the two-term shape
t_n = h_n - ortho_chi_{n-2} h_{n-2}; the constants come from the moments
gamma_n of h_n against f_t; a polynomial is integrated against f_t term by
term, through the moments of x^e.  Every infinite sum here is truncated at an
index K with |q|^C(K,2) below TAIL_EPS and each numeric report carries its
truncation bound.

Everything that depends only on q is memoised on the ``QContext``, never at
module level: the list of (q;q)_n, and in its one memo the q-binomial rows,
the rolled h_n, b_n and halves (A_m, B_m), d_n and d2_n, and the truncated
sums d(q), the f_t moments of U_n and of x^e, and gamma_n.  A fresh context
therefore recomputes all of it.  Nothing checks (q;q)_n against a second
product: a wrong one FAILs the duality and idb records.

A q-scalar, made of powers of q = a/b, is worked in integers over a power of
b and made a Fraction once, the one stepwise Fraction arithmetic gives.  d(q)'s
numerator over b^C(K,2) is prime to b, the f_t moments are over it, and
``ft_inner_product`` dots ``Poly.numerators`` with the x^e moment numerators.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .cheb import ChebIndex, cheb_poly, cheb_seq, left_sum, recur
from .denom import w_rho_coeff_polys
from .errors import ConvergenceError, DegeneratePivot, DomainError, UnknownId, require_below
from .poly import Poly, exact_str

MAX_TAIL_INDEX = 400
TAIL_EPS = 1e-30


def _comb2(n: int) -> int:
    return n * (n - 1) // 2


class QContext:
    """An exact rational q with |q| < 1 and the caches that depend on it.

    q = 0 is accepted; the recurrences and weight constructions honor it as
    the limit back to the plain Chebyshev case, while operations whose
    formulas divide by q reject it explicitly.  Every truncated sum stops at
    the tail index set by TAIL_EPS.
    """

    def __init__(self, q):
        q = q if isinstance(q, Fraction) else Fraction(q)
        require_below("q", q, strict=True)
        self.q = q
        self._qq: list[Fraction] = [Fraction(1)]  # (q;q)_n
        self._memo: dict = {}  # all else, keyed by (function name, index...)

    def __repr__(self):
        return f"QContext(q={self.q})"

    def memo(self, key: tuple, make):
        """The value kept under ``key``; ``make()`` gives it on first use."""
        if key not in self._memo:
            self._memo[key] = make()
        return self._memo[key]

    def qq(self, n: int) -> Fraction:
        """(q; q)_n = prod_{m<=n} (b^m - a^m) / b^C(n+1,2); the duality and idb records check it."""
        a, b = self.q.numerator, self.q.denominator
        while len(self._qq) <= n:
            m, last = len(self._qq), self._qq[-1]
            self._qq.append(Fraction(last.numerator * (b ** m - a ** m), last.denominator * b ** m))
        return self._qq[n]

    def binom(self, n: int, k: int) -> Fraction:
        """q-binomial, (q;q)-numerators N_n // (N_k N_{n-k}) over b^(k(n-k)); 0 off 0..n."""
        if not 0 <= k <= n:
            return Fraction(0)
        return self.memo(("binom", n), lambda: [
            Fraction(self.qq(n).numerator // (self.qq(j).numerator * self.qq(n - j).numerator),
                     self.q.denominator ** (j * (n - j))) for j in range(n + 1)])[k]

    def roll(self, key: str, count: int, start) -> list:
        """The first ``count`` entries of the kept roll ``key``, resumed from its last two.

        ``start()`` gives (p_0, p_1, step) and is called only when the roll grows.
        step(m, p_m, p_{m-1}) is p_{m+1} at the absolute index m, so a resumed entry
        is the one a roll from p_0 gives.
        """
        rolled = self._memo.setdefault(("roll", key), [])
        if len(rolled) < count:
            p0, p1, step = start()
            at = max(len(rolled) - 2, 0)
            seeds = rolled[at:] if len(rolled) > 1 else (p0, p1)
            rolled[at:] = recur([None] * (count - at), *seeds, lambda m, a, b: step(m + at, a, b))
        return rolled

    def tail_index(self) -> int:
        """Smallest K >= 3 with |q|^C(K,2) < TAIL_EPS."""
        if self.q == 0:
            return 3
        aq = abs(self.q)
        for K in range(3, MAX_TAIL_INDEX + 1):
            if float(aq) ** _comb2(K) < TAIL_EPS:
                return K
        raise ConvergenceError(
            f"|q| = {float(aq):.4f} too close to 1 for tail epsilon {TAIL_EPS}")


# ------------------------------------------------------------ the polynomials


def _hb_recurrence(ctx: QContext, kind: str, x, count: int) -> tuple:
    """(p_0, p_1, step) of the h or b recurrence at x, with q-powers for entries below count.

    Powers of q come from a table built by repeated multiplication, not ``q ** m``,
    so float values keep the bits of the rolled products.
    """
    if kind not in ("h", "b"):
        raise DomainError(f"kind must be h or b, got {kind!r}")
    q = float(ctx.q) if isinstance(x, float) else ctx.q
    qpow = [1]
    for _ in range(count):
        qpow.append(qpow[-1] * q)
    if kind == "h":
        step = lambda m, p1, p0: 2 * x * p1 - (1 - qpow[m]) * p0
    else:
        step = lambda m, p1, p0: -2 * qpow[m] * x * p1 + qpow[m - 1] * (1 - qpow[m]) * p0
    return x ** 0, 2 * x if kind == "h" else -2 * x, step


def hb_values(ctx: QContext, kind: str, x, count: int) -> list:
    """[p_0(x), ..., p_{count-1}(x)] for p = h or b, by the one recurrence.

    x may be a float (float in, float out), a Fraction or a ``Poly``.
    """
    return recur([None] * count, *_hb_recurrence(ctx, kind, x, count))


def hb_poly(ctx: QContext, kind: str, n: int) -> Poly:
    """h_n or b_n as an exact polynomial in x1, on the context's roll of that family."""
    if kind not in ("h", "b"):
        raise DomainError(f"kind must be h or b, got {kind!r}")
    if n < 0:
        return Poly.zero(("x1",))
    return ctx.roll(kind, n + 1,
                    lambda: _hb_recurrence(ctx, kind, Poly.variable("x1"), n + 1))[n]


def d_coeff(ctx: QContext, n: int) -> Poly:
    """(q)_n times the rho^n Taylor coefficient of W_1, via the angle expansion.

    The coefficient equals (-1)^n sum_j qbinom(n, j) q^(C(n,2)+j(j-n))
    e^{i(2j-n)phi} with x = cos(phi); pairing j with n-j folds the
    exponentials into first-kind Chebyshev polynomials.  It must equal b_n
    identically; the duality records make that check, not this builder.
    """
    return ctx.memo(("d_coeff", n), lambda: (-1) ** n * Poly.sum([Poly.zero(("x1",))] + [
        ctx.binom(n, j) * ctx.q ** (_comb2(n) + j * (j - n)) * (1 if 2 * j == n else 2)
        * cheb_poly(ChebIndex("T", n - 2 * j), var="x1") for j in range(n // 2 + 1)]))


def d_truncated_product(ctx: QContext, n: int, factors: int) -> Poly:
    """(q)_n [rho^n] prod_{j<factors} (1 - 2 x rho q^j + rho^2 q^{2j}).

    Independent finite-product route; approaches d_n as ``factors`` grows,
    the dropped factors perturbing the coefficient by O(|q|^factors).
    """
    q = ctx.q
    x = Poly.variable("x1", ("x1", "rho"))
    rho = Poly.variable("rho", ("x1", "rho"))
    prod = Poly.const(1, ("x1", "rho"))
    for j in range(factors):
        a = q ** j
        prod = prod * (1 - 2 * a * x * rho + a * a * rho * rho)
        # Truncate above rho^n as we go; higher orders never feed back down.
        prod = prod.band("rho", 0, n + 1)
    return ctx.qq(n) * prod.coeff_of("rho", n)


def d2_values(ctx: QContext, x: float, y: float, count: int) -> list[float]:
    """[d2_0(x,y), ..., d2_{count-1}(x,y)] without symbolic expansion.

    Uses the product decomposition at the sum and difference angles,
    cos(a +/- b) = xy -/+ sqrt(1-x^2) sqrt(1-y^2); identical values to
    evaluating ``d2_coeff``.
    """
    root = math.sqrt(max(0.0, (1 - x * x) * (1 - y * y)))
    cplus, cminus = x * y - root, x * y + root
    bp = hb_values(ctx, "b", float(cplus), count)
    bm = hb_values(ctx, "b", float(cminus), count)
    return [left_sum(float(ctx.binom(m, r)) * bp[r] * bm[m - r] for r in range(m + 1))
            for m in range(count)]


def d2_coeff(ctx: QContext, n: int) -> Poly:
    """(q)_n times the rho^n Taylor coefficient of W_2, in variables x1, x2.

    The halves b_m(x1 x2 - s1 s2) = A_m + s1 s2 B_m roll on the b recurrence
    with s1^2 s2^2 = D, from (A_0, B_0) = (1, 0) and (A_1, B_1) = (-2 x1 x2, 2):

        A_{m+1} = -2 q^m (x1 x2 A_m - D B_m) + q^(m-1) (1 - q^m) A_{m-1}
        B_{m+1} = -2 q^m (x1 x2 B_m - A_m) + q^(m-1) (1 - q^m) B_{m-1}

    The pairs are the context's ``halves`` roll.
    """
    key = ("d2_coeff", n)
    if key not in ctx._memo:
        q, vs = ctx.q, ("x1", "x2")
        xx = Poly(vs, {(1, 1): 1})
        dd = Poly(vs, {(0, 0): 1, (2, 0): -1, (0, 2): -1, (2, 2): 1})

        def step(m, p1, p0):
            (a1, b1), (a0, b0) = p1, p0
            s, t = -2 * q ** m, q ** (m - 1) * (1 - q ** m)
            return s * (xx * a1 - dd * b1) + t * a0, s * (xx * b1 - a1) + t * b0

        halves = ctx.roll("halves", n + 1, lambda: ((Poly.const(1, vs), Poly.zero(vs)),
                                                    (-2 * xx, Poly.const(2, vs)), step))
        pairs = [(ctx.binom(n, m) * (1 if 2 * m == n else 2), halves[m], halves[n - m])
                 for m in range(n // 2 + 1)]  # the terms at m and n - m are equal
        aa, bb = (Poly.sum([Poly.zero(vs)] + [w * (p0[i] * p1[i]) for w, p0, p1 in pairs])
                  for i in (0, 1))
        ctx._memo[key] = aa - dd * bb
    return ctx._memo[key]


# ------------------------------------------------------------ exact identities


@dataclass(frozen=True)
class IdbResult:
    n: int
    k: int
    residual: Poly
    expected_zero: bool

    @property
    def passed(self) -> bool:
        return self.residual.is_zero()


def idb_check(ctx: QContext, n: int, k: int) -> IdbResult:
    """sum_{j=0}^{n} qbinom(n,j) b_{n-j} h_{j+k}  ==  0 (k < n) or
    (-1)^n q^C(n,2) (q)_k/(q)_{k-n} h_{k-n} (k >= n), checked exactly.

    The sum starts at j = 0; starting at 1 already fails at (n, k) = (1, 0).
    """
    lhs = Poly.sum([Poly.zero(("x1",))] + [
        ctx.binom(n, j) * (hb_poly(ctx, "b", n - j) * hb_poly(ctx, "h", j + k)) for j in range(n + 1)])
    if k < n:
        rhs = Poly.zero(("x1",))
    else:
        scale = Fraction((-1) ** n) * ctx.q ** _comb2(n) * ctx.qq(k) / ctx.qq(k - n)
        rhs = scale * hb_poly(ctx, "h", k - n)
    return IdbResult(n, k, lhs - rhs, k < n)


# -------------------------------------------------------- weights and moments


@dataclass(frozen=True)
class TruncatedRational:
    """An exact rational value of a truncated sum plus a float tail bound."""

    value: Fraction
    tail_bound: float
    terms: int


def d_of_q(ctx: QContext) -> TruncatedRational:
    """d(q) = sum_{k>=1} (-1)^(k-1) q^C(k,2), truncated at the tail index; its int terms
    over b^C(K,2) are kept under ("d_of_q", "terms")."""
    key = ("d_of_q",)
    if key not in ctx._memo:
        K, a, b = ctx.tail_index(), ctx.q.numerator, ctx.q.denominator
        terms = ctx._memo["d_of_q", "terms"] = [(-1) ** (k - 1) * a ** _comb2(k) * b ** (
            _comb2(K) - _comb2(k)) for k in range(1, K + 1)]
        ctx._memo[key] = TruncatedRational(Fraction(sum(terms), b ** _comb2(K)),
                                           _geom_tail(ctx, K), K)
    return ctx._memo[key]


def _scaled(value: Fraction, den: int) -> int:
    """value * den, for a den that value's denominator divides."""
    return value.numerator * (den // value.denominator)


def _geom_tail(ctx: QContext, K: int, poly_factor: float = 1.0) -> float:
    aq = abs(float(ctx.q))
    if aq == 0.0:
        return 0.0
    return poly_factor * aq ** _comb2(K + 1) / (1 - aq)


def ft_moment_U(ctx: QContext, n: int) -> TruncatedRational:
    """Moment of U_n against the companion weight f_t.

    Zero for odd n; for even n it is c * sum_k (-1)^(k-1)
    (1 + min(n, 2k-2)) q^C(k,2) with c = 1/d(q), both sums truncated at the
    same index so the n = 0 normalization is exactly 1.
    """
    if n % 2:
        return TruncatedRational(Fraction(0), 0.0, 0)
    key = ("ft_moment_U", n)
    if key not in ctx._memo:
        d = d_of_q(ctx)
        K, d_val = d.terms, d.value
        if d_val == 0:
            raise DegeneratePivot("d(q) truncation vanished; cannot normalize f_t")
        num = sum(min(n + 1, 2 * k - 1) * t for k, t in enumerate(ctx._memo["d_of_q", "terms"], 1))
        ctx._memo[key] = TruncatedRational(Fraction(num, d_val.numerator),
                                           _geom_tail(ctx, K, poly_factor=n + 1.0), K)
    return ctx._memo[key]


def hU_coeff(ctx: QContext, n: int, k: int) -> Fraction:
    """Coefficient of U_{n-2k} in the second-kind expansion of h_n."""
    if not 0 <= k <= n // 2:
        return Fraction(0)
    return ctx.binom(n, k) - ctx.binom(n, k - 1)  # = (q^k - q^(n-k+1)) / (1 - q^(n-k+1)) [n k]


def gamma_moment(ctx: QContext, n: int) -> TruncatedRational:
    """gamma_n: moment of h_n against f_t (0 for odd n)."""
    if n % 2:
        return TruncatedRational(Fraction(0), 0.0, 0)
    key = ("gamma_moment", n)
    if key not in ctx._memo:
        K = ctx.tail_index()
        top, dn = ctx.q.denominator ** (n * n // 4), d_of_q(ctx).value.numerator
        total, bound = 0, 0.0
        for k in range(n // 2 + 1):
            m = ft_moment_U(ctx, n - 2 * k)
            c = hU_coeff(ctx, n, k)
            total += _scaled(c, top) * _scaled(m.value, dn)
            bound += abs(float(c)) * m.tail_bound
        ctx._memo[key] = TruncatedRational(Fraction(total, top * dn), bound, K)
    return ctx._memo[key]


@dataclass(frozen=True)
class TnResult:
    n: int
    poly: Poly
    gammas: tuple[Fraction, ...]
    ortho_chi: tuple[tuple[int, Fraction], ...]
    tail_index: int
    tail_bound: float


def tn_construct(ctx: QContext, n: int) -> TnResult:
    """The n-th orthogonal polynomial of f_t, as h_n - ortho_chi_{n-2} h_{n-2}.

    Even-index constants come from the zero-mean condition against f_t; odd
    ones from the zero first-moment condition via the expansion of
    2x t_{odd} back into the h family.  A zero pivot in either linear
    condition raises DegeneratePivot.  At q = 0 the construction collapses
    to t_n = U_n - U_{n-2} = 2 T_n for n >= 2.
    """
    gammas = [gamma_moment(ctx, m) for m in range(n + 2)]
    g = [t.value for t in gammas]
    chis: dict[int, Fraction] = {}
    for m in range(0, max(0, n - 1)):
        if (m + 2) % 2 == 0:
            if g[m] == 0:
                raise DegeneratePivot(f"gamma_{m} = 0 while determining ortho_chi_{m}")
            chis[m] = g[m + 2] / g[m]
        else:
            den = g[m + 1] + (1 - ctx.q ** m) * g[m - 1]
            if den == 0:
                raise DegeneratePivot(f"zero pivot for ortho_chi_{m}")
            chis[m] = (g[m + 3] + (1 - ctx.q ** (m + 2)) * g[m + 1]) / den
    poly = hb_poly(ctx, "h", n) - chis[n - 2] * hb_poly(ctx, "h", n - 2) if n > 1 else \
        hb_poly(ctx, "h", n)
    K = ctx.tail_index()
    bound = max((t.tail_bound for t in gammas), default=0.0)
    return TnResult(n, poly, tuple(g), tuple(sorted(chis.items())), K, bound)


def ft_u_coeffs(ctx: QContext) -> list[Fraction]:
    """Truncated U-expansion of f_t: coefficient of U_{2k-2} for k = 1..K, times c."""
    d = d_of_q(ctx)
    K, d_val = d.terms, d.value
    return [Fraction(-1) ** (k - 1) * ctx.q ** _comb2(k) / d_val for k in range(1, K + 1)]


def _ft_moment_x(ctx: QContext, e: int) -> int:
    """int x^e f_t = 2^-e sum_k (C(e,k) - C(e,k-1)) int U_{e-2k} f_t, truncated, as the int
    it is times 2^e and d(q)'s numerator."""
    return ctx.memo(("_ft_moment_x", e), lambda: sum(
        (math.comb(e, k) - (math.comb(e, k - 1) if k else 0))
        * _scaled(ft_moment_U(ctx, e - 2 * k).value, d_of_q(ctx).value.numerator)
        for k in range(e // 2 + 1)))


def ft_inner_product(ctx: QContext, p: Poly) -> Fraction:
    """Exact integral of p(x1) against the truncated f_t, term by term via monomial moments."""
    i = p.vars.index("x1") if "x1" in p.vars else None
    nums, den = p.numerators()
    es = [0 if i is None else exps[i] for exps in nums]
    top = max(es, default=0)
    return Fraction(sum(c * (_ft_moment_x(ctx, e) << top - e) for e, c in zip(es, nums.values())),
                    den * d_of_q(ctx).value.numerator << top)


# ------------------------------------------------------------- numeric checks


def _qq_floats(q: float, count: int) -> list[float]:
    """[(q;q)_0, ..., (q;q)_{count-1}] in floats; ConvergenceError if the last rounds to 0."""
    out = [1.0]
    for m in range(1, count):
        out.append(out[-1] * (1 - q ** m))
    if out[-1] == 0:
        raise ConvergenceError(f"(q;q)_{count - 1} rounds to 0 in floats at q = {q}")
    return out


@dataclass(frozen=True)
class IdentityReport:
    lhs: float
    rhs: float
    abs_diff: float
    bound: float

    def passes(self, tol: float) -> bool:
        """abs_diff <= tol; past it a FAIL if bound <= tol, else ConvergenceError: it cannot decide."""
        if self.abs_diff <= tol:
            return True
        if self.bound > tol:
            raise ConvergenceError(f"|lhs - rhs| = {self.abs_diff:.3g} exceeds tol {tol:.3g}, but "
                                   f"the truncation bound {self.bound:.3g} cannot tell it from 0")
        return False


def chi1t_check(ctx: QContext, t: int, x: float, rho: float) -> IdentityReport:
    """Truncated sum_{j<=80} rho^j/(q)_j h_{t+j}(x) against its closed form.

    The closed side is (1/W_1) sum_{j<=t} qbinom(t,j) (-rho)^j q^C(j,2)
    h_{t-j}(x) with W_1 truncated to 60 quadratic factors.
    """
    J, factors = 80, 60
    require_below("rho", rho, strict=True)
    require_below("x", x, strict=False)
    q, x = float(ctx.q), float(x)
    hv = hb_values(ctx, "h", x, t + J + 2)
    qqf = _qq_floats(q, J + 1)
    lhs = left_sum(rho ** j / qqf[j] * hv[t + j] for j in range(J + 1))
    w1, a = 1.0, rho
    for _ in range(factors):
        w1 *= 1 - 2 * a * x + a * a
        a *= q
    rhs = left_sum(float(ctx.binom(t, j)) * (-rho) ** j * q ** _comb2(j) * hv[t - j]
                   for j in range(t + 1)) / w1
    # For p = |q| < 1: |h_m| <= sum_k |[m k]_q| <= (m+1) (-p;p)_inf/(p;p)_inf^2, 1/|(q)_j| <=
    # 1/(p;p)_inf, their log at most (1 + pi^2/2) p/(1-p); W_1's dropped factors sum to <= s.
    p, r = abs(q), abs(rho)
    log_tail = ((1 + math.pi ** 2 / 2) * p / (1 - p) + (J + 1) * math.log(r) + math.log(
        (t + J + 2) / (1 - r) + r / (1 - r) ** 2)) if r else -math.inf
    s = (2 + r) * r * p ** factors / (1 - p)
    series_tail = math.exp(log_tail) if log_tail < 700 else math.inf
    product_tail = math.expm1(s / (1 - s)) * abs(rhs) if s < 1 else math.inf
    return IdentityReport(lhs, rhs, abs(lhs - rhs), series_tail + product_tail + 1e-12)


def final_identity_check(ctx: QContext, x: float, y: float, rho: float) -> IdentityReport:
    """Bivariate reduction identity:

        sum_j rho^j/(q)_j sum_m qbinom(j,m) d2_m(x,y) h_{j-m}(x) h_{j-m}(y)
            == sum_k (-1)^k q^C(k,2) rho^{2k}/(q)_k

    evaluated with truncations on both sides, the left at j <= 20.
    """
    J = 20
    require_below("rho", rho, strict=True)
    q = float(ctx.q)
    hx = hb_values(ctx, "h", float(x), J + 1)
    hy = hb_values(ctx, "h", float(y), J + 1)
    d2v = d2_values(ctx, float(x), float(y), J + 1)
    qqf = _qq_floats(q, J + 1)
    lhs = 0.0
    for j in range(J + 1):
        inner = 0.0
        for m in range(j + 1):
            inner += float(ctx.binom(j, m)) * d2v[m] * hx[j - m] * hy[j - m]
        lhs += rho ** j / qqf[j] * inner
    kmax = J // 2 + 40
    qq_long = _qq_floats(q, kmax + 1)
    rhs = 0.0
    for k in range(kmax):
        term = (-1) ** k * q ** _comb2(k) * rho ** (2 * k) / qq_long[k]
        rhs += term
        if abs(term) < 1e-18 and k > 2:
            break
    qq_floor = min(qqf)
    bound = (abs(rho) ** (J + 1) * (J + 2) ** 2 * 4.0 / ((1 - abs(rho)) * qq_floor ** 2)
             + 1e-12)
    return IdentityReport(lhs, rhs, abs(lhs - rhs), bound)


def fh_integral_check(ctx: QContext) -> IdentityReport:
    """The displayed expansion of the q-Hermite weight integrates to 1 (128 nodes).

    Second-kind Gauss-Chebyshev rule: x_i = cos(i pi/129), w_i = pi/129 sin^2(i pi/129).
    """
    K = ctx.tail_index()
    q = float(ctx.q)
    total = 0.0
    for i in range(1, 129):
        th = i * math.pi / 129
        xv, wv = math.cos(th), math.pi / 129 * math.sin(th) ** 2
        g = 0.0
        uvals = cheb_seq("U", 0, 2 * K, xv)
        for k in range(1, K + 1):
            g += (-1) ** (k - 1) * q ** _comb2(k) * uvals[2 * k - 2]
        total += wv * (2 / math.pi) * g
    return IdentityReport(total, 1.0, abs(total - 1.0), _geom_tail(ctx, K) + 1e-10)


# ---------------------------------------------------------------- conjectures


def _beta_solve(ctx: QContext, n: int) -> dict:
    """Express d2_n in the diagonal b (x) b basis, exactly."""
    if ctx.q == 0:
        raise DomainError("the diagonal expansion divides by powers of q; need q != 0")
    target = Fraction((-1) ** n) * ctx.q ** _comb2(n) * d2_coeff(ctx, n)
    betas: list[Fraction] = []
    residual = target
    for j in range(n // 2 + 1):
        deg = n - 2 * j
        basis = hb_poly(ctx, "b", deg)
        bb = basis * basis.rename({"x1": "x2"})
        lead = Fraction(-2) ** deg * ctx.q ** _comb2(deg)
        c = Fraction(residual.terms.get((deg, deg), 0)) / (lead * lead)  # d2_n, bb: on (x1, x2)
        betas.append(c)
        residual = residual - c * bb
    return {
        "n": n,
        "q": str(ctx.q),
        "beta": [str(b) for b in betas],
        "representable": residual.is_zero(),
        "residual_terms": len(residual.terms),
    }


def _fit_polynomial_in_q(samples: list[tuple[Fraction, Fraction]]) -> str | None:
    """Interpolate beta(q) through all but the last sample by Newton divided differences,
    expanded to powers of q, then check the last; a repeated fitted q gives None."""
    if len(samples) < 3:
        return None
    (qs, dd), check = zip(*samples[:-1]), samples[-1]
    if len(set(qs)) < len(qs):
        return None
    dd = list(dd)
    for j in range(1, len(qs)):  # dd[i] becomes beta[q_0 .. q_i]
        for i in range(len(qs) - 1, j - 1, -1):
            dd[i] = (dd[i] - dd[i - 1]) / (qs[i] - qs[i - j])
    coeffs = [dd[-1]]
    for r, d in zip(qs[-2::-1], dd[-2::-1]):  # coeffs * (q - r) + d
        coeffs = [d - r * coeffs[0]] + [a - r * b for a, b in zip(coeffs, coeffs[1:] + [0])]
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    if sum(c * check[0] ** i for i, c in enumerate(coeffs)) != check[1]:
        return None
    parts = [str(c) if i == 0 else f"{c}*q" if i == 1 else f"{c}*q^{i}"
             for i, c in enumerate(coeffs) if c != 0]
    return " + ".join(parts) or "0"


def conjecture_probe(which: str, **params) -> dict:
    """Numeric/exact probes of the two open claims; always returns a report.

    which = "beta-expansion": solve for the diagonal b-basis coefficients of
    d2_n at each rational q in ``q_values`` and attempt a polynomial-in-q fit.

    which = "common-denominator": multiply the truncated mixed series by the
    truncated candidate denominator product and report which rho coefficients
    above the expected numerator degree persist beyond the truncation bound.
    """
    if which == "beta-expansion":
        n = params["n"]
        q_values = [Fraction(q) for q in params["q_values"]]
        per_q = [_beta_solve(QContext(q), n) for q in q_values]
        # Every q gives n // 2 + 1 coefficients: column j is beta_j at each q.
        fits = [_fit_polynomial_in_q([(q, Fraction(b)) for q, b in zip(q_values, column)])
                for column in zip(*(r["beta"] for r in per_q))]
        return {
            "conjecture": "beta-expansion",
            "n": n,
            "per_q": per_q,
            "verdict": ("REPRESENTABLE" if all(r["representable"] for r in per_q)
                        else "UNREPRESENTABLE"),
            "beta_fits_in_q": fits,
        }
    if which == "common-denominator":
        return _common_denominator_probe(**params)
    raise UnknownId(f"unknown conjecture probe {which!r}")


def _common_denominator_probe(n_h: int = 1, m_t: int = 0, q=Fraction(1, 3),
                              rho_order: int = 12) -> dict:
    """Multiply the mixed h/t series by the truncated denominator product.

    The series is taken at x = (2/5, -1/3) and the candidate denominator is
    prod_{i<30} w_{n+m}(x.. | rho q^i); if the conjectured form holds with a
    polynomial-type numerator, every rho coefficient above degree
    2^(n_h+m_t) - 1 decays like q^30.  Pure-h cases are known: (1,0) leaves
    exactly 1 and (2,0) leaves the theta-like even series, so persistent
    coefficients there are expected and reported.
    """
    arity = n_h + m_t
    if arity < 1 or arity > 2:
        raise DomainError("probe supports n_h + m_t in {1, 2}")
    if not 0 <= rho_order <= 12:
        raise DomainError(f"rho_order must lie in 0..12, got {rho_order}")
    ctx = QContext(q)
    pts = [Fraction(2, 5), Fraction(-1, 3)][:arity]
    factors = 30
    # Series coefficients a_j, exact: h_j, then t_j = h_j - ortho_chi_{j-2} h_{j-2}, one roll a point.
    rows = [hb_values(ctx, "h", p, rho_order + 1) for p in pts]
    chi = dict(tn_construct(ctx, rho_order).ortho_chi) if m_t else {}
    rows[n_h:] = [[h[j] - chi[j - 2] * h[j - 2] if j > 1 else h[j] for j in range(rho_order + 1)]
                  for h in rows[n_h:]]
    a = [math.prod((row[j] for row in rows), start=1 / ctx.qq(j)) for j in range(rho_order + 1)]
    # Denominator, exact, truncated above rho^rho_order as it is built.
    point = {f"x{i + 1}": p for i, p in enumerate(pts)}
    base = [c.eval(point) for c in w_rho_coeff_polys(arity)]
    den = Poly.const(1, ("rho",))
    for i in range(factors):
        qi = ctx.q ** i
        fac = Poly(("rho",), {(m,): c * qi ** m for m, c in enumerate(base)})
        den = (den * fac).band("rho", 0, rho_order + 1)
    series = Poly(("rho",), {(j,): v for j, v in enumerate(a)})
    prod = (series * den).band("rho", 0, rho_order + 1).terms
    out = [prod.get((r,), 0) for r in range(rho_order + 1)]
    expected_degree = 2 ** arity - 1
    scale = max(abs(float(v)) for v in a) or 1.0
    bound = 8.0 * scale * float(abs(ctx.q)) ** factors / max(1e-12, 1 - float(abs(ctx.q)))
    rows = [{"order": r, "value": float(v), "exact": exact_str(v),
             "above_expected_degree": r > expected_degree,
             "persists": r > expected_degree and abs(float(v)) > bound} for r, v in enumerate(out)]
    persisting = [r for r in rows if r["persists"]]
    decay = [abs(b["value"]) / abs(a["value"])
             for a, b in zip(persisting, persisting[1:]) if a["value"] != 0.0]
    return {
        "conjecture": "common-denominator",
        "n_h": n_h,
        "m_t": m_t,
        "q": str(q),
        "xs": [str(p) for p in pts],
        "factors": factors,
        "expected_numerator_degree": expected_degree,
        "bound": bound,
        "coefficients": rows,
        "all_above_vanish": all(not r["persists"] for r in rows),
        "persisting_decay_ratios": decay,
    }
