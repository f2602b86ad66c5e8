"""q-deformation tests: symbols, families, identities, probes."""

import dataclasses
import hashlib
import json
import math
import random
from fractions import Fraction

import pytest

from chebsum.cheb import ChebIndex, cheb_poly
from chebsum import poly as poly_mod
from chebsum.denom import w_rho_coeff_polys
from chebsum.errors import ChebsumError, ConvergenceError, DomainError, ScaleError
from chebsum.genfun import GenSpec, chi_closed_value
from chebsum.poly import Poly, exact_str
from chebsum.qseries import (IdentityReport, QContext, _fit_polynomial_in_q, chi1t_check,
                             conjecture_probe, d2_coeff, d2_values, d_coeff, d_of_q,
                             d_truncated_product, fh_integral_check,
                             final_identity_check, ft_inner_product, ft_moment_U,
                             ft_u_coeffs, gamma_moment, hU_coeff, hb_poly,
                             hb_values, idb_check, q_product_coeffs, tn_construct,
                             TruncatedRational)

F = Fraction
X = Poly.variable("x1")
Q_SET = (F(1, 2), F(-1, 3), F(3, 5))


def cheb1_nodes(n: int) -> list[float]:
    """First-kind Gauss-Chebyshev nodes cos((2i - 1) pi / 2n), i = 1..n."""
    return [math.cos((2 * i - 1) * math.pi / (2 * n)) for i in range(1, n + 1)]


@pytest.fixture(scope="module")
def ctx():
    return QContext(F(1, 2))


def bracket(q, n):
    """[n]_q = 1 + q + ... + q^(n-1)."""
    return sum((q ** j for j in range(n)), F(0))


def bracket_factorial(q, n):
    """[n]_q! = [1]_q [2]_q ... [n]_q."""
    return math.prod((bracket(q, m) for m in range(1, n + 1)), start=F(1))


def test_q_symbols(ctx):
    assert bracket(ctx.q, 3) == F(7, 4)
    assert bracket(ctx.q, 0) == 0
    got = ctx.binom(4, 2)
    assert got == ctx.qq(4) / (ctx.qq(2) * ctx.qq(2))
    # Factorial route gives the same value.
    assert got == bracket_factorial(ctx.q, 4) / (bracket_factorial(ctx.q, 2) ** 2)
    assert ctx.binom(3, 5) == 0
    assert ctx.binom(3, -1) == 0


def test_pochhammer_factorial_consistency(ctx):
    for n in range(9):
        assert ctx.qq(n) == (1 - ctx.q) ** n * bracket_factorial(ctx.q, n)
    third = QContext(F(1, 3))
    assert third.binom(4, 2) == third.qq(4) / (third.qq(2) * third.qq(2))
    assert third.binom(4, 2) == bracket_factorial(third.q, 4) / (
        bracket_factorial(third.q, 2) ** 2)


def test_context_guards():
    with pytest.raises(DomainError):
        QContext(F(3, 2))
    with pytest.raises(DomainError):
        chi1t_check(QContext(F(1, 2)), 1, 0.3, math.nan)
    with pytest.raises(DomainError):
        final_identity_check(QContext(F(1, 2)), 0.3, 0.4, math.nan)
    with pytest.raises(ConvergenceError):
        QContext(F(999999, 1000000)).tail_index()
    # A family other than h or b, or an unknown probe, is a ChebsumError, not a ValueError.
    ctx = QContext(F(1, 2))
    with pytest.raises(ChebsumError, match="kind must be h or b"):
        hb_values(ctx, "t", 0.3, 4)
    with pytest.raises(ChebsumError, match="kind must be h or b"):
        hb_poly(ctx, "halves", 2)
    with pytest.raises(ChebsumError, match="unknown conjecture probe"):
        conjecture_probe("gamma-expansion", n=2)


def test_h_b_base_polys(ctx):
    q = ctx.q
    assert hb_poly(ctx, "h", 0) == 1
    assert hb_poly(ctx, "h", 1) == 2 * X
    assert hb_poly(ctx, "h", 2) == 4 * X ** 2 - 1 + q
    assert hb_poly(ctx, "b", 1) == -2 * X
    assert hb_poly(ctx, "b", 2) == 4 * q * X ** 2 + 1 - q
    assert hb_poly(ctx, "h", -1).is_zero()
    # Leading coefficients.
    for n in range(1, 9):
        h = hb_poly(ctx, "h", n)
        assert h.terms[(n,)] == 2 ** n
        b = hb_poly(ctx, "b", n)
        assert b.terms[(n,)] == F(-2) ** n * q ** (n * (n - 1) // 2)


def test_h_reduces_to_U_at_q0():
    ctx0 = QContext(0)
    for n in range(10):
        assert hb_poly(ctx0, "h", n) == cheb_poly(ChebIndex("U", n))


@pytest.mark.parametrize("q", Q_SET)
def test_b_h_duality(q):
    ctx = QContext(q)
    qi = 1 / q
    for n in range(13):
        p0, p1 = Poly.const(1, ("x1",)), 2 * X
        for m in range(1, n):
            p0, p1 = p1, 2 * X * p1 - (1 - qi ** m) * p0
        h_inv = p0 if n == 0 else p1
        assert hb_poly(ctx, "b", n) == F(-1) ** n * q ** (n * (n - 1) // 2) * h_inv


@pytest.mark.parametrize("q", Q_SET)
def test_d_equals_b(q):
    ctx = QContext(q)
    for n in range(13):
        assert d_coeff(ctx, n) == hb_poly(ctx, "b", n)


def test_d_base_cases(ctx):
    assert d_coeff(ctx, 0) == 1
    assert d_coeff(ctx, 1) == -2 * X


def test_d_truncated_product_converges(ctx):
    # The finite-product route approaches d_n as the factor count grows; the
    # deviation is dominated by a multiple of |q|^factors.
    last = None
    for N in (3, 10, 20, 30):
        diff = d_truncated_product(ctx, 3, N) - d_coeff(ctx, 3)
        worst = max((abs(float(c)) for c in diff.terms.values()), default=0.0)
        assert worst <= 16 * float(abs(ctx.q)) ** N
        if last is not None:
            assert worst < last
        last = worst


def test_rolled_value_sequences(ctx):
    xv = 0.43
    hv = hb_values(ctx, "h", xv, 9)
    bv = hb_values(ctx, "b", xv, 9)
    for n in range(9):
        assert hv[n] == pytest.approx(hb_poly(ctx, "h", n).eval({"x1": xv}), abs=1e-12)
        assert bv[n] == pytest.approx(hb_poly(ctx, "b", n).eval({"x1": xv}), abs=1e-12)
    # The same recurrence at an exact argument gives the polynomials' values exactly.
    xf = F(3, 7)
    for kind in ("h", "b"):
        vals = hb_values(ctx, kind, xf, 9)
        assert vals == [hb_poly(ctx, kind, n).eval({"x1": xf}) for n in range(9)]


def test_d2_printed_displays():
    for qv in (F(1, 2), F(-1, 3)):
        ctx = QContext(qv)
        q = ctx.q
        b = lambda n: hb_poly(ctx, "b", n)
        by = lambda n: hb_poly(ctx, "b", n).rename({"x1": "x2"})
        assert d2_coeff(ctx, 0) == 1
        assert d2_coeff(ctx, 1) == -(b(1) * by(1))
        assert d2_coeff(ctx, 2) == (b(2) * by(2) - (1 - q ** 2)) * (1 / q)
        assert d2_coeff(ctx, 3) == -(b(3) * by(3)
                                     - q ** 2 * (ctx.qq(3) / ctx.qq(1) ** 2) * b(1) * by(1)) * (1 / q ** 3)
        assert d2_coeff(ctx, 4) == (b(4) * by(4)
                                    - q ** 4 * (ctx.qq(4) / (ctx.qq(1) * ctx.qq(2))) * b(2) * by(2)
                                    + q ** 5 * ctx.qq(4) / ctx.qq(2)) * (1 / q ** 6)


def _compose(p, arg):
    """p(arg) for p univariate in x1, by Horner's rule over its coefficients."""
    coeffs = [F(0)] * (p.degree("x1") + 1)
    for (e,), c in p.terms.items():
        coeffs[e] = F(c)
    out = Poly.const(coeffs[-1])
    for c in reversed(coeffs[:-1]):
        out = out * arg + c
    return out


def test_d2_matches_composed_b():
    # d2_n = sum_m qbinom(n, m) b_m(cos(a+b)) b_{n-m}(cos(a-b)), with each b_m
    # substituted into x1 x2 -/+ s1 s2 rather than rolled there.
    vars4 = ("x1", "x2", "s1", "s2")
    xx = Poly.variable("x1", vars4) * Poly.variable("x2", vars4)
    ss = Poly.variable("s1", vars4) * Poly.variable("s2", vars4)
    for qv in Q_SET:
        ctx = QContext(qv)
        for n in range(8):
            want = sum((ctx.binom(n, m) * _compose(hb_poly(ctx, "b", m), xx - ss)
                        * _compose(hb_poly(ctx, "b", n - m), xx + ss)
                        for m in range(n + 1)), Poly.zero())
            got = d2_coeff(ctx, n)
            assert got.vars == ("x1", "x2") and got == want


def _d2_with_markers(ctx, n):
    """d2_n rolled in the marker basis: b at x1 x2 -/+ s1 s2, the product sum, markers dropped."""
    vars4 = ("x1", "x2", "s1", "s2")
    xx = Poly.variable("x1", vars4) * Poly.variable("x2", vars4)
    ss = Poly.variable("s1", vars4) * Poly.variable("s2", vars4)
    bp = hb_values(ctx, "b", xx - ss, n + 1)
    bm = hb_values(ctx, "b", xx + ss, n + 1)
    acc = Poly.zero()
    for m in range(n + 1):
        acc = acc + ctx.binom(n, m) * (bp[m] * bm[n - m])
    assert not acc.uses("s1") and not acc.uses("s2")
    return acc.drop_vars([v for v in acc.vars if v.startswith("s")]).embed(("x1", "x2"))


@pytest.mark.parametrize("q", [F(0), F(1, 2), F(-1, 3), F(-4, 11), F(6, 7)])
def test_d2_matches_marker_construction(q):
    # One context, called out of order: the memo and the resumed rolls of the
    # conjugate halves and of h and b must give what a roll from scratch gives.
    ctx = QContext(q)
    types = lambda p: {e: type(c) for e, c in p.terms.items()}
    for n in (14, 3, 0, 7, 20):
        got, want = d2_coeff(ctx, n), _d2_with_markers(QContext(q), n)
        assert got.vars == ("x1", "x2") and got == want
        assert types(got) == types(want)
        for kind in ("h", "b"):
            got, fresh = hb_poly(ctx, kind, n), hb_poly(QContext(q), kind, n)
            plain = hb_values(QContext(q), kind, X, n + 1)[n]
            assert got.vars == ("x1",) and got == fresh == plain
            assert types(got) == types(fresh) == types(plain)


def test_d2_work_guard(monkeypatch):
    # d2_0 .. d2_14 at one q cost 37,922 term products rolled in the marker
    # basis; the q-difference rule of W_2, four products a step, needs under 1,500.
    count = [0]
    loop = poly_mod._product_loop

    def counted(a, b):
        count[0] += len(a) * len(b)
        return loop(a, b)

    monkeypatch.setattr(poly_mod, "_product_loop", counted)
    ctx = QContext(F(-4, 11))
    for n in range(15):
        d2_coeff(ctx, n)
    assert 0 < count[0] <= 1_500


PRODUCT_Q = (F(0), F(1, 3), F(-2, 7), F(5, 11), F(-4, 11), F(9, 10))


@pytest.mark.parametrize("q", PRODUCT_Q)
def test_product_rule_of_w1_is_the_b_roll(q):
    # W_1 = prod_j w_1(x | rho q^j) has (q)_n [rho^n] W_1 = b_n: the q-difference rule
    # over w_1's rho-coefficients must give the three-term roll of b, also when resumed.
    ctx, rolled = QContext(q), []
    assert q_product_coeffs(ctx, w_rho_coeff_polys(1), 7, rolled=rolled) is rolled
    got = q_product_coeffs(ctx, w_rho_coeff_polys(1), 25, rolled=rolled)
    want = [hb_poly(QContext(q), "b", n) for n in range(25)]
    assert len(got) == 25 and all(g.vars == ("x1",) and g == w for g, w in zip(got, want))
    assert got == q_product_coeffs(QContext(q), w_rho_coeff_polys(1), 25)


def _probe_denominator_by_factors(q, base, rho_order, factors=30):
    """prod_{i<factors} w(rho q^i) at a point, one truncated Poly product per factor."""
    den = Poly.const(1, ("rho",))
    for i in range(factors):
        qi = q ** i
        fac = Poly(("rho",), {(m,): c * qi ** m for m, c in enumerate(base)})
        den = (den * fac).band("rho", 0, rho_order + 1)
    return den


@pytest.mark.parametrize("q", PRODUCT_Q)
def test_probe_denominator_equals_the_factor_product(q):
    pts = [F(2, 5), F(-1, 3)]
    for arity in (1, 2):
        point = {f"x{i + 1}": p for i, p in enumerate(pts[:arity])}
        base = [c.eval(point) for c in w_rho_coeff_polys(arity)]
        for order in range(13):
            ctx = QContext(q)
            den = _probe_denominator_by_factors(q, base, order)
            got = q_product_coeffs(ctx, base, order + 1, 30)
            assert [g / ctx.qq(j) for j, g in enumerate(got)] == [
                den.terms.get((j,), 0) for j in range(order + 1)]
            # The probe's coefficients are the pure-h series times that product.
            rows = [hb_values(ctx, "h", p, order + 1) for p in pts[:arity]]
            series = Poly(("rho",), {(j,): math.prod((r[j] for r in rows), start=1 / ctx.qq(j))
                                     for j in range(order + 1)})
            want = (series * den).band("rho", 0, order + 1).terms
            probe = conjecture_probe("common-denominator", n_h=arity, m_t=0, q=q, rho_order=order)
            assert [r["exact"] for r in probe["coefficients"]] == [
                exact_str(want.get((j,), 0)) for j in range(order + 1)]


def test_d2_symmetry_and_values(ctx):
    for n in range(1, 7):
        p = d2_coeff(ctx, n)
        assert p.rename({"x1": "x9"}).rename({"x2": "x1"}).rename({"x9": "x2"}) == p
    vals = d2_values(ctx, 0.37, -0.81, 7)
    for m in range(7):
        want = d2_coeff(ctx, m).eval({"x1": 0.37, "x2": -0.81})
        assert vals[m] == pytest.approx(want, abs=1e-12)


def test_q_family_outputs_pinned():
    # The exact polynomials and each coefficient's type (int when integral,
    # else Fraction) at one q, as to_json_dict writes them.
    ctx = QContext(F(-4, 11))
    polys = ([hb_poly(ctx, kind, n) for kind in ("h", "b") for n in range(25)]
             + [d_coeff(ctx, n) for n in range(13)] + [d2_coeff(ctx, n) for n in range(15)]
             + [tn_construct(ctx, n).poly for n in range(13)])
    h = hashlib.sha256()
    for p in polys:
        h.update(json.dumps(p.to_json_dict()).encode())
        h.update(repr([type(c).__name__ for _, c in p.sorted_terms()]).encode())
    assert h.hexdigest() == "1ceb906ebba09f7fa1d172055f7ac905984c3ecefd1b9f8814326b22cffd264c"


def test_idb_examples(ctx):
    q = ctx.q
    r = idb_check(ctx, 1, 0)
    assert r.passed and r.expected_zero
    r = idb_check(ctx, 1, 1)
    assert r.passed and not r.expected_zero
    # (n, k) = (2, 5) hits the k >= n branch with (q)_5/(q)_3.
    assert idb_check(ctx, 2, 5).passed


@pytest.mark.parametrize("q", [F(1, 2), F(-1, 3)])
def test_idb_grid(q):
    ctx = QContext(q)
    for n in range(7):
        for k in range(9):
            assert idb_check(ctx, n, k).passed


def test_moments(ctx):
    assert ft_moment_U(ctx, 0).value == 1
    assert ft_moment_U(ctx, 7).value == 0
    assert gamma_moment(ctx, 0).value == 1
    assert gamma_moment(ctx, 5).value == 0
    assert d_of_q(ctx).tail_bound < 1e-30


def test_moment_quadrature_cross_check(ctx):
    # Independent route: integrate the truncated weight series against U_2
    # with first-kind quadrature (exact for polynomials at this node count).
    K = ctx.tail_index()
    coeffs = ft_u_coeffs(ctx)
    nodes = cheb1_nodes(256)
    total = 0.0
    for xv in nodes:
        uvals = [1.0, 2 * xv]
        for _ in range(2 * K):
            uvals.append(2 * xv * uvals[-1] - uvals[-2])
        g = sum(float(c) * uvals[2 * k - 2] for k, c in enumerate(coeffs, start=1))
        total += g * uvals[2]
    total /= len(nodes)
    assert abs(total - float(ft_moment_U(ctx, 2).value)) < 1e-10


def test_hU_expansion_reconstructs_h(ctx):
    for n in range(9):
        acc = Poly.zero(("x1",))
        for k in range(n // 2 + 1):
            acc = acc + hU_coeff(ctx, n, k) * cheb_poly(ChebIndex("U", n - 2 * k))
        assert acc == hb_poly(ctx, "h", n)


def test_tn_construction(ctx):
    assert tn_construct(ctx, 0).poly == 1
    assert tn_construct(ctx, 1).poly == 2 * X
    res = tn_construct(ctx, 4)
    assert res.gammas[1] == 0 and res.gammas[3] == 0
    chis = dict(res.ortho_chi)
    assert res.poly == hb_poly(ctx, "h", 4) - chis[2] * hb_poly(ctx, "h", 2)


def test_tn_memo_matches_fresh_contexts():
    # ortho_chi_m is kept on the context; calls in any order give what a fresh context does.
    ctx = QContext(F(-4, 11))
    for n in (12, 3, 7, 0):
        got, want = tn_construct(ctx, n), tn_construct(QContext(F(-4, 11)), n)
        for f in dataclasses.fields(want):
            assert getattr(got, f.name) == getattr(want, f.name), (n, f.name)
        assert {e: type(c) for e, c in got.poly.terms.items()} == {
            e: type(c) for e, c in want.poly.terms.items()}


def test_tn_reduces_to_first_kind_at_q0():
    ctx0 = QContext(0)
    for n in range(2, 9):
        assert tn_construct(ctx0, n).poly == 2 * cheb_poly(ChebIndex("T", n))


def test_tn_gram_is_diagonal(ctx):
    polys = [tn_construct(ctx, n).poly for n in range(9)]
    for i in range(9):
        for j in range(i):
            assert abs(float(ft_inner_product(ctx, polys[i] * polys[j]))) < 1e-8
        assert ft_inner_product(ctx, polys[i] * polys[i]) > 0


def _univar_coeffs(p: Poly, var: str = "x1") -> list[Fraction]:
    """Dense coefficient list c_0..c_deg of a univariate polynomial."""
    d = p.degree(var)
    out = [Fraction(0)] * (d + 1)
    for exps, c in p.terms.items():
        e = exps[p.vars.index(var)] if var in p.vars else 0
        out[e] += Fraction(c)
    return out


def poly_to_u_basis(p: Poly, var: str = "x1") -> list[Fraction]:
    """Coefficients c_j with p = sum c_j U_j, by leading-term peeling."""
    coeffs = _univar_coeffs(p, var)
    out = [Fraction(0)] * len(coeffs)
    dense = [Fraction(c) for c in coeffs]
    for d in range(len(dense) - 1, -1, -1):
        c = dense[d]
        if c == 0:
            continue
        lead = Fraction(2) ** d
        w = c / lead
        out[d] = w
        for e, uc in enumerate(_univar_coeffs(cheb_poly(ChebIndex("U", d), var=var), var)):
            dense[e] -= w * uc
    if any(c != 0 for c in dense):
        raise ChebsumError("U-basis peeling left a nonzero remainder")
    return out


def _peeled_inner_product(ctx, p):
    """The f_t integral of p through its U-basis coefficients."""
    return sum((c * ft_moment_U(ctx, j).value
                for j, c in enumerate(poly_to_u_basis(p)) if c != 0), F(0))


def test_inner_product_matches_u_peeling_on_gram(ctx):
    polys = [tn_construct(ctx, n).poly for n in range(13)]
    for i in range(13):
        for j in range(i + 1):
            p = polys[i] * polys[j]
            assert ft_inner_product(ctx, p) == _peeled_inner_product(ctx, p)


def test_inner_product_matches_u_peeling_on_random_polys():
    rng = random.Random(13)
    ctxs = [QContext(q) for q in (F(0), F(1, 2), F(-1, 3), F(-4, 11), F(6, 7))]
    for i in range(200):
        ctx = ctxs[i % len(ctxs)]
        deg = rng.randint(0, 26)
        p = Poly(("x1",), {(e,): F(rng.randint(-9, 9), rng.randint(1, 9))
                           for e in range(deg + 1) if rng.random() < 0.7})
        got = ft_inner_product(ctx, p)
        assert isinstance(got, Fraction) and got == _peeled_inner_product(ctx, p)


def test_poly_to_u_basis_roundtrip(ctx):
    p = hb_poly(ctx, "h", 6) * 3 - hb_poly(ctx, "h", 3)
    coeffs = poly_to_u_basis(p)
    acc = Poly.zero(("x1",))
    for j, c in enumerate(coeffs):
        acc = acc + c * cheb_poly(ChebIndex("U", j))
    assert acc == p


@pytest.mark.parametrize("t", range(6))
def test_chi1t(ctx, t):
    rep = chi1t_check(ctx, t, 0.3, 0.4)
    assert rep.abs_diff < 1e-9


def test_chi1t_reduces_at_q0():
    rep = chi1t_check(QContext(0), 0, 0.3, 0.4)
    want = chi_closed_value(GenSpec(0, 1, (0,)), [0.3], 0.4)
    assert abs(rep.lhs - want) < 1e-12
    assert abs(rep.rhs - want) < 1e-12


def test_final_identity():
    rng = random.Random(11)
    for _ in range(20):
        qv = F(rng.randint(-6, 6) or 1, 11)
        rep = final_identity_check(QContext(qv), rng.uniform(-1, 1),
                                   rng.uniform(-1, 1), rng.uniform(-0.25, 0.25))
        assert rep.abs_diff < 1e-8


def test_fh_integral(ctx):
    assert fh_integral_check(ctx).abs_diff < 1e-9


def test_beta_probe_reproduces_printed_coefficients():
    probe = conjecture_probe("beta-expansion", n=2,
                             q_values=[F(1, 2), F(1, 3), F(2, 5), F(3, 7)])
    assert probe["verdict"] == "REPRESENTABLE"
    for row in probe["per_q"]:
        qv = F(row["q"])
        assert F(row["beta"][0]) == 1
        assert F(row["beta"][1]) == -(1 - qv ** 2)
    # The polynomial fit recovers the q-dependence of the n = 2 coefficient.
    assert probe["beta_fits_in_q"][1] == "-1 + 1*q^2"
    for qv in (F(1, 2), F(1, 3)):
        ctx = QContext(qv)
        p3 = conjecture_probe("beta-expansion", n=3, q_values=[qv])
        assert F(p3["per_q"][0]["beta"][1]) == -qv ** 2 * ctx.qq(3) / ctx.qq(1) ** 2
        p4 = conjecture_probe("beta-expansion", n=4, q_values=[qv])
        assert F(p4["per_q"][0]["beta"][1]) == -qv ** 4 * ctx.qq(4) / (ctx.qq(1) * ctx.qq(2))
        assert F(p4["per_q"][0]["beta"][2]) == qv ** 5 * ctx.qq(4) / ctx.qq(2)


@pytest.mark.parametrize("n", range(5, 9))
def test_beta_probe_emits_verdicts_beyond_printed_range(n):
    probe = conjecture_probe("beta-expansion", n=n, q_values=[F(1, 2), F(1, 3)])
    assert probe["verdict"] in ("REPRESENTABLE", "UNREPRESENTABLE")
    # Observed outcome, frozen: the diagonal expansion keeps working.
    assert probe["verdict"] == "REPRESENTABLE"


def _gauss_jordan_fit(samples):
    """The beta fit as a Gauss-Jordan solve of the Vandermonde system: the reference."""
    if len(samples) < 3:
        return None
    fit_pts, check = samples[:-1], samples[-1]
    m = len(fit_pts)
    rows = [[qv ** i for i in range(m)] + [val] for qv, val in fit_pts]
    for c in range(m):
        piv = next((r for r in range(c, m) if rows[r][c] != 0), None)
        if piv is None:
            return None
        rows[c], rows[piv] = rows[piv], rows[c]
        for r in range(m):
            if r != c and rows[r][c] != 0:
                f = rows[r][c] / rows[c][c]
                rows[r] = [a - f * b for a, b in zip(rows[r], rows[c])]
    coeffs = [rows[i][m] / rows[i][i] for i in range(m)]
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    if sum(c * check[0] ** i for i, c in enumerate(coeffs)) != check[1]:
        return None
    parts = []
    for i, c in enumerate(coeffs):
        if c == 0:
            continue
        parts.append(str(c) if i == 0 else (f"{c}*q" if i == 1 else f"{c}*q^{i}"))
    return " + ".join(parts) if parts else "0"


def test_beta_fit_matches_the_gauss_jordan_reference():
    # Newton divided differences give the strings of the Vandermonde solve: on
    # polynomials the samples fit, with repeated q (None when a fitted q repeats)
    # and with a last sample off the curve (a failed check, None).
    rng = random.Random(7)
    outcomes = {"fit": 0, "repeated": 0, "failed": 0}
    for _ in range(600):
        coeffs = [F(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(rng.randint(1, 5))]
        qs = [F(rng.randint(-6, 6), rng.randint(1, 7)) for _ in range(rng.randint(0, 7))]
        samples = [(q, sum(c * q ** i for i, c in enumerate(coeffs))) for q in qs]
        if samples and rng.random() < 0.25:
            samples[-1] = (samples[-1][0], samples[-1][1] + F(1, 3))
        got = _fit_polynomial_in_q(samples)
        assert got == _gauss_jordan_fit(samples), samples
        if got is not None:
            outcomes["fit"] += 1
        elif len(set(qs[:-1])) < len(qs[:-1]):
            outcomes["repeated"] += 1
        elif len(qs) >= 3:
            outcomes["failed"] += 1
    assert min(outcomes.values()) > 20, outcomes
    assert _fit_polynomial_in_q([(F(1, 2), F(1)), (F(1, 2), F(2)), (F(1, 3), F(1))]) is None
    assert _fit_polynomial_in_q([(F(1, 2), F(0)), (F(1, 3), F(0)), (F(1, 5), F(0))]) == "0"


def test_float_q_checks_refuse_a_q_near_1():
    # (q;q)_m rounds to 0 in floats when |q| is within about 1e-9 of 1: the
    # truncated float checks refuse instead of dividing by it.
    for q in (F(999999999, 10 ** 9), F(1) - F(1, 2 ** 53)):
        with pytest.raises(ConvergenceError, match="rounds to 0 in floats"):
            chi1t_check(QContext(q), 1, 0.3, 0.4)
        with pytest.raises(ConvergenceError, match="rounds to 0 in floats"):
            final_identity_check(QContext(q), 0.3, 0.4, 0.1)


def test_identity_reports_fail_only_where_their_bound_decides():
    # Within tol a check passes; past it a bound within tol makes it a FAIL, and a
    # bound past tol a refusal: the truncated sides may differ by that much.
    assert IdentityReport(1.0, 1.0, 1e-12, 1e-3).passes(1e-9)
    assert not IdentityReport(1.0, 2.0, 1.0, 1e-12).passes(1e-9)
    with pytest.raises(ConvergenceError, match="truncation bound"):
        IdentityReport(1.0, 2.0, 1.0, 1e-3).passes(1e-9)


def test_probe_refuses_exact_values_past_the_digit_limit():
    with pytest.raises(ScaleError, match=r"an exact value of \d+ digits exceeds"):
        conjecture_probe("common-denominator", n_h=0, m_t=1, q=F(9, 10))


def test_common_denominator_probe():
    pure_h = conjecture_probe("common-denominator", n_h=1, m_t=0)
    assert pure_h["all_above_vanish"]
    # Two h factors leave the known theta-like even series in the numerator.
    hh = conjecture_probe("common-denominator", n_h=2, m_t=0)
    persisting = [r for r in hh["coefficients"] if r["persists"]]
    assert [r["order"] for r in persisting] == [4, 6, 8, 10, 12]
    ctx = QContext(F(1, 3))
    for r in persisting:
        k = r["order"] // 2
        want = float(F(-1) ** k * ctx.q ** (k * (k - 1) // 2) / ctx.qq(k))
        assert abs(r["value"] - want) <= hh["bound"]
    # Mixed series: the probe reports persistence honestly.
    mixed = conjecture_probe("common-denominator", n_h=0, m_t=1)
    assert not mixed["all_above_vanish"]
    assert mixed["persisting_decay_ratios"]


def _truncated_moments(q, eps, n):
    """(K, d(q), the f_t moment of U_n, gamma_n), with each sum written out."""
    K = next(K for K in range(3, 401) if float(abs(q)) ** (K * (K - 1) // 2) < eps)
    c2 = [k * (k - 1) // 2 for k in range(K + 1)]
    d = sum(F(-1) ** (k - 1) * q ** c2[k] for k in range(1, K + 1))

    def moment_u(m):
        return sum(F(-1) ** (k - 1) * (1 + min(m, 2 * k - 2)) * q ** c2[k]
                   for k in range(1, K + 1)) / d

    def qq(m):
        out = F(1)
        for j in range(1, m + 1):
            out *= 1 - q ** j
        return out

    gamma = sum((q ** k - q ** (n - k + 1)) / (1 - q ** (n - k + 1))
                * qq(n) / (qq(k) * qq(n - k)) * moment_u(n - 2 * k)
                for k in range(n // 2 + 1))
    return K, d, moment_u(n), gamma


@pytest.mark.parametrize("q", Q_SET)
def test_memoised_moments_match_truncated_sums(q):
    ctx = QContext(q)
    for n in (0, 2, 4, 6, 8):
        K, d, u, gamma = _truncated_moments(q, 1e-30, n)
        for _ in range(2):   # the second call reads the context's memo
            assert (d_of_q(ctx).terms, d_of_q(ctx).value) == (K, d)
            assert ft_moment_U(ctx, n).value == u
            assert gamma_moment(ctx, n).value == gamma


def test_moment_memo_belongs_to_its_context():
    ctx = QContext(F(1, 2))
    want = ft_moment_U(ctx, 4)
    ctx._memo[("ft_moment_U", 4)] = TruncatedRational(F(7), 0.0, 0)
    assert ft_moment_U(ctx, 4).value == 7
    fresh = QContext(F(1, 2))
    assert ft_moment_U(fresh, 4) == want
    assert gamma_moment(fresh, 4) != gamma_moment(ctx, 4)


def test_d_internal_check_fires_on_cache_poisoning(ctx):
    # d_coeff recomputes and re-checks on a fresh context.
    fresh = QContext(F(1, 2))
    assert d_coeff(fresh, 5) == hb_poly(fresh, "b", 5)


# The q-scalars are held as integers over powers of q's denominator; these are the
# same quantities written as plain Fraction formulas, normalised at every step.
PLAIN_Q = (F(0), F(1, 3), F(-2, 7), F(5, 11), F(-3, 7), F(9, 10))


def _plain_q_scalars(q, nmax=24):
    """(K, [(q;q)_n], q-binomial rows, d(q), [U_n moment], [x^e moment], [gamma_n]), n, e <= nmax."""
    K = next(K for K in range(3, 401) if float(abs(q)) ** (K * (K - 1) // 2) < 1e-30)
    qq = [F(1)]
    for m in range(1, nmax + 1):
        qq.append(qq[-1] * (1 - q ** m))
    binom = [[qq[n] / (qq[k] * qq[n - k]) for k in range(n + 1)] for n in range(nmax + 1)]
    signed = [F(-1) ** (k - 1) * q ** (k * (k - 1) // 2) for k in range(1, K + 1)]
    d = sum(signed, F(0))
    u = [F(0) if n % 2 else sum((s * (1 + min(n, 2 * k - 2)) for k, s in enumerate(signed, 1)),
                                F(0)) / d for n in range(nmax + 1)]
    x = [sum(((math.comb(e, k) - (math.comb(e, k - 1) if k else 0)) * u[e - 2 * k]
              for k in range(e // 2 + 1)), F(0)) / 2 ** e for e in range(nmax + 1)]
    gamma = [F(0) if n % 2 else sum(((q ** k - q ** (n - k + 1)) / (1 - q ** (n - k + 1))
                                     * binom[n][k] * u[n - 2 * k] for k in range(n // 2 + 1)), F(0))
             for n in range(nmax + 1)]
    return K, qq, binom, d, u, x, gamma


def _plain_ortho_chi(q, g, n):
    chis = {m: g[m + 2] / g[m] if m % 2 == 0 else
            (g[m + 3] + (1 - q ** (m + 2)) * g[m + 1]) / (g[m + 1] + (1 - q ** m) * g[m - 1])
            for m in range(max(0, n - 1))}
    return tuple(sorted(chis.items()))


@pytest.mark.parametrize("q", PLAIN_Q)
def test_integer_q_scalars_equal_the_plain_fraction_formulas(q):
    K, qq, binom, d, u, x, gamma = _plain_q_scalars(q)
    ctx = QContext(q)
    assert [ctx.qq(n) for n in range(25)] == qq
    assert [[ctx.binom(n, k) for k in range(n + 1)] for n in range(25)] == binom
    assert (d_of_q(ctx).terms, d_of_q(ctx).value) == (K, d)
    assert [ft_moment_U(ctx, n).value for n in range(25)] == u
    assert [gamma_moment(ctx, n).value for n in range(25)] == gamma
    tn = [tn_construct(ctx, n) for n in range(13)]
    assert [t.ortho_chi for t in tn] == [_plain_ortho_chi(q, gamma, n) for n in range(13)]
    rng = random.Random(f"plain:{q}")
    polys = ([X ** e for e in range(25)]
             + [tn[a].poly * tn[b].poly for a in range(13) for b in range(a + 1)]
             + [Poly.const(F(-5, 3)), Poly.const(F(7, 2), ("x1",)), Poly.zero(("x1",))]
             + [Poly(("x1",), {(e,): F(rng.randint(-9, 9), rng.randint(1, 9))
                               for e in range(rng.randint(0, 24) + 1) if rng.random() < 0.7})
                for _ in range(20)])
    for p in polys:
        got = ft_inner_product(ctx, p)
        assert isinstance(got, Fraction)
        assert got == sum((c * x[exps[0] if exps else 0] for exps, c in p.terms.items()), F(0))


def _chi1t_long_series(q, t, x, rho, J=600):
    """sum_{j<=J} rho^j/(q)_j h_{t+j}(x) in floats: the chi1t sum with a negligible tail."""
    q, h = float(q), [1.0, 2 * x]
    for m in range(1, t + J + 1):
        h.append(2 * x * h[m] - (1 - q ** m) * h[m - 1])
    total, qq = 0.0, 1.0
    for j in range(J + 1):
        qq *= 1 - q ** j if j else 1.0
        total += rho ** j / qq * h[t + j]
    return total


def test_chi1t_bound_holds_for_every_q():
    # At |q| = 9/10 |h_m(x|q)| is far past m + 1, the majorant the bound used to take
    # from q = 0: there the 80-term sum is 0.09 from the value while the bound read 8.5e-6.
    rep = chi1t_check(QContext(F(9, 10)), 2, -0.9983, 0.6821)
    assert abs(rep.lhs - _chi1t_long_series(F(9, 10), 2, -0.9983, 0.6821)) > 0.09
    assert rep.bound > 0.09
    rng = random.Random(29)
    for i in range(120):
        q = (F(9, 10), F(-9, 10), F(0), F(1, 3), F(-2, 7), F(5, 11))[i % 6]
        t, x, rho = rng.randint(0, 5), rng.uniform(-1, 1), rng.uniform(-0.7, 0.7)
        rep = chi1t_check(QContext(q), t, x, rho)
        want = _chi1t_long_series(q, t, x, rho)
        assert abs(rep.lhs - want) <= rep.bound and abs(rep.rhs - want) <= rep.bound
    with pytest.raises(DomainError):
        chi1t_check(QContext(F(1, 2)), 1, 1.5, 0.4)
