"""Denominator polynomial construction tests."""

import hashlib
import math
import random
from fractions import Fraction

import numpy as np
import pytest

import chebsum.poly as poly_mod
from chebsum.denom import (build_w, build_w_recursive, w_shifted,
                           w_specialize_one, w_rho_coeff_polys)
from chebsum.errors import ScaleError
from chebsum.poly import Poly

X1, X2, X3 = (Poly.variable(v) for v in ("x1", "x2", "x3"))
RHO = Poly.variable("rho")


def test_w1_w2_exact():
    assert build_w(1).poly == 1 - 2 * RHO * X1 + RHO ** 2
    want = (1 - RHO ** 2) ** 2 - 4 * X1 * X2 * RHO * (1 + RHO ** 2) \
        + 4 * RHO ** 2 * (X1 ** 2 + X2 ** 2)
    assert build_w(2).poly == want


def test_w3_exact():
    s2 = X1 ** 2 + X2 ** 2 + X3 ** 2
    s4 = X1 ** 4 + X2 ** 4 + X3 ** 4
    p22 = X1 ** 2 * X2 ** 2 + X1 ** 2 * X3 ** 2 + X2 ** 2 * X3 ** 2
    xyz = X1 * X2 * X3
    want = (16 * RHO ** 4 * s4 - 8 * RHO ** 2 * (1 + RHO ** 2) ** 2 * s2
            + 16 * RHO ** 2 * (1 + RHO ** 4) * p22 + 64 * RHO ** 4 * xyz ** 2
            - 32 * RHO ** 3 * (1 + RHO ** 2) * xyz * s2
            - 8 * RHO * (1 + RHO ** 2) * (1 + RHO ** 4 - 6 * RHO ** 2) * xyz
            + (1 + RHO ** 2) ** 4)
    assert build_w(3).poly == want


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_recursive_equals_direct(n):
    assert build_w_recursive(n).poly == build_w(n).poly


def test_term_order_pinned():
    # eval_grid sums terms in insertion order, so float outputs depend on the
    # order in which the constructions emit terms, not only on the values.
    h = hashlib.sha256()
    for n in range(1, 5):
        for p in (build_w(n).poly, build_w_recursive(n).poly, *w_rho_coeff_polys(n)):
            h.update(repr((p.vars, list(p.terms.items()))).encode())
    assert h.hexdigest() == "7ad0c13a405b53e364a0de9cc03131493c5afdc9cb0b0a2159f8c32d37eb0b42"


def test_cold_build_w_product_count(monkeypatch):
    # 2^n - 1 angle-addition steps: the 2^(n-1) to full sign vectors make only
    # their cosine (two products), the others cos and sin (four); then rho^2,
    # the 2^(n-1) products 2 rho cos and the 2^(n-1) - 1 of the balanced tree.
    count = [0]
    loop = poly_mod._product_loop

    def counted(a, b):
        count[0] += 1
        return loop(a, b)

    monkeypatch.setattr(poly_mod, "_product_loop", counted)
    for n in (2, 3, 4):
        build_w.cache_clear()
        count[0] = 0
        build_w(n)
        half = 2 ** (n - 1)
        assert count[0] == 4 * (half - 1) + 2 * half + 1 + half + half - 1


def test_specialize_one():
    assert w_specialize_one(2) == (1 - 2 * RHO * X2 + RHO ** 2) ** 2
    assert w_specialize_one(3) == w_shifted(2) ** 2
    val = w_specialize_one(2).eval({"x2": 1, "rho": Fraction(1, 2)})
    assert val == Fraction(1, 16)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_permutation_symmetry(n):
    w = build_w(n).poly
    for a in range(1, n):
        swapped = w.rename({f"x{a}": "x9"}).rename({f"x{a + 1}": f"x{a}"}) \
                   .rename({"x9": f"x{a + 1}"})
        assert swapped == w


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_degree_bounds(n):
    w = build_w(n).poly
    assert w.degree("rho") == 2 ** n
    for j in range(1, n + 1):
        assert w.degree(f"x{j}") == 2 ** (n - 1)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_positivity_grid(n):
    # Near the corners the value is as small as (1-|rho|)^(2^n), far below
    # what the expanded 500-term polynomial resolves in floats, so evaluate
    # through the factored form (the same function by construction), with
    # x_i = cos(a_i): every quadratic factor is bounded below by (1-|rho|)^2 > 0.
    axis = np.linspace(-1.0, 1.0, 9)
    mesh = np.meshgrid(*([axis] * n), indexing="ij", sparse=True)
    angles = [np.arccos(m) for m in mesh]
    cosines = []
    for bits in range(2 ** (n - 1)):
        signs = (1,) + tuple(1 if (bits >> j) & 1 else -1 for j in range(n - 1))
        cosines.append(np.cos(sum(s * a for s, a in zip(signs, angles))))
    for rho in (-0.9, -0.5, 0.0, 0.5, 0.9):
        prod = 1.0
        for cv in cosines:
            prod = prod * (1 - 2 * rho * cv + rho * rho)
        assert float(np.min(prod)) > 0.0
    # Away from the corners the expanded polynomial itself stays positive.
    w = build_w(n).poly
    inner = np.linspace(-0.9, 0.9, 7)
    mesh = np.meshgrid(*([inner] * n), indexing="ij", sparse=True)
    arrays = {f"x{i + 1}": mesh[i] for i in range(n)}
    for rho in (-0.9, -0.5, 0.0, 0.5, 0.9):
        arrays["rho"] = np.asarray(rho)
        assert float(w.eval_grid(arrays).min()) > 0.0


def test_doubling_identity_numeric():
    # w_1(cos(a+b)) w_1(cos(a-b)) = w_2(cos a, cos b), spot-checked.
    rng = random.Random(17)
    w1 = build_w(1).poly
    w2 = build_w(2).poly
    for _ in range(100):
        a, b = rng.uniform(0, 2 * math.pi), rng.uniform(0, 2 * math.pi)
        r = rng.uniform(-0.95, 0.95)
        lhs = w1.eval({"x1": math.cos(a + b), "rho": r}) \
            * w1.eval({"x1": math.cos(a - b), "rho": r})
        rhs = w2.eval({"x1": math.cos(a), "x2": math.cos(b), "rho": r})
        assert abs(lhs - rhs) < 1e-12


def test_rho_coeff_polys_cover_all_orders():
    coeffs = w_rho_coeff_polys(2)
    assert len(coeffs) == 5
    acc = Poly.zero()
    for m, c in enumerate(coeffs):
        acc = acc + c.embed(("x1", "x2")) * RHO ** m
    assert acc == build_w(2).poly


def test_scale_error():
    with pytest.raises(ScaleError):
        build_w(6)
    with pytest.raises(ScaleError):
        build_w(0)
