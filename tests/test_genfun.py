"""Generating-function engine tests: numerators, oracles, marginals."""

import itertools
import math
import random
import time
import tracemalloc
from fractions import Fraction

import pytest

import chebsum.poly as poly_mod
from chebsum.cheb import ChebIndex, _cheb_poly_cached, cheb_poly, cheb_seq_grid
from chebsum.denom import build_w, w_rho_coeff_polys
from chebsum.errors import ConvergenceError, DomainError, ScaleError, SingularAngle
from chebsum.genfun import (GenSpec, _basis_convolution, _cheb_factors, _numerator_cached,
                            chi_angle_eval, chi_closed_value, chi_closed_values_grid,
                            chi_series_oracle_grid, chi_series_tail_bound, marginal_check,
                            numerator_l, positivity_grid_min, series_convolution_residual)
from chebsum.poly import Poly

X1, X2 = Poly.variable("x1"), Poly.variable("x2")
RHO = Poly.variable("rho")


def test_base_numerators():
    assert numerator_l(GenSpec(0, 1, (0,))) == Poly.const(1)
    assert numerator_l(GenSpec(1, 0, (0,))) == 1 - RHO * X1
    assert numerator_l(GenSpec(0, 2, (0, 0))) == 1 - RHO ** 2


def test_shifted_numerator_single_slot():
    for m in range(5):
        want_t = cheb_poly(ChebIndex("T", m)) - RHO * cheb_poly(ChebIndex("T", m - 1))
        assert numerator_l(GenSpec(1, 0, (m,))) == want_t
        want_u = cheb_poly(ChebIndex("U", m)) - RHO * cheb_poly(ChebIndex("U", m - 1))
        assert numerator_l(GenSpec(0, 1, (m,))) == want_u


def test_numerator_rho_degree_bound():
    for (k, n) in ((1, 0), (0, 2), (2, 1)):
        spec = GenSpec(k, n, (0,) * (k + n))
        assert numerator_l(spec).degree("rho") <= 2 ** (k + n) - 1


def test_series_oracle_examples():
    spec = GenSpec(0, 1, (0,))
    got = chi_series_oracle_grid(spec, [0.5], 0.5, 60)
    assert abs(got - 4 / 3) < 1e-12
    # rho = 0 keeps only the j = 0 product.
    spec = GenSpec(1, 1, (2, 1))
    got = chi_series_oracle_grid(spec, [0.3, 0.8], 0.0, 10)
    want = (2 * 0.3 ** 2 - 1) * (2 * 0.8)
    assert abs(got - want) < 1e-14


def _table_oracle(spec, xs, rho, J):
    """The series oracle on whole tables: (J+1) rows of Chebyshev values per slot."""
    import numpy as np

    rho = np.asarray(rho, dtype=float)
    prods = math.prod(cheb_seq_grid(spec.kind(s), spec.t[s - 1], J + 1,
                                    np.asarray(xs[s - 1], dtype=float))
                      for s in range(1, spec.slots + 1))
    total = np.zeros(rho.shape)
    rp = np.ones(rho.shape)
    for j in range(J + 1):
        total = total + rp * prods[j]
        rp *= rho
    return total


def _same_bits(a, b):
    import numpy as np

    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def test_streamed_oracle_matches_tables_bit_for_bit():
    import numpy as np

    rng = np.random.default_rng(28)
    for K, N, J in itertools.product((1, 2, 3, 4), (1, 2, 7, 50, 2000), (0, 1, 2, 50, 200)):
        k = int(rng.integers(0, K + 1))
        spec = GenSpec(k, K - k, tuple(int(t) for t in rng.integers(-4, 6, K)))
        xs = [rng.uniform(-1, 1, N) for _ in range(K)]
        rho = rng.uniform(-0.95, 0.95, N)
        if N >= 7:  # signed zeros, both ends of [-1, 1], and rho = 0
            xs[0][:3] = (-0.0, 1.0, -1.0)
            rho[3:5] = (0.0, -0.0)
        got = chi_series_oracle_grid(spec, xs, rho, J)
        assert _same_bits(got, _table_oracle(spec, xs, rho, J)), (spec, N, J)
    # Scalars give a 0-d result; a sparse mesh broadcasts against rho's leading axis.
    spec = GenSpec(2, 2, (3, -1, 0, -3))
    xs, rho = [0.3, -0.0, 1.0, -0.7], 0.4
    assert _same_bits(chi_series_oracle_grid(spec, xs, rho, 60), _table_oracle(spec, xs, rho, 60))
    mesh = [np.linspace(-1, 1, 5).reshape(5, 1), np.linspace(-0.9, 0.9, 3).reshape(1, 3)]
    rhos = np.array([0.3, -0.6]).reshape(2, 1, 1)
    spec = GenSpec(1, 1, (1, -2))
    got = chi_series_oracle_grid(spec, mesh, rhos, 80)
    assert got.shape == (2, 5, 3) and _same_bits(got, _table_oracle(spec, mesh, rhos, 80))
    # x arrays of different ranks broadcast too (whole tables could not: their row
    # axis leads); a scalar x is the same as a full array of it.
    full = np.broadcast_to((mesh[0] + mesh[1]) / 2, (5, 3))
    assert _same_bits(chi_series_oracle_grid(spec, [full, 0.25], rhos, 40),
                      _table_oracle(spec, [full, np.full((5, 3), 0.25)], rhos, 40))


def test_oracle_memory_does_not_grow_with_the_order():
    import numpy as np

    rng = np.random.default_rng(3)
    xs = [rng.uniform(-1, 1, 2000) for _ in range(4)]
    rho = rng.uniform(-0.9, 0.9, 2000)
    tracemalloc.start()
    try:
        chi_series_oracle_grid(GenSpec(2, 2, (0, 1, -1, 2)), xs, rho, 2000)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2 ** 20  # four 2001-row tables would take 64 MB


def test_series_tail_bound_is_a_bound():
    spec = GenSpec(1, 1, (1, 0))
    xs, rho = [0.3, 0.7], 0.4
    dense = chi_series_oracle_grid(spec, xs, rho, 400)
    for J in (20, 40, 80):
        err = abs(chi_series_oracle_grid(spec, xs, rho, J) - dense)
        assert err <= chi_series_tail_bound(spec, rho, J)


def test_series_oracle_domain_errors():
    spec = GenSpec(0, 1, (0,))
    with pytest.raises(DomainError):
        chi_series_oracle_grid(spec, [0.5], 1.0, 10)
    with pytest.raises(DomainError):
        chi_series_oracle_grid(spec, [1.5], 0.5, 10)


def test_closed_value_domain_errors():
    import numpy as np

    spec = GenSpec(0, 1, (0,))
    with pytest.raises(DomainError):
        chi_closed_value(spec, [2.0], 0.5)
    with pytest.raises(DomainError):
        chi_closed_value(spec, [Fraction(1, 2)], Fraction(3, 2))
    with pytest.raises(DomainError):
        chi_closed_value(spec, [0.5, 0.5], 0.5)
    xs = [np.array([0.5, -1.0, 1.0])]
    assert chi_closed_values_grid(spec, xs, np.array([0.5, 0.1, -0.9])).shape == (3,)
    with pytest.raises(DomainError):
        chi_closed_values_grid(spec, [np.array([0.5, 1.5])], np.array([0.5, 0.5]))
    with pytest.raises(DomainError):
        chi_closed_values_grid(spec, xs, np.array([0.5, -1.0, 0.1]))
    with pytest.raises(DomainError):
        chi_closed_values_grid(GenSpec(1, 1, (0, 0)), xs, np.array([0.5, 0.1, 0.1]))
    assert chi_series_oracle_grid(spec, xs, np.array([0.5, 0.1, -0.9]), 20).shape == (3,)
    with pytest.raises(DomainError):
        chi_series_oracle_grid(spec, [np.array([2.0])], np.array([0.5]), 20)
    with pytest.raises(DomainError):
        chi_series_oracle_grid(spec, [np.array([0.5])], np.array([1.5]), 20)
    with pytest.raises(DomainError):
        chi_series_oracle_grid(GenSpec(1, 1, (0, 0)), xs, np.array([0.5, 0.1, 0.1]), 20)
    with pytest.raises(DomainError):
        marginal_check(1, 1, nodes=0)
    with pytest.raises(DomainError, match="need 1 <= j <= n"):
        marginal_check(2, 3)
    # NaN is outside every domain, in a coordinate or in rho.
    for x, rho in ((math.nan, 0.5), (0.5, math.nan)):
        with pytest.raises(DomainError):
            chi_closed_value(spec, [x], rho)
        with pytest.raises(DomainError):
            chi_closed_values_grid(spec, [np.array([0.5, x])], np.array([0.1, rho]))
    with pytest.raises(DomainError):
        chi_angle_eval(spec, [1.0], math.nan)
    with pytest.raises(DomainError):
        chi_series_tail_bound(spec, math.nan, 10)


def _convolution_product(spec, i):
    """P_i expanded in full; negative i by the rules of ``cheb_poly``."""
    return math.prod((cheb_poly(ChebIndex(spec.kind(s), i + spec.t[s - 1]), var=f"x{s}")
                      for s in range(1, spec.slots + 1)), start=Poly.const(1))


def _convolution_products(spec, count):
    """P_0 .. P_{count-1}, each expanded in full."""
    return [_convolution_product(spec, i) for i in range(count)]


def _convolution_numerator(spec):
    """l = sum_{j < 2^K} rho^j sum_m [rho^m](w) P_{j-m}, each c_m times a full P_i."""
    order = 2 ** spec.slots
    prods = _convolution_products(spec, order)
    acc = Poly.zero()
    for m, cm in enumerate(w_rho_coeff_polys(spec.slots)):
        for i in range(order - m):
            acc = acc + (cm * prods[i]) * RHO ** (m + i)
    return acc


def _convolution_residual(spec, order):
    prods = _convolution_products(spec, order + 1)
    acc = Poly.zero()
    for m, cm in enumerate(w_rho_coeff_polys(spec.slots)):
        if m <= order:
            acc = acc + cm * prods[order - m]
    if order < 2 ** spec.slots:
        acc = acc - _convolution_numerator(spec).coeff_of("rho", order)
    return acc


def test_factored_convolution_matches_full_products():
    # numerator_l multiplies one Chebyshev factor at a time and
    # series_convolution_residual sums in the product basis; the plain
    # convolution over expanded P_i must agree with both.
    for K in (1, 2, 3):
        for k in range(K + 1):
            for t in ((0,) * K, (-1, 2, -2)[:K]):
                spec = GenSpec(k, K - k, t)
                assert numerator_l(spec) == _convolution_numerator(spec)
                top = 2 ** K
                for order in (top - 1, top, top + 2):
                    assert series_convolution_residual(spec, order) == \
                        _convolution_residual(spec, order)


def _random_coeff_poly(rng, K):
    """A few terms c x^alpha with exponents up to 4, mostly integer, some Fraction."""
    terms = {}
    for _ in range(rng.randint(0, 4)):
        c = rng.randint(-9, 9) or 1
        terms[tuple(rng.randint(0, 4) for _ in range(K))] = (
            Fraction(c, rng.choice((2, 3))) if rng.random() < 0.2 else c)
    return Poly(tuple(f"x{s}" for s in range(1, K + 1)), terms)


def test_basis_convolution_matches_monomial_oracle():
    # The product-basis sum against sum_m coeffs[m] * P_{order-m} over expanded
    # P_i, on coefficient lists that mostly leave a nonzero result.
    rng = random.Random(20)
    nonzero, sides = 0, set()
    for _ in range(40):
        K = rng.randint(1, 3)
        k = rng.randint(0, K)
        spec = GenSpec(k, K - k, tuple(rng.randint(-3, 3) for _ in range(K)))
        coeffs = [_random_coeff_poly(rng, K) for _ in range(2 ** K + 1)]
        order = rng.randint(0, 12)
        got = _basis_convolution(spec, coeffs, order)
        want = Poly.sum([Poly.zero()] + [cm * _convolution_product(spec, order - m)
                                         for m, cm in enumerate(coeffs) if m <= order])
        assert got == want
        nonzero += not got.is_zero()
        sides.add(order >= 2 ** K)
    assert nonzero >= 30 and sides == {False, True}


def test_zero_residual_expands_nothing(monkeypatch):
    # Above the cutoff the residual of a warm w is decided in the product
    # basis: no Chebyshev polynomial is expanded and no product runs.
    count = [0]
    loop = poly_mod._product_loop

    def counted(a, b):
        count[0] += 1
        return loop(a, b)

    spec = GenSpec(2, 2, (0, -1, 1, 0))
    w_rho_coeff_polys(4)
    _cheb_poly_cached.cache_clear()
    monkeypatch.setattr(poly_mod, "_product_loop", counted)
    for order in (16, 17, 20):
        assert series_convolution_residual(spec, order).is_zero()
    assert count[0] == 0 and _cheb_poly_cached.cache_info().currsize == 0


def _one_sided_numerator(spec):
    """l = sum_i rho^i [w]_{<2^K-i} C_{1,i} ... C_{K,i}: every c_j from its long side."""
    K = spec.slots
    order = 2 ** K
    w = build_w(K).poly
    acc = Poly.zero()
    for i in range(order):
        term = w.band("rho", 0, order - i) * Poly(("rho",), {(i,): 1})
        for factor in _cheb_factors(spec, i):
            term = term * factor
        acc = acc + term
    want = tuple([f"x{i}" for i in range(1, K + 1)] + ["rho"])
    return acc if acc.vars == want else acc.embed(want)


def _typed_terms(p):
    return {e: (c, type(c)) for e, c in p.terms.items()}


def _split_specs():
    """Every (k, n) split with K <= 4: all shifts in -2..2 up to K = 2, seeded ones above."""
    rng = random.Random(15)
    for K in range(1, 5):
        for k in range(K + 1):
            if K <= 2:
                shifts = itertools.product(range(-2, 3), repeat=K)
            else:
                shifts = [tuple(rng.randint(-2, 2) for _ in range(K))
                          for _ in range(3 if K == 3 else 2)]
            for t in shifts:
                yield GenSpec(k, K - k, t)


def test_two_sided_numerator_matches_one_sided():
    specs = list(_split_specs())
    assert len({(s.k, s.n) for s in specs}) == 14
    for spec in specs:
        got, want = numerator_l(spec), _one_sided_numerator(spec)
        assert got.vars == want.vars and _typed_terms(got) == _typed_terms(want)


def test_convolution_vanishes_at_negative_orders():
    # The two-sided numerator rests on sum_m [rho^m](w) P_{j-m} = 0 for every
    # integer j, which cheb_poly's negative-index rules make hold below 0 too.
    for spec in (GenSpec(1, 0, (2,)), GenSpec(0, 1, (-2,)), GenSpec(0, 2, (-1, 1)),
                 GenSpec(2, 1, (0, -2, 1)), GenSpec(1, 2, (1, 0, -2))):
        order = 2 ** spec.slots
        for j in range(-order, 0):
            assert Poly.sum(cm * _convolution_product(spec, j - m)
                            for m, cm in enumerate(w_rho_coeff_polys(spec.slots))).is_zero()


@pytest.mark.parametrize("k, n, t", [(0, 4, (-1, 0, 0, 1)), (2, 2, (0, -1, 1, 0))])
def test_numerator_work_guard(monkeypatch, k, n, t):
    # The one-sided construction costs these numerators over 300,000 term
    # products each; from both sides no Chebyshev index passes h + 2.
    count = [0]
    loop = poly_mod._product_loop

    def counted(a, b):
        count[0] += len(a) * len(b)
        return loop(a, b)

    w_rho_coeff_polys(k + n)
    _numerator_cached.cache_clear()
    _cheb_poly_cached.cache_clear()
    monkeypatch.setattr(poly_mod, "_product_loop", counted)
    numerator_l(GenSpec(k, n, t))
    assert 0 < count[0] <= 30_000


def _band_product_numerator(spec):
    """The two-sided numerator with every band summed from products [rho^m](w) * rho^(m + shift)."""
    K = spec.slots
    h = 2 ** (K - 1)
    cs = w_rho_coeff_polys(K)

    def band(lo, hi, shift):
        return Poly.sum(c * Poly(("rho",), {(m + shift,): 1}) for m, c in enumerate(cs[lo:hi], lo))

    bands = [(i, band(0, h - i, i)) for i in range(h)]
    bands += [(-i, -band(h + i, 2 * h + 1, -i)) for i in range(1, h + 1)]
    acc = Poly.sum(math.prod(_cheb_factors(spec, i), start=b) for i, b in bands)
    return acc.embed([f"x{i}" for i in range(1, K + 1)] + ["rho"])


def test_sliced_bands_match_band_products():
    # numerator_l slices its bands out of w_K; the band products give the
    # same polynomial on every split (the term order may differ).
    rng = random.Random(29)
    specs = [GenSpec(k, K - k, tuple(rng.randint(-3, 3) for _ in range(K)))
             for K in range(1, 5) for k in range(K + 1) for _ in range(2)]
    assert len({(s.k, s.n) for s in specs}) == 14
    for spec in specs:
        for cache in (_numerator_cached, build_w, w_rho_coeff_polys, _cheb_poly_cached):
            cache.cache_clear()
        got, want = numerator_l(spec), _band_product_numerator(spec)
        assert got == want and got.to_json_dict() == want.to_json_dict()


def test_sliced_numerator_product_count(monkeypatch):
    # With w_4 and the Chebyshev factors warm, a K = 4 numerator runs only
    # its 16 bands times 4 factor products; building the bands from
    # products took 72 more.
    spec = GenSpec(0, 4, (-1, 0, 1, 0))
    numerator_l(spec)
    _numerator_cached.cache_clear()
    count = [0]
    loop = poly_mod._product_loop

    def counted(a, b):
        count[0] += 1
        return loop(a, b)

    monkeypatch.setattr(poly_mod, "_product_loop", counted)
    numerator_l(spec)
    assert 0 < count[0] <= 64


def _unblocked_closed_grid(spec, xs_arrays, rho):
    """l / w over the whole grid at once: one eval_grid, one product array."""
    K = spec.slots
    wc = [c.eval_grid({f"x{i + 1}": a for i, a in enumerate(xs_arrays)})
          for c in w_rho_coeff_polys(K)]
    prods = math.prod(cheb_seq_grid(spec.kind(s), spec.t[s - 1], 2 ** K, xs_arrays[s - 1])
                      for s in range(1, K + 1))
    num, rp = 0, 1
    for j in range(2 ** K):
        cj = 0
        for m in range(j + 1):
            cj = cj + wc[m] * prods[j - m]
        num = num + rp * cj
        rp = rp * rho
    den, rp = 0, 1
    for c in wc:
        den = den + c * rp
        rp = rp * rho
    return num / den


def test_blocked_grid_is_bit_identical():
    import numpy as np

    spec = GenSpec(1, 2, (2, -1, 3))
    rng = np.random.default_rng(5)
    axes = [np.sort(rng.uniform(-1, 1, 64)) for _ in range(3)]
    mesh = np.meshgrid(*axes, indexing="ij", sparse=True)
    # 64^3 points span eight blocks; four rho values ride along one call.
    rhos = np.array([-0.9, -0.3, 0.4, 0.95]).reshape(4, 1, 1, 1)
    got = chi_closed_values_grid(spec, mesh, rhos)
    assert got.shape == (4, 64, 64, 64)
    assert np.array_equal(got, _unblocked_closed_grid(spec, mesh, rhos))
    assert np.array_equal(got[1], _unblocked_closed_grid(spec, mesh, np.asarray(-0.3)))
    # A rho that varies along the blocked axis is cut block by block.
    dense = [np.ascontiguousarray(np.broadcast_to(a, (64, 64, 64))) for a in mesh]
    rho_rows = rng.uniform(-0.9, 0.9, (64, 1, 1))
    assert np.array_equal(chi_closed_values_grid(spec, dense, rho_rows),
                          _unblocked_closed_grid(spec, dense, rho_rows))
    # x constant along the blocked axis while rho is not: each row is written.
    wide = [rng.uniform(-1, 1, (1, 40000))]
    rho_col = np.array([[-0.5], [0.2], [0.7]])
    one = GenSpec(0, 1, (1,))
    assert np.array_equal(chi_closed_values_grid(one, wide, rho_col),
                          _unblocked_closed_grid(one, wide, rho_col))
    with pytest.raises(DomainError):
        chi_closed_values_grid(spec, mesh, np.array([0.5, -0.2, 1.0, 0.3]).reshape(4, 1, 1, 1))


def test_marginal_memory_is_bounded():
    tracemalloc.start()
    try:
        rep = marginal_check(3, 3, nodes=128)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert rep.passed
    assert peak < 128 * 2 ** 20


def test_marginal_node_limit_refuses_before_any_array():
    # 100000 nodes in two coordinates would ask numpy for about 298 GiB.
    t0 = time.perf_counter()
    with pytest.raises(ScaleError, match="mesh points"):
        marginal_check(2, 2, nodes=100000)
    with pytest.raises(ScaleError, match="mesh points"):
        marginal_check(3, 3, nodes=129)
    assert time.perf_counter() - t0 < 1.0
    assert marginal_check(3, 1, nodes=200).max_abs_dev_from_one <= 1e-9


def test_a_float_denominator_that_rounds_to_zero_is_refused():
    # At x = +-1 and |rho| -> 1, w = (1 - rho x)^2 rounds to 0 in floats.
    for spec, x, rho in ((GenSpec(1, 0, (0,)), 1.0, 0.999999999),
                         (GenSpec(0, 1, (0,)), -1.0, -0.999999999),
                         (GenSpec(2, 0, (0, 0)), 0.5, 1 - 2 ** -53)):
        with pytest.raises(ConvergenceError, match="rounds to 0"):
            chi_closed_value(spec, [x] * spec.slots, rho)
    # The grid path keeps numpy's division.
    import numpy as np

    with np.errstate(divide="ignore", invalid="ignore"):
        out = chi_closed_values_grid(GenSpec(1, 0, (0,)), [np.array([1.0, 0.5])],
                                     np.array([0.999999999, 0.5]))
    assert not math.isfinite(out[0]) and out[1] == chi_closed_value(GenSpec(1, 0, (0,)), [0.5], 0.5)


def test_closed_symbolic_matches_numeric_exactly():
    spec = GenSpec(1, 1, (1, 0))
    pt = {"x1": Fraction(3, 10), "x2": Fraction(7, 10), "rho": Fraction(2, 5)}
    want = numerator_l(spec).eval(pt) / build_w(spec.slots).poly.eval(pt)
    got = chi_closed_value(spec, [Fraction(3, 10), Fraction(7, 10)], Fraction(2, 5))
    assert got == want
    # Integer inputs too: an int over an int is divided exactly, not as floats.
    got = chi_closed_value(GenSpec(1, 1, (0, 0)), [0, 0], 0)
    assert type(got) is Fraction and got == Fraction(1)


def test_three_paths_agree():
    rng = random.Random(0)
    for _ in range(40):
        k, n = rng.choice([(1, 0), (0, 1), (2, 0), (1, 1), (0, 2),
                           (3, 0), (2, 1), (1, 2), (0, 3)])
        t = tuple(rng.randint(-2, 2) for _ in range(k + n))
        spec = GenSpec(k, n, t)
        alphas = [rng.uniform(0.15, math.pi - 0.15) for _ in range(k + n)]
        xs = [math.cos(a) for a in alphas]
        rho = rng.uniform(-0.5, 0.5)
        closed = chi_closed_value(spec, xs, rho)
        series = chi_series_oracle_grid(spec, xs, rho, 200)
        angle = chi_angle_eval(spec, alphas, rho)
        assert abs(closed - series) < 1e-9
        assert abs(closed - angle) < 1e-10


def test_angle_eval_t_slot_example():
    rho = 0.4
    a = 1.0
    got = chi_angle_eval(GenSpec(1, 0, (0,)), [a], rho)
    x = math.cos(a)
    want = (1 - rho * x) / (1 - 2 * rho * x + rho * rho)
    assert abs(got - want) < 1e-14


def test_angle_eval_singular():
    with pytest.raises(SingularAngle):
        chi_angle_eval(GenSpec(0, 1, (0,)), [0.0], 0.3)
    # sin(pi) = 1.2e-16 and sin(1e-9) are no zeros, but both cosines round
    # to +-1: dividing by the sine gave 0.5387 at pi where chi is 0.4550.
    spec = GenSpec(0, 2, (0, 0))
    for a in (math.acos(-1.0), 1e-9):
        with pytest.raises(SingularAngle):
            chi_angle_eval(spec, [a, 1.0], 0.3)
        with pytest.raises(SingularAngle):
            chi_angle_eval(spec, [1.0, -a], 0.3)
    # A T slot does not divide by its sine.
    mixed = GenSpec(1, 1, (0, 0))
    got = chi_angle_eval(mixed, [math.acos(-1.0), 1.0], 0.3)
    assert abs(got - chi_closed_value(mixed, [-1.0, math.cos(1.0)], 0.3)) < 1e-12


def test_formal_series_vanishes_above_cutoff():
    for (k, n) in ((1, 0), (0, 1), (2, 0), (1, 1), (0, 2), (3, 0), (2, 1),
                   (1, 2), (0, 3)):
        spec = GenSpec(k, n, (0,) * (k + n))
        for order in range(2 ** (k + n), 2 ** (k + n) + 9):
            assert series_convolution_residual(spec, order).is_zero()
    # Shifted specs too, one for every K = 4 split.
    for spec in (GenSpec(1, 1, (2, -1)), GenSpec(4, 0, (1, 0, -2, 0)),
                 GenSpec(3, 1, (0, 2, 0, -1)), GenSpec(2, 2, (0, -1, 1, 0)),
                 GenSpec(1, 3, (-2, 0, 1, 0)), GenSpec(0, 4, (-1, 0, 0, 1))):
        top = 2 ** spec.slots
        for order in range(top, top + 9):
            assert series_convolution_residual(spec, order).is_zero()


def test_first_kind_specialization_reduces_arity():
    # Setting a first-kind coordinate to 1 drops that slot.
    rng = random.Random(5)
    for _ in range(100):
        k, n = rng.choice([(1, 0), (2, 0), (1, 1), (2, 1)])
        t = (0,) * (k + n)
        spec = GenSpec(k, n, t)
        xs = [1.0] + [rng.uniform(-1, 1) for _ in range(k + n - 1)]
        rho = rng.uniform(-0.5, 0.5)
        full = chi_closed_value(spec, xs, rho)
        if k + n == 1:
            want = 1 / (1 - rho)
        else:
            want = chi_closed_value(GenSpec(k - 1, n, t[1:]), xs[1:], rho)
        assert abs(full - want) < 1e-10


def test_u_slot_at_one_becomes_rho_derivative():
    # U_{j+t}(1) = j+t+1, so fixing a second-kind coordinate at 1 turns the
    # series into d/drho applied to rho times the reduced series, plus t
    # times the reduced series.  Both sides are computed from the same
    # truncated coefficient list c_j = prod of the remaining slot values.
    rng = random.Random(21)
    for _ in range(20):
        k, n = rng.choice([(0, 1), (1, 1), (0, 2), (2, 1)])
        t = tuple(rng.randint(-2, 2) for _ in range(k + n))
        spec = GenSpec(k, n, t)
        xs = [rng.uniform(-1, 1) for _ in range(k + n - 1)] + [1.0]
        rho = rng.uniform(-0.4, 0.4)
        J = 150
        lhs = chi_series_oracle_grid(spec, xs, rho, J)
        from chebsum.cheb import ChebIndex, cheb_eval

        coeffs = []
        for j in range(J + 1):
            v = 1.0
            for s in range(1, k + n):
                kind = "T" if s <= k else "U"
                v *= cheb_eval(ChebIndex(kind, j + t[s - 1]), xs[s - 1])
            coeffs.append(v)
        t_last = t[-1]
        derivative_part = sum((j + 1) * rho ** j * c for j, c in enumerate(coeffs))
        plain_part = sum(rho ** j * c for j, c in enumerate(coeffs))
        assert abs(lhs - (derivative_part + t_last * plain_part)) < 1e-9


def test_shift_ratio_is_consistent():
    # For fixed numeric inputs the ratio of shifted to unshifted sums matches
    # the ratio of the two numerators (denominators cancel).
    rng = random.Random(8)
    for _ in range(10):
        k, n = rng.choice([(1, 1), (0, 2), (2, 0)])
        t = tuple(rng.randint(-2, 2) for _ in range(k + n))
        spec_t = GenSpec(k, n, t)
        spec_0 = GenSpec(k, n, (0,) * (k + n))
        xs = [rng.uniform(-1, 1) for _ in range(k + n)]
        rho = rng.uniform(-0.4, 0.4)
        series_ratio = (chi_series_oracle_grid(spec_t, xs, rho, 250)
                        / chi_series_oracle_grid(spec_0, xs, rho, 250))
        pt = {f"x{i + 1}": xs[i] for i in range(k + n)}
        pt["rho"] = rho
        sym_ratio = numerator_l(spec_t).eval(pt) / numerator_l(spec_0).eval(pt)
        assert abs(series_ratio - sym_ratio) < 1e-9


def test_positivity():
    for n in (1, 2, 3):
        assert positivity_grid_min(n) >= -1e-12


def test_marginals():
    for n in (1, 2, 3):
        for j in range(1, n + 1):
            rep = marginal_check(n, j)
            assert rep.max_abs_dev_from_one <= 1e-9
            if j < n:
                # The alternative lower-order reading is measurably wrong and
                # only reported.
                assert rep.max_abs_dev_from_lower_order > 1e-3


def test_scale_error():
    with pytest.raises(ScaleError):
        numerator_l(GenSpec(3, 2, (0,) * 5))


def test_grid_closed_form_refuses_k5_at_once():
    import numpy as np

    t0 = time.perf_counter()
    with pytest.raises(ScaleError):
        chi_closed_values_grid(GenSpec(0, 5, (0,) * 5), [np.array([0.5])] * 5, np.array([0.3]))
    assert time.perf_counter() - t0 < 1.0


def test_shift_limit_binds_only_the_exact_builders():
    spec = GenSpec(1, 0, (20000,))
    t0 = time.perf_counter()
    for build in (lambda: numerator_l(spec), lambda: series_convolution_residual(spec, 0)):
        with pytest.raises(ScaleError):
            build()
    assert time.perf_counter() - t0 < 1.0
    # The float paths run O(|t|) steps.
    assert chi_closed_value(spec, [0.5], 0.3) == -0.8227848101265823
    assert chi_angle_eval(spec, [math.acos(0.5)], 0.3) == pytest.approx(-0.8227848101265823)


def test_genspec_validation():
    with pytest.raises(DomainError):
        GenSpec(0, 0, ())
    with pytest.raises(DomainError):
        GenSpec(1, 1, (0,))
    # Only ints: a float or string shift used to end in islice's ValueError or a
    # TypeError, and a bool was taken as the integer it stands for.
    for k, n, t in ((1, 0, (0.5,)), (1, 0, ("1",)), (1, 0, (True,)), (True, 0, (0,)),
                    (1.0, 0, (0,)), (0, "1", (0,)), (1, 1, (0, False))):
        with pytest.raises(DomainError, match="must be integers"):
            GenSpec(k, n, t)
    # A shift vector that is not a sequence ended in a bare TypeError.
    for t in (5, None, 0.5):
        with pytest.raises(DomainError, match="must be a sequence"):
            GenSpec(1, 0, t)
    # The shift work limit: the first two build in seconds, the others in hours.
    GenSpec(1, 0, (2000,))
    GenSpec(0, 4, (16,) * 4)
    for t in ((20000,), (64,) * 4):
        with pytest.raises(ScaleError):
            numerator_l(GenSpec(len(t), 0, t))


def test_angle_eval_refuses_non_finite_angles():
    # A NaN angle used to come back as NaN, an infinite one as a bare ValueError.
    for a in (math.nan, math.inf, -math.inf):
        with pytest.raises(DomainError, match="angles must be finite"):
            chi_angle_eval(GenSpec(1, 0, (0,)), [a], 0.3)
        with pytest.raises(DomainError, match="angles must be finite"):
            chi_angle_eval(GenSpec(1, 1, (0, 0)), [0.4, a], 0.3)


def test_series_order_must_be_nonnegative():
    spec = GenSpec(1, 0, (0,))
    for J in (-1, -5):
        with pytest.raises(DomainError, match="J must be >= 0"):
            chi_series_tail_bound(spec, 0.3, J)
        with pytest.raises(DomainError, match="J must be >= 0"):
            chi_series_oracle_grid(spec, [0.5], 0.3, J)
    assert chi_series_tail_bound(spec, 0.3, 0) > 0
    assert chi_series_oracle_grid(spec, [0.5], 0.3, 0) == 1.0  # the term T_0 alone


def test_tail_bound_near_the_unit_circle():
    # The tail sum_{j>J} |rho|^j prod_s (j + |t_s| + 1) in closed form for one
    # unshifted slot: sum_{j>0} r^j (j + 1) = 1/(1 - r)^2 - 1.
    r = 0.9999
    assert chi_series_tail_bound(GenSpec(1, 0, (0,)), r, 0) >= 1 / (1 - r) ** 2 - 1
    assert chi_series_tail_bound(GenSpec(1, 0, (0,)), -r, 0) >= 1 / (1 - r) ** 2 - 1
    # Four slots: sum_{j>=0} r^j (j + 1)^4 = (1 + 11r + 11r^2 + r^3) / (1 - r)^5.
    r = 0.999
    tail = (1 + 11 * r + 11 * r * r + r ** 3) / (1 - r) ** 5 - 1
    assert chi_series_tail_bound(GenSpec(0, 4, (0, 0, 0, 0)), r, 0) >= tail
    # Closer still, the bound would need more terms than it sums: it refuses
    # rather than return a partial sum.
    with pytest.raises(ConvergenceError):
        chi_series_tail_bound(GenSpec(1, 0, (0,)), 0.9999999, 0)
    assert chi_series_tail_bound(GenSpec(1, 0, (0,)), 0.0, 3) == 0.0
