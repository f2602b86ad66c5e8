"""Chebyshev evaluation and geometric-sum tests."""

import itertools
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chebsum.cheb import (ChebIndex, _cheb_poly_cached, _cheb_step, cheb_eval, cheb_poly,
                          cheb_seq, cheb_seq_grid, cheb_values_row, geom_trig_sum,
                          multi_trig_sum, recur, roll)
from chebsum.errors import ArityError, ConvergenceError, DomainError, ScaleError
from chebsum.poly import EXP_LIMIT, Poly

X = Poly.variable("x1")


def test_eval_examples():
    assert cheb_eval(ChebIndex("T", 3), Fraction(1, 2)) == -1
    assert cheb_eval(ChebIndex("U", 2), Fraction(1, 2)) == 0
    assert cheb_poly(ChebIndex("U", -3)) == -2 * X
    assert cheb_eval(ChebIndex("U", -1), 0.7) == 0


def test_poly_examples():
    assert cheb_poly(ChebIndex("T", 2)) == 2 * X ** 2 - 1
    assert cheb_poly(ChebIndex("U", 3)) == 8 * X ** 3 - 4 * X
    assert cheb_poly(ChebIndex("T", -2)) == cheb_poly(ChebIndex("T", 2))
    # Polynomial evaluation agrees with the recurrence at sample points.
    for k in range(10):
        x = Fraction(k - 5, 7)
        assert cheb_poly(ChebIndex("U", 3)).eval({"x1": x}) == cheb_eval(ChebIndex("U", 3), x)


def test_poly_past_exponent_limit_refused_up_front():
    # The index is mapped first (T_{-i} = T_i, U_{-i} = -U_{i-2}), then refused
    # before the recurrence runs, so nothing is cached.
    before = _cheb_poly_cached.cache_info().currsize
    for c in (ChebIndex("T", EXP_LIMIT), ChebIndex("T", -EXP_LIMIT),
              ChebIndex("U", EXP_LIMIT), ChebIndex("U", -EXP_LIMIT - 2), ChebIndex("U", 10 ** 9)):
        with pytest.raises(ScaleError):
            cheb_poly(c)
    assert _cheb_poly_cached.cache_info().currsize == before


def test_negative_index_backward_recurrence():
    # Running P_{n-1} = 2x P_n - P_{n+1} downward must agree with the maps.
    for kind in ("T", "U"):
        x = Fraction(3, 7)
        hi = cheb_eval(ChebIndex(kind, 1), x)
        lo = cheb_eval(ChebIndex(kind, 0), x)
        for n in range(0, -11, -1):
            assert lo == cheb_eval(ChebIndex(kind, n), x)
            hi, lo = lo, 2 * x * lo - hi


def test_cheb_seq_matches_pointwise():
    x = 0.37
    vals = cheb_seq("U", -3, 8, x)
    for j, v in enumerate(vals):
        assert abs(v - cheb_eval(ChebIndex("U", -3 + j), x)) < 1e-12


def test_one_recurrence_across_value_types():
    import numpy as np

    arr = np.array([-1.0, -0.93, -0.4, 0.0, 0.37, 0.81, 1.0, 1.2])
    for kind in ("T", "U"):
        for start in range(-3, 4):
            grid = cheb_seq_grid(kind, start, 12, arr)
            for i in range(arr.size):
                assert list(grid[:, i]) == cheb_seq(kind, start, 12, float(arr[i]))
            xf = Fraction(-2, 9)
            assert cheb_seq(kind, start, 12, xf) == [
                cheb_poly(ChebIndex(kind, start + j)).eval({"x1": xf}) for j in range(12)]
        for x in (0.37, -0.93):
            assert list(cheb_values_row(kind, x, 20)) == cheb_seq(kind, 0, 20, x)


PIN_XS = (-1.0, -0.93, -0.4, -0.0, 0.0, 0.37, 0.81, 1.0, 1.2)


def _mapped_row(kind, n, row):
    """P_n from a table row P_0, P_1, ... by the negative-index rules."""
    if n >= 0:
        return row[n]
    if kind == "T":
        return row[-n]
    return 0 * row[1] / 2 if n == -1 else -row[-n - 2]


def test_cheb_eval_is_the_one_seed_for_every_argument_type():
    # One evaluator for numbers, Fractions, arrays and Polys: its value, type and
    # bits are those of the rolled tables that seed from it.
    import numpy as np

    arr = np.array(PIN_XS)
    for kind in ("T", "U"):
        grid = cheb_seq_grid(kind, 0, 14, arr)
        for x in PIN_XS:
            row = cheb_seq(kind, 0, 14, x)
            for n in range(-11, 14):
                got = cheb_eval(ChebIndex(kind, n), x)
                assert type(got) is float
                assert got.hex() == float(_mapped_row(kind, n, row)).hex()
        for n in range(-11, 14):
            got = cheb_eval(ChebIndex(kind, n), arr)
            assert got.tobytes() == _mapped_row(kind, n, grid).tobytes()
            assert got.tobytes() == np.array([cheb_eval(ChebIndex(kind, n), x)
                                              for x in PIN_XS]).tobytes()
            xf = Fraction(-2, 9)
            got = cheb_eval(ChebIndex(kind, n), xf)
            assert type(got) is Fraction
            assert got == _mapped_row(kind, n, cheb_seq(kind, 0, 14, xf))
            got = cheb_eval(ChebIndex(kind, n), X)
            assert list(got.terms.items()) == list(cheb_poly(ChebIndex(kind, n)).terms.items())
    assert cheb_eval(ChebIndex("T", 0), 0.5) == 1.0 and type(cheb_eval(ChebIndex("T", 0), 3)) is int
    # U_{-1} is 0 * x: -0.0 at a negative float, the zero Poly in x1.
    assert cheb_eval(ChebIndex("U", -1), -0.5).hex() == (-0.0).hex()
    assert cheb_eval(ChebIndex("U", -1), X) == Poly.zero(("x1",))


def test_grid_rows_have_the_scalar_bits_at_every_start():
    import numpy as np

    arr = np.array(PIN_XS)
    for kind in ("T", "U"):
        for start in range(-4, 3):
            want = np.array([cheb_seq(kind, start, 6, x) for x in PIN_XS]).T
            assert cheb_seq_grid(kind, start, 6, arr).tobytes() == want.tobytes()
    # index 0 is x ** 0, so it reads 1.0 at a NaN argument too
    assert cheb_seq_grid("T", 0, 2, np.array([math.nan]))[0, 0] == 1.0


def test_cheb_tables_pinned():
    # The term order of cheb_poly and the float bits of the rolled tables.
    import hashlib

    import numpy as np

    h = hashlib.sha256()
    for kind in ("T", "U"):
        for n in range(-6, 25):
            p = cheb_poly(ChebIndex(kind, n))
            h.update(repr((p.vars, list(p.terms.items()))).encode())
    assert h.hexdigest() == "2e2ab99249410ef700e662a8c6300b34f8edac1578acd2b3f8f768dc3597a51b"
    h = hashlib.sha256()
    for kind in ("T", "U"):
        for x in PIN_XS:
            for v in cheb_seq(kind, -4, 20, x):
                h.update(float(v).hex().encode())
        h.update(cheb_seq_grid(kind, -4, 20, np.array(PIN_XS)).tobytes())
    assert h.hexdigest() == "c2e1052c4b32bd6e3fa9f1b98ce100d8c444751d5446eb7c355465c2a2d77278"


def test_recur_is_the_start_of_roll():
    # out[0] = p0, out[1] = p1, out[m+1] = step(m, out[m], out[m-1]), for every value type;
    # the second step uses m, as the q-families' steps do.
    one = Poly.const(1, ("x1",))
    for x, p0 in ((0.37, 1.0), (Fraction(-2, 9), 1), (X, one)):
        for step in (_cheb_step(x), lambda m, p1, p0: m * x * p1 - (m + 1) * p0):
            want = [p0, 2 * x]
            while len(want) < 9:
                want.append(step(len(want) - 1, want[-1], want[-2]))
            for n in (0, 1, 2, 9):
                assert recur([None] * n, p0, 2 * x, step) == want[:n]
                assert list(itertools.islice(roll(p0, 2 * x, step), n)) == want[:n]


def test_roll_with_an_in_place_step_reuses_two_buffers():
    import numpy as np

    x = np.array([0.3, -0.8, 1.0])
    p0, p1, scratch = np.ones(3), 2 * x, np.empty(3)
    step = lambda m, p1, p0: np.subtract(np.multiply(2 * x, p1, scratch), p0, p0)
    values = []
    for v in itertools.islice(roll(p0, p1, step), 12):
        assert v is p0 or v is p1
        values.append(v.copy())
    assert np.array_equal(values, cheb_seq_grid("U", 0, 12, x))


@settings(max_examples=50, deadline=None, derandomize=True)
@given(st.integers(1, 20), st.fractions(min_value=-3, max_value=3))
def test_pell_identity(n, x):
    t = cheb_eval(ChebIndex("T", n), x)
    u = cheb_eval(ChebIndex("U", n - 1), x)
    assert t * t - (x * x - 1) * u * u == 1


def test_trig_definitions():
    import random

    rng = random.Random(9)
    for _ in range(30):
        theta = rng.uniform(0.05, math.pi - 0.05)
        n = rng.randint(0, 30)
        assert abs(cheb_eval(ChebIndex("T", n), math.cos(theta)) - math.cos(n * theta)) < 1e-12
        lhs = cheb_eval(ChebIndex("U", n), math.cos(theta)) * math.sin(theta)
        assert abs(lhs - math.sin((n + 1) * theta)) < 1e-12


def test_geom_trig_sum():
    assert abs(geom_trig_sum("cos", 0.4, 0.0, 0.0) - 1 / 0.6) < 1e-14
    assert abs(geom_trig_sum("sin", 0.4, 0.0, math.pi / 2) - 1 / 0.6) < 1e-14
    truncated = sum(0.5 ** n * math.cos(n * 1.0 + 0.3) for n in range(61))
    assert abs(geom_trig_sum("cos", 0.5, 1.0, 0.3) - truncated) < 1e-12
    with pytest.raises(DomainError):
        geom_trig_sum("cos", 1.0, 0.3, 0.1)
    with pytest.raises(DomainError):
        geom_trig_sum("cos", math.nan, 0.3, 0.1)


def test_denominators_that_round_to_zero_are_refused():
    # At x = 1 the geometric denominator (1 - rho)^2 rounds to 0 in floats
    # near rho = 1: a ConvergenceError, not a ZeroDivisionError.
    with pytest.raises(ConvergenceError, match="rounds to 0"):
        geom_trig_sum("cos", 0.999999999, 0.0, 0.0)
    with pytest.raises(ConvergenceError, match="rounds to 0"):
        multi_trig_sum("cos", [0.999999999, 0.5], [([0.3, 0.2], 0.0), ([0.0, 0.2], 0.1)])
    # A nonzero denominator keeps its bits.
    want = (1.0 - 0.99 * 1.0) / (1 - 2 * 0.99 * 1.0 + 0.99 * 0.99)
    assert geom_trig_sum("cos", 0.99, 0.0, 0.0).hex() == want.hex()


def test_multi_trig_sum_single_direction():
    for kind in ("sin", "cos"):
        got = multi_trig_sum(kind, [0.37], [([1.2], 0.4)])[0]
        want = geom_trig_sum(kind, 0.37, 1.2, 0.4)
        assert abs(got - want) < 1e-14


def test_multi_trig_sum_geometric_product():
    rhos = [0.2, -0.5, 0.7]
    got = multi_trig_sum("cos", rhos, [([0.0, 0.0, 0.0], 0.0)])[0]
    assert abs(got - math.prod(1 / (1 - r) for r in rhos)) < 1e-12


def test_multi_trig_sum_double_series():
    r1, r2 = 0.3, 0.4
    a1, a2 = 0.7, 1.1
    beta = 0.2
    brute = sum(r1 ** k1 * r2 ** k2 * math.cos(beta + k1 * a1 + k2 * a2)
                for k1 in range(81) for k2 in range(81))
    got = multi_trig_sum("cos", [r1, r2], [([a1, a2], beta)])[0]
    assert abs(got - brute) < 1e-10


def test_multi_trig_sum_permutation_invariance():
    import itertools
    import random

    rng = random.Random(3)
    rhos = [rng.uniform(-0.8, 0.8) for _ in range(4)]
    alphas = [rng.uniform(0, 2 * math.pi) for _ in range(4)]
    base = multi_trig_sum("sin", rhos, [(alphas, 0.9)])[0]
    for perm in itertools.permutations(range(4)):
        got = multi_trig_sum("sin", [rhos[p] for p in perm],
                             [([alphas[p] for p in perm], 0.9)])[0]
        assert abs(got - base) < 1e-12


def test_multi_trig_sum_zero_ratio_directions():
    # A zero ratio contributes only its empty-subset factor.
    got = multi_trig_sum("cos", [0.0, 0.5], [([0.9, 0.4], 0.1)])[0]
    want = multi_trig_sum("cos", [0.5], [([0.4], 0.1)])[0]
    assert abs(got - want) < 1e-14


def test_multi_trig_sum_errors():
    with pytest.raises(ArityError):
        multi_trig_sum("cos", [0.1], [([0.2, 0.3], 0.0)])
    with pytest.raises(DomainError):
        multi_trig_sum("cos", [1.1], [([0.2], 0.0)])
    with pytest.raises(DomainError):
        multi_trig_sum("cos", [math.nan], [([0.2], 0.0)])
    # Eleven directions would share a step list of 2047 entries: refused.
    with pytest.raises(DomainError, match="at most 10 directions"):
        multi_trig_sum("cos", [0.1] * 11, [([0.2] * 11, 0.0)])


def test_multi_trig_sum_sets_match_single_calls():
    import random

    rng = random.Random(11)
    for m in range(6):
        rhos = [rng.choice((0.0, rng.uniform(-0.9, 0.9))) for _ in range(m)]
        sets = [([rng.uniform(-6, 6) for _ in range(m)], rng.uniform(-6, 6)) for _ in range(5)]
        for kind in ("sin", "cos"):
            batched = multi_trig_sum(kind, rhos, sets)
            single = [multi_trig_sum(kind, rhos, [s])[0] for s in sets]
            assert [v.hex() for v in batched] == [v.hex() for v in single]
    assert multi_trig_sum("cos", [0.5], []) == []


def test_libm_parity_is_exact():
    # The half sign-vector walks of the Kibble closed form and the angle form
    # rest on cos(-x) == cos(x) and sin(-x) == -sin(x) to the bit.
    import random

    rng = random.Random(2000)
    for _ in range(2000):
        x = rng.choice((rng.uniform(-10, 10), rng.uniform(-1e-3, 1e-3), rng.uniform(-1e6, 1e6)))
        assert math.cos(-x).hex() == math.cos(x).hex()
        assert math.sin(-x).hex() == (-math.sin(x)).hex()
