"""Correlation-matrix lattice sum tests."""

import itertools
import math
import random
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from chebsum import kibble
from chebsum.errors import DomainError, ScaleError, SingularAngle
from chebsum.genfun import GenSpec, chi_closed_value
from chebsum.cheb import cheb_values_row, multi_trig_sum
from chebsum.kibble import (CorrMatrix, _edge_caps, f_U3_closed, f_U3_compare,
                            kibble_closed_eval, kibble_denominator,
                            kibble_series_oracle)
from chebsum.denom import build_w
from chebsum.poly import Poly

COUNTEREXAMPLE = dict(xs=(-0.9, -0.95, 0.94), r12=0.6, r13=0.8, r23=0.9)


def _K3(r12, r13, r23):
    return CorrMatrix.from_dict(3, {(1, 2): r12, (1, 3): r13, (2, 3): r23})


def test_corr_matrix_validation():
    with pytest.raises(DomainError):
        CorrMatrix.from_dict(2, {(1, 2): 1.0})
    with pytest.raises(DomainError):
        CorrMatrix.from_dict(2, {(2, 1): 0.5})
    with pytest.raises(DomainError):
        CorrMatrix.from_dict(2, {(1, 2): math.nan})
    with pytest.raises(DomainError):
        f_U3_closed(0.1, 0.2, 0.3, 0.5, math.nan, 0.5)
    # Coordinates are checked before acos and the formula, with the oracle's message.
    for call, xs in ((f_U3_compare, (1.5, 0.2, 0.3)), (f_U3_closed, (1.5, 0.2, 0.3)),
                     (f_U3_closed, (math.nan, 0.2, 0.3))):
        with pytest.raises(DomainError, match=r"\|x_m\| must be <= 1"):
            call(*xs, 0.1, 0.2, 0.3)
    K = CorrMatrix.from_dict(3, {(1, 2): 0.5})
    assert dict(K.entries) == {(1, 2): 0.5, (1, 3): 0, (2, 3): 0}


def test_indefinite_matrix_still_evaluates():
    # K + I is not positive definite here; the sums are defined all the same.
    bad = _K3(0.9, 0.9, -0.9)
    val = kibble_closed_eval("T", [1.0, 1.3, 2.0], bad)
    assert math.isfinite(val)


def test_trivial_zero_matrix():
    K = CorrMatrix.from_dict(3, {})
    assert kibble_closed_eval("T", [0.4, 1.1, 2.0], K) == pytest.approx(1.0, abs=1e-12)
    assert kibble_closed_eval("U", [0.4, 1.1, 2.0], K) == pytest.approx(1.0, abs=1e-12)
    assert kibble_series_oracle("T", [0.2, -0.3, 0.9], K, 10) == pytest.approx(1.0)


def test_n2_reduction_to_pair_sums():
    rng = random.Random(1)
    for _ in range(25):
        r = rng.uniform(-0.8, 0.8)
        K = CorrMatrix.from_dict(2, {(1, 2): r})
        a = [rng.uniform(0.2, 2.9) for _ in range(2)]
        xs = [math.cos(v) for v in a]
        fT = kibble_closed_eval("T", a, K)
        fU = kibble_closed_eval("U", a, K)
        assert abs(fT - chi_closed_value(GenSpec(2, 0, (0, 0)), xs, r)) < 1e-12
        assert abs(fU - chi_closed_value(GenSpec(0, 2, (0, 0)), xs, r)) < 1e-12
        assert abs(kibble_series_oracle("T", xs, K, 200) - fT) < 1e-12


@pytest.mark.parametrize("kind", ["T", "U"])
def test_n3_closed_vs_oracle(kind):
    rng = random.Random(4 if kind == "T" else 5)
    for _ in range(12):
        pairs = {p: rng.uniform(-0.3, 0.3) for p in ((1, 2), (1, 3), (2, 3))}
        K = CorrMatrix.from_dict(3, pairs)
        alphas = [rng.uniform(0.15, math.pi - 0.15) for _ in range(3)]
        xs = [math.cos(a) for a in alphas]
        closed = kibble_closed_eval(kind, alphas, K)
        oracle = kibble_series_oracle(kind, xs, K, 40)
        assert abs(closed - oracle) < 1e-8


def test_counterexample_value():
    xs = COUNTEREXAMPLE["xs"]
    K = _K3(COUNTEREXAMPLE["r12"], COUNTEREXAMPLE["r13"], COUNTEREXAMPLE["r23"])
    closed = kibble_closed_eval("U", [math.acos(v) for v in xs], K)
    assert abs(closed - (-0.0912121)) < 1e-4
    oracle = kibble_series_oracle("U", list(xs), K, 300)
    assert abs(oracle - (-0.0912121)) < 1e-4
    assert abs(closed - oracle) < 1e-9


def test_published_fU3_deviates_and_symmetrized_matches():
    xs = COUNTEREXAMPLE["xs"]
    cmp = f_U3_compare(*xs, COUNTEREXAMPLE["r12"], COUNTEREXAMPLE["r13"],
                       COUNTEREXAMPLE["r23"])
    # Frozen finding: the printed display is off by one product factor in the
    # z^2 coefficient; the literal transcription therefore misses by ~3e-2
    # here while the symmetry-consistent reading agrees to rounding.
    assert cmp.published_deviation > 1e-3
    assert cmp.symmetrized_deviation < 1e-10


def test_fU3_collapses_when_third_coordinate_decouples():
    rng = random.Random(6)
    for _ in range(10):
        x, y, z = (rng.uniform(-1, 1) for _ in range(3))
        r12 = rng.uniform(-0.7, 0.7)
        got = f_U3_closed(x, y, z, r12, 0.0, 0.0)
        want = chi_closed_value(GenSpec(0, 2, (0, 0)), [x, y], r12)
        assert abs(got - want) < 1e-12
        assert f_U3_closed(x, y, z, 0.0, 0.0, 0.0) == pytest.approx(1.0)
        assert f_U3_closed(x, y, z, r12, 0.0, 0.0, symmetrized=True) == pytest.approx(want)


@pytest.mark.parametrize("n", [4, 5])
def test_higher_arity_closed_vs_oracle(n):
    rng = random.Random(100 + n)
    for _ in range(4):
        pairs = {(i, j): rng.uniform(-0.2, 0.2) for i in range(1, n + 1)
                 for j in range(i + 1, n + 1)}
        K = CorrMatrix.from_dict(n, pairs)
        alphas = [rng.uniform(0.15, math.pi - 0.15) for _ in range(n)]
        xs = [math.cos(a) for a in alphas]
        for kind in ("T", "U"):
            closed = kibble_closed_eval(kind, alphas, K)
            oracle = kibble_series_oracle(kind, xs, K, 25)
            assert abs(closed - oracle) < 1e-7


def test_permutation_symmetry():
    rng = random.Random(5)
    pairs = {p: rng.uniform(-0.5, 0.5) for p in ((1, 2), (1, 3), (2, 3))}
    K = _K3(pairs[(1, 2)], pairs[(1, 3)], pairs[(2, 3)])
    al = [0.7, 1.3, 2.1]
    base = {kind: kibble_closed_eval(kind, al, K) for kind in ("T", "U")}
    for perm in itertools.permutations(range(3)):
        pal = [al[p] for p in perm]
        permuted = {}
        for (i, j), v in pairs.items():
            a, b = perm.index(i - 1) + 1, perm.index(j - 1) + 1
            permuted[(min(a, b), max(a, b))] = v
        PK = CorrMatrix.from_dict(3, permuted)
        for kind in ("T", "U"):
            assert abs(kibble_closed_eval(kind, pal, PK) - base[kind]) < 1e-10


def test_decoupled_coordinate_reduces_oracle():
    # Zeroing every pair that touches the last coordinate turns the truncated
    # lattice sum into the lower-dimensional one (the extra factor is P_0 = 1).
    rng = random.Random(2)
    pairs3 = {p: rng.uniform(-0.4, 0.4) for p in ((1, 2), (1, 3), (2, 3))}
    pairs_dec = dict(pairs3)
    pairs_dec[(1, 3)] = 0.0
    pairs_dec[(2, 3)] = 0.0
    K3 = CorrMatrix.from_dict(3, pairs_dec)
    K2 = CorrMatrix.from_dict(2, {(1, 2): pairs3[(1, 2)]})
    xs = [0.3, -0.7, 0.5]
    for kind in ("T", "U"):
        full = kibble_series_oracle(kind, xs, K3, 60)
        reduced = kibble_series_oracle(kind, xs[:2], K2, 60)
        assert math.isclose(full, reduced, rel_tol=1e-12, abs_tol=1e-12)


def test_product_with_denominator_is_polynomial():
    # f * V has no poles: on a slice in each coordinate it interpolates as a
    # polynomial of the expected degree.
    rng = random.Random(9)
    r12, r13, r23 = 0.45, -0.35, 0.25
    K = _K3(r12, r13, r23)
    Kf = CorrMatrix.from_dict(3, {(1, 2): Fraction(9, 20), (1, 3): Fraction(-7, 20),
                                  (2, 3): Fraction(1, 4)})
    V = kibble_denominator(Kf)
    others = {"x2": 0.31, "x3": -0.62}
    deg = 8

    def g(kind, x1):
        alphas = [math.acos(x1), math.acos(others["x2"]), math.acos(others["x3"])]
        f = kibble_closed_eval(kind, alphas, K)
        v = V.eval({"x1": x1, "x2": others["x2"], "x3": others["x3"]})
        return f * v

    nodes = [0.6 * math.cos((2 * i + 1) * math.pi / (2 * (deg + 1)))
             for i in range(deg + 1)]
    for kind in ("T", "U"):
        vals = [g(kind, x) for x in nodes]
        fit = np.polynomial.polynomial.polyfit(nodes, vals, deg)
        for _ in range(10):
            x = rng.uniform(-0.55, 0.55)
            interp = float(np.polynomial.polynomial.polyval(x, fit))
            assert abs(interp - g(kind, x)) < 1e-8


def test_denominator_forms():
    K2 = CorrMatrix.from_dict(2, {(1, 2): Fraction(1, 2)})
    w2 = build_w(2).poly.subs("rho", Fraction(1, 2))
    assert kibble_denominator(K2) == w2
    assert kibble_denominator(CorrMatrix.from_dict(3, {})) == Poly.const(1)
    sym = kibble_denominator(CorrMatrix.from_dict(3, {(1, 2): Fraction(1, 3)}),
                             symbolic=True)
    assert set(sym.vars) == {"x1", "x2", "x3", "rho12", "rho13", "rho23"}


def test_oracle_guards():
    K = _K3(0.5, 0.5, 0.5)
    # Caps of 3666 per pair give an estimated cost of 3.6e14: refused before any work.
    with pytest.raises(ScaleError, match="exceeds budget"):
        kibble_series_oracle("T", [0.1, 0.2, 0.3], _K3(0.99, 0.99, 0.99), 10 ** 6)
    with pytest.raises(DomainError):
        kibble_series_oracle("T", [1.5, 0.2, 0.3], K, 10)
    with pytest.raises(DomainError):
        kibble_series_oracle("T", [0.1, math.nan, 0.3], K, 10)
    with pytest.raises(SingularAngle):
        kibble_closed_eval("U", [0.0, 1.0, 2.0], K)
    # cos(pi) and cos(1e-9) round to -1 and 1 while their sines are not 0:
    # at pi the closed form gave -0.5234 where the lattice sums to 0.4710.
    K2 = CorrMatrix.from_dict(2, {(1, 2): 0.3})
    for a in (math.acos(-1.0), 1e-9):
        with pytest.raises(SingularAngle):
            kibble_closed_eval("U", [a, math.acos(0.5)], K2)
        assert kibble_closed_eval("T", [a, math.acos(0.5)], K2) == \
            pytest.approx(kibble_series_oracle("T", [math.cos(a), 0.5], K2, 200), abs=1e-12)
    with pytest.raises(ScaleError):
        kibble_series_oracle("T", [0.0] * 6, CorrMatrix.from_dict(6, {}), 5)
    with pytest.raises(ScaleError, match="n = 6 exceeds"):
        kibble_closed_eval("T", [0.5] * 6, CorrMatrix.from_dict(6, {(1, 2): 0.3}))


@pytest.mark.parametrize("call", [
    lambda: kibble_closed_eval("V", [0.5, 1.0, 1.5], _K3(0.3, 0.2, 0.1)),
    lambda: kibble_series_oracle("V", [0.1, 0.2, 0.3], _K3(0.3, 0.2, 0.1), 10),
], ids=["closed", "oracle"])
def test_unknown_kind_is_a_domain_error(call):
    # A kind other than T or U is refused as a ChebsumError, not a bare ValueError.
    with pytest.raises(DomainError, match="kind must be T or U"):
        call()


def test_closed_form_batches_half_the_sign_vectors(monkeypatch):
    calls = []

    def counted(kind, rhos, sets):
        calls.append(len(sets))
        return multi_trig_sum(kind, rhos, sets)

    monkeypatch.setattr(kibble, "multi_trig_sum", counted)
    rng = random.Random(12)
    for n in (2, 3, 4, 5):
        K = CorrMatrix.from_dict(n, {(i, j): rng.uniform(-0.5, 0.5) for i in range(1, n + 1)
                                     for j in range(i + 1, n + 1)})
        for kind in ("T", "U"):
            calls.clear()
            kibble_closed_eval(kind, [rng.uniform(0.2, 2.9) for _ in range(n)], K)
            assert calls == [2 ** (n - 1)]


def test_oracle_peak_memory():
    # A dense first-vertex tensor or a full-size product buffer takes this
    # case above 120 MB; the outer product and row blocks keep the peak near
    # the last shifted add's input and output (about 62 MB).
    rng = random.Random(15)
    n = 5
    K = CorrMatrix.from_dict(n, {(i, j): rng.choice((-0.15, 0.15)) for i in range(1, n + 1)
                                 for j in range(i + 1, n + 1)})
    xs = [rng.uniform(-1, 1) for _ in range(n)]
    tracemalloc.start()
    try:
        kibble_series_oracle("U", xs, K, 25)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 80e6


def _oracle_strided(kind, xs, K, cutoff):
    """The lattice sum with each edge added in place along its own axes."""
    n = K.n
    caps = _edge_caps(K, cutoff)
    order = sorted(range(1, n + 1), key=lambda v: sum(c for e, c in caps.items() if v in e))
    rho = {e: float(v) for e, v in K.entries}
    arr = np.ones((1,) * n)
    axis_of = {v: i for i, v in enumerate(order)}
    for stage, v in enumerate(order):
        for u in order[stage + 1:]:
            e = (min(v, u), max(v, u))
            cap = caps[e]
            if cap == 0:
                continue
            ax_v, ax_u = axis_of[v], axis_of[u]
            sa, sb = arr.shape[ax_v], arr.shape[ax_u]
            shape = list(arr.shape)
            shape[ax_v] = sa + cap
            shape[ax_u] = sb + cap
            out = np.zeros(shape)
            w = 1.0
            for s in range(cap + 1):
                sl = [slice(None)] * arr.ndim
                sl[ax_v] = slice(s, s + sa)
                sl[ax_u] = slice(s, s + sb)
                out[tuple(sl)] += w * arr
                w *= rho[e]
            arr = out
        row = cheb_values_row(kind, float(xs[v - 1]), arr.shape[axis_of[v]])
        arr = np.tensordot(arr, row, axes=([axis_of[v]], [0]))
        dropped = axis_of.pop(v)
        for u in axis_of:
            if axis_of[u] > dropped:
                axis_of[u] -= 1
    return float(arr)


def test_oracle_layout_is_bit_identical():
    # 20 seeded matrices over n = 3..5; the first has a zero entry (cap 0).
    rng = random.Random(2024)
    for trial in range(20):
        n = 3 + trial % 3
        pairs = {(i, j): rng.uniform(-0.3, 0.3) for i in range(1, n + 1)
                 for j in range(i + 1, n + 1)}
        if trial == 0:
            pairs[(1, 3)] = 0.0
        K = CorrMatrix.from_dict(n, pairs)
        xs = [rng.uniform(-1, 1) for _ in range(n)]
        for kind in ("T", "U"):
            assert kibble_series_oracle(kind, xs, K, 12) == _oracle_strided(kind, xs, K, 12)


@pytest.mark.parametrize("block", [1, 7, 40, 2 ** 14])
def test_shift_add_blocks_keep_ascending_shifts(monkeypatch, block):
    # Whole-array shifted adds, s ascending, against the row blocks; with
    # mixed magnitudes any other order of an element's terms moves bits.
    monkeypatch.setattr(kibble, "_BLOCK", block)
    rng = np.random.default_rng(block)
    for shape in ((9, 4, 3), (5, 6), (12, 1, 2, 2), (1, 3)):
        arr = rng.standard_normal(shape) * 10.0 ** rng.integers(-8, 8, shape)
        ws = rng.uniform(-1, 1, 6)
        sa, sb = shape[:2]
        want = np.zeros((sa + 5, sb + 5) + shape[2:])
        for s, w in enumerate(ws):
            want[s:s + sa, s:s + sb] += arr * w
        got = kibble._shift_add(arr, ws)
        assert got.shape == want.shape and got.tobytes() == want.tobytes()


def test_closed_form_refuses_non_finite_angles():
    K = _K3(0.1, 0.2, 0.3)
    for kind in ("T", "U"):
        for a in (math.nan, math.inf):
            with pytest.raises(DomainError, match="angles must be finite"):
                kibble_closed_eval(kind, [0.3, a, 0.5], K)
    with pytest.raises(DomainError, match="angles must be finite"):
        kibble_closed_eval("T", [math.nan, 0.4], CorrMatrix.from_dict(2, {(1, 2): 0.3}))


def test_one_vertex_and_the_size_cap():
    # n = 1 runs the same sign-vector walk: no pairs, and the sum is exactly 1.
    K = CorrMatrix.from_dict(1, {})
    for a in (0.3, 1.0, 2.9):
        assert kibble_closed_eval("T", [a], K) == 1.0
        assert kibble_closed_eval("U", [a], K) == 1.0
    # Every matrix is built by from_dict, which refuses n > MAX_KIBBLE_N.
    with pytest.raises(ScaleError, match="n = 6 exceeds"):
        CorrMatrix.from_dict(6, {})
