"""Pinned IEEE bits of the float evaluators, and the polynomial evaluators against references.

Every float the closed form, the series oracle and the Kibble closed form
return is reproducible bit for bit.  Each digest below is one sha256 over the
little-endian IEEE bytes (shape first) of one evaluator's outputs on seeded
inputs; an exact value enters as its "num/den" string.  A change that moves
a single bit of any output, such as a reordered sum, changes a digest.
"""

import hashlib
import math
import random
import struct
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chebsum import genfun, kibble
from chebsum.cheb import ChebIndex, cheb_eval, cheb_poly, cheb_seq, cheb_seq_grid, recur
from chebsum.errors import MissingAssignment, ScaleError
from chebsum.poly import Poly

from test_poly import small_polys

SPLITS = [(k, total - k) for total in range(1, 5) for k in range(total + 1)]
INTERIOR = 40
CORNER = 20
MESH_AXIS = 3
MESH_RHOS = 3
SCALARS = 4
ORACLE_ORDER = 200


def _sym(rng, lo, hi):
    return rng.choice((-1.0, 1.0)) * rng.uniform(lo, hi)


def _cases():
    """(spec, interior xs, rho, corner xs, rho, mesh axes, mesh rhos, scalar points) per split."""
    out = []
    for k, n in SPLITS:
        rng = random.Random(f"float-bits:{k}:{n}")
        K = k + n
        spec = genfun.GenSpec(k, n, tuple(rng.randint(-3, 3) for _ in range(K)))
        xs = [np.array([rng.uniform(-1, 1) for _ in range(INTERIOR)]) for _ in range(K)]
        rho = np.array([rng.uniform(-0.6, 0.6) for _ in range(INTERIOR)])
        cxs = [np.array([_sym(rng, 0.99, 1.0) for _ in range(CORNER)]) for _ in range(K)]
        crho = np.array([_sym(rng, 0.8, 0.95) for _ in range(CORNER)])
        axes = [np.array(sorted(rng.uniform(-1, 1) for _ in range(MESH_AXIS))) for _ in range(K)]
        mrho = np.array([rng.uniform(-0.9, 0.9) for _ in range(MESH_RHOS)])
        scalars = [([rng.uniform(-1, 1) for _ in range(K)], rng.uniform(-0.9, 0.9))
                   for _ in range(SCALARS)]
        out.append((spec, xs, rho, cxs, crho, axes, mrho, scalars))
    return out


CASES = _cases()


class _Digest:
    def __init__(self):
        self.h = hashlib.sha256()

    def array(self, a):
        a = np.ascontiguousarray(a, dtype="<f8")
        self.h.update(repr(a.shape).encode())
        self.h.update(a.tobytes())

    def float(self, v):
        assert type(v) is float
        self.h.update(struct.pack("<d", v))

    def exact(self, v):
        assert type(v) is Fraction
        self.h.update(f"{v.numerator}/{v.denominator};".encode())

    def hexdigest(self):
        return self.h.hexdigest()


def _grid_interior(d):
    for spec, xs, rho, *_ in CASES:
        d.array(genfun.chi_closed_values_grid(spec, xs, rho))


def _grid_corner(d):
    for spec, _, _, cxs, crho, *_ in CASES:
        d.array(genfun.chi_closed_values_grid(spec, cxs, crho))


def _grid_mesh(d):
    for spec, _, _, _, _, axes, mrho, _ in CASES:
        mesh = np.meshgrid(*axes, indexing="ij", sparse=True)
        d.array(genfun.chi_closed_values_grid(spec, mesh, mrho.reshape((-1,) + (1,) * spec.slots)))


def _scalar_float(d):
    for spec, *_, scalars in CASES:
        for xs, r in scalars:
            d.float(genfun.chi_closed_value(spec, xs, r))


def _scalar_exact(d):
    for spec, *_, scalars in CASES:
        for xs, r in scalars:
            d.exact(genfun.chi_closed_value(spec, [Fraction(x) for x in xs], Fraction(r)))


def _oracle(d):
    for spec, xs, rho, *_ in CASES:
        d.array(genfun.chi_series_oracle_grid(spec, xs, rho, ORACLE_ORDER))


def _kibble(d):
    rng = random.Random("float-bits:kibble")
    for n in (3, 4, 5):
        for kind in ("T", "U"):
            for _ in range(2):
                pairs = {(a, b): _sym(rng, 0.05, 0.6)
                         for a in range(1, n + 1) for b in range(a + 1, n + 1)}
                alphas = [rng.uniform(0.15, math.pi - 0.15) for _ in range(n)]
                K = kibble.CorrMatrix.from_dict(n, pairs)
                d.float(kibble.kibble_closed_eval(kind, alphas, K))


def _kibble_oracle(d):
    # At cutoff 12 every cap is 12, so vertex 1 comes first and its edge to n has cap 0.
    rng = random.Random("float-bits:kibble-oracle")
    for n in (2, 3, 4, 5):
        band = 0.2 if n == 5 else 0.5  # keeps n = 5 at cutoff 40 within the oracle's budget
        for cutoff in (12, 25, 40):
            pairs = {(a, b): _sym(rng, 0.05, band)
                     for a in range(1, n + 1) for b in range(a + 1, n + 1)}
            if cutoff == 12 and n > 2:
                pairs[(1, n)] = 0.0
            K = kibble.CorrMatrix.from_dict(n, pairs)
            xs = [rng.uniform(-1, 1) for _ in range(n)]
            for kind in ("T", "U"):
                d.float(kibble.kibble_series_oracle(kind, xs, K, cutoff))
    K = kibble.CorrMatrix.from_dict(3, {(1, 2): 0.6, (1, 3): 0.8, (2, 3): 0.9})
    for kind in ("T", "U"):
        d.float(kibble.kibble_series_oracle(kind, [-0.9, -0.95, 0.94], K, 300))


def _chi_angle(d):
    for k, n in SPLITS:
        rng = random.Random(f"float-bits:chi-angle:{k}:{n}")
        for _ in range(SCALARS):
            spec = genfun.GenSpec(k, n, tuple(rng.randint(-4, 4) for _ in range(k + n)))
            alphas = [rng.uniform(0.15, math.pi - 0.15) for _ in range(k + n)]
            d.float(genfun.chi_angle_eval(spec, alphas, rng.uniform(-0.9, 0.9)))


# Recorded before the planned Horner walk and the in-place accumulation; the
# kibble-oracle and chi-angle digests before the half sign-vector walks and
# the oracle's first-vertex outer product.
PINNED = {
    "closed-grid-interior": (_grid_interior,
        "6660e18ad5e98bc793ce225ca1208946c5438c7ee2be39b4ba342b90d6145913"),
    "closed-grid-corner": (_grid_corner,
        "dc52e14dd42ce35d4b6e7a2008a42f53bfb8f4c9a06325996ff6e3deb720377b"),
    "closed-grid-mesh": (_grid_mesh,
        "f40c37051536d71a47b97a6b764f765fb0026da5e453d1d115f21b10eb14affc"),
    "closed-scalar-float": (_scalar_float,
        "d1c11a5cec2a93700b5157263143ad1097dc771fe963c4ca55923a5c369cfb48"),
    "closed-scalar-exact": (_scalar_exact,
        "7045ccb47a4f9aea276f27aa14835325c1e0d5e3443673c1393091e78d664db9"),
    "series-oracle": (_oracle,
        "6c345baa1a754f0d653ec515c3b4be32711581c728e4aa3e122199875d9d8489"),
    "kibble-closed": (_kibble,
        "599c46133a3555f33a3d50d85219d79409724768c0ebfe09a4a31c920c28a489"),
    "kibble-oracle": (_kibble_oracle,
        "6b7b253670ba4d47b3b59192db62872c271a1919fc37d3fb4a30dd8bcb9e6475"),
    "chi-angle": (_chi_angle,
        "e5d7bcb4bd67c466b6db09c1b1a2e1fa5261c452612be8ca9721157e58a0b0c5"),
}


@pytest.mark.parametrize("name", sorted(PINNED))
def test_float_bits_pinned(name):
    fill, want = PINNED[name]
    d = _Digest()
    fill(d)
    assert d.hexdigest() == want


def reference_eval(p, assignment):
    """Recursive Horner accumulation on the exponent tuples, one variable at a time."""
    if p.is_zero():
        return 0
    nvars = len(p.vars)
    vals = [assignment.get(v) for v in p.vars]

    def rec(items, vi):
        if vi == nvars:
            total = 0
            for _, c in items:
                total += c
            return total
        groups = {}
        for exps, c in items:
            groups.setdefault(exps[vi], []).append((exps, c))
        v = vals[vi]
        exps_desc = sorted(groups, reverse=True)
        if v is None:
            if exps_desc != [0]:
                raise MissingAssignment(f"no value for variable {p.vars[vi]}")
            return rec(groups[0], vi + 1)
        acc = rec(groups[exps_desc[0]], vi + 1)
        prev = exps_desc[0]
        for e in exps_desc[1:]:
            acc = acc * v ** (prev - e) + rec(groups[e], vi + 1)
            prev = e
        if prev:
            acc = acc * v ** prev
        return acc

    return rec(list(p.terms.items()), 0)


def _outcome(f):
    try:
        v = f()
    except MissingAssignment as exc:
        return ("missing", str(exc))
    if type(v) is float:
        return ("float", v.hex())
    return (type(v).__name__, v)


VALUES = st.sampled_from([-0.0, 0.0, 1.0, -1.0, 0.5, -0.75, 1e-3, 3.0]) \
    | st.floats(-2, 2, allow_nan=False) \
    | st.fractions(-3, 3, max_denominator=7) \
    | st.integers(-3, 3) \
    | st.none()


@settings(max_examples=300, deadline=None, derandomize=True)
@given(small_polys(), st.fixed_dictionaries({v: VALUES for v in ("x1", "x2", "rho")}))
def test_planned_eval_matches_reference(p, point):
    point = {v: c for v, c in point.items() if c is not None}
    want = _outcome(lambda: reference_eval(p, point))
    assert _outcome(lambda: p.eval(point)) == want
    # The plan is kept on the instance: a second call walks it again.
    assert _outcome(lambda: p.eval(point)) == want


PLAN_FLOATS = (-1.0, -0.9, -0.3, -0.0, 0.0, 0.25, 0.7, 1.0)


def _six_variable_product():
    xs = [Poly.variable(f"x{i}") for i in range(1, 6)]
    rho = Poly.variable("rho")
    return math.prod((x * x * 3 - x * rho * 2 + rho * rho - 1 for x in xs), start=rho + 2)


@pytest.mark.parametrize("p", [
    cheb_poly(ChebIndex("T", 2000)),
    _six_variable_product(),
    _six_variable_product() * Fraction(2, 7) + Poly.variable("x2") * Fraction(-5, 3),
], ids=["T2000", "six-variable-product", "fraction-coefficients"])
def test_compiled_plan_matches_reference(p):
    # T_2000's coefficients pass the float range: at a float point the plan raises ScaleError
    # and the reference walk OverflowError, one outcome.
    def outcome(f):
        try:
            return _outcome(f)
        except (OverflowError, ScaleError):
            return ("overflow",)

    rng = random.Random(f"compiled-plan:{len(p.vars)}")
    points = [{v: rng.choice(PLAN_FLOATS) if i % 3 else rng.uniform(-1, 1) for v in p.vars}
              for i in range(12)]
    points += [{v: Fraction(rng.randint(-9, 9), 10) for v in p.vars} for _ in range(3)]
    for point in points:
        want = outcome(lambda: reference_eval(p, point))
        assert outcome(lambda: p.eval(point)) == want
    if len(p.vars) > 1:
        assert _outcome(lambda: p.eval({})) == _outcome(lambda: reference_eval(p, {}))


def test_compiled_plan_names_the_variable_the_walk_meets_first():
    # The top group of x1 holds rho but not x2, so the walk meets rho before x2.
    x1, x2, rho = (Poly.variable(v) for v in ("x1", "x2", "rho"))
    p = x1 * rho + x2 * x2 + 1
    for point in ({"x1": 0.5}, {"x1": Fraction(1, 2)}):
        want = _outcome(lambda: reference_eval(p, point))
        assert want == ("missing", "no value for variable rho")
        assert _outcome(lambda: p.eval(point)) == want
    # With x1 unset too, x1 comes first; an unset variable the plan never reads is no error.
    assert _outcome(lambda: p.eval({})) == ("missing", "no value for variable x1")
    q = p.embed(("x1", "x2", "x3", "rho"))
    assert q.eval({"x1": 0.5, "x2": 0.25, "rho": 2.0}) == p.eval({"x1": 0.5, "x2": 0.25, "rho": 2.0})
    # The checks run before the powers: x2 is named, not x1 ** 3 past the float range.
    big = Poly(("x1", "x2"), {(3, 1): 1, (0, 0): 2})
    assert _outcome(lambda: big.eval({"x1": 1e200})) == ("missing", "no value for variable x2")


def test_compiled_plan_is_made_once():
    p = _six_variable_product()
    point = {v: 0.5 for v in p.vars}
    first = p.eval(point)
    plan = p._plan
    assert p.eval(point) == first and p._plan is plan
    assert p.eval({v: 0.25 for v in p.vars}) == reference_eval(p, {v: 0.25 for v in p.vars})
    assert p._plan is plan


def two_seed_row(kind, start, count, x):
    """The row as it was built before one roll: two seeds from ``cheb_eval``, then the recurrence."""
    x2 = 2 * x
    out = [None] * count if isinstance(x, (float, Fraction)) else np.empty((count,) + x.shape)
    return recur(out, cheb_eval(ChebIndex(kind, start), x),
                 cheb_eval(ChebIndex(kind, start + 1), x), lambda m, p1, p0: x2 * p1 - p0)


def test_cheb_rows_match_the_two_seed_construction():
    xs = [-1.0, -0.73, -0.0, 0.0, 0.31, 0.999, 1.0, 1.7]
    arr = np.array(xs)
    fr = Fraction(-5, 7)
    for kind in ("T", "U"):
        for start in range(-4, 5):
            for count in range(1, 21):
                for x in xs:
                    got, want = cheb_seq(kind, start, count, x), two_seed_row(kind, start, count, x)
                    assert [v.hex() for v in got] == [v.hex() for v in want]
                assert cheb_seq(kind, start, count, fr) == two_seed_row(kind, start, count, fr)
                assert cheb_seq_grid(kind, start, count, arr).tobytes() \
                    == two_seed_row(kind, start, count, arr).tobytes()


# Constant polynomials too, whose grid value is a 0-d array.
POLYS = small_polys() | st.integers(-4, 4).map(lambda c: Poly(("x1", "x2", "rho"), {(0, 0, 0): c}))


def reference_eval_grid(p, arrays):
    """Each polynomial with its own powers, summed term by term in insertion order."""
    shape = ()
    powers = {}
    for idx, v in enumerate(p.vars):
        if not p.uses(v):
            continue
        if v not in arrays:
            raise MissingAssignment(f"no array for variable {v}")
        arr = np.asarray(arrays[v], dtype=float)
        shape = np.broadcast_shapes(shape, arr.shape)
        pw = {1: arr}
        for e in sorted({exps[idx] for exps in p.terms if exps[idx] > 1}):
            pw[e] = arr ** e
        powers[v] = pw
    total = np.zeros(shape)
    for exps, c in p.terms.items():
        term = float(c)
        for idx, e in enumerate(exps):
            if e:
                term = term * powers[p.vars[idx]][e]
        total = total + term
    return total


def _grid_outcome(f):
    try:
        v = f()
    except MissingAssignment as exc:
        return ("missing", str(exc))
    return (type(v).__name__, v.shape, v.view(np.int64).tobytes())


GRID_VALUES = st.sampled_from([-0.0, 0.0, 1.0, -1.0, 0.5, -0.75]) | st.floats(-2, 2, allow_nan=False)
# Shapes of the x1, x2 and rho arrays (None: no array): scalars, flat grids and
# sparse meshes.
GRID_SHAPES = [((), (), ()), ((5,), (5,), (5,)), ((3, 1), (1, 4), ()),
               ((3, 1), (1, 4), (3, 4)), ((1, 4), (3, 1), (1,)), ((3, 1), None, (3, 1)),
               (None, (1, 4), ()), ((5,), (5,), None)]


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.lists(POLYS, min_size=1, max_size=4), st.lists(st.sampled_from(GRID_SHAPES),
                                                         min_size=1, max_size=2), st.data())
def test_shared_grid_powers_match_reference(polys, grids, data):
    # One table for every call, also over a second set of arrays: no power is reused stale.
    shared = {}
    for shapes in grids:
        arrays = {}
        for v, shape in zip(("x1", "x2", "rho"), shapes):
            if shape is not None:
                n = math.prod(shape)
                values = data.draw(st.lists(GRID_VALUES, min_size=n, max_size=n), label=v)
                arrays[v] = np.array(values, dtype=float).reshape(shape)
        for p in polys:
            want = _grid_outcome(lambda: reference_eval_grid(p, arrays))
            assert _grid_outcome(lambda: p.eval_grid(arrays, shared)) == want
            # A single-polynomial call gives the same bits.
            assert _grid_outcome(lambda: p.eval_grid(arrays)) == want
