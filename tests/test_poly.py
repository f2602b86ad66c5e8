"""Core polynomial tests."""

import json
import math
import random
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import chebsum
import chebsum.poly as poly_mod
from chebsum.cheb import ChebIndex, cheb_poly
from chebsum.errors import (ChebsumError, ExponentError, MarkerError, MissingAssignment,
                            ScaleError)
from chebsum.poly import EXP_LIMIT, Poly, exact_str, var_sort_key

X1 = Poly.variable("x1")
X2 = Poly.variable("x2")
RHO = Poly.variable("rho")


def small_polys():
    coeff = st.integers(-4, 4).map(Fraction)
    exps = st.tuples(st.integers(0, 3), st.integers(0, 3), st.integers(0, 2))
    return st.dictionaries(exps, coeff, max_size=5).map(
        lambda terms: Poly(("x1", "x2", "rho"), terms))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(small_polys(), small_polys(), small_polys())
def test_ring_laws(a, b, c):
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c


def _reference_reduce(variables, terms):
    """Marker reduction sk**2 -> 1 - xk**2 on exponent tuples."""
    pairs = [(i, variables.index("x" + v[1:])) for i, v in enumerate(variables) if v[0] == "s"]
    if not any(e[i] >= 2 for e in terms for i, _ in pairs):
        return terms
    out = {}
    stack = list(terms.items())
    while stack:
        exps, c = stack.pop()
        for spos, xpos in pairs:
            e = exps[spos]
            if e >= 2:
                half, rem = divmod(e, 2)
                base = list(exps)
                base[spos] = rem
                for t in range(half + 1):
                    ne = base.copy()
                    ne[xpos] += 2 * t
                    stack.append((tuple(ne), c * math.comb(half, t) * (-1) ** t))
                break
        else:
            nc = out.get(exps, 0) + c
            if nc == 0:
                out.pop(exps, None)
            else:
                out[exps] = nc
    return out


def _canonical_terms(terms):
    """The terms with every coefficient of denominator 1 made an int."""
    return {e: int(c) if isinstance(c, Fraction) and c.denominator == 1 else c
            for e, c in terms.items()}


def reference_product(p, q):
    """(variables, terms) of p * q by the exponent-tuple loop, in its term order."""
    vs = tuple(sorted(set(p.vars) | set(q.vars), key=var_sort_key))
    a, b = dict(p.embed(vs).terms.items()), dict(q.embed(vs).terms.items())
    if len(b) > len(a):
        a, b = b, a
    out = {}
    for eb, cb in b.items():
        for ea, ca in a.items():
            exps = tuple(i + j for i, j in zip(ea, eb))
            nc = out.get(exps, 0) + ca * cb
            if nc == 0:
                out.pop(exps, None)
            else:
                out[exps] = nc
    return vs, _canonical_terms(_reference_reduce(vs, out))


# Constants, disjoint and interleaved variable sets: products and sums embed both ways.
VAR_SETS = [("x1",), ("x1", "x2", "rho"), ("x2", "rho"), ("x1", "s1"),
            ("x1", "x2", "s1", "s2"), ("x2", "s2", "rho"), (), ("rho",), ("x3",),
            ("x1", "x3", "rho")]


def marker_polys():
    coeff = st.integers(-4, 4) | st.integers(-4, 4).map(lambda n: Fraction(n, 3))
    return st.sampled_from(VAR_SETS).flatmap(lambda vs: st.dictionaries(
        st.tuples(*[st.integers(0, 3)] * len(vs)), coeff, max_size=6).map(
        lambda terms: Poly(vs, terms)))


def _typed(items):
    return [(e, type(c), c) for e, c in items]


@settings(max_examples=150, deadline=None, derandomize=True)
@given(marker_polys(), marker_polys())
def test_product_matches_tuple_reference(a, b):
    vs, want = reference_product(a, b)
    got = a * b
    assert got.vars == vs
    assert _typed(got.terms.items()) == _typed(want.items())
    assert len(got.terms) == len(want)
    assert list(got.terms.values()) == list(want.values())


def fraction_marker_polys():
    # Denominators that share no factor, so products carry wide lcm scales.
    frac = st.builds(lambda n, b, k: Fraction(n, b ** k), st.integers(-30, 30),
                     st.sampled_from((7, 11, 13)), st.integers(0, 4))
    coeff = st.integers(-6, 6) | frac
    return st.sampled_from(VAR_SETS).flatmap(lambda vs: st.dictionaries(
        st.tuples(*[st.integers(0, 3)] * len(vs)), coeff, max_size=6).map(
        lambda terms: Poly(vs, terms)))


def fraction_pairs():
    """Two factors; in the second form (p + r) * (p - r), whose cross terms cancel."""
    pair = st.tuples(fraction_marker_polys(), fraction_marker_polys())
    return pair | pair.map(lambda pr: (pr[0] + pr[1], pr[0] - pr[1]))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(fraction_pairs())
def test_fraction_free_product_matches_reference(pair):
    a, b = pair
    vs, want = reference_product(a, b)
    got = a * b
    assert got.vars == vs
    assert _typed(got.terms.items()) == _typed(want.items())


def _assert_lowest_terms(p):
    nums = list(p._packed.values())
    assert all(type(c) is int for c in nums) and type(p._den) is int
    assert math.gcd(p._den, *nums) == 1
    assert p._den == math.lcm(*[Fraction(c).denominator for c in p.terms.values()])
    # The public pair is the stored one, keyed and ordered as ``terms``.
    numerators, den = p.numerators()
    assert den == p._den and list(numerators) == list(p.terms)
    assert all(Fraction(c, den) == p.terms[e] for e, c in numerators.items())


WIDE = ("x1", "x2", "x3", "s1", "s2", "rho")  # holds every variable set of VAR_SETS


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.tuples(marker_polys() | fraction_marker_polys(),
                 marker_polys() | fraction_marker_polys()))
def test_stored_pair_is_lowest_terms(pair):
    # A Poly stores int numerators over one denominator, the lcm of its
    # coefficients' denominators, and no factor is common to all of them.
    p, q = pair
    results = [p + q, p - q, p * q, p * 3, -6 * p, p * Fraction(7, 3), Fraction(3, 14) * p,
               Poly.sum([p, q, p * Fraction(1, 7)]), p.embed(WIDE),
               p.rename({"rho": "rho12"}), Poly.from_json_dict(p.to_json_dict()),
               Poly(p.vars, {e: 6 * c for e, c in p.terms.items()})]
    for v in p.vars:
        results += [p.band(v, 0, 1), p.band(v, 0, 2), p.band(v, 1, 3, 1)]
        if not (v[0] == "x" and "s" + v[1:] in p.vars):
            results += [p.coeff_of(v, 0), p.coeff_of(v, 1), *p.coeffs(v),
                        p.subs(v, q), p.subs(v, Fraction(3, 2))]
    for got in results:
        _assert_lowest_terms(got)


def test_subs_keeps_marker_partner():
    # s1 needs x1 to reduce s1^2 = 1 - x1^2, so x1 cannot be substituted away.
    xs, s1 = Poly.variable("x1", ("x1", "s1")), Poly.variable("s1", ("x1", "s1"))
    with pytest.raises(MarkerError):
        (s1 + xs).subs("x1", X2)
    with pytest.raises(MarkerError):
        Poly(("s1",), {(2,): 1})
    # Every other way to make a marker without its partner is refused up front.
    with pytest.raises(MarkerError):
        s1.drop_vars(["x1"])
    with pytest.raises(MarkerError):
        (s1 + xs).rename({"x1": "x2"})
    with pytest.raises(MarkerError):
        Poly(("s1",), {(1,): 1})
    with pytest.raises(MarkerError):
        Poly.variable("s1")
    with pytest.raises(MarkerError):
        (s1 + xs).coeff_of("x1", 0)
    with pytest.raises(MarkerError):
        (s1 + xs).coeffs("x1")
    assert (s1 + xs).coeffs("s1") == (X1, 1)
    assert (s1 + xs).subs("s1", X2) == X1 + X2
    assert (s1 + xs).coeff_of("s1", 1) == 1


def reference_sum(parts):
    """(variables, terms) of parts[0] + parts[1] + ... added two at a time on tuples."""
    if not parts:
        return (), {}
    vs, acc = parts[0].vars, dict(parts[0].terms.items())
    for p in parts[1:]:
        wide = tuple(sorted(set(vs) | set(p.vars), key=var_sort_key))

        def widen(exps, names):
            return tuple(exps[names.index(v)] if v in names else 0 for v in wide)

        acc = {widen(e, vs): c for e, c in acc.items()}
        for e, c in p.terms.items():
            e = widen(e, p.vars)
            nc = acc.get(e, 0) + c
            if nc == 0:
                del acc[e]
            else:
                acc[e] = int(nc) if isinstance(nc, Fraction) and nc.denominator == 1 else nc
        vs = wide
    return vs, acc


def sum_parts():
    """Lists of int and Fraction polynomials over mixed variable sets.

    Some lists end with -p, p for their first part p, which cancels each of
    its keys and brings it back; some start with a part made by multiplying
    by 1/3 and then by 3, whose integral coefficients are ints again.
    """
    part = marker_polys() | fraction_marker_polys()
    remade = part.map(lambda p: p * Poly.const(Fraction(1, 3)) * Poly.const(3))
    parts = st.lists(part, max_size=5)
    return (parts
            | parts.filter(bool).map(lambda ps: ps + [-ps[0], ps[0]])
            | st.tuples(remade, parts).map(lambda fp: [fp[0]] + fp[1]))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(sum_parts())
def test_sum_matches_folded_reference(parts):
    vs, want = reference_sum(parts)
    got = Poly.sum(parts)
    assert got.vars == vs
    assert _typed(got.terms.items()) == _typed(want.items())
    assert list(got.terms) == list(want)


def test_sum_edge_cases():
    assert Poly.sum([]) == Poly.zero() and Poly.sum([]).vars == ()
    p = 3 * X1 - RHO
    assert _typed(Poly.sum([p]).terms.items()) == _typed(p.terms.items())
    # A key cancelled to zero re-enters at the end.
    q = Poly.sum([X1 + RHO, -X1, 2 * X1])
    assert list(q.terms.items()) == [((0, 1), 1), ((1, 0), 2)]
    # 2/3 times 3 is the int 2, whichever part of a sum it is.
    two = Poly.const(Fraction(2, 3), ("x1",)) * Poly.const(3, ("x1",))
    assert type(Poly.sum([two, X1]).terms[(0,)]) is int
    assert type(Poly.sum([X1, two]).terms[(0,)]) is int


def _assert_canonical(p):
    bad = [(e, c) for e, c in p.terms.items() if type(c) is not int and c.denominator == 1]
    assert not bad, f"integral coefficients that are not ints: {bad}"


# x^2 gets 1/7, then -1/7 cancels it, then 2 * 3 creates it again.
RECREATED = (Poly(("x1",), {(0,): 3, (1,): Fraction(-1, 7), (2,): Fraction(1, 7)}),
             Poly(("x1",), {(0,): 1, (1,): 1, (2,): 2}))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.tuples(marker_polys() | fraction_marker_polys(),
                 marker_polys() | fraction_marker_polys()) | st.just(RECREATED))
def test_results_are_canonical(pair):
    # Every coefficient whose denominator is 1 is an int, however it was made.
    p, q = pair
    third = Poly.const(Fraction(1, 3))
    remade = p * third * Poly.const(3)
    results = [p + q, p - q, p * q, q * p, p * Fraction(3, 7), p * Fraction(1, 3) * 3,
               remade, Poly.sum([remade, q, -p]), Poly.sum([p * third, q * third, p])]
    for v in p.vars:
        results += [p.band(v, 0, 2)]
        if not (v[0] == "x" and "s" + v[1:] in p.vars):  # a marker keeps its partner
            results += [p.coeff_of(v, 1)]
        if "s" + v[1:] not in p.vars:
            results += [p.subs(v, q), p.subs(v, Fraction(3, 2))]
    results.append((p * third).rename({"rho": "rho12"}))
    for got in results:
        _assert_canonical(got)
    assert remade == p
    assert _typed((p * q).terms.items()) == _typed(reference_product(p, q)[1].items())


NAMES = ("x1", "x2", "x3", "s1", "s2", "s3", "rho")


def var_tuples():
    """Canonical variable tuples over NAMES; each marker sk brings its partner xk."""
    return st.sets(st.sampled_from(NAMES)).map(lambda names: tuple(sorted(
        names | {"x" + v[1:] for v in names if v[0] == "s"}, key=var_sort_key)))


def polys_on(vs):
    coeff = st.integers(-4, 4) | st.integers(-4, 4).map(lambda n: Fraction(n, 3))
    return st.dictionaries(st.tuples(*[st.integers(0, 3)] * len(vs)), coeff,
                           max_size=6).map(lambda terms: Poly(vs, terms))


def reference_moved(p, vs, names=None):
    """p's terms on ``vs``, each exponent moved to the field of its name in ``names``.

    ``names`` (p.vars by default) gives every variable of p its name on vs, or
    None for a dropped variable; exponents move one at a time, in p's term order.
    """
    at = [None if v is None else vs.index(v) for v in (names or p.vars)]
    out = {}
    for exps, c in p.terms.items():
        new = [0] * len(vs)
        for i, e in zip(at, exps):
            if i is None:
                assert e == 0
            else:
                new[i] = e
        out[tuple(new)] = c
    return list(out.items())


def reference_power(p, n):
    """p ** n by squaring, from the constant 1 on p's variables."""
    result, base = Poly.const(1, p.vars), p
    while n:
        if n & 1:
            result = result * base
        base = base * base if n > 1 else base
        n >>= 1
    return result


def layout_cases():
    """Two polys, a canonical tuple holding both, a permutation of 1..3 and a power."""
    return st.tuples(var_tuples(), var_tuples(), var_tuples()).flatmap(lambda t: st.tuples(
        polys_on(t[0]), polys_on(t[1]),
        st.just(tuple(sorted(set(t[0]) | set(t[1]) | set(t[2]), key=var_sort_key))),
        st.permutations((1, 2, 3)), st.integers(0, 3)))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(layout_cases())
def test_layout_moves_match_field_by_field_reference(case):
    # Embed, rename, drop, product, sum and power give the variables, terms and
    # term order that moving each exponent of each term on its own gives.
    a, b, wide, perm, n = case
    on = lambda p: Poly(wide, dict(reference_moved(p, wide)))
    got = a.embed(wide)
    assert got.vars == wide and _typed(got.terms.items()) == _typed(reference_moved(a, wide))
    back = got.drop_vars([v for v in wide if v not in a.vars])
    assert back.vars == a.vars
    assert _typed(back.terms.items()) == _typed(reference_moved(
        got, a.vars, [v if v in a.vars else None for v in wide]))
    mapping = {f"{c}{i}": f"{c}{perm[i - 1]}" for c in "xs" for i in (1, 2, 3)}
    mapping["rho"] = "rho12"
    renamed = [mapping[v] for v in a.vars]
    vs = tuple(sorted(renamed, key=var_sort_key))
    got = a.rename(mapping)
    assert got.vars == vs and _typed(got.terms.items()) == _typed(reference_moved(a, vs, renamed))
    union = tuple(sorted(set(a.vars) | set(b.vars), key=var_sort_key))
    for got, want in ((a * b, on(a) * on(b)), (b * a, on(b) * on(a)), (a + b, on(a) + on(b)),
                      (Poly.sum([b, a, -b]), Poly.sum([on(b), on(a), -on(b)]))):
        assert got.vars == union
        assert _typed(got.terms.items()) == _typed(reference_moved(want, union, [
            v if v in union else None for v in wide]))
    got, want = a ** n, reference_power(a, n)
    assert got.vars == want.vars and _typed(got.terms.items()) == _typed(want.terms.items())


def test_remap_routes_agree(monkeypatch):
    # Moving key by key and moving a mask over all keys give the same terms in
    # the same order, on either side of REMAP_LOOP_KEYS.
    rng = random.Random(43)
    vs = ("x1", "x2", "s2", "rho")
    for size in (1, 5, 15, 16, 17, 40, 120):
        p = Poly(vs, {tuple(rng.randint(0, 3) for _ in vs): rng.randint(-9, 9) or 1
                      for _ in range(size)})
        got = []
        for limit in (0, 10 ** 9):
            monkeypatch.setattr(poly_mod, "REMAP_LOOP_KEYS", limit)
            wide = p.embed(("x1", "x2", "x3", "s2", "rho"))
            moved = [p.rename({"x1": "x3", "rho": "rho12"}), wide, wide.drop_vars(["x3"])]
            got.append([(q.vars, list(q.terms.items())) for q in moved])
        assert got[0] == got[1] and got[0][2] == (vs, list(p.terms.items()))


def test_prefix_embed_leaves_the_original_alone():
    # An embed onto a tuple that starts with p's variables shares p's terms;
    # nothing done with the wide copy may change them.
    p = Poly(("x1",), {(2,): 3, (0,): -1, (1,): Fraction(1, 2)})
    before = p.sorted_terms()
    wide = p.embed(("x1", "x2", "rho"))
    other = X2 * RHO - 2
    assert wide + other == p + other and other * wide == other * p
    assert (wide - wide).is_zero() and -wide == -p and wide * 3 == 3 * p
    assert Poly.sum([wide, other, -wide]) == other and wide ** 3 == p ** 3
    assert wide.subs("x1", X2) == p.subs("x1", X2)
    assert wide.band("x1", 1, 3, 2) == p.band("x1", 1, 3, 2)
    assert wide.coeff_of("x1", 2) == 3 and wide.rename({"x1": "x3"}) == p.rename({"x1": "x3"})
    assert wide.drop_vars(["x2"]).embed(("x1", "x2", "x3", "rho")) == p
    assert p.sorted_terms() == before and wide.sorted_terms() == [
        ((e[0], 0, 0), c) for e, c in before]
    assert Poly(("x1",), dict(before)) == p == wide


@settings(max_examples=80, deadline=None, derandomize=True)
@given(small_polys())
def test_hash_agrees_with_equality(a):
    # Equality embeds both sides into the union of their variables first.
    for vs in (("x1", "x2", "x3", "rho"), ("x1", "x2", "s1", "s2", "rho")):
        wide = a.embed(vs)
        assert wide == a and hash(wide) == hash(a)
    used = tuple(v for v in a.vars if a.uses(v))
    narrow = a.drop_vars([v for v in a.vars if v not in used])
    assert narrow == a and hash(narrow) == hash(a)
    if not used:
        # Poly.const(c) == c, so a constant hashes as its coefficient.
        c = a.terms.get((0, 0, 0), 0)
        assert a == c and hash(a) == hash(c)
    reordered = Poly(a.vars, dict(reversed(list(a.terms.items()))))
    assert reordered == a and hash(reordered) == hash(a)
    assert len({a, a.embed(("x1", "x2", "x3", "rho")), narrow}) == 1


def test_float_coefficients_stored_exactly():
    got = Poly(("x1",), {(1,): 0.5}).terms[(1,)]
    assert got == Fraction(1, 2) and type(got) is Fraction
    whole = Poly(("x1",), {(1,): 2.0}).terms[(1,)]
    assert whole == 2 and type(whole) is int
    assert Poly(("x1",), {(1,): 0.1}).terms[(1,)] == Fraction(0.1)
    assert Poly(("x1",), {(1,): 0.5}) == Poly.const(0.5) * X1
    assert Poly.const(0.5, ("x1",)) == Fraction(1, 2)
    assert hash(Poly.const(0.5, ("x1",))) == hash(Fraction(1, 2))


def test_terms_view():
    p = 3 * X1 ** 2 * RHO - Fraction(1, 2) * RHO + 1
    assert p.vars == ("x1", "rho")
    assert len(p.terms) == 3
    assert dict(p.terms) == {(2, 1): 3, (0, 1): Fraction(-1, 2), (0, 0): 1}
    assert list(p.terms) == [e for e, _ in p.terms.items()]
    assert p.terms[(2, 1)] == 3 and (0, 1) in p.terms and (1, 1) not in p.terms
    assert p.terms.get((5, 5), 0) == 0
    assert p.terms == {(2, 1): 3, (0, 1): Fraction(-1, 2), (0, 0): 1}
    assert Poly(p.vars, p.terms) == p
    # Read-only: the view cannot change the polynomial it shows.
    with pytest.raises(TypeError):
        p.terms[(0, 0)] = 2
    with pytest.raises(TypeError):
        X1.terms[(0,)] = 1
    assert dict(p.terms)[(0, 0)] == 1


def test_exponent_overflow_raises_scale_error():
    top = Poly(("x1",), {(EXP_LIMIT - 2,): 1})
    assert (top * X1).degree("x1") == EXP_LIMIT - 1
    with pytest.raises(ScaleError):
        top * X1 * X1
    with pytest.raises(ScaleError):
        X1 ** EXP_LIMIT
    # Half the limit in a factor is where a product's exponents can reach it.
    with pytest.raises(ScaleError):
        X1 ** (EXP_LIMIT // 2) * X1 ** (EXP_LIMIT // 2)
    assert (X1 ** (EXP_LIMIT // 2 - 1)) ** 2 == Poly(("x1",), {(EXP_LIMIT - 2,): 1})
    # A neighbouring field is left alone: no carry out of the overflowing one.
    with pytest.raises(ScaleError):
        (top * X1).embed(("x1", "x2")) * (X1 * X2)
    # Marker reduction raises x1's exponent by two: s1^2 -> 1 - x1^2.
    s1 = Poly.variable("s1", ("x1", "s1"))
    with pytest.raises(ScaleError):
        Poly(("x1", "s1"), {(EXP_LIMIT - 2, 1): 1}) * s1


def test_float_eval_past_the_float_range_raises_scale_error():
    # T_2000's coefficients pass the float range: at a float point the plan met a bare
    # OverflowError; an exact point still gives the exact value.
    t2000 = cheb_poly(ChebIndex("T", 2000))
    with pytest.raises(ScaleError, match="float range"):
        t2000.eval({"x1": 0.5})
    assert t2000.eval({"x1": Fraction(1)}) == 1
    with pytest.raises(ScaleError, match="float range"):
        (Poly.variable("x1") ** 3).eval({"x1": 1e200})


def test_out_of_range_exponents_at_construction():
    with pytest.raises(ExponentError):
        Poly(("x1",), {(-1,): 1})
    with pytest.raises(ExponentError):
        Poly(("x1", "rho"), {(1, 0.5): 1})
    with pytest.raises(ScaleError):
        Poly(("x1",), {(EXP_LIMIT,): 1})
    assert Poly(("x1",), {(EXP_LIMIT - 1,): 2}).degree("x1") == EXP_LIMIT - 1
    for exps in ([-2, 0], [0, EXP_LIMIT]):
        with pytest.raises(ChebsumError):
            Poly.from_json_dict({"vars": ["x1", "rho"], "terms": [{"coeff": "1/1", "exps": exps}]})
    # The published JSON schema states the same range.
    schema = json.loads((Path(chebsum.__file__).parent / "schemas" / "poly.schema.json").read_text())
    exps = schema["properties"]["terms"]["items"]["properties"]["exps"]["items"]
    assert (exps["minimum"], exps["maximum"]) == (0, EXP_LIMIT - 1)


def test_additive_inverse_and_identities():
    assert (X1 + -X1).is_zero()
    w1 = 1 - 2 * RHO * X1 + RHO ** 2
    assert w1 * Poly.const(1) == w1
    with pytest.raises(TypeError):
        X1 / X1


def test_marker_square_reduction():
    s1 = Poly.variable("s1", ("x1", "s1"))
    assert s1 * s1 == 1 - X1 ** 2
    # Higher powers reduce too, and odd powers keep one marker factor.
    assert s1 ** 4 == (1 - X1 ** 2) ** 2
    assert s1 ** 3 == s1 * (1 - X1 ** 2)


def test_eval_examples():
    w1 = 1 - 2 * RHO * X1 + RHO ** 2
    assert w1.eval({"x1": Fraction(1, 2), "rho": Fraction(1, 2)}) == Fraction(3, 4)
    assert Poly.zero(("x1",)).eval({}) == 0
    # Float anywhere makes the result float.
    assert isinstance(w1.eval({"x1": 0.5, "rho": Fraction(1, 2)}), float)


def test_eval_missing_assignment():
    with pytest.raises(MissingAssignment):
        (X1 * X2).eval({"x1": 1})
    # A variable that never appears with nonzero exponent is not required.
    p = X1.embed(("x1", "x2"))
    assert p.eval({"x1": 7}) == 7


def test_w2_specialization_value():
    # Oracle: w_2(1, 1 | r) = (w_1(1 | r))^2 = ((1 - r)^2)^2; at r = 1/2 this
    # is 1/16, and direct substitution into the quartic agrees.
    w2 = (1 - RHO ** 2) ** 2 - 4 * X1 * X2 * RHO * (1 + RHO ** 2) \
        + 4 * RHO ** 2 * (X1 ** 2 + X2 ** 2)
    val = w2.eval({"x1": 1, "x2": 1, "rho": Fraction(1, 2)})
    assert val == Fraction(1, 16)
    assert val == (Fraction(1, 4)) ** 2


def test_rho_coeff_examples():
    w1 = 1 - 2 * RHO * X1 + RHO ** 2
    assert w1.coeff_of("rho", 1) == -2 * X1
    w2 = (1 - RHO ** 2) ** 2 - 4 * X1 * X2 * RHO * (1 + RHO ** 2) \
        + 4 * RHO ** 2 * (X1 ** 2 + X2 ** 2)
    assert w2.coeff_of("rho", 1) == -4 * X1 * X2
    # A power past the degree or below 0 has the zero coefficient, in the other
    # variables; a variable that is absent has the whole polynomial at power 0.
    for power in (5, -1):
        assert w1.coeff_of("rho", power).is_zero() and w1.coeff_of("rho", power).vars == ("x1",)
    assert w1.coeff_of("x2", 0) is w1
    assert w1.coeff_of("x2", 1).is_zero() and w1.coeff_of("x2", 1).vars == w1.vars


@settings(max_examples=30, deadline=None, derandomize=True)
@given(small_polys())
def test_rho_coeff_reconstructs(p):
    acc = Poly.zero()
    for m in range(p.degree("rho") + 1):
        acc = acc + p.coeff_of("rho", m).embed(("x1", "x2")) * RHO ** m
    assert acc == p


@settings(max_examples=150, deadline=None, derandomize=True)
@given(marker_polys() | fraction_marker_polys(), st.sampled_from(("x1", "x2", "s1", "rho")),
       st.integers(-1, 4), st.integers(0, 5), st.integers(-4, 4))
def test_band_slices_and_moves_exponents(p, var, lo, hi, shift):
    # band(var, lo, hi, shift) keeps the terms whose exponent e of var has
    # lo <= e < hi and moves e to e + shift: a difference of slices from 0 at
    # shift 0, and coefficient by coefficient the same as coeff_of.
    if shift < -max(lo, 0) or shift and var not in p.vars:
        with pytest.raises(ValueError):
            p.band(var, lo, hi, shift)
        return
    got = p.band(var, lo, hi, shift)
    _assert_lowest_terms(got)
    assert got.vars == p.vars
    if not shift:
        assert got == p.band(var, 0, max(lo, hi)) - p.band(var, 0, lo)
    if var not in p.vars or var[0] == "x" and "s" + var[1:] in p.vars:
        return  # coeff_of keeps xk only without sk
    parts = p.coeffs(var)  # one grouping pass, term for term and in order the slices' route
    assert len(parts) == p.degree(var) + 1
    for e, part in enumerate(parts):
        want = p.band(var, e, e + 1, -e).drop_vars((var,))
        assert part.vars == want.vars and _typed(part.terms.items()) == _typed(want.terms.items())
    if var[0] == "s":  # a marker moved past 1 is reduced, as a product reduces it
        marker = Poly.variable(var, ("x" + var[1:], var))
        assert got == Poly.sum([Poly.zero()] + [p.coeff_of(var, e) * marker ** (e + shift)
                                                for e in range(max(lo, 0), min(hi, 2))])
        return
    for e in range(0, 9):
        want = p.coeff_of(var, e - shift) if lo <= e - shift < hi else Poly.zero()
        assert got.coeff_of(var, e) == want


def test_band_reduces_a_moved_marker():
    s1 = Poly.variable("s1", ("x1", "s1"))
    got = (s1 * RHO + 3 * s1).band("s1", 1, 2, 1)
    assert got == (3 + RHO) * (1 - X1 ** 2) == (s1 * RHO + 3 * s1) * s1
    assert got.degree("s1") == 0


def test_band_guards_its_exponents():
    p = X1 * RHO ** (EXP_LIMIT - 2) + 3
    assert p.band("rho", 0, 1, EXP_LIMIT - 1) == 3 * RHO ** (EXP_LIMIT - 1)
    with pytest.raises(ScaleError):
        p.band("rho", 1, EXP_LIMIT, 2)
    with pytest.raises(ValueError):
        p.band("rho", 0, 1, EXP_LIMIT)


def test_repeated_variable_names_are_refused():
    # A repeated name would make a product drop terms: x1 + x1 over
    # ("x1", "x1") times x1 gave x1^2, not 2 x1^2.
    for vs in (("x1", "x1"), ("x1", "x2", "x2", "rho"), ("x1", "s1", "s1")):
        with pytest.raises(ValueError, match="canonical order"):
            Poly(vs, {})
        with pytest.raises(ValueError, match="canonical order"):
            X1.embed(vs)
    with pytest.raises(ValueError):
        Poly(("x1", "x1"), {(1, 0): 1, (0, 1): 1})


def test_canonical_serialization():
    p = (1 - 2 * RHO * X1 + RHO ** 2) * (X2 + 1)
    data = p.to_json_dict()
    # Graded-lex order: total degree ascending, ties by exponent tuple.
    keys = [(sum(t["exps"]), tuple(t["exps"])) for t in data["terms"]]
    assert keys == sorted(keys)
    assert Poly.from_json_dict(data) == p
    assert all("/" in t["coeff"] for t in data["terms"])


def test_render():
    assert Poly.zero().render() == "0"
    p = Fraction(-3, 2) * X1 ** 2 * RHO + Poly.const(1)
    assert p.render() == "1 + -3/2 * x1^2 * rho"


def test_exact_text_past_the_digit_limit_is_refused():
    # Python refuses int-to-str past 4300 digits; the text writers say so as a
    # ScaleError that names the digit count.
    assert exact_str(Fraction(-3, 7)) == "-3/7" and exact_str(10 ** 4299) == "1" + "0" * 4299
    big = Poly.const(Fraction(1, 10 ** 5000), ("x1",)) + Poly.variable("x1")
    for write in (big.to_json_dict, big.render, lambda: exact_str(-(10 ** 4300))):
        with pytest.raises(ScaleError, match=r"an exact value of (5001|4301) digits exceeds"):
            write()
    assert (big - Poly.const(Fraction(1, 10 ** 5000), ("x1",))).to_json_dict() == {
        "vars": ["x1"], "terms": [{"coeff": "1/1", "exps": [1]}]}
