"""Exact sparse multivariate polynomial arithmetic with a trigonometric layer.

A polynomial is a mapping from exponent tuples to nonzero rational
coefficients over an ordered variable list.  Coefficients are Python ints or
``fractions.Fraction``; all arithmetic is exact, floats appear only when a
polynomial is *evaluated* at float inputs.

Three families of variables are allowed, with a fixed global order:

    x1 < x2 < ... < s1 < s2 < ... < rho

``xk`` plays the role of cos of the k-th angle, the marker ``sk`` plays the
role of sin of the same angle, and ``rho`` is the series variable.  Marker
exponents are kept in {0, 1} by rewriting ``sk**2 -> 1 - xk**2`` after every
multiplication, so every polynomial lives in a canonical basis and two equal
polynomials compare equal as dictionaries.

The trigonometric layer (``TrigTerm``/``TrigSum``) represents finite
combinations of cos/sin of integer combinations of angles.  It converts
products of sines and cosines to linear-combination form (sign-vector
expansion) and realizes any single cos/sin term as a polynomial in xk, sk
via angle addition.

Serialized form (stable across runs): terms ordered graded-lexicographically
(total degree first, then the exponent tuple), coefficients as "num/den"
strings.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Mapping, NamedTuple

from .errors import ArityError, MissingAssignment, OverlapError

Scalar = int | Fraction
Exponents = tuple[int, ...]


def var_sort_key(name: str) -> tuple[int, int]:
    """Sort key implementing the global variable order x* < s* < rho < rho_ij."""
    if name == "rho":
        return (2, 0)
    if name[0] == "x" and name[1:].isdigit():
        return (0, int(name[1:]))
    if name[0] == "s" and name[1:].isdigit():
        return (1, int(name[1:]))
    if name.startswith("rho") and name[3:].isdigit():
        # pairwise correlation symbols rho12, rho13, ...
        return (2, int(name[3:]))
    raise ValueError(f"unsupported variable name: {name!r}")


def _normalize_scalar(c: Scalar) -> Scalar:
    if isinstance(c, Fraction) and c.denominator == 1:
        return int(c)
    return c


class Poly:
    """Immutable-by-convention sparse polynomial.

    ``terms`` maps exponent tuples (aligned with ``vars``) to nonzero
    coefficients.  The zero polynomial has an empty ``terms`` dict.
    Instances are never mutated after construction; every operation returns
    a new Poly.
    """

    __slots__ = ("vars", "terms")

    def __init__(self, variables: Iterable[str], terms: Mapping[Exponents, Scalar] | None = None,
                 *, _clean: bool = True):
        vs = tuple(variables)
        if list(vs) != sorted(vs, key=var_sort_key):
            raise ValueError(f"variables not in canonical order: {vs}")
        self.vars = vs
        if terms is None:
            self.terms = {}
        elif _clean:
            cleaned = {}
            for exps, c in terms.items():
                if len(exps) != len(vs):
                    raise ArityError(f"exponent tuple {exps} does not match arity {len(vs)}")
                c = _normalize_scalar(c)
                if c != 0:
                    cleaned[tuple(exps)] = c
            self.terms = _reduce_markers(vs, cleaned)
        else:
            self.terms = dict(terms)

    # ---------------------------------------------------------------- builders

    @classmethod
    def zero(cls, variables: Iterable[str] = ()) -> Poly:
        return cls(variables, {})

    @classmethod
    def const(cls, value: Scalar, variables: Iterable[str] = ()) -> Poly:
        vs = tuple(variables)
        value = _normalize_scalar(Fraction(value) if not isinstance(value, (int, Fraction)) else value)
        if value == 0:
            return cls(vs, {})
        return cls(vs, {(0,) * len(vs): value}, _clean=False)

    @classmethod
    def variable(cls, name: str, variables: Iterable[str] | None = None) -> Poly:
        vs = tuple(variables) if variables is not None else (name,)
        if name not in vs:
            raise ValueError(f"{name} not among {vs}")
        exps = tuple(1 if v == name else 0 for v in vs)
        return cls(vs, {exps: 1}, _clean=False)

    # ------------------------------------------------------------- inspection

    def is_zero(self) -> bool:
        return not self.terms

    def degree(self, var: str) -> int:
        """Largest exponent of ``var`` (0 if absent or zero polynomial)."""
        if var not in self.vars:
            return 0
        i = self.vars.index(var)
        return max((e[i] for e in self.terms), default=0)

    def uses(self, var: str) -> bool:
        if var not in self.vars:
            return False
        i = self.vars.index(var)
        return any(e[i] for e in self.terms)

    def sorted_terms(self) -> list[tuple[Exponents, Scalar]]:
        """Terms in canonical graded-lexicographic order."""
        return sorted(self.terms.items(), key=lambda kv: (sum(kv[0]), kv[0]))

    # ------------------------------------------------------------ arithmetic

    def embed(self, variables: Iterable[str]) -> Poly:
        """Reindex into a superset variable list (canonical order required)."""
        vs = tuple(variables)
        if vs == self.vars:
            return self
        pos = []
        for v in self.vars:
            if v not in vs:
                raise ValueError(f"cannot embed: {v} missing from {vs}")
            pos.append(vs.index(v))
        n = len(vs)
        out: dict[Exponents, Scalar] = {}
        for exps, c in self.terms.items():
            ne = [0] * n
            for p, e in zip(pos, exps):
                ne[p] = e
            out[tuple(ne)] = c
        return Poly(vs, out, _clean=False)

    def _union_vars(self, other: Poly) -> tuple[str, ...]:
        return tuple(sorted(set(self.vars) | set(other.vars), key=var_sort_key))

    @staticmethod
    def _coerce(other) -> Poly | None:
        if isinstance(other, Poly):
            return other
        if isinstance(other, (int, Fraction)):
            return Poly.const(other)
        return None

    def __add__(self, other) -> Poly:
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        vs = self._union_vars(other)
        a, b = self.embed(vs), other.embed(vs)
        out = dict(a.terms)
        for exps, c in b.terms.items():
            nc = out.get(exps, 0) + c
            if nc == 0:
                out.pop(exps, None)
            else:
                out[exps] = _normalize_scalar(nc)
        return Poly(vs, out, _clean=False)

    __radd__ = __add__

    def __neg__(self) -> Poly:
        return Poly(self.vars, {e: -c for e, c in self.terms.items()}, _clean=False)

    def __sub__(self, other) -> Poly:
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other) -> Poly:
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other) -> Poly:
        if isinstance(other, (int, Fraction)):
            if other == 0:
                return Poly(self.vars, {})
            return Poly(self.vars,
                        {e: _normalize_scalar(c * other) for e, c in self.terms.items()},
                        _clean=False)
        if not isinstance(other, Poly):
            return NotImplemented
        vs = self._union_vars(other)
        a, b = self.embed(vs), other.embed(vs)
        if len(b.terms) > len(a.terms):
            a, b = b, a
        out: dict[Exponents, Scalar] = {}
        for eb, cb in b.terms.items():
            for ea, ca in a.terms.items():
                exps = tuple(i + j for i, j in zip(ea, eb))
                nc = out.get(exps, 0) + ca * cb
                if nc == 0:
                    out.pop(exps, None)
                else:
                    out[exps] = nc
        out = _reduce_markers(vs, out)
        return Poly(vs, out, _clean=False)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> Poly:
        if not isinstance(n, int) or n < 0:
            raise ValueError("polynomial powers must be nonnegative integers")
        result = Poly.const(1, self.vars)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    def __eq__(self, other) -> bool:
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        if self.vars == other.vars:
            return self.terms == other.terms
        vs = self._union_vars(other)
        return self.embed(vs).terms == other.embed(vs).terms

    def __hash__(self):
        return hash((self.vars, frozenset(self.terms.items())))

    # ------------------------------------------------------- structural ops

    def rename(self, mapping: Mapping[str, str]) -> Poly:
        """Rename variables (result reordered canonically)."""
        new_names = [mapping.get(v, v) for v in self.vars]
        if len(set(new_names)) != len(new_names):
            raise ValueError("rename would collide variables")
        order = sorted(range(len(new_names)), key=lambda i: var_sort_key(new_names[i]))
        vs = tuple(new_names[i] for i in order)
        out = {tuple(exps[i] for i in order): c for exps, c in self.terms.items()}
        return Poly(vs, out, _clean=False)

    def drop_vars(self, names: Iterable[str]) -> Poly:
        """Remove variables that carry no exponent anywhere."""
        names = set(names)
        for nm in names:
            if self.uses(nm):
                raise ValueError(f"cannot drop used variable {nm}")
        keep = [i for i, v in enumerate(self.vars) if v not in names]
        vs = tuple(self.vars[i] for i in keep)
        out = {tuple(e[i] for i in keep): c for e, c in self.terms.items()}
        return Poly(vs, out, _clean=False)

    def subs(self, name: str, replacement: Poly | Scalar) -> Poly:
        """Substitute a polynomial (or constant) for one variable."""
        if name not in self.vars:
            return self
        if isinstance(replacement, (int, Fraction)):
            replacement = Poly.const(replacement)
        i = self.vars.index(name)
        rest_vars = tuple(v for v in self.vars if v != name)
        groups: dict[int, dict[Exponents, Scalar]] = {}
        for exps, c in self.terms.items():
            e = exps[i]
            re = tuple(exps[:i] + exps[i + 1:])
            groups.setdefault(e, {})[re] = c
        result = Poly.zero(rest_vars)
        powers: dict[int, Poly] = {0: Poly.const(1)}
        for e in sorted(groups):
            if e not in powers:
                powers[e] = replacement ** e
            result = result + Poly(rest_vars, groups[e], _clean=False) * powers[e]
        return result

    def coeff_of(self, var: str, power: int) -> Poly:
        """The coefficient of ``var**power`` as a polynomial in the rest."""
        if var not in self.vars:
            return self if power == 0 else Poly.zero(self.vars)
        i = self.vars.index(var)
        rest = tuple(v for v in self.vars if v != var)
        out = {tuple(e[:i] + e[i + 1:]): c for e, c in self.terms.items() if e[i] == power}
        return Poly(rest, out, _clean=False)

    def rho_coeffs(self) -> list[Poly]:
        """Coefficients of rho**0 .. rho**deg as polynomials in the x variables."""
        d = self.degree("rho")
        return [self.coeff_of("rho", m) for m in range(d + 1)]

    # -------------------------------------------------------------- evaluation

    def eval(self, assignment: Mapping[str, object]):
        """Evaluate at a point (Horner accumulation, one variable at a time).

        Exact inputs give an exact value; any float input gives a float.
        Raises MissingAssignment if a variable with a nonzero exponent has no
        value.
        """
        if not self.terms:
            return 0
        nvars = len(self.vars)
        vals = [assignment.get(v) for v in self.vars]

        def rec(items: list[tuple[Exponents, Scalar]], vi: int):
            if vi == nvars:
                total = 0
                for _, c in items:
                    total += c
                return total
            groups: dict[int, list[tuple[Exponents, Scalar]]] = {}
            for exps, c in items:
                groups.setdefault(exps[vi], []).append((exps, c))
            v = vals[vi]
            exps_desc = sorted(groups, reverse=True)
            if v is None:
                if exps_desc != [0]:
                    raise MissingAssignment(f"no value for variable {self.vars[vi]}")
                return rec(groups[0], vi + 1)
            acc = rec(groups[exps_desc[0]], vi + 1)
            prev = exps_desc[0]
            for e in exps_desc[1:]:
                acc = acc * v ** (prev - e) + rec(groups[e], vi + 1)
                prev = e
            if prev:
                acc = acc * v ** prev
            return acc

        return rec(list(self.terms.items()), 0)

    def eval_grid(self, arrays: Mapping[str, object]):
        """Vectorized float evaluation over numpy arrays (one per used variable)."""
        import numpy as np

        shape: tuple = ()
        powers: dict[str, dict[int, object]] = {}
        for idx, v in enumerate(self.vars):
            if not self.uses(v):
                continue
            if v not in arrays:
                raise MissingAssignment(f"no array for variable {v}")
            arr = np.asarray(arrays[v], dtype=float)
            shape = np.broadcast_shapes(shape, arr.shape)
            pw = {1: arr}
            for e in sorted({exps[idx] for exps in self.terms if exps[idx] > 1}):
                pw[e] = arr ** e
            powers[v] = pw
        total = np.zeros(shape)
        for exps, c in self.terms.items():
            term = float(c)
            for idx, e in enumerate(exps):
                if e:
                    term = term * powers[self.vars[idx]][e]
            total = total + term
        return total

    # ----------------------------------------------------------- serialization

    def render(self) -> str:
        """Plain-text form: "c * x1^a * rho^r" joined by " + "."""
        if not self.terms:
            return "0"
        parts = []
        for exps, c in self.sorted_terms():
            frac = Fraction(c)
            piece = [f"{frac.numerator}" if frac.denominator == 1 else f"{frac.numerator}/{frac.denominator}"]
            for v, e in zip(self.vars, exps):
                if e == 1:
                    piece.append(v)
                elif e > 1:
                    piece.append(f"{v}^{e}")
            parts.append(" * ".join(piece))
        return " + ".join(parts)

    def to_json_dict(self) -> dict:
        terms = [{"coeff": f"{Fraction(c).numerator}/{Fraction(c).denominator}",
                  "exps": list(exps)}
                 for exps, c in self.sorted_terms()]
        return {"vars": list(self.vars), "terms": terms}

    @classmethod
    def from_json_dict(cls, data: Mapping) -> Poly:
        vs = tuple(data["vars"])
        terms = {tuple(t["exps"]): Fraction(t["coeff"]) for t in data["terms"]}
        return cls(vs, terms)

    def __repr__(self) -> str:
        return f"Poly({self.render()})"


def _marker_pairs(variables: tuple[str, ...]) -> list[tuple[int, int]]:
    """(marker position, partner x position) for every sk present."""
    index = {v: i for i, v in enumerate(variables)}
    pairs = []
    for v, i in index.items():
        if v[0] == "s":
            partner = "x" + v[1:]
            if partner not in index:
                raise ValueError(f"marker {v} lacks partner {partner} in {variables}")
            pairs.append((i, index[partner]))
    return pairs


def _reduce_markers(variables: tuple[str, ...],
                    terms: dict[Exponents, Scalar]) -> dict[Exponents, Scalar]:
    """Rewrite sk**e with e >= 2 via sk**2 = 1 - xk**2 until all marker exponents are 0/1."""
    if not any(v[0] == "s" for v in variables):
        return terms
    if not any(e[i] >= 2 for e in terms for i, v in enumerate(variables) if v[0] == "s"):
        return terms
    pairs = _marker_pairs(variables)
    out: dict[Exponents, Scalar] = {}
    stack = list(terms.items())
    while stack:
        exps, c = stack.pop()
        for spos, xpos in pairs:
            e = exps[spos]
            if e >= 2:
                half, rem = divmod(e, 2)
                base = list(exps)
                base[spos] = rem
                # (1 - x^2)^half expanded binomially
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
    return {e: _normalize_scalar(c) for e, c in out.items() if c != 0}


# ----------------------------------------------------------- trigonometric sums


class TrigTerm(NamedTuple):
    """weight * cos(sum c_i * alpha_i) or weight * sin(...).

    Canonical: the first nonzero coefficient is positive (cos is even, sin is
    odd so the weight flips sign when a sin term is reflected).
    """

    kind: str  # "cos" or "sin"
    coeffs: tuple[int, ...]
    weight: Scalar

    def angle(self, alphas) -> float:
        return sum(c * a for c, a in zip(self.coeffs, alphas))

    def eval(self, alphas) -> float:
        th = self.angle(alphas)
        return self.weight * (math.cos(th) if self.kind == "cos" else math.sin(th))


def make_trig_term(kind: str, coeffs: Iterable[int], weight: Scalar) -> TrigTerm | None:
    """Canonicalize; returns None for an identically zero term."""
    if kind not in ("cos", "sin"):
        raise ValueError(f"kind must be cos or sin, got {kind!r}")
    coeffs = tuple(coeffs)
    weight = _normalize_scalar(weight)
    if weight == 0:
        return None
    lead = next((c for c in coeffs if c != 0), 0)
    if lead == 0 and kind == "sin":
        return None  # sin(0) = 0
    if lead < 0:
        coeffs = tuple(-c for c in coeffs)
        if kind == "sin":
            weight = -weight
    return TrigTerm(kind, coeffs, weight)


class TrigSum:
    """A merged list of TrigTerm with no duplicates and no zero weights."""

    __slots__ = ("terms",)

    def __init__(self, terms: Iterable[TrigTerm | None] = ()):
        merged: dict[tuple[str, tuple[int, ...]], Scalar] = {}
        for t in terms:
            if t is None:
                continue
            t = make_trig_term(t.kind, t.coeffs, t.weight)
            if t is None:
                continue
            key = (t.kind, t.coeffs)
            merged[key] = merged.get(key, 0) + t.weight
        self.terms = tuple(TrigTerm(k, c, _normalize_scalar(w))
                           for (k, c), w in sorted(merged.items()) if w != 0)

    def eval(self, alphas) -> float:
        return sum(t.eval(alphas) for t in self.terms)

    def to_poly(self) -> Poly:
        out = Poly.zero()
        for t in self.terms:
            out = out + trig_to_poly(t)
        return out

    def __len__(self) -> int:
        return len(self.terms)

    def __repr__(self) -> str:
        return f"TrigSum({list(self.terms)!r})"


def trig_product_to_sum(sines: Iterable[int], cosines: Iterable[int]) -> TrigSum:
    """Expand prod sin(alpha_i) * prod cos(alpha_j) over sign vectors.

    With n sines and k cosines the expansion has 2**(n+k) raw terms of kind
    sin (n odd) or cos (n even), each weighted by
    (-1)**(sum over sine slots of (i+1)/2) / 2**(n+k), with a global sign
    (-1)**((n+1)//2) for odd n and (-1)**(n//2) for even n.
    """
    sines = list(sines)
    cosines = list(cosines)
    if set(sines) & set(cosines):
        raise OverlapError(f"index lists overlap: {sorted(set(sines) & set(cosines))}")
    idx = sines + cosines
    n, k = len(sines), len(cosines)
    if n + k == 0:
        return TrigSum([TrigTerm("cos", (), 1)])
    width = max(idx)
    kind = "sin" if n % 2 else "cos"
    global_sign = (-1) ** ((n + 1) // 2) if n % 2 else (-1) ** (n // 2)
    scale = Fraction(global_sign, 2 ** (n + k))
    raw = []
    for bits in range(2 ** (n + k)):
        coeffs = [0] * width
        sign_exp = 0
        for pos, j in enumerate(idx):
            i = 1 if (bits >> pos) & 1 else -1
            coeffs[j - 1] += i
            if pos < n:
                sign_exp += (i + 1) // 2
        raw.append(make_trig_term(kind, coeffs, scale * (-1) ** sign_exp))
    return TrigSum(raw)


def _angle_cos_sin(index: int, coeff: int) -> tuple[Poly, Poly]:
    """cos(c*alpha_index) and sin(c*alpha_index) as polynomials in x_index, s_index."""
    from .cheb import ChebIndex, cheb_poly

    xv, sv = f"x{index}", f"s{index}"
    a = abs(coeff)
    cos_p = cheb_poly(ChebIndex("T", a), var=xv)
    if a == 0:
        return cos_p, Poly.zero()
    sin_p = cheb_poly(ChebIndex("U", a - 1), var=xv) * Poly.variable(sv, (xv, sv))
    if coeff < 0:
        sin_p = -sin_p
    return cos_p, sin_p


def trig_to_poly(term: TrigTerm) -> Poly:
    """Realize weight*cos/sin(sum c_i alpha_i) with x_i = cos(alpha_i), s_i = sin(alpha_i).

    Angle addition is applied one variable at a time; marker exponents stay in
    {0, 1} because products are reduced as they are formed.
    """
    cos_acc, sin_acc = Poly.const(1), Poly.zero()
    for pos, c in enumerate(term.coeffs):
        if c == 0:
            continue
        cos_p, sin_p = _angle_cos_sin(pos + 1, c)
        cos_acc, sin_acc = (cos_acc * cos_p - sin_acc * sin_p,
                            sin_acc * cos_p + cos_acc * sin_p)
    picked = cos_acc if term.kind == "cos" else sin_acc
    return picked * term.weight
