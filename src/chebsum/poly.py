"""Exact sparse multivariate polynomial arithmetic.

A polynomial is a mapping from monomials to nonzero rational coefficients
over an ordered variable list.  Coefficients are Python ints or
``fractions.Fraction`` (the constructor and ``Poly.const`` convert any other
number, a float included, to the exact Fraction of its value); all
arithmetic is exact, floats appear only when a polynomial is *evaluated* at
float inputs.

Representation: every monomial is one packed int.  Variable i of the list
owns the bit field [FIELD_BITS * i, FIELD_BITS * (i + 1)) of the key; the
field's low bits hold the exponent, 0 .. EXP_LIMIT - 1, and its top bit is a
guard.  A monomial product is one integer add: two exponents below EXP_LIMIT
sum below 2 * EXP_LIMIT, so nothing carries into the next field, and a sum
that reaches EXP_LIMIT sets the guard bit, which one mask test over the
result turns into a ``ScaleError``; exponents never wrap.  The layout is
private to this module.  ``Poly.terms`` is a read-only view keyed by exponent
tuples (aligned with ``vars``) in the packed dict's insertion order; the
tuple keys and their coefficients are made once per polynomial, on first
use, and kept on it.

Three families of variables are allowed, with a fixed global order:

    x1 < x2 < ... < s1 < s2 < ... < rho

``xk`` plays the role of cos of the k-th angle, the marker ``sk`` plays the
role of sin of the same angle, and ``rho`` is the series variable.  Marker
exponents are kept in {0, 1} by rewriting ``sk**2 -> 1 - xk**2`` after every
multiplication that involves a marker, so every polynomial lives in a
canonical basis and two equal polynomials compare equal as dictionaries.

Coefficients are stored as int numerators over one positive int
denominator kept in lowest terms: the gcd of the denominator and every
numerator is 1, so the pair is canonical and an integer polynomial has
denominator 1.  Arithmetic runs on integers: a product multiplies the
numerators and the denominators, a sum scales each part to the lcm of the
denominators, and each result is reduced by one gcd.  A coefficient is made
only where one is read (``terms``, ``sorted_terms``, hashing), as an ``int``
when the denominator divides its numerator and a ``Fraction`` otherwise.

Serialized form (stable across runs): terms ordered graded-lexicographically
(total degree first, then the exponent tuple), coefficients as "num/den"
strings.
"""

from __future__ import annotations

import math
import sys
from collections.abc import Mapping
from fractions import Fraction
from functools import reduce
from operator import or_
from types import MappingProxyType
from typing import Iterable

from .errors import ArityError, ExponentError, MarkerError, MissingAssignment, ScaleError

Scalar = int | Fraction
Exponents = tuple[int, ...]

FIELD_BITS = 16                      # bits per variable in a packed monomial
EXP_LIMIT = 1 << (FIELD_BITS - 1)    # exponents run over 0 .. EXP_LIMIT - 1
MAX_DEGREE = EXP_LIMIT - 1           # the public name of that limit, for other modules
_FIELD = (1 << FIELD_BITS) - 1


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


def _canonical(variables: Iterable[str]) -> tuple[str, ...]:
    """The variables as a tuple; refuse a repeat, a non-canonical order or sk without xk."""
    vs = tuple(variables)
    keys = [var_sort_key(v) for v in vs]
    if any(a >= b for a, b in zip(keys, keys[1:])):
        raise ValueError(f"variables not strictly in canonical order: {vs}")
    for v in vs:
        if v[0] == "s" and "x" + v[1:] not in vs:
            raise MarkerError(f"marker {v} lacks partner x{v[1:]} in {vs}")
    return vs


def _union(a: tuple[str, ...], b: tuple[str, ...]) -> tuple[str, ...]:
    """The canonical union of two canonical variable tuples, sorted only when neither holds the other."""
    if a == b:
        return a
    u = set(a).union(b)
    return a if len(u) == len(a) else b if len(u) == len(b) else tuple(sorted(u, key=var_sort_key))


def _num_den(c) -> tuple[int, int]:
    """(numerator, denominator) of a number in lowest terms (floats convert exactly)."""
    if not isinstance(c, (int, Fraction)):
        c = Fraction(c)
    return c.numerator, c.denominator


def exact_str(value: Scalar) -> str:
    """``str`` of an int or Fraction, or ScaleError past Python's int-to-str digit limit."""
    try:
        return str(value)
    except ValueError:
        big = max(map(abs, _num_den(value)))
        digits = int(big.bit_length() * math.log10(2))  # the count, or one short of it
        raise ScaleError(f"an exact value of {digits + (10 ** digits <= big)} digits exceeds "
                         f"the {sys.get_int_max_str_digits()}-digit limit for text") from None


def _coeff(num: int, den: int) -> Scalar:
    """num / den as an int when den divides num, else as a Fraction."""
    q, r = divmod(num, den)
    return Fraction(num, den) if r else q


def _lowest(packed: dict[int, int], den: int) -> tuple[dict[int, int], int]:
    """(numerators, denominator) divided by their gcd; zero gets denominator 1."""
    g = den if den == 1 else math.gcd(den, *packed.values())
    return (packed, den) if g == 1 else ({k: c // g for k, c in packed.items()}, den // g)


# ------------------------------------------------------------- packed monomials


def _pack(exps: Exponents) -> int:
    key = 0
    for i, e in enumerate(exps):
        key |= e << (FIELD_BITS * i)
    return key


def _unpack(key: int, n: int) -> Exponents:
    return tuple((key >> (FIELD_BITS * i)) & _FIELD for i in range(n))


def _check_guards(packed: dict[int, Scalar], n: int) -> None:
    """Raise ScaleError if any exponent of any key reached EXP_LIMIT."""
    guards = EXP_LIMIT * (((1 << (FIELD_BITS * n)) - 1) // _FIELD)
    if reduce(or_, packed, 0) & guards:
        raise ScaleError(f"an exponent reached the supported limit {EXP_LIMIT}")


def _remap(packed: dict[int, Scalar], moves: Iterable[tuple[int, int]]) -> dict[int, Scalar]:
    """Move exponent fields by (source index, target index) pairs, keeping order.

    Fields that no pair names are dropped; consecutive moves are done as one
    masked shift, over all keys at once.
    """
    runs: list[list[int]] = []
    for src, dst in moves:
        if runs and runs[-1][0] + runs[-1][2] == src and runs[-1][1] + runs[-1][2] == dst:
            runs[-1][2] += 1
        else:
            runs.append([src, dst, 1])
    keys, new = list(packed), [0] * len(packed)
    for src, dst, width in runs:
        at, to, mask = FIELD_BITS * src, FIELD_BITS * dst, (1 << (FIELD_BITS * width)) - 1
        new = [n | ((k >> at) & mask) << to for n, k in zip(new, keys)]
    return dict(zip(new, packed.values()))


class Poly:
    """Immutable-by-convention sparse polynomial.

    ``terms`` maps exponent tuples (aligned with ``vars``) to nonzero
    coefficients.  The zero polynomial has no terms.  Instances are never
    mutated after construction; every operation returns a new Poly.
    """

    __slots__ = ("vars", "_packed", "_den", "_tuples", "_plan")

    def __init__(self, variables: Iterable[str], terms: Mapping[Exponents, Scalar] | None = None):
        vs = _canonical(variables)
        ratios: dict[int, tuple[int, int]] = {}
        for exps, c in (terms or {}).items():
            exps = tuple(exps)
            if len(exps) != len(vs):
                raise ArityError(f"exponent tuple {exps} does not match arity {len(vs)}")
            for e in exps:
                if not isinstance(e, int) or e < 0:
                    raise ExponentError(f"exponent {e!r} in {exps} is not a nonnegative integer")
                if e > MAX_DEGREE:
                    raise ScaleError(f"exponent {e} in {exps} exceeds the supported limit {MAX_DEGREE}")
            num, den = _num_den(c)
            if num:
                ratios[_pack(exps)] = num, den
        den = math.lcm(*[d for _, d in ratios.values()])
        packed = {k: num * (den // d) for k, (num, d) in ratios.items()}
        self.vars = vs
        self._packed, self._den = _lowest(_reduce_markers(vs, packed), den)
        self._tuples = None
        self._plan = None

    @classmethod
    def _make(cls, variables: tuple[str, ...], packed: dict[int, int], den: int = 1) -> Poly:
        """Wrap canonical variables, numerators and their lowest-terms denominator."""
        p = object.__new__(cls)
        p.vars = variables
        p._packed = packed
        p._den = den
        p._tuples = None
        p._plan = None
        return p

    @property
    def terms(self) -> Mapping[Exponents, Scalar]:
        return MappingProxyType(self._tuple_terms())

    def _tuple_terms(self) -> dict[Exponents, Scalar]:
        if self._tuples is None:
            n = len(self.vars)
            den = self._den
            self._tuples = {_unpack(k, n): c if den == 1 else _coeff(c, den)
                            for k, c in self._packed.items()}
        return self._tuples

    # ---------------------------------------------------------------- builders

    @classmethod
    def zero(cls, variables: Iterable[str] = ()) -> Poly:
        return cls._make(_canonical(variables), {})

    @classmethod
    def const(cls, value: Scalar, variables: Iterable[str] = ()) -> Poly:
        vs = _canonical(variables)
        num, den = _num_den(value)
        return cls._make(vs, {0: num}, den) if num else cls._make(vs, {})

    @classmethod
    def variable(cls, name: str, variables: Iterable[str] | None = None) -> Poly:
        vs = _canonical(variables if variables is not None else (name,))
        if name not in vs:
            raise ValueError(f"{name} not among {vs}")
        return cls._make(vs, {1 << (FIELD_BITS * vs.index(name)): 1})

    # ------------------------------------------------------------- inspection

    def is_zero(self) -> bool:
        return not self._packed

    def degree(self, var: str) -> int:
        """Largest exponent of ``var`` (0 if absent or zero polynomial)."""
        if var not in self.vars:
            return 0
        shift = FIELD_BITS * self.vars.index(var)
        return max(((k >> shift) & _FIELD for k in self._packed), default=0)

    def uses(self, var: str) -> bool:
        if var not in self.vars:
            return False
        mask = _FIELD << (FIELD_BITS * self.vars.index(var))
        return any(k & mask for k in self._packed)

    def sorted_terms(self) -> list[tuple[Exponents, Scalar]]:
        """Terms in canonical graded-lexicographic order."""
        n, den = len(self.vars), self._den
        return sorted(((_unpack(k, n), _coeff(c, den)) for k, c in self._packed.items()),
                      key=lambda kv: (sum(kv[0]), kv[0]))

    # ------------------------------------------------------------ arithmetic

    def embed(self, variables: Iterable[str]) -> Poly:
        """Reindex into a superset variable list (canonical order required)."""
        vs = tuple(variables)
        if vs == self.vars:
            return self
        vs = _canonical(vs)
        if not set(self.vars).issubset(vs):
            raise ValueError(f"cannot embed: {self.vars} not all in {vs}")
        return self._onto(vs)

    def _onto(self, vs: tuple[str, ...]) -> Poly:
        """``embed`` onto canonical ``vs`` known to hold every variable of self."""
        if vs == self.vars:
            return self
        n = len(self.vars)
        at = vs.index(self.vars[0]) if n else 0
        if vs[at:at + n] == self.vars:  # the fields move as one block, by ``at`` fields
            packed = (self._packed if not at  # none moves: share the terms
                      else {k << (FIELD_BITS * at): c for k, c in self._packed.items()})
            return Poly._make(vs, packed, self._den)
        return Poly._make(vs, _remap(self._packed, [(i, vs.index(v)) for i, v in enumerate(self.vars)]),
                          self._den)

    @staticmethod
    def _coerce(other) -> Poly | None:
        if isinstance(other, Poly):
            return other
        if isinstance(other, (int, Fraction)):
            return Poly.const(other)
        return None

    @staticmethod
    def sum(parts: Iterable[Poly]) -> Poly:
        """``parts[0] + parts[1] + ...`` (zero if empty), summed into one dict.

        Terms and term order equal the left fold's: a key that cancels
        re-enters at the end.
        """
        parts = list(parts)
        if not parts:
            return Poly.zero()
        vs = reduce(_union, [p.vars for p in parts])
        den = math.lcm(*[p._den for p in parts])
        packed = [p._onto(vs)._packed for p in parts]
        packed = [terms if p._den == den else {k: c * (den // p._den) for k, c in terms.items()}
                  for p, terms in zip(parts, packed)]
        out = dict(packed[0])
        for terms in packed[1:]:
            for k, c in terms.items():
                nc = out.get(k, 0) + c
                if nc == 0:
                    del out[k]
                else:
                    out[k] = nc
        return Poly._make(vs, *_lowest(out, den))

    def __add__(self, other) -> Poly:
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return Poly.sum((self, other))

    __radd__ = __add__

    def __neg__(self) -> Poly:
        return Poly._make(self.vars, {k: -c for k, c in self._packed.items()}, self._den)

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
            num, den = _num_den(other)
            if num == 0:
                return Poly._make(self.vars, {})
            return Poly._make(self.vars, *_lowest({k: c * num for k, c in self._packed.items()},
                                                  self._den * den))
        if not isinstance(other, Poly):
            return NotImplemented
        vs = _union(self.vars, other.vars)
        a, b = self._onto(vs), other._onto(vs)
        if len(b._packed) > len(a._packed):
            a, b = b, a
        out = _product_loop(a._packed, b._packed)
        _check_guards(out, len(vs))
        return Poly._make(vs, *_lowest(_reduce_markers(vs, out), a._den * b._den))

    __rmul__ = __mul__

    def __pow__(self, n: int) -> Poly:
        if not isinstance(n, int) or n < 0:
            raise ValueError("polynomial powers must be nonnegative integers")
        result, base = None, self
        while n:
            if n & 1:
                result = base if result is None else result * base
            base = base * base if n > 1 else base
            n >>= 1
        return Poly.const(1, self.vars) if result is None else result

    def __eq__(self, other) -> bool:
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        vs = _union(self.vars, other.vars)
        a, b = self._onto(vs), other._onto(vs)
        return a._den == b._den and a._packed == b._packed

    def __hash__(self):
        # Equality embeds both sides first, so hash only what survives an
        # embedding: the denominator and each monomial as its (variable,
        # exponent > 0) pairs.  A constant hashes as its coefficient, since
        # Poly.const(c) == c.
        if self._packed.keys() <= {0}:
            return hash(_coeff(self._packed.get(0, 0), self._den))
        n = len(self.vars)
        return hash((self._den, frozenset(
            (tuple((v, e) for v, e in zip(self.vars, _unpack(k, n)) if e), c)
            for k, c in self._packed.items())))

    # ------------------------------------------------------- structural ops

    def rename(self, mapping: Mapping[str, str]) -> Poly:
        """Rename variables (result reordered canonically)."""
        new_names = [mapping.get(v, v) for v in self.vars]
        if len(set(new_names)) != len(new_names):
            raise ValueError("rename would collide variables")
        order = sorted(range(len(new_names)), key=lambda i: var_sort_key(new_names[i]))
        vs = _canonical(new_names[i] for i in order)
        return Poly._make(vs, _remap(self._packed, ((i, j) for j, i in enumerate(order))),
                          self._den)

    def drop_vars(self, names: Iterable[str]) -> Poly:
        """Remove variables that carry no exponent anywhere."""
        names = set(names)
        for nm in names:
            if self.uses(nm):
                raise ValueError(f"cannot drop used variable {nm}")
        keep = [i for i, v in enumerate(self.vars) if v not in names]
        vs = _canonical(self.vars[i] for i in keep)
        return Poly._make(vs, _remap(self._packed, ((i, j) for j, i in enumerate(keep))),
                          self._den)

    def subs(self, name: str, replacement: Poly | Scalar) -> Poly:
        """Substitute a polynomial (or constant) for one variable (xk only without sk)."""
        if name not in self.vars:
            return self
        if isinstance(replacement, (int, Fraction)):
            replacement = Poly.const(replacement)
        zero = Poly.zero(v for v in self.vars if v != name)  # refuses xk beside sk
        at = FIELD_BITS * self.vars.index(name)
        groups: dict[int, dict[int, int]] = {}
        for k, c in self._packed.items():
            e = (k >> at) & _FIELD
            groups.setdefault(e, {})[k - (e << at)] = c
        return Poly.sum([zero] + [
            Poly._make(self.vars, *_lowest(groups[e], self._den)).drop_vars((name,))
            * (replacement ** e if e else Poly.const(1)) for e in sorted(groups)])

    def coeff_of(self, var: str, power: int) -> Poly:
        """The coefficient of ``var**power`` as a polynomial in the rest (xk only without sk)."""
        if var not in self.vars:
            return self if power == 0 else Poly.zero(self.vars)
        return self.band(var, power, power + 1, -power).drop_vars((var,))

    def band(self, var: str, lo: int, hi: int, shift: int = 0) -> Poly:
        """The terms whose exponent e of ``var`` has lo <= e < hi, each moved to e + shift."""
        if not -max(lo, 0) <= shift <= MAX_DEGREE or shift and var not in self.vars:
            raise ValueError(f"cannot move exponents of {var} from [{lo}, {hi}) by {shift}")
        if var not in self.vars:
            return self if lo <= 0 < hi else Poly.zero(self.vars)
        at = FIELD_BITS * self.vars.index(var)
        move = shift << at
        out = {k + move: c for k, c in self._packed.items() if lo <= (k >> at) & _FIELD < hi}
        if shift > 0:
            _check_guards(out, len(self.vars))
        return Poly._make(self.vars, *_lowest(out, self._den))

    # -------------------------------------------------------------- evaluation

    def eval(self, assignment: Mapping[str, object]):
        """Evaluate at a point (Horner accumulation, one variable at a time).

        The Horner plan is built on the first call and kept on the instance; each
        call walks it with the same multiplies and adds in the same order, so a
        float result is the same to the bit.  Each power v ** d (d > 1) the plan
        needs is made once per call, before the walk.  Exact inputs give an exact
        value; any float input gives a float.  Raises MissingAssignment if a variable
        with a nonzero exponent has no value.
        """
        if not self._packed:
            return 0
        if self._plan is None:
            slots: dict[tuple[int, int], int] = {}  # (vi, d) -> its index in the walk's pw
            self._plan = _horner_plan(list(self.terms.items()), 0, len(self.vars), slots), tuple(slots)
        plan, extra = self._plan
        if not self.vars:
            return plan
        pw = [assignment.get(v) for v in self.vars]  # pw[vi] is None: no value
        if extra:
            pw += [None if (x := pw[vi]) is None else x ** d for vi, d in extra]
        return _horner(plan, pw, 0, self.vars)

    def eval_grid(self, arrays: Mapping[str, object], powers: dict | None = None):
        """Vectorized float evaluation over numpy arrays (one per used variable).

        Each power is ``np.asarray(arrays[v], dtype=float) ** e`` in powers[v][e]; a batch
        of calls over the same arrays may share ``powers``, with every expression and its
        order unchanged.  A row made for other arrays (powers[v][1] is not the array) is
        replaced, so a table passed on to new arrays is never read stale.
        """
        import numpy as np

        powers = {} if powers is None else powers
        shape: tuple = ()
        for idx, v in enumerate(self.vars):
            if not self.uses(v):
                continue
            if v not in arrays:
                raise MissingAssignment(f"no array for variable {v}")
            arr = np.asarray(arrays[v], dtype=float)
            shape = np.broadcast_shapes(shape, arr.shape)
            pw = powers.get(v)
            if pw is None or pw[1] is not arr:
                pw = powers[v] = {1: arr}
            for e in {exps[idx] for exps in self.terms if exps[idx] > 1} - pw.keys():
                pw[e] = arr ** e
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
        if not self._packed:
            return "0"
        parts = []
        for exps, c in self.sorted_terms():
            piece = [exact_str(Fraction(c))]
            for v, e in zip(self.vars, exps):
                if e == 1:
                    piece.append(v)
                elif e > 1:
                    piece.append(f"{v}^{e}")
            parts.append(" * ".join(piece))
        return " + ".join(parts)

    def to_json_dict(self) -> dict:
        terms = [{"coeff": "/".join(map(exact_str, _num_den(c))), "exps": list(exps)}
                 for exps, c in self.sorted_terms()]
        return {"vars": list(self.vars), "terms": terms}

    @classmethod
    def from_json_dict(cls, data: Mapping) -> Poly:
        vs = tuple(data["vars"])
        terms = {tuple(t["exps"]): Fraction(t["coeff"]) for t in data["terms"]}
        return cls(vs, terms)

    def __repr__(self) -> str:
        return f"Poly({self.render()})"


def _horner_plan(items: list[tuple[Exponents, Scalar]], vi: int, nvars: int, slots: dict):
    """(head, ((k, plan), ...), tail): ``items`` grouped by variable vi's exponent.

    head is the top group's plan, each step lowers the exponent by d to the next
    group's, and tail (None for exponent 0) is the lowest; past the last variable,
    the coefficient.  A step or tail multiplies by pw[k], the power d of variable
    vi: k is vi for d = 1, else slots[(vi, d)], numbered from nvars on.
    """
    if vi == nvars:
        return items[0][1]
    es = sorted({exps[vi] for exps, _ in items}, reverse=True)
    subs = [_horner_plan([t for t in items if t[0][vi] == e], vi + 1, nvars, slots) for e in es]
    k = lambda d: vi if d == 1 else slots.setdefault((vi, d), nvars + len(slots))
    return subs[0], tuple((k(a - b), s) for a, b, s in zip(es, es[1:], subs[1:])), \
        k(es[-1]) if es[-1] else None


def _horner(plan, pw: list, vi: int, names: tuple[str, ...]):
    """A plan's value from variable ``vi`` on; pw[vi] is its value (None: no value)."""
    head, steps, tail = plan
    last = vi + 1 == len(names)
    if pw[vi] is None:
        if steps or tail is not None:
            raise MissingAssignment(f"no value for variable {names[vi]}")
        return head if last else _horner(head, pw, vi + 1, names)
    if last:  # the groups are coefficients
        acc = head
        for k, c in steps:
            acc = acc * pw[k] + c
    else:
        acc = _horner(head, pw, vi + 1, names)
        for k, sub in steps:
            acc = acc * pw[k] + _horner(sub, pw, vi + 1, names)
    return acc if tail is None else acc * pw[tail]


def _product_loop(a: dict[int, int], b: dict[int, int]) -> dict[int, int]:
    """The terms of a product of integer coefficients, before marker reduction.

    ``b``'s terms run outside, ``a``'s inside; a key enters the result at its
    first product and is deleted whenever its running sum reaches zero.
    """
    a_items = list(a.items())
    out: dict[int, int] = {}
    get = out.get
    for kb, cb in b.items():
        for ka, ca in a_items:
            k = ka + kb
            c = get(k)
            if c is None:
                out[k] = ca * cb
            else:
                c = c + ca * cb
                if c == 0:
                    del out[k]
                else:
                    out[k] = c
    return out


def _reduce_markers(variables: tuple[str, ...], terms: dict[int, int]) -> dict[int, int]:
    """Rewrite sk**e with e >= 2 via sk**2 = 1 - xk**2 until all marker exponents are 0/1."""
    # (marker field shift, partner field shift) per sk; a canonical tuple holds each partner.
    pairs = [(FIELD_BITS * i, FIELD_BITS * variables.index("x" + v[1:]))
             for i, v in enumerate(variables) if v[0] == "s"]
    if not pairs:
        return terms
    # The bits of a marker field above its lowest are set iff its exponent is >= 2.
    high = sum((_FIELD - 1) << sshift for sshift, _ in pairs)
    if not reduce(or_, terms, 0) & high:
        return terms
    out: dict[int, int] = {}
    stack = list(terms.items())
    while stack:
        key, c = stack.pop()
        if key & high:
            for sshift, xshift in pairs:  # the first marker whose exponent is >= 2
                half = ((key >> sshift) & _FIELD) >> 1
                if half:
                    break
            base = key - ((2 * half) << sshift)
            # (1 - x^2)^half expanded binomially
            for t in range(half + 1):
                stack.append((base + ((2 * t) << xshift), c * math.comb(half, t) * (-1) ** t))
        else:
            nc = out.get(key, 0) + c
            if nc == 0:
                out.pop(key, None)
            else:
                out[key] = nc
    _check_guards(out, len(variables))
    return out
