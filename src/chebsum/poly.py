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
result (or over the factors' keys) turns into a ``ScaleError``; exponents
never wrap.  The layout is private to this module.  ``Poly.terms`` is a
read-only view keyed by exponent tuples (aligned with ``vars``) in the
packed dict's insertion order; the tuple keys and their coefficients are
made once per polynomial, on first use, and kept on it.

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
from bisect import insort
from collections.abc import Mapping
from fractions import Fraction
from functools import reduce
from operator import ge, or_
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
    keys = list(map(var_sort_key, vs))
    if any(map(ge, keys, keys[1:])):
        raise ValueError(f"variables not strictly in canonical order: {vs}")
    for v in vs:
        if v[0] == "s" and "x" + v[1:] not in vs:
            raise MarkerError(f"marker {v} lacks partner x{v[1:]} in {vs}")
    return vs


def _union(a: tuple[str, ...], b: tuple[str, ...]) -> tuple[str, ...]:
    """The canonical union of two canonical variable tuples: b's new names merged into a."""
    if a == b or not (new := [v for v in b if v not in a]):
        return a
    if len(a) + len(new) == len(b):  # b holds a
        return b
    out = list(a)
    for v in new:
        insort(out, v, key=var_sort_key)
    return tuple(out)


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
    return tuple([(key >> (FIELD_BITS * i)) & _FIELD for i in range(n)])


def _fields(bit: int, n: int) -> int:
    """The mask with ``bit`` set in each of n fields."""
    return bit * (((1 << (FIELD_BITS * n)) - 1) // _FIELD)


def _check_guards(packed: dict[int, Scalar], n: int) -> None:
    """Raise ScaleError if any exponent of any key reached EXP_LIMIT."""
    if reduce(or_, packed, 0) & _fields(EXP_LIMIT, n):
        raise ScaleError(f"an exponent reached the supported limit {EXP_LIMIT}")


# _remap moves the keys of a dict this small one at a time, a larger one a mask at a time.
# Measured crossovers (Python 3.11, x86-64): about 9 keys for one distance, 20-24 for two
# or three.
REMAP_LOOP_KEYS = 16


def _remap(packed: dict[int, Scalar], moves: Iterable[tuple[int, int]]) -> dict[int, Scalar]:
    """Move exponent fields by (source index, target index) pairs, keeping order; fields that
    no pair names are dropped, and the fields that move by one distance share one mask."""
    masks: dict[int, int] = {}  # bit shift -> the fields that move by it
    for src, dst in moves:
        d = FIELD_BITS * (dst - src)
        masks[d] = masks.get(d, 0) | _FIELD << (FIELD_BITS * src)
    shifts = list(masks.items())
    if len(packed) < REMAP_LOOP_KEYS:
        out = {}
        for k, c in packed.items():
            new = 0
            for d, mask in shifts:
                new |= (k & mask) << d if d >= 0 else (k & mask) >> -d
            out[new] = c
        return out
    keys, new = list(packed), None
    for d, mask in shifts:
        moved = [(k & mask) << d for k in keys] if d >= 0 else [(k & mask) >> -d for k in keys]
        new = moved if new is None else list(map(or_, new, moved))
    return dict(zip(new or [0] * len(keys), packed.values()))


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
        if self._tuples is None:
            n, den = len(self.vars), self._den
            self._tuples = {_unpack(k, n): c if den == 1 else _coeff(c, den)
                            for k, c in self._packed.items()}
        return MappingProxyType(self._tuples)

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

    def numerators(self) -> tuple[dict[Exponents, int], int]:
        """({exponents: int numerator}, denominator): the terms over their one lowest-terms
        denominator, in ``terms`` order; the dict is the caller's own."""
        n = len(self.vars)
        return {_unpack(k, n): c for k, c in self._packed.items()}, self._den

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
        return Poly._make(vs, self._packed_on(vs), self._den)

    def _packed_on(self, vs: tuple[str, ...]) -> dict[int, int]:
        """The numerators keyed on canonical ``vs``, which holds every variable of self."""
        own = self.vars
        if vs == own:
            return self._packed
        at = vs.index(own[0]) if own else 0
        if vs[at:at + len(own)] == own:  # the fields move as one block, by ``at`` fields
            return (self._packed if not at  # none moves: share the terms
                    else {k << (FIELD_BITS * at): c for k, c in self._packed.items()})
        return _remap(self._packed, enumerate(map(vs.index, own)))

    @staticmethod
    def _coerce(other) -> Poly | None:
        if isinstance(other, Poly):
            return other
        if isinstance(other, (int, Fraction)):
            return Poly._make((), {0: other.numerator} if other else {}, other.denominator)

    @staticmethod
    def sum(parts: Iterable[Poly]) -> Poly:
        """``parts[0] + parts[1] + ...`` (zero if empty), summed into one dict.

        Terms and term order equal the left fold's: a key that cancels
        re-enters at the end.
        """
        parts = list(parts)
        vs, den = (), 1
        for p in parts:
            vs = _union(vs, p.vars)
            den = den if p._den == den else math.lcm(den, p._den)
        packed = [p._packed_on(vs) if p._den == den
                  else {k: c * (den // p._den) for k, c in p._packed_on(vs).items()} for p in parts]
        out = dict(packed[0]) if packed else {}
        get = out.get
        for terms in packed[1:]:
            for k, c in terms.items():
                nc = get(k, 0) + c
                if nc == 0:
                    del out[k]
                else:
                    out[k] = nc
        return Poly._make(vs, *_lowest(out, den))

    def __add__(self, other) -> Poly:
        other = self._coerce(other)
        return NotImplemented if other is None else Poly.sum((self, other))

    __radd__ = __add__

    def __neg__(self) -> Poly:
        return Poly._make(self.vars, {k: -c for k, c in self._packed.items()}, self._den)

    def __sub__(self, other) -> Poly:
        other = self._coerce(other)
        return NotImplemented if other is None else self + (-other)

    def __rsub__(self, other) -> Poly:
        other = self._coerce(other)
        return NotImplemented if other is None else other + (-self)

    def __mul__(self, other) -> Poly:
        if not isinstance(other, Poly):
            if not isinstance(other, (int, Fraction)):
                return NotImplemented
            num = other.numerator
            return Poly._make(self.vars, *_lowest({k: c * num for k, c in self._packed.items()}
                                                  if num else {}, self._den * other.denominator))
        vs = _union(self.vars, other.vars)
        a, b = self._packed_on(vs), other._packed_on(vs)
        if len(b) > len(a):
            a, b = b, a
        out = _product_loop(a, b)
        # A product longer than its factors is scanned only if a factor's exponent
        # reaches EXP_LIMIT / 2: exponents below that sum below EXP_LIMIT.
        if len(out) <= len(a) + len(b) or (
                (reduce(or_, a, 0) | reduce(or_, b, 0)) & _fields(EXP_LIMIT >> 1, len(vs))):
            _check_guards(out, len(vs))
        return Poly._make(vs, *_lowest(_reduce_markers(vs, out), self._den * other._den))

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
        return Poly._make(self.vars, {0: 1}) if result is None else result

    def __eq__(self, other) -> bool:
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        vs = _union(self.vars, other.vars)
        return self._den == other._den and self._packed_on(vs) == other._packed_on(vs)

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
        new_names = [mapping.get(v, v) for v in self.vars]  # _canonical refuses a collision
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

    def coeffs(self, var: str) -> tuple[Poly, ...]:
        """The coefficients of ``var**0 .. var**degree`` as polynomials in the other
        variables, each in ``terms`` order, grouped in one pass (xk only without sk)."""
        if var not in self.vars:
            return (self,)
        i = self.vars.index(var)
        rest = _canonical(self.vars[:i] + self.vars[i + 1:])  # refuses xk beside sk
        at, low = FIELD_BITS * i, (1 << (FIELD_BITS * i)) - 1
        groups: dict[int, dict[int, int]] = {}
        for k, c in self._packed.items():
            groups.setdefault((k >> at) & _FIELD, {})[(k >> FIELD_BITS) & ~low | k & low] = c
        return tuple(Poly._make(rest, *_lowest(groups.get(e, {}), self._den))
                     for e in range(max(groups, default=0) + 1))

    def subs(self, name: str, replacement: Poly | Scalar) -> Poly:
        """Substitute a polynomial (or constant) for one variable (xk only without sk)."""
        if name not in self.vars:
            return self
        parts, replacement = self.coeffs(name), self._coerce(replacement)
        return Poly.sum(parts[:1] + tuple(c * replacement ** e
                                          for e, c in enumerate(parts) if e and not c.is_zero()))

    def coeff_of(self, var: str, power: int) -> Poly:
        """The coefficient of ``var**power`` as a polynomial in the rest (xk only without sk)."""
        parts = self.coeffs(var)
        return parts[power] if 0 <= power < len(parts) else Poly._make(parts[0].vars, {})

    def band(self, var: str, lo: int, hi: int, shift: int = 0) -> Poly:
        """The terms whose exponent e of ``var`` has lo <= e < hi, each moved to e + shift
        (a marker moved past 1 is reduced, as after a product)."""
        if not -max(lo, 0) <= shift <= MAX_DEGREE or shift and var not in self.vars:
            raise ValueError(f"cannot move exponents of {var} from [{lo}, {hi}) by {shift}")
        if var not in self.vars:
            return self if lo <= 0 < hi else Poly._make(self.vars, {})
        at = FIELD_BITS * self.vars.index(var)
        move = shift << at
        out = {k + move: c for k, c in self._packed.items() if lo <= (k >> at) & _FIELD < hi}
        if shift > 0:  # a marker moved to sk^2 or above reduces by sk^2 = 1 - xk^2
            _check_guards(out, len(self.vars))
            out = _reduce_markers(self.vars, out)
        return Poly._make(self.vars, *_lowest(out, self._den))

    # -------------------------------------------------------------- evaluation

    def eval(self, assignment: Mapping[str, object]):
        """Evaluate at a point (Horner accumulation, one variable at a time).

        The first call compiles the Horner plan into one straight-line function of the
        variable values, kept on the instance; every call runs it with the same multiplies
        and adds in the same order, so a float result is the same to the bit.  The plan
        makes each power v ** d (d > 1) it needs once per call, after its missing-value
        checks.  Exact inputs give an exact value; any float input gives a float.  Raises
        MissingAssignment if a variable with a nonzero exponent has no value, and ScaleError
        where a float evaluation leaves the float range (a coefficient or power past it).
        """
        if not self._packed:
            return 0
        if self._plan is None:
            self._plan = _compile_plan(list(self.terms.items()), self.vars)
        try:
            return self._plan(*[assignment.get(v) for v in self.vars])  # None: no value
        except OverflowError:
            raise ScaleError(f"a float evaluation left the float range (|v| <= "
                             f"{sys.float_info.max:.4g})") from None

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
        return cls(data["vars"], {tuple(t["exps"]): Fraction(t["coeff"]) for t in data["terms"]})

    def __repr__(self) -> str:
        return f"Poly({self.render()})"


def _compile_plan(items: list[tuple[Exponents, Scalar]], names: tuple[str, ...]):
    """The Horner accumulation of ``items`` as one straight-line function of ``names``' values.

    Level vi groups its terms by variable vi's exponent, top first: its sum starts at the top
    group's value, each step multiplies it by the power that lowers the exponent to the next
    group's and adds that group's value, and the lowest exponent is a last multiply; each step
    is a new name, never reassigned.  The plan takes the values as a0, a1, ...; first it raises
    MissingAssignment for a used variable without a value, in the order the levels meet them,
    then makes each power v ** d it reads, once.  No name from the polynomial enters the code.
    """
    nvars, powers, consts, checks, lines = len(names), {}, {}, {}, []
    arg = lambda vi, d: f"a{vi}" if d == 1 else powers.setdefault((vi, d), f"p{vi}_{d}")

    def value(items, vi: int) -> str:
        """The expression of a group's value, after the lines that it reads."""
        if vi == nvars:
            c = items[0][1]
            if type(c) is int:
                return hex(c)  # a hex literal has no digit limit
            consts[f"c{len(consts)}"] = c
            return f"c{len(consts) - 1}"
        es = sorted({exps[vi] for exps, _ in items}, reverse=True)
        groups = [[t for t in items if t[0][vi] == e] for e in es]
        if es == [0]:
            return value(groups[0], vi + 1)
        checks.setdefault(vi)
        acc = value(groups[0], vi + 1)
        for a, b, group in zip(es, es[1:], groups[1:]):
            sub = value(group, vi + 1)
            lines.append(f"s{len(lines)} = {acc} * {arg(vi, a - b)} + {sub}")
            acc = f"s{len(lines) - 1}"
        return f"{acc} * {arg(vi, es[-1])}" if es[-1] else acc

    result = value(items, 0)
    source = "\n    ".join([f"def plan({', '.join(f'a{i}' for i in range(nvars))}):"]
                          + [f"if a{vi} is None: raise missing({vi})" for vi in checks]
                          + [f"{p} = a{vi} ** {d}" for (vi, d), p in powers.items()]
                          + lines + [f"return {result}"])
    namespace = {"missing": lambda vi: MissingAssignment(f"no value for variable {names[vi]}"),
                 **consts}
    exec(compile(source, "<Poly plan>", "exec"), namespace)
    return namespace["plan"]


def _product_loop(a: dict[int, int], b: dict[int, int]) -> dict[int, int]:
    """The terms of a product of integer coefficients, before marker reduction.

    ``b``'s terms run outside, ``a``'s inside; a key enters the result at its
    first product and is deleted whenever its running sum reaches zero.  The
    first row of b meets an empty result, so its keys are all new.
    """
    rows = iter(b.items())
    kb, cb = next(rows, (0, 0))
    a_items = list(a.items())
    out = {ka + kb: ca * cb for ka, ca in a_items} if cb else {}
    get = out.get
    for kb, cb in rows:
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
    if "|s" not in "|".join(("",) + variables):  # no name starts with s: no marker
        return terms
    # (marker field shift, partner field shift) per sk; a canonical tuple holds each partner.
    pairs = [(FIELD_BITS * i, FIELD_BITS * variables.index("x" + v[1:]))
             for i, v in enumerate(variables) if v[0] == "s"]
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
