"""In-memory span tracer that wraps chebsum's public functions from outside.

``Tracer.install`` replaces every binding of a traced function across the
loaded ``chebsum`` modules (including names bound by ``from .denom import
build_w`` in other modules) and the traced ``Poly`` methods with a wrapper
that records a span.  ``uninstall`` restores the originals.  The program's
sources are never edited.

A span is (name, start, end, parent, op id).  Self time is a span's duration
minus the durations of its direct children; it is accumulated per name while
the spans are recorded, so the per-layer self times of a pass telescope to
the wall time of the pass's root span.  Spans stay in memory and are written
once, by ``dump``, when the benchmark ends.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import defaultdict
from fractions import Fraction

# Only the first MAX_SPANS spans are kept for the dump; the per-name totals
# count every span.
MAX_SPANS = 200_000


def _poly_mul_counter(tracer: "Tracer", args, result) -> None:
    from chebsum.poly import Poly

    if not isinstance(result, Poly):
        return
    a, b = args
    na = len(a.terms)
    if isinstance(b, Poly):
        nb = len(b.terms)
        frac = _has_fraction(a) or _has_fraction(b)
    else:
        nb = 0 if b == 0 else 1
        frac = _has_fraction(a) or isinstance(b, Fraction)
    products = na * nb
    c = tracer.counters
    c["poly.mul.term_products"] += products
    if frac:
        c["poly.mul.fraction_products"] += products


def _has_fraction(p) -> bool:
    return any(type(c) is Fraction for c in p.terms.values())


def _terms_counter(key: str):
    def count(tracer: "Tracer", args, result) -> None:
        tracer.counters[key] += len(result.terms)
    return count


def _points_counter(key: str):
    def count(tracer: "Tracer", args, result) -> None:
        tracer.counters[key] += getattr(result, "size", 1)
    return count


# (module, attribute or Class.method, layer name, counter hook)
TARGETS = [
    ("poly", "Poly.__mul__", "poly.mul", _poly_mul_counter),
    ("poly", "Poly.__rmul__", "poly.mul", _poly_mul_counter),
    ("poly", "Poly.__add__", "poly.add", None),
    ("poly", "Poly.__radd__", "poly.add", None),
    ("poly", "Poly.subs", "poly.subs", None),
    ("poly", "Poly.eval", "poly.eval", None),
    ("poly", "Poly.eval_grid", "poly.eval_grid", None),
    ("cheb", "cheb_seq", "cheb.seq", None),
    ("cheb", "cheb_seq_grid", "cheb.seq", None),
    ("cheb", "cheb_values_row", "cheb.seq", None),
    ("cheb", "cheb_poly", "cheb.cheb_poly", None),
    ("cheb", "multi_trig_sum", "cheb.multi_trig_sum", None),
    ("denom", "build_w", "denom.build_w", None),
    ("denom", "build_w_recursive", "denom.build_w_recursive", None),
    ("denom", "w_rho_coeff_polys", "denom.w_rho_coeff_polys", None),
    ("denom", "w_specialize_one", "denom.w_specialize_one", None),
    ("denom", "w_shifted", "denom.w_shifted", None),
    ("genfun", "numerator_l", "genfun.numerator_l",
     _terms_counter("genfun.numerator_l.terms")),
    ("genfun", "series_convolution_residual", "genfun.series_convolution_residual", None),
    ("genfun", "chi_closed_value", "genfun.chi_closed_value", None),
    ("genfun", "chi_closed_values_grid", "genfun.chi_closed_values_grid",
     _points_counter("genfun.closed_grid.points")),
    ("genfun", "chi_series_oracle_grid", "genfun.chi_series_oracle_grid", None),
    ("genfun", "chi_angle_eval", "genfun.chi_angle_eval", None),
    ("forms", "compare_form", "forms.compare_form", None),
    ("kibble", "kibble_closed_eval", "kibble.kibble_closed_eval", None),
    ("kibble", "kibble_series_oracle", "kibble.kibble_series_oracle", None),
    ("qseries", "hb_poly", "qseries.hb_poly", None),
    ("qseries", "d_coeff", "qseries.d_coeff", None),
    ("qseries", "d2_coeff", "qseries.d2_coeff", None),
    ("qseries", "tn_construct", "qseries.tn_construct", None),
    ("qseries", "idb_check", "qseries.idb_check", None),
    ("qseries", "ft_inner_product", "qseries.ft_inner_product", None),
    ("qseries", "conjecture_probe", "qseries.conjecture_probe", None),
]


class Tracer:
    """Records spans and per-name call counts, self and total times."""

    def __init__(self):
        self.t0 = time.perf_counter()
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.spans: list[tuple] = []
        self.dropped = 0
        self.stats: dict[str, list] = {}   # name -> [calls, self_s, total_s]
        self.counters: dict[str, float] = defaultdict(float)
        self.paused_calls: dict[str, int] = defaultdict(int)
        self._stack: list[list] = []       # [name, start, child_s, span index]
        self._op = 0
        self._patched: list[tuple] = []
        self.active = True

    # ------------------------------------------------------------ spans

    def enter(self, name: str, new_op: bool = False) -> None:
        if new_op:
            self._op += 1
        parent = self._stack[-1][3] if self._stack else -1
        idx = -1
        start = time.perf_counter()
        if len(self.spans) < MAX_SPANS:
            idx = len(self.spans)
            nid = self._name_ids.get(name)
            if nid is None:
                nid = self._name_ids[name] = len(self.names)
                self.names.append(name)
            self.spans.append([nid, start - self.t0, 0.0, parent, self._op])
        else:
            self.dropped += 1
        self._stack.append([name, start, 0.0, idx])

    def exit(self) -> float:
        end = time.perf_counter()
        name, start, child_s, idx = self._stack.pop()
        dur = end - start
        if idx >= 0:
            self.spans[idx][2] = end - self.t0
        st = self.stats.get(name)
        if st is None:
            st = self.stats[name] = [0, 0.0, 0.0]
        st[0] += 1
        st[1] += dur - child_s
        st[2] += dur
        if self._stack:
            self._stack[-1][2] += dur
        return dur

    def paused(self) -> "_Paused":
        """Context in which wrapped functions run without recording spans."""
        return _Paused(self)

    # ---------------------------------------------------------- patching

    def wrap(self, name: str, fn, count=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                tracer.paused_calls[name] += 1
                return fn(*args, **kwargs)
            tracer.enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.exit()
            if count is not None:
                count(tracer, args, result)
            return result

        traced._perfbench_orig = fn
        return traced

    def install(self, targets=TARGETS) -> None:
        """Wrap every target and rebind it wherever chebsum modules hold it."""
        for mod_name, attr, layer, count in targets:
            mod = sys.modules[f"chebsum.{mod_name}"]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(mod, cls_name)
                orig = cls.__dict__[meth]
                setattr(cls, meth, self.wrap(layer, orig, count))
                self._patched.append((cls, meth, orig))
                continue
            orig = getattr(mod, attr)
            wrapped = self.wrap(layer, orig, count)
            for mname, m in list(sys.modules.items()):
                if mname != "chebsum" and not mname.startswith("chebsum."):
                    continue
                for key, val in list(vars(m).items()):
                    if val is orig:
                        setattr(m, key, wrapped)
                        self._patched.append((m, key, orig))

    def uninstall(self) -> None:
        for owner, key, orig in reversed(self._patched):
            setattr(owner, key, orig)
        self._patched.clear()

    # ----------------------------------------------------------- results

    def self_s(self, name: str) -> float:
        st = self.stats.get(name)
        return st[1] if st else 0.0

    def calls(self, name: str) -> int:
        st = self.stats.get(name)
        return st[0] if st else 0

    def dump(self, path) -> None:
        data = {"names": self.names, "dropped": self.dropped,
                "fields": ["name", "start_s", "end_s", "parent", "op"],
                "spans": self.spans}
        with open(path, "w") as fh:
            json.dump(data, fh, separators=(",", ":"))


class _Paused:
    __slots__ = ("tracer", "was")

    def __init__(self, tracer):
        self.tracer = tracer

    def __enter__(self):
        self.was = self.tracer.active
        self.tracer.active = False
        return self

    def __exit__(self, *exc):
        self.tracer.active = self.was
        return False
