"""The four benchmark workloads and the recorder that times and checks them.

Each workload builds its inputs from the seed alone and exposes
``run_pass(rec)``, which makes every call into the program through
``rec.op`` (timed as one unit operation) and every correctness check
through ``rec.verify`` (timed as reference work, kept out of the pass's wall
time).  Program functions are always looked up as module attributes at call
time, so the tracer's rebinding reaches them.

Why these four: each puts most of its work on one layer and little on the
others, so a change to one layer shows on one workload and not on another.

* closed-forms: cold caches, exact integer-coefficient construction of w_n
  and numerators; almost all time is ``Poly.__mul__``, no float layer runs.
* float-eval: warm caches, float evaluation (closed form, series oracle,
  angle form, Kibble sums); ``Poly.__mul__`` does no work.  Its corner slice
  carries the known float defect near |x| -> 1, |rho| -> 1 and reports it.
* q-exact: the same ``Poly`` layer on small polynomials with ``Fraction``
  coefficients and sine markers.
* verify-all: ``chebsum verify all`` as a fresh process with two workers,
  the user's time to a verdict, and the only workload that runs the
  campaign, CLI and process-pool layers.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import random
import resource
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

from chebsum import cheb, denom, forms, genfun, kibble, qseries
from harness import SUITES

FAILED = object()  # stands in for the result of an operation that raised


def canonical(obj) -> bytes:
    return json.dumps(obj, sort_keys=True, separators=(",", ":")).encode()


def sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def poly_digest(p) -> str:
    return sha(canonical(p.to_json_dict()))


def lru_caches() -> dict:
    """The program's lru caches that cold workloads clear, by traced name."""
    found = {
        "build_w": denom.build_w,
        "build_w_recursive": denom.build_w_recursive,
        "w_rho_coeff_polys": denom.w_rho_coeff_polys,
        "cheb_poly": getattr(cheb, "_cheb_poly_cached", None),
        "numerator_l": getattr(genfun, "_numerator_cached", None),
    }
    return {k: getattr(v, "_perfbench_orig", v) for k, v in found.items()
            if hasattr(getattr(v, "_perfbench_orig", v), "cache_info")}


def clear_caches() -> None:
    for c in lru_caches().values():
        c.cache_clear()


def cache_counts() -> dict:
    return {k: (c.cache_info().hits, c.cache_info().misses)
            for k, c in lru_caches().items()}


class Recorder:
    """One pass: op latencies, check outcomes, reference time, digests."""

    def __init__(self, tracer=None, meter=None):
        self.tracer = tracer
        self.meter = meter                  # speed.SpeedMeter, or None: no scaling
        self.latencies: list[float] = []
        self.after_sample: list[int] = []   # per op: speed samples taken before it
        self.meter_s = 0.0                  # time spent taking speed samples
        self.op_errors: list[dict] = []
        self.checks: dict[str, list[int]] = {}   # group -> [attempted, failed]
        self.failures: list[dict] = []
        self.known_failed = 0
        self.reference_s = 0.0
        self.digests: dict[str, str] = {}
        self.cache_delta: dict[str, list[int]] = {}   # name -> [hits, misses]
        self._cache_base: dict | None = None

    def start(self, cold: bool) -> None:
        """Begin (a cold round of) the pass; cold clears the program's caches."""
        self.bank_caches()
        if cold:
            clear_caches()
        self._cache_base = cache_counts()

    def bank_caches(self) -> None:
        """Add the cache hits and misses since the last start to the pass totals."""
        if self._cache_base is None:
            return
        now = cache_counts()
        for k, (hits, misses) in now.items():
            h0, m0 = self._cache_base[k]
            acc = self.cache_delta.setdefault(k, [0, 0])
            acc[0] += hits - h0
            acc[1] += misses - m0
        self._cache_base = now

    def op(self, name: str, fn, *args, **kwargs):
        """Time one unit operation; an exception is recorded and the pass goes on."""
        if self.meter is not None:
            t0 = time.perf_counter()
            self.after_sample.append(self.meter.due())
            self.meter_s += time.perf_counter() - t0
        tr = self.tracer
        if tr is not None:
            tr.enter("op." + name, new_op=True)
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        except Exception as exc:  # the pass must continue past a failing op
            self.op_errors.append({"op": name, "error": type(exc).__name__,
                                   "message": str(exc)[:200]})
            return FAILED
        finally:
            self.latencies.append(time.perf_counter() - t0)
            if tr is not None:
                tr.exit()

    def verify(self, group: str, fn, known_defect: bool = False, **detail) -> None:
        """Run one check as reference work; a raising check counts as failed.

        ``known_defect`` marks a check of the float closed form against an
        accurate independent path: its misses are the known float defect
        (expanded l and w evaluated in floats).  They are counted in their
        group and listed, but not in ``failed``, and do not make the run
        incorrect.
        """
        def run():
            try:
                return bool(fn()), None
            except Exception as exc:  # includes checks on a FAILED result
                return False, type(exc).__name__

        ok, error = self.reference(run)
        g = self.checks.setdefault(group, [0, 0])
        g[0] += 1
        if not ok:
            g[1] += 1
            self.known_failed += known_defect
            rec = {"group": group, **detail}
            if known_defect:
                rec["known_defect"] = True
            if error:
                rec["error"] = error
            self.failures.append(rec)

    def reference(self, fn):
        """Compute reference data outside the timed work (not a check)."""
        tr = self.tracer
        if tr is None:
            t0 = time.perf_counter()
            try:
                return fn()
            finally:
                self.reference_s += time.perf_counter() - t0
        tr.enter("check.reference")
        t0 = time.perf_counter()
        try:
            with tr.paused():
                return fn()
        finally:
            self.reference_s += time.perf_counter() - t0
            tr.exit()

    def digest(self, name: str, fn) -> None:
        def make():
            try:
                return fn()
            except Exception as exc:  # a digest of a FAILED result
                return f"error:{type(exc).__name__}"
        value = self.reference(make)
        if name in self.digests:
            before = self.digests[name]
            self.verify("determinism", lambda: value == before, check=f"repeat-{name}")
        self.digests[name] = value

    # ------------------------------------------------------------ totals

    @property
    def attempted(self) -> int:
        return len(self.latencies) + sum(a for a, _ in self.checks.values())

    @property
    def failed(self) -> int:
        """Operations that raised plus failed checks, known-defect misses aside."""
        return len(self.op_errors) + sum(f for _, f in self.checks.values()) - self.known_failed

    def scaled_latencies(self) -> list[float]:
        """Op latencies at reference speed (raw when there is no meter)."""
        if self.meter is None:
            return list(self.latencies)
        return [lat * self.meter.scale(i) for lat, i in zip(self.latencies, self.after_sample)]


class Workload:
    """Defaults: cold caches, nothing to prime, every golden digest made."""

    name = ""
    cold = True
    golden_optional: tuple[str, ...] = ()   # golden digests a --trace 0 run does not make
    scaled = True                           # times at reference speed (speed.py)

    @staticmethod
    def prime() -> None:
        pass

    @staticmethod
    def traced_step(rec: Recorder) -> dict | None:
        """Work a traced run does once, untraced, after its passes: the
        layer metrics it gives, or None when there is no such work."""
        return None


def _tag(spec) -> str:
    return f"k{spec.k}n{spec.n}t{','.join(map(str, spec.t))}"


def _shifts(rng: random.Random, count: int) -> tuple[int, ...]:
    return tuple(rng.randint(-2, 2) for _ in range(count))


# closed-forms draws each shift vector as a seeded arrangement of one fixed
# multiset per slot count: a seed changes which slot gets which shift, not
# the Chebyshev degrees the exact construction works through, so the work of
# a pass (about 10% apart between seeds with free shifts) stays the same.
SHIFT_MULTISETS = {2: (-1, 1), 3: (-1, 0, 1), 4: (-1, 0, 0, 1)}


def _arranged_shifts(rng: random.Random, count: int) -> tuple[int, ...]:
    if count == 1:
        return (rng.choice((-1, 1)),)
    t = list(SHIFT_MULTISETS[count])
    rng.shuffle(t)
    return tuple(t)


SPLITS = [(k, total - k) for total in range(1, 5) for k in range(total + 1)]
K4_SPLITS = ((0, 4), (2, 2))


# ------------------------------------------------------------ closed-forms


def form_cases() -> list[tuple[str, dict, bool]]:
    """(form id, shifts, must match exactly) over the transcription registry."""
    out = []
    for fid in forms.registry_ids():
        if fid in ("shifted_T", "shifted_U"):
            out += [(fid, {"m": m}, True) for m in range(5)]
        elif fid in ("shifted_TT", "shifted_UU", "shifted_UT"):
            # Printed two-slot displays may deviate; only their digest binds.
            out += [(fid, {"n": n, "m": m}, False) for n in range(3) for m in range(3)]
        else:
            out.append((fid, {}, True))
    return out


class ClosedForms(Workload):
    name = "closed-forms"

    def __init__(self, seed: int):
        rng = random.Random(f"closed-forms:{seed}")
        small = [(k, n) for k, n in SPLITS if k + n <= 3]
        self.small_specs = [genfun.GenSpec(k, n, _arranged_shifts(rng, k + n))
                            for k, n in small]
        # The K = 4 splits are fixed, since a (0, 4) numerator costs half as
        # much again as the others; the seed arranges their shifts.
        self.k4_specs = [genfun.GenSpec(k, n, _arranged_shifts(rng, 4))
                         for k, n in K4_SPLITS]
        # Interior points for the numeric check of every numerator.
        self.points = {}
        for spec in self.small_specs + self.k4_specs:
            self.points[spec] = [([rng.uniform(0.15, math.pi - 0.15) for _ in range(spec.slots)],
                                  rng.uniform(-0.5, 0.5)) for _ in range(3)]
        self.forms = form_cases()

    # build_w(5) is one 17 s call: a pass holding it would be one sample of
    # the host's speed drift.  Traced runs build it once, after their passes.
    golden_optional = ("w5",)

    def run_pass(self, rec: Recorder) -> None:
        # Three cold rounds of the small constructions, with the K = 4
        # numerators between them, so the small-op latencies come from three
        # moments of the pass instead of one window.
        self._small_round(rec)
        self._numerator(rec, self.k4_specs[0])
        rec.start(cold=True)
        self._small_round(rec)
        rec.start(cold=True)
        self._small_round(rec)
        self._numerator(rec, self.k4_specs[1])

    @staticmethod
    def traced_step(rec: Recorder) -> dict:
        """build_w(5) from cold caches, checked by w_5(x5 = 1) == w_4(shifted)^2."""
        rec.start(cold=True)
        w5 = rec.op("build_w", denom.build_w, 5)
        rec.verify("exact", lambda: denom.w_specialize_one(5) == denom.w_shifted(4) ** 2,
                   check="w5-specialize-x1")
        rec.digest("w5", lambda: poly_digest(w5.poly))
        rec.bank_caches()
        return {"denom.w5.terms": len(w5.poly.terms) if w5 is not FAILED else 0}

    def _small_round(self, rec: Recorder) -> None:
        for n in range(1, 5):
            w = rec.op("build_w", denom.build_w, n)
            wr = rec.op("build_w_recursive", denom.build_w_recursive, n)
            rec.verify("exact", lambda: w.poly == wr.poly, check=f"w{n}-recursive")
            rec.digest(f"w{n}", lambda: poly_digest(w.poly))
        for spec in self.small_specs:
            self._numerator(rec, spec)
        for spec in self.small_specs:
            top = 2 ** spec.slots
            for order in range(top, top + 9):
                res = rec.op("series_convolution_residual",
                             genfun.series_convolution_residual, spec, order)
                rec.verify("exact", lambda: res.is_zero(),
                           check=f"residual-{_tag(spec)}-{order}")
        for fid, shifts, exact in self.forms:
            tag = fid + "".join(f"-{k}{v}" for k, v in sorted(shifts.items()))
            cmp = rec.op("compare_form", forms.compare_form, fid, **shifts)
            if exact:
                rec.verify("exact", lambda: cmp.matches, check=f"form-{tag}")
            rec.digest(f"form-{tag}", lambda: poly_digest(cmp.difference))

    def _numerator(self, rec: Recorder, spec) -> None:
        num = rec.op("numerator_l", genfun.numerator_l, spec)
        rec.verify("exact", lambda: self._angle_agrees(spec, num), check=f"l-{_tag(spec)}-angle")
        rec.digest(f"l-{_tag(spec)}", lambda: poly_digest(num))

    def _angle_agrees(self, spec, num) -> bool:
        """l / w at float points against the independent angle formula."""
        w = denom.build_w(spec.slots).poly
        for alphas, rho in self.points[spec]:
            point = {f"x{i + 1}": math.cos(a) for i, a in enumerate(alphas)}
            point["rho"] = rho
            closed = num.eval(point) / w.eval(point)
            angle = genfun.chi_angle_eval(spec, alphas, rho)
            if not abs(closed - angle) <= 1e-10 * max(1.0, abs(angle)):
                return False
        return True


# -------------------------------------------------------------- float-eval

INTERIOR_POINTS = 2000
SCALAR_POINTS = 16
CORNER_POINTS = 50
ORACLE_ORDER = 200
# (n, kind-independent cutoff, |rho_ij| band, points).  Each band keeps every
# pair's cap at the cutoff, so the oracle's work does not depend on the seed.
KIBBLE_CASES = ((3, 30, (0.3, 0.4), 2), (4, 20, (0.16, 0.25), 2), (5, 12, (0.05, 0.1), 2))
KIBBLE_TOL = {3: 1e-7, 4: 1e-6, 5: 1e-6}
COUNTEREXAMPLE = ((-0.9, -0.95, 0.94), {(1, 2): 0.6, (1, 3): 0.8, (2, 3): 0.9}, -0.0912121)


def _sym(rng: random.Random, lo: float, hi: float) -> float:
    return rng.choice((-1.0, 1.0)) * rng.uniform(lo, hi)


class FloatEval(Workload):
    name = "float-eval"
    cold = False

    def __init__(self, seed: int):
        import numpy as np

        rng = random.Random(f"float-eval:{seed}")
        self.blocks = []
        for k, n in SPLITS:
            K = k + n
            spec = genfun.GenSpec(k, n, _shifts(rng, K))
            xs = [np.array([rng.uniform(-1, 1) for _ in range(INTERIOR_POINTS)]) for _ in range(K)]
            rho = np.array([rng.uniform(-0.5, 0.5) for _ in range(INTERIOR_POINTS)])
            angles = [([rng.uniform(0.15, math.pi - 0.15) for _ in range(K)],
                       rng.uniform(-0.5, 0.5)) for _ in range(SCALAR_POINTS)]
            cxs = [np.array([_sym(rng, 0.99, 1.0) for _ in range(CORNER_POINTS)]) for _ in range(K)]
            crho = np.array([_sym(rng, 0.8, 0.95) for _ in range(CORNER_POINTS)])
            self.blocks.append((spec, xs, rho, angles, cxs, crho))
        self.kibble = []
        for n, cutoff, (lo, hi), points in KIBBLE_CASES:
            for kind in ("T", "U"):
                for _ in range(points):
                    pairs = {(a, b): _sym(rng, lo, hi)
                             for a in range(1, n + 1) for b in range(a + 1, n + 1)}
                    alphas = [rng.uniform(0.15, math.pi - 0.15) for _ in range(n)]
                    self.kibble.append((kind, n, cutoff, pairs, alphas))
        self.corner_exact: dict[int, list[float]] = {}

    @staticmethod
    def prime() -> None:
        for K in range(1, 5):
            denom.w_rho_coeff_polys(K)

    def _exact(self, i: int) -> list[float]:
        """Exact rational l / w at the corner points, as floats (computed once)."""
        if i not in self.corner_exact:
            spec, _, _, _, cxs, crho = self.blocks[i]
            vals = []
            for p in range(CORNER_POINTS):
                xs = [Fraction(float(c[p])) for c in cxs]
                vals.append(float(genfun.chi_closed_value(spec, xs, Fraction(float(crho[p])))))
            self.corner_exact[i] = vals
        return self.corner_exact[i]

    def run_pass(self, rec: Recorder) -> None:
        import numpy as np

        for i, (spec, xs, rho, angles, cxs, crho) in enumerate(self.blocks):
            tag = _tag(spec)
            closed = rec.op("closed_grid", genfun.chi_closed_values_grid, spec, xs, rho)
            oracle = rec.op("oracle_grid", genfun.chi_series_oracle_grid, spec, xs, rho,
                            ORACLE_ORDER)
            rec.verify("interior", lambda: float(np.max(np.abs(closed - oracle))) <= 1e-8,
                       check=f"grid-vs-oracle-{tag}")
            scalar = rec.op("closed_scalar", lambda: [
                genfun.chi_closed_value(spec, [math.cos(a) for a in al], r) for al, r in angles])
            angle = rec.op("angle_scalar", lambda: [
                genfun.chi_angle_eval(spec, al, r) for al, r in angles])
            rec.verify("interior", lambda: max(abs(a - b) for a, b in zip(scalar, angle)) <= 1e-10,
                       known_defect=True, check=f"scalar-vs-angle-{tag}")
            corner = rec.op("closed_corner", genfun.chi_closed_values_grid, spec, cxs, crho)
            exact = rec.reference(lambda: self._exact(i))
            for p in range(CORNER_POINTS):
                rec.verify("corner",
                           lambda: abs(corner[p] - exact[p]) <= 1e-9 * abs(exact[p]),
                           known_defect=True, spec=tag, point=p, x=[float(c[p]) for c in cxs],
                           rho=float(crho[p]), exact=exact[p],
                           got=float(corner[p]) if corner is not FAILED else None)
            rec.digest(f"block-{i}", lambda: sha(b"".join(
                np.ascontiguousarray(a).tobytes() for a in (closed, oracle, corner))
                + canonical(scalar + angle)))
        for j, (kind, n, cutoff, pairs, alphas) in enumerate(self.kibble):
            K = kibble.CorrMatrix.from_dict(n, pairs)
            xs = [math.cos(a) for a in alphas]
            closed = rec.op("kibble_closed", kibble.kibble_closed_eval, kind, alphas, K)
            oracle = rec.op("kibble_oracle", kibble.kibble_series_oracle, kind, xs, K, cutoff)
            rec.verify("kibble", lambda: abs(closed - oracle) <= KIBBLE_TOL[n],
                       check=f"kibble-n{n}-{kind}-{j}")
            rec.digest(f"kibble-{j}", lambda: sha(canonical([closed, oracle])))
        xs, pairs, target = COUNTEREXAMPLE
        K = kibble.CorrMatrix.from_dict(3, pairs)
        closed = rec.op("kibble_closed", kibble.kibble_closed_eval, "U",
                        [math.acos(v) for v in xs], K)
        oracle = rec.op("kibble_oracle", kibble.kibble_series_oracle, "U", list(xs), K, 300)
        rec.verify("kibble", lambda: abs(closed - target) <= 1e-4, check="counterexample-closed")
        rec.verify("kibble", lambda: abs(oracle - target) <= 1e-4, check="counterexample-oracle")
        rec.digest("counterexample", lambda: sha(canonical([closed, oracle])))


# ----------------------------------------------------------------- q-exact

Q_DENOMINATORS = (7, 11, 13)


class QExact(Workload):
    name = "q-exact"

    def __init__(self, seed: int):
        rng = random.Random(f"q-exact:{seed}")
        # |q| in [1/3, 1/2] with a fixed denominator set keeps the work (and
        # the tail index) nearly the same for every seed.
        self.qs = []
        for b in Q_DENOMINATORS:
            p = rng.choice([p for p in range(1, b) if 3 * p >= b and 2 * p <= b
                            and math.gcd(p, b) == 1])
            self.qs.append(Fraction(rng.choice((-1, 1)) * p, b))
        self.d2_points = [(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(2)]

    def run_pass(self, rec: Recorder) -> None:
        for q in self.qs:
            self._one_q(rec, q)
        for n in range(2, 10):
            probe = rec.op("conjecture_probe", qseries.conjecture_probe, "beta-expansion",
                           n=n, q_values=list(self.qs))
            rec.digest(f"beta-n{n}", lambda: sha(canonical(probe)))
            if n <= 4:
                rec.verify("exact", lambda: self._beta_printed(probe, n), check=f"beta-n{n}")

    def _one_q(self, rec: Recorder, q: Fraction) -> None:
        ctx = qseries.QContext(q)
        tag = f"q{q}"
        hb = {}
        for kind in ("h", "b"):
            for n in range(25):
                hb[kind, n] = rec.op("hb_poly", qseries.hb_poly, ctx, kind, n)
                rec.digest(f"{tag}-{kind}{n}", lambda: poly_digest(hb[kind, n]))
        duality = rec.reference(lambda: self._b_from_h_at_inverse_q(q, 25))
        for n in range(25):
            rec.verify("exact", lambda: hb["b", n] == duality[n], check=f"{tag}-b-h-duality-{n}")
        for n in range(13):
            d = rec.op("d_coeff", qseries.d_coeff, ctx, n)
            rec.verify("exact", lambda: d == hb["b", n], check=f"{tag}-d-equals-b-{n}")
        values = rec.reference(lambda: [qseries.d2_values(ctx, x, y, 15)
                                        for x, y in self.d2_points])
        for n in range(15):
            d2 = rec.op("d2_coeff", qseries.d2_coeff, ctx, n)
            rec.verify("exact", lambda: all(
                abs(d2.eval({"x1": x, "x2": y}) - v[n]) <= 1e-9 * max(1.0, abs(v[n]))
                for (x, y), v in zip(self.d2_points, values)), check=f"{tag}-d2-values-{n}")
            rec.digest(f"{tag}-d2-{n}", lambda: poly_digest(d2))
        tn = []
        for n in range(13):
            t = rec.op("tn_construct", qseries.tn_construct, ctx, n)
            tn.append(t)
            rec.digest(f"{tag}-t{n}", lambda: poly_digest(t.poly))
        for n in range(7):
            for k in range(9):
                r = rec.op("idb_check", qseries.idb_check, ctx, n, k)
                rec.verify("exact", lambda: r.passed, check=f"{tag}-idb-{n}-{k}")
        for a in range(13):
            for b in range(a + 1):
                v = rec.op("ft_inner_product",
                           lambda: qseries.ft_inner_product(ctx, tn[a].poly * tn[b].poly))
                if a == b:
                    rec.verify("exact", lambda: v > 0, check=f"{tag}-gram-{a}-{b}")
                else:
                    rec.verify("exact", lambda: abs(float(v)) <= 1e-8, check=f"{tag}-gram-{a}-{b}")
        for n_h in (1, 2):
            probe = rec.op("conjecture_probe", qseries.conjecture_probe, "common-denominator",
                           n_h=n_h, m_t=0, q=q)
            rec.digest(f"{tag}-common-denominator-{n_h}", lambda: sha(canonical(probe)))
            if n_h == 1:
                rec.verify("exact", lambda: probe["all_above_vanish"],
                           check=f"{tag}-common-denominator-pure-h")

    @staticmethod
    def _b_from_h_at_inverse_q(q: Fraction, count: int) -> list:
        """b_n = (-1)^n q^C(n,2) h_n(x; 1/q), from the h recurrence written out here."""
        from chebsum.poly import Poly

        qi = 1 / q
        x = Poly.variable("x1")
        p0, p1 = Poly.const(1, ("x1",)), 2 * x
        h = [p0, p1]
        for m in range(1, count - 1):
            p0, p1 = p1, 2 * x * p1 - (1 - qi ** m) * p0
            h.append(p1)
        return [Fraction(-1) ** n * q ** (n * (n - 1) // 2) * h[n] for n in range(count)]

    def _beta_printed(self, probe, n) -> bool:
        """Leading diagonal coefficients printed for n = 2..4."""
        ok = probe["verdict"] == "REPRESENTABLE"
        for row in probe["per_q"]:
            q = Fraction(row["q"])
            ctx = qseries.QContext(q)
            beta = [Fraction(b) for b in row["beta"]]
            ok = ok and beta[0] == 1
            if n == 2:
                ok = ok and beta[1] == -(1 - q ** 2)
            elif n == 3:
                ok = ok and beta[1] == -q ** 2 * ctx.qq(3) / ctx.qq(1) ** 2
            else:
                ok = ok and beta[1] == -q ** 4 * ctx.qq(4) / (ctx.qq(1) * ctx.qq(2))
                ok = ok and beta[2] == q ** 5 * ctx.qq(4) / ctx.qq(2)
        return ok


# -------------------------------------------------------------- verify-all

VERIFY_ARGS = ("--trials", "50", "--points", "50", "--nodes", "128", "--jobs", "2")


def child_env(root) -> dict:
    env = dict(os.environ)
    src = str(root / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_child(argv: list[str], root, stderr_path) -> tuple[int, float, float]:
    """Run a fresh process to completion: (exit code, wall s, peak RSS MB of its tree)."""
    with open(stderr_path, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=root, env=child_env(root),
                                stdout=subprocess.DEVNULL, stderr=err)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_maxrss / 1024.0


class VerifyAll(Workload):
    name = "verify-all"
    cold = False  # the passes run in fresh processes
    # The work runs in other processes on both CPUs while this one waits, so
    # kernel samples taken here between passes do not track its speed (they
    # widened the run-to-run spread of pass_s from 6% to 33%): times are raw.
    scaled = False

    def __init__(self, seed: int, root, scratch):
        self.seed = seed
        self.root = root
        self.scratch = scratch
        scratch.mkdir(exist_ok=True)
        self.peak_rss_mb: list[float] = []

    def cli_args(self, out_path, jobs: str = "2") -> list[str]:
        args = list(VERIFY_ARGS)
        args[args.index("--jobs") + 1] = jobs
        return ["verify", "all", "--seed", str(self.seed), *args, "--json", str(out_path)]

    def run_pass(self, rec: Recorder) -> None:
        out = self.scratch / "verify.ndjson"
        argv = [sys.executable, "-m", "chebsum.cli", *self.cli_args(out)]
        self._run(rec, "verify_all", argv, out, "ndjson")

    def timed_pass(self, rec: Recorder, jobs: str) -> dict | None:
        """One pass through cli_child.py, which reports the time of each suite."""
        out = self.scratch / f"verify-jobs{jobs}.ndjson"
        timings = self.scratch / f"timings-jobs{jobs}.json"
        if timings.exists():
            timings.unlink()
        child = str(Path(__file__).resolve().parent / "cli_child.py")
        argv = [sys.executable, child, str(timings), *self.cli_args(out, jobs)]
        if not self._run(rec, f"verify_all_jobs{jobs}", argv, out, f"ndjson-jobs{jobs}"):
            return None
        return json.loads(timings.read_text())

    def _run(self, rec: Recorder, op: str, argv, out, digest_name: str) -> bool:
        if out.exists():
            out.unlink()
        result = rec.op(op, run_child, argv, self.root, self.scratch / "verify.stderr")
        if result is FAILED:
            rec.verify("campaign", lambda: False, check="process-start")
            return False
        code, _, rss = result
        self.peak_rss_mb.append(rss)
        rec.verify("campaign", lambda: code == 0, check="exit-status", code=code)
        data = rec.reference(lambda: out.read_bytes() if out.exists() else b"")
        rec.digest(digest_name, lambda: sha(data))
        self.check_records(rec, data)
        return code == 0

    @staticmethod
    def check_records(rec: Recorder, data: bytes) -> None:
        def parse():
            records, summaries = [], []
            for line in data.decode().splitlines():
                obj = json.loads(line)
                (summaries if obj.get("summary") else records).append(obj)
            return records, summaries

        records, summaries = rec.reference(parse)
        rec.verify("campaign", lambda: [s["suite"] for s in summaries] == list(SUITES),
                   check="suite-list")
        for s in summaries:
            mine = [r for r in records if r["suite"] == s["suite"]]
            rec.verify("campaign", lambda: s["cases"] == len(mine) and s["failures"] == 0
                       and s["pass"] and [r["case"] for r in mine] == list(range(len(mine))),
                       check=f"summary-{s['suite']}")
        for r in records:
            rec.verify("campaign", lambda: r["pass"] is True,
                       check=f"{r['suite']}-{r['case']}-{r['name']}")


WORKLOADS = {"closed-forms": ClosedForms, "float-eval": FloatEval,
             "q-exact": QExact, "verify-all": VerifyAll}


def peak_rss_self_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
