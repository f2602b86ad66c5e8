"""Registry of published explicit closed forms, transcribed verbatim.

Each entry pairs a GenSpec with the printed numerator over the matching
denominator, mapped onto slot variables x1, x2, ... (first-kind slots first).
Where the source displays use (x, y, z) with the second-kind arguments first,
the slot map is recorded per entry; the transcription itself is literal, so
any typo in the source shows up as a nonzero difference against the
convolution-built numerator.  ``compare_form`` produces that exact
difference; ground truth for mismatches is the series oracle, not the
transcription.

Registry ids
------------
Fixed:      _1_T, _1_U, _2, _3, _4, tri_TTT, tri_UUU, tri_TUU, tri_TTU
Parametric: shifted_T(m), shifted_U(m), shifted_TT(n, m), shifted_UU(n, m),
            shifted_UT(n, m)   (keyword shifts, defaults 0; any other keyword is refused)
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass

from .cheb import ChebIndex, cheb_poly
from .errors import UnknownId
from .genfun import GenSpec, _check_scale, numerator_l
from .poly import Poly


def _T(i: int, var: str) -> Poly:
    return cheb_poly(ChebIndex("T", i), var=var)


def _U(i: int, var: str) -> Poly:
    return cheb_poly(ChebIndex("U", i), var=var)


def _atoms():
    return (Poly.variable("x1"), Poly.variable("x2"), Poly.variable("x3"),
            Poly.variable("rho"))


def _form_1_T() -> tuple[GenSpec, Poly]:
    x1, _x2, _x3, rho = _atoms()
    return GenSpec(1, 0, (0,)), 1 - rho * x1


def _form_1_U() -> tuple[GenSpec, Poly]:
    _, _, _, rho = _atoms()
    return GenSpec(0, 1, (0,)), Poly.const(1) + 0 * rho


def _form_2() -> tuple[GenSpec, Poly]:
    _, _, _, rho = _atoms()
    return GenSpec(0, 2, (0, 0)), 1 - rho ** 2


def _form_3() -> tuple[GenSpec, Poly]:
    x1, x2, _x3, rho = _atoms()
    num = 1 - rho ** 2 + 2 * rho ** 2 * (x1 ** 2 + x2 ** 2) - (rho ** 2 + 3) * rho * x1 * x2
    return GenSpec(2, 0, (0, 0)), num


def _form_4() -> tuple[GenSpec, Poly]:
    # Printed with the second-kind argument first: x -> slot 2 (U), y -> slot 1 (T).
    x1, x2, _x3, rho = _atoms()
    num = 1 - rho ** 2 - 2 * rho * x2 * x1 + 2 * rho ** 2 * x1 ** 2
    return GenSpec(1, 1, (0, 0)), num


def _form_shifted_T(m: int = 0) -> tuple[GenSpec, Poly]:
    rho = Poly.variable("rho")
    return _check_scale(GenSpec(1, 0, (m,)), exact=True), _T(m, "x1") - rho * _T(m - 1, "x1")


def _form_shifted_U(m: int = 0) -> tuple[GenSpec, Poly]:
    rho = Poly.variable("rho")
    return _check_scale(GenSpec(0, 1, (m,)), exact=True), _U(m, "x1") - rho * _U(m - 1, "x1")


def _form_shifted_TT(n: int = 0, m: int = 0) -> tuple[GenSpec, Poly]:
    """sum rho^k T_{k+n}(x) T_{k+m}(y); printed with T_m(x) T_n(y) products."""
    spec = _check_scale(GenSpec(2, 0, (n, m)), exact=True)  # before any factor
    x1, x2, _x3, rho = _atoms()
    x, y = x1, x2
    Tm = lambda i: _T(i, "x1")
    Tn = lambda i: _T(i, "x2")
    num = ((1 - rho ** 2 + 2 * rho ** 2 * (x ** 2 + y ** 2) - (rho ** 2 + 3) * rho * x * y)
           * Tm(m) * Tn(n)
           + rho * (rho ** 2 * x + x - 2 * rho * y) * Tm(m) * (Tn(n + 1) - Tn(n - 1))
           + rho * (-2 * rho * x + rho ** 2 * y + y) * (Tm(m + 1) - Tm(m - 1)) * Tn(n)
           + rho * (1 - rho ** 2) * (Tm(m - 1) - Tm(m + 1)) * (Tn(n - 1) - Tn(n + 1)))
    return spec, num


def _form_shifted_UU(n: int = 0, m: int = 0) -> tuple[GenSpec, Poly]:
    """sum rho^j U_{j+n}(x) U_{j+m}(y), transcribed literally."""
    spec = _check_scale(GenSpec(0, 2, (n, m)), exact=True)  # before any factor
    x1, x2, _x3, rho = _atoms()
    x, y = x1, x2
    num = ((rho ** 2 * x + x - 2 * rho * y) * _U(m - 1, "x1") * _T(n, "x2")
           + (-rho ** 3 + rho - 2 * rho * x ** 2 + 3 * rho ** 2 * x * y + x * y
              - 2 * rho * y ** 2) * _U(n - 1, "x2") * _U(m - 1, "x1")
           + _T(m, "x1") * (-2 * rho * x + rho ** 2 * y + y) * _U(n - 1, "x2")
           + (1 - rho ** 2) * _T(m, "x1") * _T(n, "x2"))
    return spec, num


def _form_shifted_UT(n: int = 0, m: int = 0) -> tuple[GenSpec, Poly]:
    """sum rho^j U_{m+j}(x) T_{n+j}(y): x -> slot 2 (U), y -> slot 1 (T)."""
    spec = _check_scale(GenSpec(1, 1, (n, m)), exact=True)  # before any factor
    x1, x2, _x3, rho = _atoms()
    x, y = x2, x1
    num = (_T(m, "x2") * _T(n, "x1") * (1 - rho ** 2 - 2 * rho * x * y + 2 * rho ** 2 * y ** 2)
           - 2 * _T(m, "x2") * _U(n - 1, "x1") * rho * (y ** 2 - 1) * (x - rho * y)
           + _U(m - 1, "x2") * _T(n, "x1") * (x - rho * y) * (1 + rho ** 2 - 2 * rho * x * y)
           + _U(m - 1, "x2") * _U(n - 1, "x1") * (y ** 2 - 1) * rho
           * (1 - rho ** 2 + 2 * rho * x * y - 2 * x ** 2))
    return spec, num


def _form_tri_TTT() -> tuple[GenSpec, Poly]:
    x, y, z, rho = _atoms()
    num = ((1 + rho ** 2) ** 3 + 8 * rho ** 4 * (x ** 4 + y ** 4 + z ** 4)
           + 32 * rho ** 4 * x ** 2 * y ** 2 * z ** 2
           - 2 * (rho ** 2 + 1) * (rho ** 2 + 3) * rho ** 2 * (x ** 2 + y ** 2 + z ** 2)
           + 4 * (rho ** 4 + 3) * rho ** 2 * (x ** 2 * y ** 2 + x ** 2 * z ** 2 + y ** 2 * z ** 2)
           - 4 * (3 * rho ** 2 + 5) * rho ** 3 * x * y * z * (x ** 2 + y ** 2 + z ** 2)
           - (rho ** 6 - 15 * rho ** 4 - 25 * rho ** 2 + 7) * rho * x * y * z)
    return GenSpec(3, 0, (0, 0, 0)), num


def _form_tri_UUU() -> tuple[GenSpec, Poly]:
    x, y, z, rho = _atoms()
    num = ((1 + rho ** 2) ** 3 + 16 * rho ** 3 * x * y * z
           - 4 * rho ** 2 * (1 + rho ** 2) * (x ** 2 + y ** 2 + z ** 2))
    return GenSpec(0, 3, (0, 0, 0)), num


def _form_tri_TUU() -> tuple[GenSpec, Poly]:
    # One first-kind slot (x) and two second-kind slots (y, z).
    x, y, z, rho = _atoms()
    num = ((rho ** 2 + 1) ** 3 + 8 * rho ** 4 * x ** 4 - 16 * rho ** 3 * x ** 3 * y * z
           - 2 * (rho ** 2 + 1) * (rho ** 2 + 3) * rho ** 2 * x ** 2
           + 8 * rho ** 2 * x ** 2 * (y ** 2 + z ** 2)
           - 4 * rho * (5 - (rho ** 2 + 2) ** 2) * x * y * z
           - 4 * (rho ** 2 + 1) * rho ** 2 * (y ** 2 + z ** 2))
    return GenSpec(1, 2, (0, 0, 0)), num


def _form_tri_TTU() -> tuple[GenSpec, Poly]:
    # Two first-kind slots (x, y) and one second-kind slot (z).
    x, y, z, rho = _atoms()
    num = ((rho ** 2 + 1) ** 3 + 8 * rho ** 4 * (x ** 4 + y ** 4)
           - 2 * (rho ** 2 + 1) * (rho ** 2 + 3) * rho ** 2 * (x ** 2 + y ** 2)
           + 4 * (rho ** 4 + 3) * rho ** 2 * x ** 2 * y ** 2
           + 16 * rho ** 4 * x ** 2 * y ** 2 * z ** 2
           + 8 * rho ** 2 * z ** 2 * (x ** 2 + y ** 2)
           - 8 * (rho ** 2 + 2) * rho ** 3 * x * y * z * (x ** 2 + y ** 2)
           - 8 * rho ** 3 * x * y * z ** 3
           - 2 * (-5 * rho ** 4 - 10 * rho ** 2 + 3) * rho * x * y * z
           - 4 * (rho ** 2 + 1) * rho ** 2 * z ** 2)
    return GenSpec(2, 1, (0, 0, 0)), num


_REGISTRY = {
    "_1_T": _form_1_T,
    "_1_U": _form_1_U,
    "_2": _form_2,
    "_3": _form_3,
    "_4": _form_4,
    "shifted_T": _form_shifted_T,
    "shifted_U": _form_shifted_U,
    "shifted_TT": _form_shifted_TT,
    "shifted_UU": _form_shifted_UU,
    "shifted_UT": _form_shifted_UT,
    "tri_TTT": _form_tri_TTT,
    "tri_UUU": _form_tri_UUU,
    "tri_TUU": _form_tri_TUU,
    "tri_TTU": _form_tri_TTU,
}
_SHIFTS = {fid: inspect.signature(builder).parameters.keys() for fid, builder in _REGISTRY.items()}


def registry_ids() -> tuple[str, ...]:
    return tuple(sorted(_REGISTRY))


def transcribed_form(form_id: str, **shifts) -> tuple[GenSpec, Poly]:
    """The registered form's spec and its transcribed numerator over x1..xK, rho."""
    if form_id not in _REGISTRY:
        raise UnknownId(f"no registered form {form_id!r}")
    unknown = sorted(shifts.keys() - _SHIFTS[form_id])
    if unknown:
        raise UnknownId(f"form {form_id!r} takes no shift {', '.join(unknown)}")
    spec, num = _REGISTRY[form_id](**shifts)
    return spec, num.embed([f"x{i}" for i in range(1, spec.slots + 1)] + ["rho"])


@dataclass(frozen=True)
class FormComparison:
    """Exact difference between a transcription and the convolution numerator.

    ``swapped_matches`` flags two-slot parametric forms whose transcription
    equals the series with the two shifts exchanged, the most common kind of
    index slip in the printed displays.
    """

    form_id: str
    shifts: tuple[tuple[str, int], ...]
    spec: GenSpec
    difference: Poly
    swapped_matches: bool | None = None

    @property
    def matches(self) -> bool:
        return self.difference.is_zero()


def compare_form(form_id: str, **shifts) -> FormComparison:
    """Transcribed numerator minus the independently built numerator."""
    spec, transcribed = transcribed_form(form_id, **shifts)
    built = numerator_l(spec)
    swapped = None
    if spec.slots == 2 and shifts and spec.t[0] != spec.t[1]:
        swapped = transcribed == numerator_l(
            GenSpec(spec.k, spec.n, (spec.t[1], spec.t[0])))
    return FormComparison(form_id, tuple(sorted(shifts.items())), spec,
                          transcribed - built, swapped)
