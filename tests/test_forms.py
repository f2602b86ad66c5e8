"""Registry transcription tests.

The fixed displays and the single-slot shifted families reproduce the
convolution-built numerators exactly.  The shifted two-slot displays deviate
for most nonzero shifts (index slips in the source); those cases must emit a
nonzero exact difference while the series oracle confirms the convolution
side.  The observed deviation pattern is frozen here.
"""

import random
import time

import pytest

from chebsum.errors import ScaleError, UnknownId
from chebsum.denom import build_w
from chebsum.forms import compare_form, registry_ids, transcribed_form
from chebsum.genfun import chi_closed_value, chi_series_oracle_grid

EXACT_IDS = ["_1_T", "_1_U", "_2", "_3", "_4",
             "tri_TTT", "tri_UUU", "tri_TUU", "tri_TTU"]


@pytest.mark.parametrize("fid", EXACT_IDS)
def test_fixed_forms_match_exactly(fid):
    cmp = compare_form(fid)
    assert cmp.matches, f"{fid} deviates by {cmp.difference.render()}"


@pytest.mark.parametrize("m", range(5))
def test_single_slot_shifted_forms_match(m):
    assert compare_form("shifted_T", m=m).matches
    assert compare_form("shifted_U", m=m).matches


def test_shifted_TT_deviation_pattern():
    for n in range(3):
        for m in range(3):
            cmp = compare_form("shifted_TT", n=n, m=m)
            assert cmp.matches == (n == m == 0)


def test_shifted_UU_matches_swapped_shifts():
    # The printed display equals the series with its two shifts exchanged.
    for n in range(3):
        for m in range(3):
            cmp = compare_form("shifted_UU", n=n, m=m)
            assert cmp.matches == (n == m)
            if n != m:
                assert cmp.swapped_matches is True


def test_shifted_UT_matches_only_for_zero_first_shift():
    for n in range(3):
        for m in range(3):
            cmp = compare_form("shifted_UT", n=n, m=m)
            assert cmp.matches == (n == 0)


def test_mismatching_forms_bind_to_oracle():
    # Wherever a transcription deviates, the convolution numerator is the one
    # the series supports.
    rng = random.Random(12)
    for fid, n, m in (("shifted_TT", 1, 2), ("shifted_UU", 0, 2),
                      ("shifted_UT", 2, 1)):
        cmp = compare_form(fid, n=n, m=m)
        assert not cmp.matches and not cmp.difference.is_zero()
        for _ in range(10):
            xs = [rng.uniform(-1, 1), rng.uniform(-1, 1)]
            rho = rng.uniform(-0.5, 0.5)
            closed = chi_closed_value(cmp.spec, xs, rho)
            series = chi_series_oracle_grid(cmp.spec, xs, rho, 250)
            assert abs(closed - series) < 1e-9


def test_known_form_evaluates():
    spec, num = transcribed_form("_2")
    point = {"x1": 0.2, "x2": -0.4, "rho": 0.3}
    val = num.eval(point) / build_w(spec.slots).poly.eval(point)
    assert abs(val - chi_series_oracle_grid(spec, [0.2, -0.4], 0.3, 200)) < 1e-12


def test_reduction_to_base_forms():
    # At zero shifts, the parametric displays collapse onto the fixed ones.
    assert transcribed_form("shifted_UU", n=0, m=0)[1] == transcribed_form("_2")[1]
    assert transcribed_form("shifted_TT", n=0, m=0)[1] == transcribed_form("_3")[1]
    assert transcribed_form("shifted_UT", n=0, m=0)[1] == transcribed_form("_4")[1]


@pytest.mark.parametrize("fid, shifts", [("shifted_T", {"m": 20000}), ("shifted_U", {"m": -20000}),
                                         ("shifted_TT", {"n": 2000, "m": 2000}),
                                         ("shifted_UU", {"n": 2000, "m": 2000}),
                                         ("shifted_UT", {"n": 64, "m": 20000})])
def test_parametric_forms_refuse_large_shifts_at_once(fid, shifts):
    # The exact builders' work limit, checked before any Chebyshev factor is built.
    t0 = time.perf_counter()
    with pytest.raises(ScaleError):
        compare_form(fid, **shifts)
    with pytest.raises(ScaleError):
        transcribed_form(fid, **shifts)
    assert time.perf_counter() - t0 < 1.0


def test_unknown_id():
    with pytest.raises(UnknownId):
        transcribed_form("no-such-form")
    assert "tri_UUU" in registry_ids()


@pytest.mark.parametrize("fid, shifts, bad", [("_3", {"m": 7}, "m"), ("shifted_T", {"n": 5}, "n"),
                                              ("shifted_UU", {"n": 1, "k": 2}, "k")])
def test_unknown_shift_keywords_are_refused(fid, shifts, bad):
    # The builders took any keyword and ignored it: compare_form("_3", m=7)
    # matched and recorded the shift it never applied.
    for call in (compare_form, transcribed_form):
        with pytest.raises(UnknownId, match=f"takes no shift {bad}$"):
            call(fid, **shifts)
