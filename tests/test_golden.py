"""Characterization tests: every case of ``tests/golden/regenerate.py`` rerun
twice in one process against its committed output, so that an output that
depended on what an earlier command left behind would fail its second run.

On the platform that wrote the outputs (its ``FINGERPRINT``: Python and
NumPy versions, machine, SIMD extensions) the outputs must be the same bytes.
Elsewhere bytes can differ in the last bits, between Python versions and
between SIMD levels of one NumPy build, so the comparison is by value: CSV
cells within 1e-13 relative, except the MC outage estimate ``mc_sop``, a
count over the trials, which must be exact; and validate reports, eval tables and dumped
configs line by line, with the same text and verdicts and every number within
1e-5 relative (one unit of the sixth significant digit). A deliberate change of outputs is
a rerun of the script and a reviewed diff of ``tests/golden/``.
"""
import importlib.util
import math
import re
from pathlib import Path

import pytest

GOLDEN = Path(__file__).resolve().parent / "golden"
_spec = importlib.util.spec_from_file_location("golden_regenerate", GOLDEN / "regenerate.py")
regenerate = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(regenerate)

CSV_REL_TOL = 1e-13
REPORT_REL_TOL = 1e-5
EXACT_COLUMNS = frozenset({"mc_sop"})
_NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:e[-+]?\d+)?")


def _compare_csv(got: str, want: str) -> list:
    got_rows = [line.split(",") for line in got.splitlines()]
    want_rows = [line.split(",") for line in want.splitlines()]
    if got_rows[:1] != want_rows[:1] or len(got_rows) != len(want_rows):
        return [f"header or row count: {got_rows[:1]} x {len(got_rows)} rows,"
                f" want {want_rows[:1]} x {len(want_rows)} rows"]
    header = want_rows[0]
    problems = []
    for r, (g_row, w_row) in enumerate(zip(got_rows[1:], want_rows[1:]), start=1):
        for col, g, w in zip(header, g_row, w_row):
            gv, wv = float(g), float(w)
            ok = gv == wv if col in EXACT_COLUMNS else math.isclose(gv, wv, rel_tol=CSV_REL_TOL, abs_tol=0.0)
            if not ok:
                problems.append(f"row {r} {col}: got {g}, want {w}")
    return problems


def _compare_report(got: str, want: str) -> list:
    got_lines, want_lines = got.splitlines(), want.splitlines()
    if len(got_lines) != len(want_lines):
        return [f"{len(got_lines)} lines, want {len(want_lines)}"]
    problems = []
    for i, (g, w) in enumerate(zip(got_lines, want_lines), start=1):
        g_nums, w_nums = _NUMBER.findall(g), _NUMBER.findall(w)
        same_text = _NUMBER.sub("#", g) == _NUMBER.sub("#", w) and len(g_nums) == len(w_nums)
        if not (same_text and all(math.isclose(float(a), float(b), rel_tol=REPORT_REL_TOL, abs_tol=0.0)
                                  for a, b in zip(g_nums, w_nums))):
            problems.append(f"line {i}: got {g!r}, want {w!r}")
    return problems


# Written on the platform of the committed outputs: compare bytes, not values
_SAME_PLATFORM = regenerate.fingerprint() == (GOLDEN / "FINGERPRINT").read_text(encoding="utf-8")


@pytest.mark.parametrize("run", ["1", "2"])
@pytest.mark.parametrize("case", sorted(regenerate.CASES))
def test_output_matches_golden(case, run, tmp_path):
    code, got = regenerate.run_case(case, tmp_path)
    want = (GOLDEN / case).read_text(encoding="utf-8")
    assert code == (1 if case.startswith("validate-") and not want.endswith("VALIDATION: PASS\n") else 0)
    if _SAME_PLATFORM:
        assert got.encode("utf-8") == (GOLDEN / case).read_bytes()
        return
    problems = (_compare_csv if case.endswith(".csv") else _compare_report)(got, want)
    assert problems == []


def test_report_comparison_allows_only_the_sixth_digit_to_move():
    want = "p_s=1: asc_exact=0.00181527 mc=0.00181286 +-3.8e-06 |gap|=2.41e-06 PASS"
    assert _compare_report(want.replace("0.00181527", "0.00181528"), want) == []
    assert _compare_report(want.replace("0.00181527", "0.00181529"), want) != []
    assert _compare_report(want.replace("3.8e-06", "3.9e-06"), want) != []
    assert _compare_report(want.replace("PASS", "FAIL"), want) != []
    assert _compare_report(want.replace("p_s=1:", "p_s=2:"), want) != []
