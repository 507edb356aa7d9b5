"""Correctness checks on the CLI outputs of each workload.

Every function returns a list of problems; an empty list means the output
passed. Reference values come from ``oracle``, never from the package.
"""
import csv
import io
import math
import random
import re

import oracle

MC_Z_MAX = 4.0  # |asc_exact - mc_asc_diff| in MC standard errors
SOP_TOL = 0.02  # |sop_corrected - mc_sop|, on top of MC_Z_MAX standard errors
ORACLE_REL_TOL = 1e-7  # sweep CSV cells carry repr precision
VALIDATE_REL_TOL = 1e-5  # validate prints asc_exact with 6 significant digits
SAMPLED_Z_MAX = 5.0
SAMPLED_TRIALS = 200_000


def _oracle_problem(label, got, base, rel_tol):
    ref = oracle.asc(base)
    if not abs(got - ref) <= rel_tol * abs(ref) + 1e-12:
        return [f"{label}: asc_exact={got!r} but the oracle gives {ref!r}"]
    return []


def check_sweep(text: str, base: dict, seed: int, *, oracle_rows: int = 2) -> list:
    """Checks on a p_s sweep CSV: MC agreement per row, monotone ASC (and SOP
    when present), and the oracle on ``oracle_rows`` rows picked by ``seed``."""
    rows = list(csv.DictReader(io.StringIO(text)))
    if not rows:
        return ["sweep CSV has no rows"]
    try:
        table = [{k: float(v) for k, v in row.items()} for row in rows]
    except (TypeError, ValueError) as exc:
        return [f"sweep CSV has a cell that is not a number: {exc}"]
    problems = []
    for r in table:
        bad = [k for k, v in r.items() if not math.isfinite(v)]
        if bad:
            problems.append(f"p_s={r['p_s']!r}: non-finite {bad}")
            continue
        gap = abs(r["asc_exact"] - r["mc_asc_diff"])
        if not gap <= MC_Z_MAX * r["mc_asc_diff_se"]:
            problems.append(f"p_s={r['p_s']!r}: |asc_exact - mc_asc_diff| = {gap:.3g}"
                            f" exceeds {MC_Z_MAX:g} se ({r['mc_asc_diff_se']:.3g})")
        if "sop_corrected" in r:
            gap = abs(r["sop_corrected"] - r["mc_sop"])
            if not gap <= SOP_TOL + MC_Z_MAX * r["mc_sop_se"]:
                problems.append(f"p_s={r['p_s']!r}: |sop_corrected - mc_sop| = {gap:.3g}"
                                f" exceeds {SOP_TOL:g} + {MC_Z_MAX:g} se")
    if problems:
        return problems
    for prev, cur in zip(table, table[1:]):
        if not cur["p_s"] > prev["p_s"]:
            problems.append("sweep rows are not in increasing p_s")
        if cur["asc_exact"] < prev["asc_exact"]:
            problems.append(f"asc_exact decreases from p_s={prev['p_s']!r} to {cur['p_s']!r}")
        if "sop_corrected" in cur and cur["sop_corrected"] > prev["sop_corrected"]:
            problems.append(f"sop_corrected increases from p_s={prev['p_s']!r} to {cur['p_s']!r}")
    for i in sorted(random.Random(seed).sample(range(len(table)), oracle_rows)):
        r = table[i]
        problems += _oracle_problem(f"p_s={r['p_s']!r}", r["asc_exact"],
                                    dict(base, p_s=r["p_s"]), ORACLE_REL_TOL)
    return problems


_VAL_ASC = re.compile(r"^p_s=(\S+): asc_exact=(\S+) mc=(\S+) \+-(\S+) ")
_VAL_VAR = re.compile(r"^gain-sum variance \(N=(\d+)\): .* corrected=(\S+) ")


def check_validate(text: str, base: dict, seed: int) -> list:
    """Checks on the ``validate`` report: the verdict, the corrected relay
    variance, MC agreement per point, and the oracle on one point picked by
    ``seed``."""
    problems = []
    lines = text.splitlines()
    if "VALIDATION: PASS" not in lines:
        problems.append("validate did not print 'VALIDATION: PASS'")
    points = [m.groups() for m in map(_VAL_ASC.match, lines) if m]
    if not points:
        return problems + ["validate printed no asc_exact lines"]
    for p_s, asc, mc, se in points:
        if not abs(float(asc) - float(mc)) <= MC_Z_MAX * float(se):
            problems.append(f"p_s={p_s}: asc_exact={asc} and mc={mc} differ by more"
                            f" than {MC_Z_MAX:g} se")
    var = [m.groups() for m in map(_VAL_VAR.match, lines) if m]
    want = format(base["n_cells"] * (8.0 - (math.pi / 2.0) ** 3), ".6g")
    if not var or var[0][1] != want:
        problems.append(f"validate's corrected gain-sum variance is not {want}")
    p_s, asc, _mc, _se = points[random.Random(seed).randrange(len(points))]
    problems += _oracle_problem(f"p_s={p_s}", float(asc), dict(base, p_s=float(p_s)),
                                VALIDATE_REL_TOL)
    return problems


def check_eval_asc(text: str, base: dict, seed: int) -> list:
    """Checks an ``eval`` report's asc_exact against a NumPy-sampled estimate."""
    found = re.search(r"^asc_exact\s+(\S+)$", text, re.MULTILINE)
    if not found:
        return ["eval printed no asc_exact"]
    got = float(found.group(1))
    mean, se = oracle.sampled_asc(base, SAMPLED_TRIALS, seed)
    if not (math.isfinite(got) and abs(got - mean) <= SAMPLED_Z_MAX * se):
        return [f"eval asc_exact={got!r}, sampled estimate {mean!r} +- {se:.3g}"]
    return []
