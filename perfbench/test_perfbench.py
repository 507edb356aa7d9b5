"""Tests of the benchmark's launcher and output checks.

    python -m pytest perfbench
"""
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import checks

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

SMALL_SWEEP = {
    "base": {"model": "v2v_ris_ap", "p_s": 10.0, "n_0": 1.0, "beta": 2.7, "n_cells": 16,
             "r_d": 4.0, "r_e": 8.0},
    "sweep": {"param": "p_s", "start": 5.0, "stop": 50.0, "steps": 3, "scale": "linear"},
    "c_th": 1.0,
    "mc": {"trials": 20000, "seed": 7, "batch": 8192},
    "outputs": ["asc_exact", "asc_approx", "sop_corrected", "sop_paper_literal", "mc_asc", "mc_sop"],
}


def _env():
    return dict(os.environ, PYTHONPATH=str(SRC), RIS_SECRECY_THREADS="1")


def _small_sweep_csvs(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(SMALL_SWEEP))
    direct, bench = tmp_path / "direct.csv", tmp_path / "bench.csv"
    subprocess.run([sys.executable, "-m", "ris_secrecy", "sweep", "--config", str(cfg),
                    "--out", str(direct)], env=_env(), check=True, timeout=120)
    subprocess.run([sys.executable, str(HERE / "child.py"), str(tmp_path / "stamp.json"), "--",
                    "sweep", "--config", str(cfg), "--out", str(bench)],
                   env=_env(), check=True, timeout=120)
    return direct.read_bytes(), bench.read_bytes(), tmp_path


def test_sweep_csv_is_byte_identical_to_a_direct_cli_run(tmp_path):
    direct, bench, tmp = _small_sweep_csvs(tmp_path)
    assert bench == direct
    stamp = json.loads((tmp / "stamp.json").read_text())
    assert Path(stamp["package_file"]).resolve().is_relative_to(SRC)
    assert json.loads((tmp / "stamp.json.exit").read_text())["peak_rss_kb"] > 0


def test_sweep_checks_pass_on_real_output_and_catch_a_wrong_cell(tmp_path):
    direct, _bench, _tmp = _small_sweep_csvs(tmp_path)
    text = direct.decode()
    assert checks.check_sweep(text, SMALL_SWEEP["base"], seed=1) == []
    header, *rows = text.splitlines()
    cells = rows[1].split(",")
    col = header.split(",").index("asc_exact")
    cells[col] = repr(float(cells[col]) * (1.0 + 1e-5))
    rows[1] = ",".join(cells)
    bad = "\n".join([header] + rows) + "\n"
    # every row is an oracle row when all of them are checked
    assert checks.check_sweep(bad, SMALL_SWEEP["base"], seed=1, oracle_rows=len(rows))


def test_sweep_checks_catch_a_decreasing_asc():
    text = ("p_s,asc_exact,mc_asc_diff,mc_asc_diff_se\n"
            "1.0,0.5,0.5,0.01\n"
            "2.0,0.4,0.4,0.01\n")
    problems = checks.check_sweep(text, SMALL_SWEEP["base"], seed=1, oracle_rows=0)
    assert any("decreases" in p for p in problems)


RELAY = {"model": "vanet_ris_relay", "p_s": 10.0, "n_0": 1.0, "beta": 2.7, "n_cells": 16,
         "r_d": 4.0, "r_e": 8.0, "r_s": 10.0}
VALIDATE_REPORT = (
    "p_s=1: asc_exact=0.00181527 mc=0.00181 +-3.8e-06 |gap|=5e-06 tol(3se)=1.1e-05 PASS\n"
    "p_s=1: sop[corrected]=1 mc=1 +-0 |gap|=0 tol=0.02 PASS\n"
    "gain-sum variance (N=16): mc=65.8289 +-0.24 corrected=%s (0.7 se)"
    " paper_literal=96.5008 (127.3 se) PASS\n"
    "VALIDATION: PASS\n"
)


def test_validate_check_accepts_a_correct_report():
    corrected = format(16 * (8.0 - (math.pi / 2.0) ** 3), ".6g")
    assert checks.check_validate(VALIDATE_REPORT % corrected, RELAY, seed=1) == []


def test_validate_check_rejects_the_paper_literal_variance_and_a_fail_verdict():
    report = (VALIDATE_REPORT % "96.5008").replace("VALIDATION: PASS", "VALIDATION: FAIL")
    problems = checks.check_validate(report, RELAY, seed=1)
    assert len(problems) == 2


def test_run_refuses_a_tree_without_the_package(tmp_path):
    proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", "relay-validate",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
