"""The statistics of ``tools/bench.py``, on fixed inputs: the paired median
ratio and its seeded bootstrap interval. Nothing here starts a process or
runs git."""
import importlib.util
from pathlib import Path

import pytest

_spec = importlib.util.spec_from_file_location("bench", Path(__file__).resolve().parent.parent / "tools" / "bench.py")
bench = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench)


def test_paired_ratio_of_a_constant_factor_is_that_factor():
    result = bench.paired_ratio([0.1, 0.2, 0.4, 0.3, 0.5], [0.2, 0.4, 0.8, 0.6, 1.0], seed=42)
    assert result == {"ratio": 2.0, "low": 2.0, "high": 2.0, "pairs": 5}


def test_paired_ratio_is_the_median_of_the_ratios_not_of_the_sides():
    # the side medians are 3 and 3, but the pairs say the change is 1.5x slower
    result = bench.paired_ratio([1.0, 2.0, 3.0, 4.0, 100.0], [1.5, 3.0, 4.5, 3.0, 3.0], seed=0)
    assert result["ratio"] == 1.5
    assert result["low"] <= 1.5 <= result["high"]


def test_aa_interval_contains_one():
    parent = [0.107, 0.112, 0.103, 0.118, 0.109, 0.111, 0.104]
    twin = [0.110, 0.108, 0.106, 0.113, 0.112, 0.105, 0.107]
    result = bench.paired_ratio(parent, twin, seed=42)
    assert result["low"] < 1.0 < result["high"]
    assert result["pairs"] == 7


def test_bootstrap_is_seeded():
    parent, change = [1.0, 1.2, 0.9, 1.1, 1.05], [1.1, 1.0, 1.0, 1.3, 0.95]
    assert bench.paired_ratio(parent, change, seed=7) == bench.paired_ratio(parent, change, seed=7)
    # the interval lies within the smallest and largest ratio
    result = bench.paired_ratio(parent, change, seed=7)
    ratios = [b / a for a, b in zip(parent, change)]
    assert min(ratios) <= result["low"] <= result["ratio"] <= result["high"] <= max(ratios)


def test_paired_ratio_needs_pairs():
    with pytest.raises(ValueError):
        bench.paired_ratio([1.0, 2.0], [1.0], seed=0)
    with pytest.raises(ValueError):
        bench.paired_ratio([], [], seed=0)


def test_quartiles():
    assert bench.quartiles([3.0, 1.0, 2.0, 5.0, 4.0]) == {"median": 3.0, "q1": 2.0, "q3": 4.0}
    assert bench.quartiles([0.5]) == {"median": 0.5, "q1": 0.5, "q3": 0.5}


def test_a_side_whose_runs_printed_no_result_is_not_all_correct():
    def run(pair, side, metrics):
        return {"workload": "w", "pair": pair, "side": side, "correct": True if metrics else None,
                "failed": 0 if metrics else None, "metrics": metrics}
    metrics = dict.fromkeys(bench.METRICS, 1.0)
    runs = [run(pair, side, metrics) for pair in range(2) for side in ("parent", "twin")]
    runs += [run(pair, "change", None) for pair in range(2)]
    sides = bench._summary(runs, "w")["sides"]
    assert sides["change"] == {"runs": 0, "no_result": 2, "all_correct": False, "failed": 0}
    assert sides["parent"]["all_correct"] and sides["parent"]["no_result"] == 0
