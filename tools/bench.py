"""Paired end-to-end timings of the working tree against a parent revision.

    python tools/bench.py --parent REV --out BENCH_<n>.json

Run from the repository root. The script exports REV twice with ``git
archive`` into a temporary directory, once as the parent and once as its
A/A twin, and runs ``perfbench/run.py --workload W --seed 42 --seconds 3
--trace 0`` on the parent, the working tree and the twin, each from its own
tree's root (perfbench imports ``src/`` from the current directory). Within
a pair the order alternates: parent, working tree, twin in even pairs, and
twin, working tree, parent in odd ones. It then times the Tier-1 suite once
on each side, with ``-p no:cacheprovider`` so that no cache is written into
either tree, and 25 launches of ``python -c "import numpy"`` as the floor
every fresh process pays.

The output file holds every run's end-to-end metrics with its ``correct``
and ``failed``; per workload and side, the median and quartiles of each
metric; per workload and metric, the paired median ratio (working tree over
parent, and twin over parent for the A/A row) with a seeded percentile
bootstrap 95% interval over the pairs; and the environment: the golden
``FINGERPRINT`` text of the running platform, the CPU count, the BLAS
thread variables and ``sys.dont_write_bytecode``. It sets no gate: the A/A
row shows how far two runs of one revision drift apart on this host.

The script uses the standard library only, and the package does not import
it. Ten pairs at 3 s per run take about nine minutes on two vCPUs.
"""
import argparse
import io
import json
import os
import random
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time
from pathlib import Path

ROOT = Path.cwd().resolve()
WORKLOADS = ("relay-asc-sweep", "v2v-mc-sweep", "relay-validate")
METRICS = ("setup_s", "run_s", "cpu_s", "peak_rss_mb")
SIDES = ("parent", "change", "twin")
PAIRS = 10
SECONDS = 3.0
SEED = 42  # perfbench's --seed, and the bootstrap's
RESAMPLES = 2000
FLOOR_RUNS = 25
THREAD_VARIABLES = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def quartiles(values) -> dict:
    """The median and the first and third quartiles of ``values``."""
    values = sorted(values)
    if len(values) == 1:
        return {"median": values[0], "q1": values[0], "q3": values[0]}
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def paired_ratio(base, other, seed: int) -> dict:
    """The median of the paired ratios other[i] / base[i], with a percentile
    bootstrap 95% interval: the pairs resampled with replacement
    ``RESAMPLES`` times by ``random.Random(seed)``, and the 2.5% and 97.5%
    points of the resampled medians."""
    if len(base) != len(other) or not base:
        raise ValueError("paired_ratio needs two equally long, non-empty samples")
    ratios = [b / a for a, b in zip(base, other)]
    rng = random.Random(seed)
    medians = sorted(statistics.median(rng.choices(ratios, k=len(ratios))) for _ in range(RESAMPLES))
    return {"ratio": statistics.median(ratios), "low": medians[round(0.025 * (RESAMPLES - 1))],
            "high": medians[round(0.975 * (RESAMPLES - 1))], "pairs": len(ratios)}


def _export(rev: str, dest: Path) -> None:
    """The files of ``rev`` under ``dest``, from ``git archive``."""
    archive = subprocess.run(["git", "archive", "--format=tar", rev], cwd=ROOT, capture_output=True, check=True)
    with tarfile.open(fileobj=io.BytesIO(archive.stdout)) as tar:
        tar.extractall(dest, filter="data")


def _perfbench(tree: Path, workload: str) -> dict:
    """One ``perfbench/run.py --trace 0`` run in ``tree``: its exit code, and
    from its last line ``correct``, ``attempted``, ``failed`` and the four
    end-to-end metrics (all None where the run printed no result)."""
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(SEED),
                           "--seconds", str(SECONDS), "--trace", "0"],
                          cwd=tree, capture_output=True, text=True, timeout=20 * SECONDS + 300)
    run = {"rc": proc.returncode, "correct": None, "attempted": None, "failed": None, "metrics": None}
    try:
        result = json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, json.JSONDecodeError):
        run["error"] = proc.stderr.strip()[-500:]
        return run
    run.update(correct=result["correct"], attempted=result["attempted"], failed=result["failed"],
               metrics={name: result["metrics"][name]["value"] for name in METRICS})
    return run


def _tier1(tree: Path) -> dict:
    """Wall time, exit code and summary line of the Tier-1 suite in ``tree``."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
                           "--continue-on-collection-errors"],
                          cwd=tree, env=env, capture_output=True, text=True, timeout=1800)
    wall = time.perf_counter() - t0
    lines = proc.stdout.strip().splitlines()
    return {"wall_s": wall, "rc": proc.returncode, "summary": lines[-1] if lines else ""}


def _floor() -> dict:
    """Wall times of ``FLOOR_RUNS`` fresh ``python -c "import numpy"`` launches."""
    samples = []
    for _ in range(FLOOR_RUNS):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import numpy"], check=True)
        samples.append(time.perf_counter() - t0)
    return {"command": 'python -c "import numpy"', "runs": FLOOR_RUNS, "median_s": statistics.median(samples),
            "samples_s": samples}


def _environment() -> dict:
    """The running platform's golden fingerprint (from a child, since it
    needs NumPy), whether it is the committed one, and the settings that
    move fresh-process timings."""
    code = ("import importlib.util, sys\n"
            "spec = importlib.util.spec_from_file_location('regenerate', 'tests/golden/regenerate.py')\n"
            "module = importlib.util.module_from_spec(spec)\n"
            "spec.loader.exec_module(module)\n"
            "sys.stdout.write(module.fingerprint())\n")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    fingerprint = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env, capture_output=True,
                                 text=True, check=True).stdout
    committed = (ROOT / "tests" / "golden" / "FINGERPRINT").read_text(encoding="utf-8")
    return {"fingerprint": fingerprint, "fingerprint_is_committed": fingerprint == committed,
            "cpu_count": os.cpu_count(), "thread_variables": {v: os.environ.get(v) for v in THREAD_VARIABLES},
            "dont_write_bytecode": sys.dont_write_bytecode}


def _git(*args) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True, check=True).stdout.strip()


def _summary(runs: list, workload: str) -> dict:
    """Per side the medians and quartiles of one workload's runs, and the
    paired ratios against the parent of the working tree and of the twin,
    over the pairs in which both runs printed a result. A side is
    ``all_correct`` only if every one of its runs printed a result and each
    result was correct; ``no_result`` counts the runs that printed none."""
    by_pair = {}
    for run in runs:
        if run["workload"] == workload:
            by_pair.setdefault(run["pair"], {})[run["side"]] = run
    summary = {"sides": {}, "change_vs_parent": {}, "aa_twin_vs_parent": {}}
    for side in SIDES:
        side_runs = [pair[side] for pair in by_pair.values() if side in pair]
        done = [run for run in side_runs if run["metrics"]]
        summary["sides"][side] = {
            "runs": len(done), "no_result": len(side_runs) - len(done),
            "all_correct": len(done) == len(side_runs) and all(run["correct"] for run in done),
            "failed": sum(run["failed"] for run in done),
            **{name: quartiles([run["metrics"][name] for run in done]) for name in METRICS if done}}
    for key, side in (("change_vs_parent", "change"), ("aa_twin_vs_parent", "twin")):
        pairs = [(pair["parent"]["metrics"], pair[side]["metrics"]) for pair in by_pair.values()
                 if pair.get("parent", {}).get("metrics") and pair.get(side, {}).get("metrics")]
        for name in METRICS:
            if pairs:
                summary[key][name] = paired_ratio([a[name] for a, _b in pairs], [b[name] for _a, b in pairs], SEED)
    return summary


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, help="the revision to compare the working tree with")
    parser.add_argument("--out", required=True, type=Path, help="the JSON file to write")
    args = parser.parse_args(argv)
    if not (ROOT / "perfbench" / "run.py").is_file():
        parser.error("run from the repository root")

    started = time.perf_counter()
    doc = {"parent": {"rev": args.parent, "commit": _git("rev-parse", args.parent)},
           "change": {"head": _git("rev-parse", "HEAD"), "dirty": bool(_git("status", "--porcelain"))},
           "settings": {"pairs": PAIRS, "seconds": SECONDS, "seed": SEED,
                        "bootstrap_resamples": RESAMPLES, "workloads": list(WORKLOADS)},
           "environment": _environment()}
    with tempfile.TemporaryDirectory(prefix="bench-") as tmp:
        trees = {"parent": Path(tmp) / "parent", "change": ROOT, "twin": Path(tmp) / "twin"}
        _export(args.parent, trees["parent"])
        _export(args.parent, trees["twin"])
        runs = []
        for pair in range(PAIRS):
            order = SIDES if pair % 2 == 0 else SIDES[::-1]
            for workload in WORKLOADS:
                for position, side in enumerate(order):
                    run = _perfbench(trees[side], workload)
                    runs.append({"workload": workload, "pair": pair, "side": side, "position": position, **run})
                    print(f"bench: pair {pair} {workload} {side}: rc={run['rc']} {run['metrics']}", file=sys.stderr)
        doc["runs"] = runs
        doc["workloads"] = {workload: _summary(runs, workload) for workload in WORKLOADS}
        doc["tier1"] = {side: _tier1(trees[side]) for side in ("parent", "change")}
    doc["floor"] = _floor()
    doc["wall_s"] = time.perf_counter() - started
    args.out.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
