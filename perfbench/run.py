#!/usr/bin/env python3
"""End-to-end benchmark of the ``ris-secrecy`` CLI.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root; the package is imported from ``src/``. Every
CLI command runs in a fresh interpreter (``child.py``) with
RIS_SECRECY_THREADS=1, one command after the other (a closed loop with one
client). A round is the workload's commands once; a run makes the whole
number of rounds that comes nearest to ``--seconds``, and at least one.

``--trace 0`` reports the end-to-end metrics, timed from outside the child
processes: set-up (median of every process launched), and the median over
rounds of run wall time, run CPU time and peak RSS. ``--trace 1`` runs one
untraced and one traced round plus a kernel timing process and reports the
per-layer metrics. Either way the outputs are checked (``checks.py``) and
the last line of standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

An operation is one CLI command. It fails when it exits with an error (for
``validate``, with a code other than 0 or 1); ``correct`` covers the checks
on the operations that did not fail. See README.md for the workloads.
"""
import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

import checks

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd().resolve()
SRC = ROOT / "src"

SETUP_SAMPLES = 5  # set-up-only launches per untraced run, on top of one per command
COMMAND_TIMEOUT_S = 150.0

_RELAY = {"model": "vanet_ris_relay", "p_s": 10.0, "n_0": 1.0, "beta": 2.7,
          "n_cells": 16, "r_d": 4.0, "r_e": 8.0, "r_s": 10.0}
_V2V = {"model": "v2v_ris_ap", "p_s": 10.0, "n_0": 1.0, "beta": 2.7,
        "n_cells": 16, "r_d": 4.0, "r_e": 8.0}
_ALL_OUTPUTS = ["asc_exact", "asc_approx", "sop_corrected", "sop_paper_literal", "mc_asc", "mc_sop"]


@dataclass(frozen=True)
class Command:
    """One CLI invocation of a workload; ``config`` is the JSON config document."""

    name: str
    subcommand: str
    config: dict


def workload_commands(workload: str, seed: int) -> list:
    """The commands of one round. ``seed`` is the Monte-Carlo seed; the
    high-SNR eval has no Monte-Carlo output and does not depend on it."""
    def mc(trials):
        return {"trials": trials, "seed": seed, "batch": 8192}

    p_s_sweep = {"param": "p_s", "start": 1.0, "stop": 50.0, "steps": 25, "scale": "linear"}
    if workload == "relay-asc-sweep":
        # recipes/fig5.json with the seed substituted
        return [Command("sweep", "sweep", {
            "base": _RELAY, "sweep": p_s_sweep, "c_th": 1.0, "mc": mc(20_000),
            "outputs": ["asc_exact", "asc_approx", "mc_asc"]})]
    if workload == "v2v-mc-sweep":
        return [
            Command("sweep", "sweep", {
                "base": _V2V, "sweep": p_s_sweep, "c_th": 1.0, "mc": mc(200_000),
                "outputs": _ALL_OUTPUTS}),
            Command("eval-high-snr", "eval", {
                "base": dict(_V2V, p_s=1e12, r_d=0.001), "c_th": 1.0,
                "outputs": ["asc_exact"]}),
        ]
    if workload == "relay-validate":
        return [Command("validate", "validate", {
            "base": _RELAY,
            "sweep": {"param": "p_s", "start": 1.0, "stop": 300.0, "steps": 6, "scale": "log"},
            "c_th": 1.0, "mc": mc(200_000), "outputs": _ALL_OUTPUTS})]
    raise ValueError(f"unknown workload {workload!r}")


WORKLOADS = ("relay-asc-sweep", "v2v-mc-sweep", "relay-validate")


@dataclass
class Launch:
    rc: int
    setup_s: float
    run_s: float
    cpu_s: float
    rss_mb: float
    stamp: dict
    stdout: str
    stderr: str


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["RIS_SECRECY_THREADS"] = "1"
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def launch(work: Path, tag: str, child_args: list) -> Launch:
    """Run child.py once. Wall and CPU time come from outside the process,
    split at the set-up stamp the child writes; peak RSS is the child's own."""
    stamp_path = work / f"{tag}.stamp.json"
    out_path, err_path = work / f"{tag}.stdout", work / f"{tag}.stderr"
    argv = [sys.executable, str(HERE / "child.py"), str(stamp_path)] + child_args
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        t0 = time.monotonic_ns()
        proc = subprocess.Popen(argv, cwd=ROOT, env=_child_env(), stdout=out, stderr=err)
        timer = threading.Timer(COMMAND_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _pid, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        t1 = time.monotonic_ns()
    proc.returncode = os.waitstatus_to_exitcode(status)
    stamp = json.loads(stamp_path.read_text()) if stamp_path.exists() else None
    exit_path = work / f"{tag}.stamp.json.exit"
    peak_kb = json.loads(exit_path.read_text())["peak_rss_kb"] if exit_path.exists() else 0
    cpu = usage.ru_utime + usage.ru_stime
    setup_ns = stamp["setup_ns"] if stamp else t1
    return Launch(
        rc=proc.returncode,
        setup_s=(setup_ns - t0) / 1e9,
        run_s=(t1 - setup_ns) / 1e9,
        cpu_s=cpu - (stamp["setup_cpu_s"] if stamp else cpu),
        rss_mb=peak_kb / 1024.0,
        stamp=stamp,
        stdout=out_path.read_text(errors="replace"),
        stderr=err_path.read_text(errors="replace"),
    )


def run_round(work: Path, commands, round_no: int, traced: bool):
    """Run every command once; returns [(command, Launch, csv text, trace)]."""
    results = []
    for cmd in commands:
        tag = f"r{round_no}-{cmd.name}"
        cfg = work / f"{cmd.name}.config.json"
        cli = [cmd.subcommand, "--config", str(cfg)]
        csv_path = work / f"{tag}.csv"
        if cmd.subcommand == "sweep":
            cli += ["--out", str(csv_path)]
        opts = ["--trace", str(work / f"{tag}.trace.json")] if traced else []
        res = launch(work, tag, opts + ["--"] + cli)
        csv_text = csv_path.read_text() if csv_path.exists() else None
        trace_path = work / f"{tag}.trace.json"
        trace = json.loads(trace_path.read_text()) if trace_path.exists() else None
        results.append((cmd, res, csv_text, trace))
    return results


def _failed(cmd: Command, res: Launch) -> bool:
    return res.rc not in ((0, 1) if cmd.subcommand == "validate" else (0,))


def check_round(results, seed: int, reference) -> list:
    """Problems in one round's outputs. Outputs of later rounds must repeat
    the first round's byte for byte; only the first is checked in full."""
    problems = []
    for cmd, res, csv_text, _trace in results:
        if _failed(cmd, res):
            continue
        output = csv_text if cmd.subcommand == "sweep" else res.stdout
        if cmd.name in reference:
            if output != reference[cmd.name]:
                problems.append(f"{cmd.name}: output differs from the first round's")
            continue
        reference[cmd.name] = output
        base = cmd.config["base"]
        if cmd.subcommand == "sweep":
            found = checks.check_sweep(output or "", base, seed)
        elif cmd.subcommand == "validate":
            found = checks.check_validate(output, base, seed)
        else:
            found = checks.check_eval_asc(output, base, seed)
        problems += [f"{cmd.name}: {p}" for p in found]
    return problems


def _round_totals(results):
    return (sum(r.run_s for _c, r, _t, _tr in results),
            sum(r.cpu_s for _c, r, _t, _tr in results),
            max(r.rss_mb for _c, r, _t, _tr in results))


def _metric(value, unit):
    return {"value": float(value), "unit": unit}


def end_to_end_metrics(rounds, setup_samples) -> dict:
    totals = [_round_totals(r) for r in rounds]
    return {
        "setup_s": _metric(statistics.median(setup_samples), "s"),
        "run_s": _metric(statistics.median(t[0] for t in totals), "s"),
        "cpu_s": _metric(statistics.median(t[1] for t in totals), "s"),
        "peak_rss_mb": _metric(statistics.median(t[2] for t in totals), "MB"),
    }


def per_layer_metrics(untraced, traced, kernels: dict, stamps) -> tuple:
    """Per-layer metrics of the traced round, plus names the program lacks."""
    calls, times, self_s, outer_s = Counter(), Counter(), Counter(), Counter()
    evals = draws = distinct = draw_trials = 0
    absent = set(kernels.get("absent", []))
    for _cmd, _res, _csv, tr in traced:
        if tr is None:
            continue
        calls.update(tr["calls"])
        times.update(tr["time_s"])
        self_s.update(tr["layer_self_s"])
        outer_s.update(tr["layer_outer_s"])
        evals += tr["integrand_evals"]
        draws += tr["draws"]
        distinct += tr["distinct_draws"]
        draw_trials += tr["draw_trials"]
        absent.update(tr["absent"])
    integrals = calls["specfun.integrate_semi_infinite"]
    untraced_run = _round_totals(untraced)[0]
    traced_run = _round_totals(traced)[0]
    m = {
        "cli.import_s": _metric(statistics.median(s["import_s"] for s in stamps), "s"),
        "cli.config_s": _metric(statistics.median(s["config_s"] for s in stamps), "s"),
        "cli.self_s": _metric(self_s["cli"], "s"),
        "cli.points": _metric(calls["cli._point"] + calls["cli.run_point"], "count"),
        "secrecy.avg_capacity_calls": _metric(calls["secrecy.avg_capacity"], "count"),
        "secrecy.avg_capacity_s": _metric(times["secrecy.avg_capacity"], "s"),
        "secrecy.link_mgf_calls": _metric(calls["secrecy.link_mgf"], "count"),
        "secrecy.link_mgf_s": _metric(times["secrecy.link_mgf"], "s"),
        "secrecy.closed_form_s": _metric(times["secrecy.asc_approx"] + times["secrecy.sop"], "s"),
        "specfun.integrate_calls": _metric(integrals, "count"),
        "specfun.integrate_self_s": _metric(self_s["specfun"], "s"),
        "specfun.evals_per_integral": _metric(evals / integrals if integrals else 0.0, "count"),
        "channels.mgf_triple_calls": _metric(calls["channels.mgf_triple_cascade"], "count"),
        "channels.mgf_triple_s": _metric(times["channels.mgf_triple_cascade"], "s"),
        "channels.mgf_double_calls": _metric(calls["channels.mgf_double_rayleigh"], "count"),
        "channels.mgf_double_s": _metric(times["channels.mgf_double_rayleigh"], "s"),
        "channels.sample_s": _metric(times["channels.sample"], "s"),
        "montecarlo.draw_s": _metric(times["montecarlo.sample_gain_sums"], "s"),
        "montecarlo.reduce_s": _metric(
            outer_s["montecarlo"] - times["montecarlo.sample_gain_sums"], "s"),
        "montecarlo.blocks": _metric(draws, "count"),
        "montecarlo.draw_trials": _metric(draw_trials, "count"),
        "montecarlo.draw_reuse": _metric(distinct / draws if draws else 0.0, "ratio"),
        "trace.run_s": _metric(traced_run, "s"),
        "trace.overhead_pct": _metric(100.0 * (traced_run / untraced_run - 1.0), "%"),
    }
    for name, unit in (("bessel_k0_ns", "ns"), ("hyp2f1_special_ns", "ns"), ("erf_ns", "ns"),
                       ("mgf_double_rayleigh_ns", "ns"), ("mgf_triple_cascade_us", "us")):
        m[f"kernels.{name}"] = _metric(kernels.get("per_call", {}).get(name, 0.0), unit)
    return m, sorted(absent)


def _environment(stamp: dict) -> str:
    import numpy
    import scipy

    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return (f"backend={stamp.get('backend')} python={platform.python_version()}"
            f" numpy={numpy.__version__} scipy={scipy.__version__} cpu={cpu!r}"
            f" nproc={os.cpu_count()} RIS_SECRECY_THREADS=1")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not 0 <= args.seed < 2 ** 64:
        parser.error("--seed must lie in [0, 2**64)")
    if not (SRC / "ris_secrecy" / "cli.py").is_file():
        print(f"perfbench: no package source at {SRC / 'ris_secrecy'}; run from the repository root",
              file=sys.stderr)
        return 2

    commands = workload_commands(args.workload, args.seed)
    (HERE / ".work").mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=HERE / ".work"))
    try:
        for cmd in commands:
            (work / f"{cmd.name}.config.json").write_text(json.dumps(cmd.config, indent=1))
        first = commands[0]
        setup_only = ["--setup-only", "--", first.subcommand,
                      "--config", str(work / f"{first.name}.config.json")]
        warm = launch(work, "warmup", setup_only)  # also fills the bytecode caches
        pkg = (warm.stamp or {}).get("package_file", "")
        if warm.rc != 0 or not Path(pkg).resolve().is_relative_to(SRC):
            print(f"perfbench: the package does not import from {SRC}: {warm.stderr.strip()[-500:]}",
                  file=sys.stderr)
            return 2
        print("perfbench: " + _environment(warm.stamp))

        reference, problems, rounds, setup = {}, [], [], []
        if args.trace:
            untraced = run_round(work, commands, 0, traced=False)
            traced = run_round(work, commands, 1, traced=True)
            rounds = [untraced, traced]
            kern = launch(work, "kernels", ["--kernels", str(work / "kernels.json")])
            kernels = json.loads((work / "kernels.json").read_text()) if kern.rc == 0 else {}
            if kern.rc != 0:
                problems.append(f"kernel timing failed: {kern.stderr.strip()[-300:]}")
        else:
            for i in range(SETUP_SAMPLES):
                setup.append(launch(work, f"setup{i}", setup_only).setup_s)
            # Another round starts only if it would end no more than half a
            # round past --seconds, so a run measures --seconds give or take
            # half a round.
            start = time.monotonic()
            while True:
                rounds.append(run_round(work, commands, len(rounds), traced=False))
                elapsed = time.monotonic() - start
                if elapsed + 0.5 * elapsed / len(rounds) >= args.seconds:
                    break
        for rnd in rounds:
            problems += check_round(rnd, args.seed, reference)
        launches = [(cmd, res) for rnd in rounds for cmd, res, _c, _t in rnd]
        failed = [(cmd, res) for cmd, res in launches if _failed(cmd, res)]
        for name, rc, last in sorted({(cmd.name, res.rc, (res.stderr.strip().splitlines()
                                                          or ["(no output)"])[-1])
                                      for cmd, res in failed}):
            print(f"perfbench: {name} failed with exit code {rc}: {last}")
        for p in problems:
            print(f"perfbench: CHECK FAILED {p}")

        if args.trace:
            stamps = [res.stamp for _cmd, res in launches if res.stamp]
            metrics, absent = per_layer_metrics(untraced, traced, kernels, stamps)
            if absent:
                print("perfbench: absent from the program, reported as 0: " + ", ".join(absent))
        else:
            setup += [res.setup_s for _cmd, res in launches if res.stamp]
            metrics = end_to_end_metrics(rounds, setup)
        print(f"perfbench: {args.workload} seed={args.seed} rounds={len(rounds)}"
              f" attempted={len(launches)} failed={len(failed)}")
        for name, m in metrics.items():
            print(f"  {name:<32} {m['value']:.6g} {m['unit']}")
        print(json.dumps({"correct": not problems, "attempted": len(launches),
                          "failed": len(failed), "metrics": metrics}))
        return 0
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
