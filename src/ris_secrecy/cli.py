"""Command-line front end: single-point evaluation, parameter sweeps and
analytic-versus-Monte-Carlo validation, all driven by a JSON config.

Exit codes: 0 success, 1 validation failure, 2 config error, 3 numerical
failure.
"""
import argparse
import atexit
import contextlib
import errno
import gc
import io
import json
import math
import os
import sys
from dataclasses import asdict, dataclass, replace

import numpy as np

from . import channels
from .montecarlo import McConfig, McEstimate, McPointResult, mc_points
from .secrecy import Model, QuadratureError, SecrecyReport, SystemParams, _index, _real, secrecy_report

# The keys of the base section, each a SystemParams field
_BASE_KEYS = ("p_s", "n_0", "beta", "n_cells", "r_d", "r_e", "r_s")
SWEEPABLE = _BASE_KEYS + ("c_th",)
# Every output and its value columns, in CSV column order. The Monte-Carlo
# outputs and their columns are the ``mc_`` ones; the standard error of each
# such column follows all the values, as ``<column>_se``.
OUTPUT_COLUMNS = {
    "asc_exact": ("asc_exact",),
    "asc_approx": ("asc_approx",),
    "sop_corrected": ("sop_corrected",),
    "sop_paper_literal": ("sop_paper_literal",),
    "mc_asc": ("mc_asc_diff", "mc_asc_pos"),
    "mc_sop": ("mc_sop",),
}
DEFAULT_OUTPUTS = ("asc_exact", "asc_approx", "sop_corrected")

DEFAULT_RELAY_R_S = 10.0
# Absolute tolerance of validate's SOP check, the error of the CLT outage
# formula itself; three Monte-Carlo standard errors are added to it.
SOP_TOL = 0.02


class ConfigError(ValueError):
    pass


@dataclass(frozen=True)
class SweepSpec:
    """A 1-D sweep over one parameter, inclusive of both endpoints."""

    param: str
    start: float
    stop: float
    steps: int
    scale: str = "linear"

    def __post_init__(self):
        if self.param not in SWEEPABLE:
            raise ConfigError(f"sweep.param must be one of {SWEEPABLE}, got {self.param!r}")
        for name, check in (("start", _real), ("stop", _real), ("steps", _index)):
            object.__setattr__(self, name, check(getattr(self, name), f"sweep.{name}"))
        if not math.isfinite(self.stop - self.start):  # also rejects non-finite ends
            raise ConfigError("sweep start, stop and stop - start must be finite")
        if not self.start < self.stop:
            raise ConfigError("sweep requires start < stop")
        if self.steps < 2:
            raise ConfigError("sweep.steps must be >= 2")
        if self.scale not in ("linear", "log"):
            raise ConfigError(f"sweep.scale must be 'linear' or 'log', got {self.scale!r}")
        if self.scale == "log" and not self.start > 0.0:
            raise ConfigError("log-scale sweeps require start > 0")

    def values(self):
        if self.scale == "log":
            vals = np.geomspace(self.start, self.stop, self.steps)
        else:
            vals = np.linspace(self.start, self.stop, self.steps)
        if self.param == "n_cells":
            return [int(round(v)) for v in vals]
        return [float(v) for v in vals]


@dataclass(frozen=True)
class RunConfig:
    base: SystemParams
    sweep: SweepSpec | None
    mc: McConfig | None
    outputs: tuple

    def __post_init__(self):
        if not self.outputs:
            raise ConfigError("at least one output must be requested")
        for out in self.outputs:
            if out not in OUTPUT_COLUMNS:
                raise ConfigError(f"unknown output {out!r}; valid outputs: {tuple(OUTPUT_COLUMNS)}")
        if _wants_mc(self.outputs) and self.mc is None:
            raise ConfigError("Monte-Carlo outputs require an 'mc' config block")
        if self.sweep is not None and self.sweep.param == "r_s" and self.base.model is Model.V2V_RIS_AP:
            raise ConfigError("r_s can only be swept for the relay model")


# The keys whose values the types take as integers. JSON has one number type,
# so an integral float under one of them, such as 16.0, stands for an int.
_INTEGER_KEYS = ("n_cells", "steps", "trials", "seed", "batch")


def _section(name: str, doc, allowed) -> dict:
    """``doc`` as a config section: a JSON object with keys from ``allowed``,
    with an integral float under an integer key as an int."""
    if not isinstance(doc, dict):
        raise ConfigError(f"{name} must be a JSON object, got {doc!r}")
    unknown = set(doc) - set(allowed)
    if unknown:
        raise ConfigError(f"unknown key(s) in {name}: {sorted(unknown)}")
    return {key: int(value) if key in _INTEGER_KEYS and isinstance(value, float) and value.is_integer()
            else value for key, value in doc.items()}


def build_run_config(doc: dict) -> RunConfig:
    """Resolve a JSON config document into a RunConfig; the types check every
    field, and a value they reject is a ConfigError."""
    doc = _section("config", doc, ("base", "sweep", "c_th", "mc", "outputs"))
    if "base" not in doc:
        raise ConfigError("config requires a 'base' section")
    # the base section and the top-level c_th make the point; absent keys
    # take the SystemParams defaults, except the relay's r_s
    base = _section("base", doc["base"], ("model",) + _BASE_KEYS)
    if "model" not in base:
        raise ConfigError("base.model is required ('v2v_ris_ap' or 'vanet_ris_relay')")
    try:
        base["model"] = Model(base["model"])
    except ValueError:
        raise ConfigError(f"unknown model {base['model']!r}") from None
    if base["model"] is Model.VANET_RIS_RELAY:
        base.setdefault("r_s", DEFAULT_RELAY_R_S)
    if "c_th" in doc:
        base["c_th"] = doc["c_th"]
    sweep = mc = None
    try:
        point = SystemParams(**base)
        if doc.get("sweep") is not None:
            sw = _section("sweep", doc["sweep"], ("param", "start", "stop", "steps", "scale"))
            sweep = SweepSpec(**{"param": "", "start": 0.0, "stop": 0.0, "steps": 0, **sw})
        if doc.get("mc") is not None:
            m = _section("mc", doc["mc"], ("trials", "seed", "batch"))
            if _index(m.pop("batch", 1), "batch") < 1:  # accepted and checked, but has no effect
                raise ConfigError("batch must be >= 1")
            mc = McConfig(**m)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    outputs = doc.get("outputs", list(DEFAULT_OUTPUTS))
    if not (isinstance(outputs, list) and all(isinstance(out, str) for out in outputs)):
        raise ConfigError(f"outputs must be a list of output names, got {outputs!r}")
    return RunConfig(base=point, sweep=sweep, mc=mc, outputs=tuple(outputs))


def config_to_dict(cfg: RunConfig) -> dict:
    """Canonical JSON form of a RunConfig; re-parsing it yields an equal
    config. The point's c_th is a top-level key, as in the input."""
    doc = asdict(cfg)
    base = {key: value for key, value in doc["base"].items() if value is not None}
    base["model"] = cfg.base.model.value
    c_th = base.pop("c_th")
    doc = {"base": base, "sweep": doc["sweep"], "c_th": c_th, "mc": doc["mc"], "outputs": list(cfg.outputs)}
    return {key: value for key, value in doc.items() if value is not None}


def _point(cfg: RunConfig, value) -> SystemParams:
    """The point at one sweep value."""
    try:
        return replace(cfg.base, **{cfg.sweep.param: value})
    except ValueError as exc:
        raise ConfigError(f"{cfg.sweep.param}={value!r}: {exc}") from None


def _wants_mc(outputs) -> bool:
    return any(out.startswith("mc_") for out in outputs)


def _columns(outputs):
    """The CSV columns of ``outputs``: their value columns, then the standard
    error of each Monte-Carlo one."""
    cols = [col for out, out_cols in OUTPUT_COLUMNS.items() if out in outputs for col in out_cols]
    return cols + [col + "_se" for col in cols if col.startswith("mc_")]


def _row(report: SecrecyReport, res: McPointResult | None) -> dict:
    """The metrics of one point, keyed by column name: every field of its
    analytic ``report`` and of its Monte-Carlo result ``res`` (its destination
    ``gain_sum`` estimates too, for the relay variance check). The writers
    select the columns."""
    row = dict(vars(report))
    if res is not None:
        row["gain_sum"] = res.gain_sum
        for field in ("asc_diff", "asc_pos", "sop"):
            estimate = getattr(res, field)
            row[f"mc_{field}"], row[f"mc_{field}_se"] = estimate.value, estimate.std_error
    return row


def _fmt(v) -> str:
    # repr round-trips doubles exactly, which keeps CSV output lossless
    return repr(int(v)) if isinstance(v, (int, np.integer)) else repr(float(v))


def _rows(cfg: RunConfig):
    """(points, [row]): the run's points, the base point or one per sweep
    value, with every analytic metric of each from one ``secrecy_report``
    call, and the Monte-Carlo metrics when ``cfg.outputs`` asks for any; keyed
    by column name. All points are resolved, and all metrics computed, before
    the caller writes any output. A numerical failure names its sweep row."""
    points = [cfg.base] if cfg.sweep is None else [_point(cfg, value) for value in cfg.sweep.values()]
    try:
        reports = secrecy_report(points)
    except QuadratureError as exc:
        if cfg.sweep is None:
            raise
        index, param = exc.component, cfg.sweep.param
        raise QuadratureError(f"sweep row {index} ({param}={getattr(points[index], param)!r}) failed: {exc}",
                              component=index) from exc
    mc_results = mc_points(points, cfg.mc) if _wants_mc(cfg.outputs) else [None] * len(points)
    return points, [_row(report, res) for report, res in zip(reports, mc_results)]


def run_point(cfg: RunConfig, out) -> None:
    """Every requested metric at the base point, as a table; a sweep section
    in the config is ignored."""
    _points, (row,) = _rows(replace(cfg, sweep=None))
    cols = _columns(cfg.outputs)
    doc = config_to_dict(cfg)
    items = list(doc["base"].items()) + [("c_th", doc["c_th"])]
    if "asc_exact" in cfg.outputs:
        items += [("c_d", row["c_d"]), ("c_e", row["c_e"])]
    items += [(c, row[c]) for c in cols]
    width = max(len(k) for k, _ in items)
    for k, v in items:
        # integer fields print whole: :.12g gives 1e+12 for 1000000000001
        sval = v if isinstance(v, str) else str(v) if isinstance(v, int) else f"{v:.12g}"
        out.write(f"{k:<{width}}  {sval}\n")


def run_sweep(cfg: RunConfig, out) -> None:
    """Every requested metric of every point of the run as CSV, one row per
    point, led by the swept value when there is a sweep."""
    points, rows = _rows(cfg)
    lead = [cfg.sweep.param] if cfg.sweep is not None else []
    cols = _columns(cfg.outputs)
    out.write(",".join(lead + cols) + "\n")
    for point, row in zip(points, rows):
        out.write(",".join([_fmt(getattr(point, p)) for p in lead] + [_fmt(row[c]) for c in cols]) + "\n")


def run_validate(cfg: RunConfig, out) -> int:
    """Compare analytic metrics against Monte-Carlo at every point.

    The ASC check allows three MC standard errors; the SOP check of
    ``sop_corrected`` allows ``SOP_TOL`` plus three. For the relay model the
    variance of the summed gains, checked against both closed-form constants
    once for each cell count the run draws, judges the relay constants. Every
    check uses the rows of the run: its analytic reports and its one
    Monte-Carlo pass, which the outputs ``mc_asc`` and ``mc_sop`` switch on.
    Returns 0 when every check concludes and passes, 1 otherwise.
    """
    points, rows = _rows(replace(cfg, outputs=("mc_asc", "mc_sop")))
    too_few = _TOO_FEW if cfg.mc.trials < 2 else None  # a mean's std error needs two trials
    all_ok = True
    for point, row in zip(points, rows):
        value = getattr(point, cfg.sweep.param) if cfg.sweep is not None else None
        # cell counts print whole: :g gives 1e+06 for 1000000 and 1000001 alike
        label = ("base point" if value is None else f"{cfg.sweep.param}={value}" if isinstance(value, int)
                 else f"{cfg.sweep.param}={value:g}")
        analytic, se = row["asc_exact"], row["mc_asc_diff_se"]
        all_ok = _check(out, f"{label}: asc_exact", analytic, row["mc_asc_diff"], se, "3se", 3.0 * se,
                        inconclusive=too_few or (_TOO_WIDE if 3.0 * se > 0.1 * max(abs(analytic), 1e-6)
                                                 else None)) and all_ok
        se = row["mc_sop_se"]
        all_ok = _check(out, f"{label}: sop[corrected]", row["sop_corrected"], row["mc_sop"], se,
                        f"{SOP_TOL:g}+3se", SOP_TOL + 3.0 * se,
                        inconclusive=too_few or (_TOO_WIDE if se > 0.5 * SOP_TOL else None)) and all_ok
    if cfg.base.model is Model.VANET_RIS_RELAY:
        # the points of one cell count share their gain-sum estimates
        for n_cells, (_mean, var_est) in {p.n_cells: row["gain_sum"] for p, row in zip(points, rows)}.items():
            all_ok = _adjudicate_gain_variance(out, n_cells, var_est) and all_ok
    out.write("VALIDATION: %s\n" % ("PASS" if all_ok else "FAIL"))
    return 0 if all_ok else 1


# Why a check line is INCONCLUSIVE
_TOO_FEW = "too few trials for a std error"
_TOO_WIDE = "std error too large to conclude"


def _check(out, name: str, analytic: float, mc: float, se: float, tol_name: str, tol: float, *,
           inconclusive: str | None) -> bool:
    """Write the report line comparing ``analytic`` with the Monte-Carlo
    estimate ``mc`` (standard error ``se``); True when it is PASS: the gap
    is within ``tol``. The line says INCONCLUSIVE, with the reason
    ``inconclusive``, when that is given: the Monte-Carlo estimate cannot
    support either verdict."""
    gap = abs(analytic - mc)
    status = (f"INCONCLUSIVE ({inconclusive})" if inconclusive
              else "PASS" if gap <= tol else "FAIL")
    out.write(f"{name}={analytic:.6g} mc={mc:.6g} +-{se:.2g} |gap|={gap:.3g}"
              f" tol({tol_name})={tol:.3g} {status}\n")
    return status == "PASS"


def _adjudicate_gain_variance(out, n_cells: int, var_est: McEstimate) -> bool:
    """Print the measured variance of the summed relay gains at ``n_cells``
    next to both closed-form candidates (the report always shows the two
    constants); True when it is PASS. The line says INCONCLUSIVE below four
    trials, where the variance has no standard error; otherwise FAIL when the
    corrected constant is more than 4 standard errors off, and INCONCLUSIVE
    when the paper_literal one is also within 4, so the run cannot tell them
    apart."""
    corrected = n_cells * channels.TRIPLE_CASCADE_VARIANCE
    literal = n_cells * channels.PAPER_LITERAL_TRIPLE_VARIANCE
    too_few = var_est.trials < 4
    se = max(var_est.std_error, 1e-300)
    # distances in standard errors; nan where there is none
    z_corr = math.nan if too_few else abs(var_est.value - corrected) / se
    z_lit = math.nan if too_few else abs(var_est.value - literal) / se
    status = (f"INCONCLUSIVE ({_TOO_FEW})" if too_few
              else "FAIL" if not z_corr <= 4.0
              else f"INCONCLUSIVE ({_TOO_WIDE})" if z_lit <= 4.0 else "PASS")
    out.write(
        f"gain-sum variance (N={n_cells}): mc={var_est.value:.6g} +-{var_est.std_error:.2g}"
        f" corrected={corrected:.6g} ({z_corr:.1f} se) paper_literal={literal:.6g}"
        f" ({z_lit:.1f} se) {status}\n"
    )
    return status == "PASS"


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ris-secrecy",
        description="Average secrecy capacity and secrecy outage probability for "
                    "RIS-enabled vehicular links: closed-form analytics, quadrature "
                    "and Monte-Carlo simulation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, descr in (
        ("eval", "evaluate all requested metrics at the base parameter point"),
        ("sweep", "sweep one parameter and emit a CSV table"),
        ("validate", "cross-check analytic metrics against Monte-Carlo"),
    ):
        p = sub.add_parser(name, help=descr)
        p.add_argument("--config", required=True, help="path to the JSON run config")
        p.add_argument("--out", default=None, help="output path (default: stdout)")
        p.add_argument("--dump-config", default=None, metavar="PATH",
                       help="write the fully resolved config as JSON and exit")
        if name == "eval":
            p.add_argument("--csv", action="store_true", help="emit one CSV row instead of a table")
    return parser


def _check_out_path(path: str) -> None:
    """Reject, before the run, an --out path that cannot become a file. The
    file is not opened, so an existing one stays as it is until written."""
    if not path:
        raise ConfigError("--out '' names no file")
    if os.path.isdir(path):
        raise ConfigError(f"--out {path!r} is a directory")
    if not os.path.isdir(os.path.dirname(path) or "."):
        raise ConfigError(f"--out {path!r} is in a directory that does not exist")


def _write_output(option: str, path: str, text: str) -> None:
    """Write ``text`` to the file ``path``; any error is a config error."""
    try:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    except OSError as exc:
        raise ConfigError(f"cannot write {option} {path!r}: {exc.strerror or exc}") from None


def _write_stdout(text: str) -> None:
    """Write ``text`` to standard output; any error is a config error. After
    one, standard output points at the null device, so that the
    interpreter's final flush of what is left cannot fail again."""
    if sys.stdout is None:  # descriptor 1 was closed when the interpreter started
        raise ConfigError(f"cannot write standard output: {os.strerror(errno.EBADF)}")
    try:
        # line by line: a line is shorter than a pipe's atomic write, so an
        # unbuffered stream (python -u) cannot write part of one and miss
        # that the reader has gone
        for line in text.splitlines(keepends=True):
            sys.stdout.write(line)
        sys.stdout.flush()
    except OSError as exc:
        try:
            with open(os.devnull, "wb") as devnull:
                os.dup2(devnull.fileno(), sys.stdout.fileno())
        except (OSError, ValueError):  # also a stream without a descriptor
            pass
        raise ConfigError(f"cannot write standard output: {exc.strerror or exc}") from None


def _fail(code: int, message: str) -> int:
    """Print ``message`` on standard error and return the exit ``code``; on a
    closed standard error the message is dropped and the code kept."""
    if sys.stderr is not None:  # None where descriptor 2 was closed when the interpreter started
        with contextlib.suppress(OSError):
            print(message, file=sys.stderr)
    return code


def main(argv=None) -> int:
    # At interpreter exit, move every object still alive into the permanent
    # generation, so that the final collections do not walk the tens of
    # thousands of objects NumPy and this package leave (about 20 ms per
    # command). Only shutdown changes; registering again replaces the earlier
    # registration, so repeated calls add one handler.
    atexit.unregister(gc.freeze)
    atexit.register(gc.freeze)
    args = _build_parser().parse_args(argv)
    try:
        with open(args.config, "r", encoding="utf-8") as fh:
            try:
                doc = json.load(fh)
            except (ValueError, RecursionError) as exc:  # also non-UTF-8, too-long integers, deep nesting
                raise ConfigError(f"invalid JSON in {args.config}: {exc}") from None
        cfg = build_run_config(doc)
        if args.dump_config is not None:
            _write_output("--dump-config", args.dump_config, json.dumps(config_to_dict(cfg), indent=2) + "\n")
            return 0
        if args.out is not None:
            _check_out_path(args.out)
        if args.command == "sweep" and cfg.sweep is None:
            raise ConfigError("the sweep command requires a 'sweep' section in the config")
        # render first and write only a finished run, so that a failing one
        # leaves an existing --out file as it was and writes no partial output
        buf = io.StringIO()
        code = run_validate(cfg, buf) if args.command == "validate" else 0
        if args.command == "sweep":
            run_sweep(cfg, buf)
        elif args.command == "eval" and args.csv:
            run_sweep(replace(cfg, sweep=None), buf)
        elif args.command == "eval":
            run_point(cfg, buf)
        if args.out is None:
            _write_stdout(buf.getvalue())
        else:
            _write_output("--out", args.out, buf.getvalue())
        return code
    except (ConfigError, OSError, MemoryError) as exc:
        reason = "the run does not fit in memory" if isinstance(exc, MemoryError) else exc
        return _fail(2, f"config error: {reason}")
    except QuadratureError as exc:
        return _fail(3, f"numerical failure: {exc}")


if __name__ == "__main__":
    sys.exit(main())
