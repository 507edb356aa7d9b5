"""Command-line front end: single-point evaluation, parameter sweeps and
analytic-versus-Monte-Carlo validation, all driven by a JSON config.

Exit codes: 0 success, 1 validation failure, 2 config error, 3 numerical
failure.
"""
import argparse
import atexit
import gc
import io
import json
import math
import os
import sys
from dataclasses import asdict, dataclass, replace

import numpy as np

from . import channels
from .montecarlo import McConfig, McEstimate, McPointResult, default_threads, mc_points
from .secrecy import Model, SopMode, SystemParams, asc_approx, link_capacities, sop
from .specfun import QuadratureError

SWEEPABLE = ("p_s", "n_0", "beta", "n_cells", "r_d", "r_e", "r_s", "c_th")
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

_BASE_DEFAULTS = {"p_s": 10.0, "n_0": 1.0, "beta": 2.7, "n_cells": 16, "r_d": 4.0, "r_e": 8.0}
DEFAULT_RELAY_R_S = 10.0
DEFAULT_C_TH = 1.0


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
        if not (math.isfinite(self.start) and math.isfinite(self.stop)):
            raise ConfigError("sweep start and stop must be finite")
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
            return [max(1, int(round(v))) for v in vals]
        return [float(v) for v in vals]


@dataclass(frozen=True)
class RunConfig:
    base: SystemParams
    sweep: SweepSpec | None
    c_th: float
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
        if not 0.0 < self.c_th < math.inf:
            raise ConfigError("c_th must be finite and > 0")
        if self.sweep is not None and self.sweep.param == "r_s" and self.base.model is Model.V2V_RIS_AP:
            raise ConfigError("r_s can only be swept for the relay model")


def _section(name: str, doc, allowed) -> dict:
    """``doc`` as a config section: a JSON object with keys from ``allowed``."""
    if not isinstance(doc, dict):
        raise ConfigError(f"{name} must be a JSON object, got {doc!r}")
    unknown = set(doc) - set(allowed)
    if unknown:
        raise ConfigError(f"unknown key(s) in {name}: {sorted(unknown)}")
    return doc


def _integer(name: str, value) -> int:
    """``value`` as an int. Booleans, non-numbers and numbers with a fractional
    part are config errors, not truncated; integral floats such as 16.0 pass."""
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    if isinstance(value, float) and value.is_integer():
        return int(value)
    raise ConfigError(f"{name} must be an integer, got {value!r}")


def _real(name: str, value) -> float:
    """``value`` as a float. Booleans and non-numbers are config errors, not
    coerced; the range is checked where the value is used."""
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        try:
            return float(value)
        except OverflowError:
            raise ConfigError(f"{name} is outside the floating-point range") from None
    raise ConfigError(f"{name} must be a number, got {value!r}")


def _parse_base(doc) -> SystemParams:
    doc = _section("base", doc, ("model",) + tuple(_BASE_DEFAULTS) + ("r_s",))
    if "model" not in doc:
        raise ConfigError("base.model is required ('v2v_ris_ap' or 'vanet_ris_relay')")
    try:
        model = Model(doc["model"])
    except ValueError:
        raise ConfigError(f"unknown model {doc['model']!r}") from None
    if model is Model.V2V_RIS_AP and "r_s" in doc:
        raise ConfigError("r_s applies only to the relay model")
    fields = {key: (_integer if key == "n_cells" else _real)(f"base.{key}", doc.get(key, default))
              for key, default in _BASE_DEFAULTS.items()}
    if model is Model.VANET_RIS_RELAY:
        fields["r_s"] = _real("base.r_s", doc.get("r_s", DEFAULT_RELAY_R_S))
    try:
        return SystemParams(model=model, **fields)
    except (ValueError, OverflowError) as exc:
        raise ConfigError(str(exc)) from None


def build_run_config(doc: dict, *, seed: int | None = None, trials: int | None = None) -> RunConfig:
    """Resolve a JSON config document (plus CLI overrides) into a RunConfig."""
    doc = _section("config", doc, ("base", "sweep", "c_th", "mc", "outputs"))
    if "base" not in doc:
        raise ConfigError("config requires a 'base' section")
    base = _parse_base(doc["base"])
    sweep = None
    if doc.get("sweep") is not None:
        sw = _section("sweep", doc["sweep"], ("param", "start", "stop", "steps", "scale"))
        sweep = SweepSpec(
            param=sw.get("param", ""),
            start=_real("sweep.start", sw.get("start", 0.0)),
            stop=_real("sweep.stop", sw.get("stop", 0.0)),
            steps=_integer("sweep.steps", sw.get("steps", 0)),
            scale=sw.get("scale", "linear"),
        )
    mc = None
    if doc.get("mc") is not None:
        m = _section("mc", doc["mc"], ("trials", "seed", "batch"))
        if _integer("mc.batch", m.get("batch", 1)) < 1:  # accepted and checked, but has no effect
            raise ConfigError("batch must be >= 1")
        try:
            mc = McConfig(
                trials=_integer("mc.trials", m.get("trials", McConfig.trials)),
                seed=_integer("mc.seed", m.get("seed", McConfig.seed)),
            )
        except ValueError as exc:
            raise ConfigError(str(exc)) from None
    if seed is not None or trials is not None:
        try:
            if mc is None:
                mc = McConfig()
            if seed is not None:
                mc = replace(mc, seed=seed)
            if trials is not None:
                mc = replace(mc, trials=trials)
        except ValueError as exc:
            raise ConfigError(str(exc)) from None
    outputs = doc.get("outputs", list(DEFAULT_OUTPUTS))
    if not (isinstance(outputs, list) and all(isinstance(out, str) for out in outputs)):
        raise ConfigError(f"outputs must be a list of output names, got {outputs!r}")
    return RunConfig(base=base, sweep=sweep, c_th=_real("c_th", doc.get("c_th", DEFAULT_C_TH)),
                     mc=mc, outputs=tuple(outputs))


def config_to_dict(cfg: RunConfig) -> dict:
    """Canonical JSON form of a RunConfig; re-parsing it yields an equal config."""
    doc = {key: value for key, value in asdict(cfg).items() if value is not None}
    doc["base"] = {key: value for key, value in doc["base"].items() if value is not None}
    doc["base"]["model"] = cfg.base.model.value
    doc["outputs"] = list(cfg.outputs)
    return doc


def _point(cfg: RunConfig, value=None):
    """(SystemParams, c_th) at one sweep value (or the base point)."""
    if value is None:
        return cfg.base, cfg.c_th
    if cfg.sweep.param == "c_th":
        if not 0.0 < value < math.inf:
            raise ConfigError(f"c_th={value!r}: c_th must be finite and > 0")
        return cfg.base, float(value)
    try:
        return replace(cfg.base, **{cfg.sweep.param: value}), cfg.c_th
    except ValueError as exc:
        raise ConfigError(f"{cfg.sweep.param}={value!r}: {exc}") from None


def _wants_mc(outputs) -> bool:
    return any(out.startswith("mc_") for out in outputs)


def _columns(outputs):
    """The CSV columns of ``outputs``: their value columns, then the standard
    error of each Monte-Carlo one."""
    cols = [col for out, out_cols in OUTPUT_COLUMNS.items() if out in outputs for col in out_cols]
    return cols + [col + "_se" for col in cols if col.startswith("mc_")]


def _row(params: SystemParams, c_th: float, outputs, capacities, res: McPointResult | None) -> dict:
    """The metrics of one point, keyed by column name: the closed forms in
    ``outputs``, asc_exact with its (c_d, c_e) from the run's capacity engine
    call when there is one, and every field of the Monte-Carlo result ``res``
    (its destination ``gain_sum`` estimates too, for the relay variance
    check). The writers select the columns."""
    row = {}
    if capacities is not None:
        c_d, c_e = (float(c) for c in capacities)
        row.update(c_d=c_d, c_e=c_e, asc_exact=c_d - c_e)
    if "asc_approx" in outputs:
        row["asc_approx"] = asc_approx(params)
    for mode in SopMode:
        if f"sop_{mode.value}" in outputs:
            row[f"sop_{mode.value}"] = sop(params, c_th, mode)
    if res is not None:
        row.update(gain_sum=res.gain_sum,
                   mc_asc_diff=res.asc_diff.value, mc_asc_diff_se=res.asc_diff.std_error,
                   mc_asc_pos=res.asc_pos.value, mc_asc_pos_se=res.asc_pos.std_error,
                   mc_sop=res.sop.value, mc_sop_se=res.sop.std_error)
    return row


def _run_capacities(cfg: RunConfig, values, points) -> np.ndarray:
    """(c_d, c_e) at every (params, c_th) point from one capacity engine call
    (one quadrature per 32 points). A numerical failure names the sweep row
    it happened at."""
    try:
        return link_capacities([params for params, _c_th in points])
    except QuadratureError as exc:
        if cfg.sweep is None:
            raise
        index = exc.component
        raise QuadratureError(
            f"sweep row {index} ({cfg.sweep.param}={values[index]!r}) failed: {exc}",
            exc.best_estimate, exc.error_bound, component=index) from exc


def _fmt(v) -> str:
    # repr round-trips doubles exactly, which keeps CSV output lossless
    return repr(int(v)) if isinstance(v, (int, np.integer)) else repr(float(v))


def _rows(cfg: RunConfig):
    """(sweep values, [row]) with every requested metric of every point of the
    run, keyed by column name. All points are resolved, and all capacities and
    Monte-Carlo results computed, before the caller writes any output."""
    values = cfg.sweep.values() if cfg.sweep is not None else [None]
    points = [_point(cfg, value) for value in values]
    capacities = [None] * len(points)
    if "asc_exact" in cfg.outputs:
        capacities = _run_capacities(cfg, values, points)
    mc_results = [None] * len(points)
    if _wants_mc(cfg.outputs):
        mc_results = mc_points(points, cfg.mc)
    return values, [_row(params, c_th, cfg.outputs, caps, res)
                    for (params, c_th), caps, res in zip(points, capacities, mc_results)]


def run_point(cfg: RunConfig, out, as_csv: bool = False) -> None:
    """Every requested metric at the base point, as a table or one CSV row;
    a sweep section in the config is ignored."""
    _values, (row,) = _rows(replace(cfg, sweep=None))
    cols = _columns(cfg.outputs)
    if as_csv:
        out.write(",".join(cols) + "\n")
        out.write(",".join(_fmt(row[c]) for c in cols) + "\n")
        return
    items = list(config_to_dict(cfg)["base"].items()) + [("c_th", cfg.c_th)]
    if "c_d" in row:
        items += [("c_d", row["c_d"]), ("c_e", row["c_e"])]
    items += [(c, row[c]) for c in cols]
    width = max(len(k) for k, _ in items)
    for k, v in items:
        sval = v if isinstance(v, str) else f"{v:.12g}"
        out.write(f"{k:<{width}}  {sval}\n")


def run_sweep(cfg: RunConfig, out) -> None:
    values, rows = _rows(cfg)
    cols = _columns(cfg.outputs)
    out.write(",".join([cfg.sweep.param] + cols) + "\n")
    for value, row in zip(values, rows):
        out.write(",".join([_fmt(value)] + [_fmt(row[c]) for c in cols]) + "\n")


def run_validate(cfg: RunConfig, out, mode: SopMode, sop_tol: float = 0.02) -> int:
    """Compare analytic metrics against Monte-Carlo at every point.

    The SOP check allows ``sop_tol`` plus three MC standard errors, the same
    z as the ASC check. Returns 0 when every check concludes and passes, 1
    otherwise.
    """
    if cfg.mc is None:
        raise ConfigError("validate requires an 'mc' config block")
    if not 0.0 < sop_tol < math.inf:
        raise ConfigError(f"--sop-tol must be finite and > 0, got {sop_tol!r}")
    sop_name = f"sop_{mode.value}"
    values, rows = _rows(replace(cfg, outputs=("asc_exact", sop_name, "mc_asc", "mc_sop")))
    relay = cfg.base.model is Model.VANET_RIS_RELAY
    if relay:
        n = cfg.base.n_cells
        cells = values if cfg.sweep is not None and cfg.sweep.param == "n_cells" else [n] * len(rows)
        gain_sum = next((row["gain_sum"] for cell, row in zip(cells, rows) if cell == n), None)
        if gain_sum is None:  # the sweep skips the base cell count
            gain_sum = mc_points([(cfg.base, None)], cfg.mc)[0].gain_sum
    all_ok = True
    for value, row in zip(values, rows):
        label = "base point" if value is None else f"{cfg.sweep.param}={value:g}"
        analytic, mc, se = row["asc_exact"], row["mc_asc_diff"], row["mc_asc_diff_se"]
        gap = abs(analytic - mc)
        bound = 3.0 * se
        status = _verdict(gap, bound, inconclusive=bound > 0.1 * max(abs(analytic), 1e-6))
        all_ok = all_ok and status == "PASS"
        out.write(f"{label}: asc_exact={analytic:.6g} mc={mc:.6g}"
                  f" +-{se:.2g} |gap|={gap:.3g} tol(3se)={bound:.3g} {status}\n")
        analytic, mc, se = row[sop_name], row["mc_sop"], row["mc_sop_se"]
        gap = abs(analytic - mc)
        tol = sop_tol + 3.0 * se
        status = _verdict(gap, tol, inconclusive=se > 0.5 * sop_tol)
        all_ok = all_ok and status == "PASS"
        out.write(f"{label}: sop[{mode.value}]={analytic:.6g} mc={mc:.6g}"
                  f" +-{se:.2g} |gap|={gap:.3g} tol({sop_tol:g}+3se)={tol:.3g}"
                  f" {status}\n")
    if relay:
        all_ok = _adjudicate_gain_variance(cfg, out, gain_sum[1]) and all_ok
    out.write("VALIDATION: %s\n" % ("PASS" if all_ok else "FAIL"))
    return 0 if all_ok else 1


def _verdict(gap: float, tol: float, *, inconclusive: bool) -> str:
    """PASS when ``gap`` is within ``tol``, FAIL otherwise, and INCONCLUSIVE
    when the Monte-Carlo error is too large for either."""
    if inconclusive:
        return "INCONCLUSIVE (std error too large to conclude)"
    return "PASS" if gap <= tol else "FAIL"


def _adjudicate_gain_variance(cfg: RunConfig, out, var_est: McEstimate) -> bool:
    """Print the measured variance of the summed relay gains next to both
    closed-form candidates (the report always shows the two constants)."""
    n = cfg.base.n_cells
    corrected = n * channels.TRIPLE_CASCADE_VARIANCE
    literal = n * channels.PAPER_LITERAL_TRIPLE_VARIANCE
    se = max(var_est.std_error, 1e-300)
    z_corr = abs(var_est.value - corrected) / se
    z_lit = abs(var_est.value - literal) / se
    ok = z_corr <= 4.0
    out.write(
        f"gain-sum variance (N={n}): mc={var_est.value:.6g} +-{var_est.std_error:.2g}"
        f" corrected={corrected:.6g} ({z_corr:.1f} se) paper_literal={literal:.6g}"
        f" ({z_lit:.1f} se) {'PASS' if ok else 'FAIL'}\n"
    )
    return ok


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
        p.add_argument("--seed", type=int, default=None, help="override mc.seed")
        p.add_argument("--trials", type=int, default=None, help="override mc.trials")
        p.add_argument("--dump-config", default=None, metavar="PATH",
                       help="write the fully resolved config as JSON and exit")
        if name == "eval":
            p.add_argument("--csv", action="store_true", help="emit one CSV row instead of a table")
        if name == "validate":
            p.add_argument("--mode", choices=("corrected", "paper-literal"), default="corrected",
                           help="relay-model SOP constants checked against Monte-Carlo")
            p.add_argument("--sop-tol", type=float, default=0.02,
                           help="absolute SOP tolerance (default 0.02)")
    return parser


def _check_out_path(path: str) -> None:
    """Reject, before the run, an --out path that cannot become a file. The
    file is not opened, so an existing one stays as it is until written."""
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
            except ValueError as exc:  # also a non-UTF-8 file or an integer too long to parse
                raise ConfigError(f"invalid JSON in {args.config}: {exc}") from None
        cfg = build_run_config(doc, seed=args.seed, trials=args.trials)
        try:
            default_threads()
        except ValueError as exc:
            raise ConfigError(str(exc)) from None
        if args.out is not None and args.dump_config is None:
            _check_out_path(args.out)
    except (ConfigError, OSError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2

    def run(out) -> int:
        if args.command == "eval":
            run_point(cfg, out, as_csv=args.csv)
            return 0
        if args.command == "sweep":
            if cfg.sweep is None:
                raise ConfigError("the sweep command requires a 'sweep' section in the config")
            run_sweep(cfg, out)
            return 0
        mode = SopMode.CORRECTED if args.mode == "corrected" else SopMode.PAPER_LITERAL
        return run_validate(cfg, out, mode, sop_tol=args.sop_tol)

    try:
        if args.dump_config is not None:
            _write_output("--dump-config", args.dump_config, json.dumps(config_to_dict(cfg), indent=2) + "\n")
            return 0
        if args.out is None:
            return run(sys.stdout)
        # render first and write the file only for a finished run, so that a
        # failing one leaves an existing --out file as it was
        buf = io.StringIO()
        code = run(buf)
        _write_output("--out", args.out, buf.getvalue())
        return code
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except QuadratureError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
