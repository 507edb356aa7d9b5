"""CLI behaviour: config handling, CSV output, validation runs, exit codes,
byte-level determinism."""
import errno
import io
import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from ris_secrecy import channels, cli, montecarlo, secrecy
from ris_secrecy.cli import (
    ConfigError,
    RunConfig,
    SweepSpec,
    build_run_config,
    config_to_dict,
    main,
)
from ris_secrecy.secrecy import Model

REPO_ROOT = Path(__file__).resolve().parent.parent
RECIPES = REPO_ROOT / "recipes"


def _write(tmp_path, doc, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def _v2v_doc(**overrides):
    doc = {"base": {"model": "v2v_ris_ap"}, "outputs": ["asc_approx"]}
    doc.update(overrides)
    return doc


def _child_env(**extra):
    """The environment of a child Python that imports the package from src."""
    env = dict(os.environ, **extra)
    env["PYTHONPATH"] = str(REPO_ROOT / "src") + os.pathsep + env.get("PYTHONPATH", "")
    return env


def _read_csv(path):
    lines = Path(path).read_text().strip().splitlines()
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    return header, rows


class TestConfigParsing:
    def test_minimal_config(self, tmp_path):
        cfg = build_run_config({"base": {"model": "v2v_ris_ap"}})
        assert cfg.base.model is Model.V2V_RIS_AP
        assert cfg.base.p_s == 10.0 and cfg.base.n_cells == 16
        assert cfg.outputs == ("asc_exact", "asc_approx", "sop_corrected")
        assert cfg.base.c_th == 1.0
        assert cfg.mc is None

    def test_relay_gets_default_r_s(self):
        cfg = build_run_config({"base": {"model": "vanet_ris_relay"}})
        assert cfg.base.r_s == 10.0

    @pytest.mark.parametrize(
        "doc",
        [
            {},
            {"base": {"model": "warp_drive"}},
            {"base": {"model": "v2v_ris_ap"}, "outputs": []},
            {"base": {"model": "v2v_ris_ap"}, "outputs": ["asc_exact", "nope"]},
            {"base": {"model": "v2v_ris_ap"}, "outputs": ["mc_asc"]},
            {"base": {"model": "v2v_ris_ap", "r_s": 10.0}},
            {"base": {"model": "v2v_ris_ap"}, "typo_key": 1},
            {"base": {"model": "v2v_ris_ap", "p_s": -3.0}},
            {"base": {"model": "v2v_ris_ap"}, "c_th": 0.0},
            {"base": {"model": "v2v_ris_ap"},
             "sweep": {"param": "r_s", "start": 5, "stop": 20, "steps": 4}},
            {"base": {"model": "v2v_ris_ap"},
             "sweep": {"param": "p_s", "start": 5, "stop": 2, "steps": 4}},
            {"base": {"model": "v2v_ris_ap"},
             "sweep": {"param": "p_s", "start": 1, "stop": 2, "steps": 1}},
            {"base": {"model": "v2v_ris_ap"},
             "sweep": {"param": "n_0", "start": 0.0, "stop": 2, "steps": 4, "scale": "log"}},
            {"base": {"model": "v2v_ris_ap"}, "mc": {"trials": 0}},
            {"base": {"model": "v2v_ris_ap", "p_s": math.inf}},
            {"base": {"model": "v2v_ris_ap", "n_0": math.nan}},
            {"base": {"model": "v2v_ris_ap", "n_cells": math.inf}},
            {"base": {"model": "v2v_ris_ap", "n_cells": "many"}},
            {"base": {"model": "vanet_ris_relay", "r_s": math.inf}},
            {"base": {"model": "vanet_ris_relay", "r_s": "far"}},
            {"base": {"model": "v2v_ris_ap"},
             "sweep": {"param": "p_s", "start": 1, "stop": math.inf, "steps": 4}},
            # integer fields are never truncated
            {"base": {"model": "v2v_ris_ap", "n_cells": 16.5}},
            {"base": {"model": "v2v_ris_ap", "n_cells": True}},
            {"base": {"model": "v2v_ris_ap"}, "mc": {"trials": 2.9}},
            {"base": {"model": "v2v_ris_ap"}, "mc": {"seed": 4.7}},
            {"base": {"model": "v2v_ris_ap"}, "mc": {"batch": 8192.5}},
            {"base": {"model": "v2v_ris_ap"}, "mc": {"trials": None}},
            {"base": {"model": "v2v_ris_ap"},
             "sweep": {"param": "p_s", "start": 1, "stop": 2, "steps": 2.7}},
            # float fields take numbers only: no booleans, strings or
            # integers beyond the float range
            {"base": {"model": "v2v_ris_ap", "p_s": True, "r_d": True}},
            {"base": {"model": "v2v_ris_ap", "n_0": False}},
            {"base": {"model": "v2v_ris_ap", "beta": True}},
            {"base": {"model": "v2v_ris_ap", "r_e": True}},
            {"base": {"model": "vanet_ris_relay", "r_s": True}},
            {"base": {"model": "v2v_ris_ap", "p_s": "10"}},
            {"base": {"model": "v2v_ris_ap", "p_s": 10 ** 400}},
            {"base": {"model": "v2v_ris_ap"}, "c_th": True},
            {"base": {"model": "v2v_ris_ap"}, "c_th": "1"},
            {"base": {"model": "v2v_ris_ap"}, "c_th": math.inf},
            {"base": {"model": "v2v_ris_ap"},
             "sweep": {"param": "p_s", "start": True, "stop": 2, "steps": 3}},
            {"base": {"model": "v2v_ris_ap"},
             "sweep": {"param": "p_s", "start": 1, "stop": True, "steps": 3}},
            # sections of the wrong JSON type
            5,
            {"base": 5},
            {"base": {"model": "v2v_ris_ap"}, "sweep": 5},
            {"base": {"model": "v2v_ris_ap"}, "mc": ""},
            {"base": {"model": "v2v_ris_ap"}, "mc": [1000]},
            {"base": {"model": "v2v_ris_ap"}, "outputs": 5},
            {"base": {"model": "v2v_ris_ap"}, "outputs": "asc_exact"},
            {"base": {"model": "v2v_ris_ap"}, "outputs": None},
            {"base": {"model": "v2v_ris_ap"}, "outputs": [["asc_exact"]]},
            # an integer field beyond the double range
            {"base": {"model": "v2v_ris_ap", "n_cells": 10 ** 400}},
            {"base": {"model": "v2v_ris_ap"}, "mc": {"seed": -5}},
            # finite ends whose span overflows
            {"base": {"model": "v2v_ris_ap"},
             "sweep": {"param": "p_s", "start": -1e308, "stop": 1.7e308, "steps": 3}},
        ],
    )
    def test_rejects_bad_documents(self, doc):
        with pytest.raises(ConfigError):
            build_run_config(doc)

    def test_threshold_is_a_top_level_key(self):
        # c_th is a field of the point, but the config keeps it outside base
        cfg = build_run_config({"base": {"model": "vanet_ris_relay"}, "c_th": 2.5})
        assert cfg.base.c_th == 2.5
        with pytest.raises(ConfigError, match=r"unknown key\(s\) in base: \['c_th'\]"):
            build_run_config({"base": {"model": "v2v_ris_ap", "c_th": 1.0}})

    def test_integral_floats_are_integers(self):
        cfg = build_run_config({"base": {"model": "v2v_ris_ap", "n_cells": 16.0},
                                "sweep": {"param": "p_s", "start": 1, "stop": 2, "steps": 3.0},
                                "mc": {"trials": 1000.0, "seed": 7.0, "batch": 4096.0}})
        assert cfg == build_run_config({"base": {"model": "v2v_ris_ap", "n_cells": 16},
                                        "sweep": {"param": "p_s", "start": 1, "stop": 2, "steps": 3},
                                        "mc": {"trials": 1000, "seed": 7, "batch": 4096}})
        assert type(cfg.base.n_cells) is int and type(cfg.mc.trials) is int

    def test_round_trip(self):
        doc = {
            "base": {"model": "vanet_ris_relay", "p_s": 25.0, "r_s": 12.0},
            "sweep": {"param": "c_th", "start": 0.5, "stop": 2.5, "steps": 9, "scale": "linear"},
            "c_th": 1.5,
            "mc": {"trials": 5000, "seed": 7, "batch": 1000},
            "outputs": ["sop_corrected", "mc_sop"],
        }
        cfg = build_run_config(doc)
        assert build_run_config(config_to_dict(cfg)) == cfg

    def test_sweep_values_log_scale(self):
        sw = SweepSpec(param="p_s", start=1.0, stop=100.0, steps=3, scale="log")
        assert sw.values() == pytest.approx([1.0, 10.0, 100.0], rel=1e-12)

    def test_sweep_values_cell_counts_are_integers(self):
        sw = SweepSpec(param="n_cells", start=4.0, stop=32.0, steps=8)
        vals = sw.values()
        assert all(isinstance(v, int) and v >= 1 for v in vals)


class TestEval:
    def test_table_contains_documented_default(self, tmp_path, capsys):
        cfg = _write(tmp_path, _v2v_doc())
        assert main(["eval", "--config", cfg]) == 0
        out = capsys.readouterr().out
        assert "asc_approx" in out
        assert "1.85937081" in out

    def test_table_prints_integer_fields_whole(self, tmp_path, capsys):
        doc = _v2v_doc(base={"model": "v2v_ris_ap", "n_cells": 1_000_000_000_001})
        assert main(["eval", "--config", _write(tmp_path, doc)]) == 0
        (line,) = [line for line in capsys.readouterr().out.splitlines() if line.startswith("n_cells ")]
        assert line.split() == ["n_cells", "1000000000001"]

    def test_csv_row(self, tmp_path):
        cfg = _write(tmp_path, _v2v_doc())
        out = tmp_path / "row.csv"
        assert main(["eval", "--config", cfg, "--csv", "--out", str(out)]) == 0
        header, rows = _read_csv(out)
        assert header == ["asc_approx"]
        assert float(rows[0][0]) == pytest.approx(1.8593708133970917, rel=1e-15)

    def test_missing_config_file(self, tmp_path):
        assert main(["eval", "--config", str(tmp_path / "nope.json")]) == 2

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        assert main(["eval", "--config", str(path)]) == 2

    @pytest.mark.parametrize("raw", [b'{"base": {"model": "v2v_ris_ap", "p_s": ' + b"1" * 5000 + b"}}",
                                     b'{"base": {"model": "v2v_ris_\xff"}}',
                                     b"[" * 100_000 + b"]" * 100_000],
                             ids=["integer_too_long", "not_utf8", "nested"])
    def test_unreadable_documents_are_config_errors(self, tmp_path, capsys, raw):
        path = tmp_path / "bad.json"
        path.write_bytes(raw)
        assert main(["eval", "--config", str(path)]) == 2
        assert capsys.readouterr().err.startswith("config error: invalid JSON")

    def test_bad_config_exit_code(self, tmp_path):
        cfg = _write(tmp_path, _v2v_doc(outputs=[]))
        assert main(["eval", "--config", cfg]) == 2

    def test_mc_output_without_mc_block(self, tmp_path):
        cfg = _write(tmp_path, _v2v_doc(outputs=["mc_asc"]))
        assert main(["eval", "--config", cfg]) == 2

    @pytest.mark.parametrize("command", ["eval", "validate"])
    def test_cell_count_beyond_the_stream_period_is_a_config_error(self, tmp_path, monkeypatch, capsys, command):
        # the relay's five factor stretches of 1e300 outputs each wrap the
        # random stream's 2**128 period: refused before any block is drawn,
        # where the draw would walk its column pieces without end
        def draw(*args):
            raise AssertionError("a block was drawn")

        monkeypatch.setattr(montecarlo, "sample_gain_sums", draw)
        doc = {"base": {"model": "vanet_ris_relay", "n_cells": 1e300}, "mc": {"trials": 1, "seed": 1},
               "outputs": ["mc_asc"]}
        assert main([command, "--config", _write(tmp_path, doc)]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("config error: n_cells=1e+300 is above 6.80565e+37: ") and err.count("\n") == 1

    def test_sweep_point_outside_domain_is_a_config_error(self, tmp_path):
        # the SNR scale overflows at the last sweep value
        doc = _v2v_doc(base={"model": "v2v_ris_ap", "r_d": 1e-10},
                       sweep={"param": "p_s", "start": 1.0, "stop": 1e300, "steps": 3})
        assert main(["sweep", "--config", _write(tmp_path, doc)]) == 2

    def test_sweep_point_outside_domain_fails_before_any_row(self, tmp_path):
        doc = _v2v_doc(base={"model": "v2v_ris_ap", "r_d": 1e-10}, outputs=["asc_approx", "mc_asc"],
                       sweep={"param": "p_s", "start": 1.0, "stop": 1e300, "steps": 3},
                       mc={"trials": 1000, "seed": 1})
        out = tmp_path / "sweep.csv"
        assert main(["sweep", "--config", _write(tmp_path, doc), "--out", str(out)]) == 2
        assert not out.exists()

    def test_failing_sweep_leaves_an_existing_out_file_as_it_was(self, tmp_path):
        doc = {"base": {"model": "v2v_ris_ap"}, "outputs": ["sop_corrected"],
               "sweep": {"param": "c_th", "start": -1.0, "stop": 1.0, "steps": 3}}
        out = tmp_path / "sweep.csv"
        previous = b"c_th,sop_corrected\r\n0.5,0.25\n"
        out.write_bytes(previous)
        assert main(["sweep", "--config", _write(tmp_path, doc), "--out", str(out)]) == 2
        assert out.read_bytes() == previous

    @pytest.mark.parametrize("outputs", [["sop_corrected"], ["asc_exact"], ["mc_sop"]])
    def test_non_positive_threshold_sweep_point_is_a_config_error(self, tmp_path, capsys, outputs):
        # the thresholds -1, 0 and 1: the first two are outside c_th > 0
        doc = {"base": {"model": "v2v_ris_ap"}, "outputs": outputs, "mc": {"trials": 1000, "seed": 1},
               "sweep": {"param": "c_th", "start": -1.0, "stop": 1.0, "steps": 3}}
        out = tmp_path / "sweep.csv"
        assert main(["sweep", "--config", _write(tmp_path, doc), "--out", str(out)]) == 2
        assert not out.exists()
        assert "config error: c_th=-1.0" in capsys.readouterr().err

    def test_extreme_snr_points_succeed(self, tmp_path, capsys):
        # SNR scales near the top and the bottom of the double range, and cell
        # counts that take N E[g] s to the top, are valid points too; a
        # RuntimeWarning fails the test (pyproject.toml)
        v2v = {"model": "v2v_ris_ap", "r_d": 1.0, "r_e": 2.0}
        relay = {"model": "vanet_ris_relay", "r_s": 1.0, "r_d": 1.0, "r_e": 2.0}
        for base in ({"model": "v2v_ris_ap", "p_s": 1e12, "r_d": 0.001},
                     {"model": "vanet_ris_relay", "p_s": 1e6, "r_s": 0.01, "r_d": 0.01},
                     dict(v2v, p_s=1.5e308), dict(relay, p_s=1.5e308),
                     dict(v2v, p_s=1e-300), dict(relay, p_s=1e-300),
                     dict(v2v, n_cells=1e308), dict(relay, p_s=1.5e308, n_cells=1e12)):
            doc = {"base": base, "outputs": ["asc_exact", "asc_approx", "sop_corrected", "sop_paper_literal"]}
            assert main(["eval", "--config", _write(tmp_path, doc), "--csv"]) == 0
            _header, row = capsys.readouterr().out.splitlines()
            assert all(math.isfinite(float(v)) for v in row.split(",")), base

    @pytest.mark.parametrize("p_s, trials", [(1.5e308, 100), (1e-20, 20_000), (1e-300, 20_000)],
                             ids=["1.5e308", "1e-20", "1e-300"])
    @pytest.mark.parametrize("base", [{"model": "v2v_ris_ap"}, {"model": "vanet_ris_relay", "r_s": 1.0}],
                             ids=["v2v", "relay"])
    def test_mc_asc_at_the_ends_of_the_double_range(self, tmp_path, capsys, base, p_s, trials):
        # At the top, SNR scale times gain sum overflows: the Monte-Carlo
        # capacities take their log form. At the bottom, 1 + s X keeps no
        # digit of s X (1e-20) and the squared capacity differences would
        # underflow (1e-300). A RuntimeWarning fails the test (pyproject.toml).
        doc = {"base": dict(base, p_s=p_s, r_d=1.0, r_e=2.0), "outputs": ["asc_exact", "mc_asc"],
               "mc": {"trials": trials, "seed": 42}}
        assert main(["eval", "--config", _write(tmp_path, doc), "--csv"]) == 0
        header, row = (line.split(",") for line in capsys.readouterr().out.splitlines())
        cells = dict(zip(header, map(float, row)))
        assert all(math.isfinite(v) for v in cells.values())
        assert cells["mc_asc_diff_se"] > 0
        assert abs(cells["asc_exact"] - cells["mc_asc_diff"]) <= 4.0 * cells["mc_asc_diff_se"]

    @pytest.mark.parametrize("doc,expected", [
        # 2^c_th overflows
        ({"base": {"model": "v2v_ris_ap"}, "c_th": 2000.0, "outputs": ["sop_corrected"]}, 1.0),
        # (r_e/r_d)^-beta overflows
        ({"base": {"model": "v2v_ris_ap", "r_e": 0.001, "r_d": 1000.0, "beta": 60.0},
          "outputs": ["sop_corrected"]}, 1.0),
        # N pi p_s r_e^-beta overflows; log2(2 / (16 pi 10^307))
        ({"base": {"model": "v2v_ris_ap", "r_e": 0.001, "r_d": 4.0, "beta": 102.0},
          "outputs": ["asc_approx"]}, -1024.4834212598928),
    ])
    def test_overflowing_closed_form_terms_succeed(self, tmp_path, capsys, doc, expected):
        assert main(["eval", "--config", _write(tmp_path, doc), "--csv"]) == 0
        _header, value = capsys.readouterr().out.splitlines()
        assert float(value) == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("model", ["v2v_ris_ap", "vanet_ris_relay"])
    def test_underflowing_distance_ratio_gives_outage_one(self, tmp_path, capsys, model):
        # r_e / r_d underflows to 0, so (r_e / r_d)^-beta cannot be formed;
        # the outage probability takes its limit, 1
        doc = {"base": {"model": model, "r_e": 1e-30, "r_d": 1e300, "beta": 0.1}}
        assert main(["eval", "--config", _write(tmp_path, doc), "--csv"]) == 0
        header, row = (line.split(",") for line in capsys.readouterr().out.splitlines())
        assert float(row[header.index("sop_corrected")]) == 1.0

    def test_cascade_nonconvergence_exits_3(self, tmp_path, monkeypatch, capsys):
        # a non-finite per-cell MGF makes the relay capacities non-finite
        monkeypatch.setattr(channels, "one_minus_mgf_triple_cascade", lambda s: np.full_like(s, math.nan))
        cfg = _write(tmp_path, {"base": {"model": "vanet_ris_relay"}, "outputs": ["asc_exact"]})
        assert main(["eval", "--config", cfg]) == 3
        assert "numerical failure" in capsys.readouterr().err

    @pytest.mark.parametrize("option", ["--seed", "--trials", "--sop-tol"])
    def test_run_settings_come_only_from_the_config(self, tmp_path, capsys, option):
        doc = _v2v_doc(outputs=["asc_exact"], mc={"trials": 1000, "seed": 1})
        with pytest.raises(SystemExit) as exc:
            main(["validate", "--config", _write(tmp_path, doc), option, "1"])
        assert exc.value.code == 2
        assert f"unrecognized arguments: {option} 1" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["eval", "sweep", "validate"])
    def test_mode_is_rejected_by_every_command(self, tmp_path, capsys, command):
        doc = _v2v_doc(sweep={"param": "p_s", "start": 1.0, "stop": 2.0, "steps": 2})
        with pytest.raises(SystemExit) as exc:
            main([command, "--config", _write(tmp_path, doc), "--mode", "paper-literal"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --mode paper-literal" in capsys.readouterr().err

    def test_paper_literal_sop_misses_mc_at_a_relay_interior_point(self, tmp_path, capsys):
        # the paper's relay constants put the outage at about 1e-24 where the
        # simulated outage is about 0.51; validate judges only the corrected
        # formula, so eval's columns keep the literal one's miss visible
        doc = {"base": {"model": "vanet_ris_relay", "p_s": 1000.0},
               "outputs": ["sop_corrected", "sop_paper_literal", "mc_sop"],
               "mc": {"trials": 40_000, "seed": 42}}
        assert main(["eval", "--config", _write(tmp_path, doc), "--csv"]) == 0
        header, row = (line.split(",") for line in capsys.readouterr().out.splitlines())
        cells = dict(zip(header, map(float, row)))
        assert abs(cells["sop_paper_literal"] - cells["mc_sop"]) > 0.02 + 3.0 * cells["mc_sop_se"]

    def test_dump_config_round_trips_and_is_stable(self, tmp_path):
        cfg_path = _write(tmp_path, _v2v_doc(mc={"trials": 1000}))
        dump1 = tmp_path / "resolved1.json"
        dump2 = tmp_path / "resolved2.json"
        assert main(["eval", "--config", cfg_path, "--dump-config", str(dump1)]) == 0
        resolved = json.loads(dump1.read_text())
        cfg = build_run_config(resolved)
        assert cfg == build_run_config(json.loads(Path(cfg_path).read_text()))
        # dumping the resolved config again must be byte-identical
        cfg_path2 = _write(tmp_path, resolved, name="resolved_as_input.json")
        assert main(["eval", "--config", cfg_path2, "--dump-config", str(dump2)]) == 0
        assert dump1.read_bytes() == dump2.read_bytes()


class TestOutputPaths:
    """--out and --dump-config targets are checked before any work, and a
    write that still fails, to standard output too, is a config error
    (exit 2), not a traceback."""

    SWEEP = _v2v_doc(outputs=["asc_exact", "mc_asc"], mc={"trials": 1000, "seed": 1},
                     sweep={"param": "p_s", "start": 1.0, "stop": 2.0, "steps": 2})

    @pytest.mark.parametrize("target,reason", [("missing/x.csv", "is in a directory that does not exist"),
                                               ("", "names no file")], ids=["missing_dir", "empty"])
    def test_missing_out_directory_fails_before_any_engine_runs(self, tmp_path, monkeypatch, capsys,
                                                                 target, reason):
        def engine(*_args):
            raise AssertionError("an engine ran before the --out check")

        monkeypatch.setattr(cli, "secrecy_report", engine)
        monkeypatch.setattr(cli, "mc_points", engine)
        out = str(tmp_path / target) if target else ""
        assert main(["sweep", "--config", _write(tmp_path, self.SWEEP), "--out", out]) == 2
        assert not (tmp_path / "missing").exists()
        assert capsys.readouterr().err == f"config error: --out {out!r} {reason}\n"

    @pytest.mark.parametrize("option", ["--out", "--dump-config"])
    @pytest.mark.parametrize("target", ["missing_directory", "directory"])
    def test_unusable_target_is_a_config_error(self, tmp_path, capsys, option, target):
        path = tmp_path / "missing" / "x" if target == "missing_directory" else tmp_path
        cfg = _write(tmp_path, self.SWEEP)
        before = sorted(tmp_path.iterdir())
        assert main(["sweep", "--config", cfg, option, str(path)]) == 2
        assert sorted(tmp_path.iterdir()) == before
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and option in err and "Traceback" not in err

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs the /dev/full device")
    @pytest.mark.parametrize("option", ["--out", "--dump-config"])
    def test_failing_write_is_a_config_error(self, tmp_path, capsys, option):
        # every write to /dev/full fails with ENOSPC, as on a full disk
        assert main(["sweep", "--config", _write(tmp_path, self.SWEEP), option, "/dev/full"]) == 2
        err = capsys.readouterr().err
        assert err == f"config error: cannot write {option} '/dev/full': No space left on device\n"

    @pytest.mark.parametrize("case", ["buffered", "unbuffered", "closed_at_start"])
    def test_closed_standard_output_is_a_config_error(self, tmp_path, case):
        doc = _v2v_doc(sweep={"param": "p_s", "start": 1.0, "stop": 50.0, "steps": 10_000})
        argv = [sys.executable, "-m", "ris_secrecy", "sweep", "--config", _write(tmp_path, doc)]
        if case == "closed_at_start":
            # `>&-`: descriptor 1 is closed before the interpreter starts, so sys.stdout is None
            proc = subprocess.run(argv, env=_child_env(), preexec_fn=lambda: os.close(1),
                                  stderr=subprocess.PIPE, timeout=120)
            assert proc.returncode == 2
            assert proc.stderr == b"config error: cannot write standard output: Bad file descriptor\n"
            return
        # the reader leaves after the first line, as `| head -1` does, of an
        # output (about 380 KB) larger than a pipe's 64 KiB buffer
        with subprocess.Popen(argv, env=_child_env(PYTHONUNBUFFERED="1" if case == "unbuffered" else ""),
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE) as proc:
            assert proc.stdout.readline() == b"p_s,asc_approx\n"
            proc.stdout.close()
            assert proc.wait(timeout=120) == 2
            # one line, no traceback
            assert proc.stderr.read() == b"config error: cannot write standard output: Broken pipe\n"

    def test_closed_standard_error_keeps_the_exit_code(self, tmp_path):
        # `2>&-`: the config error cannot be reported, and the exit code alone says what failed
        out = tmp_path / "missing" / "x.csv"
        proc = subprocess.run([sys.executable, "-m", "ris_secrecy", "sweep", "--config", _write(tmp_path, self.SWEEP),
                               "--out", str(out)], env=_child_env(), preexec_fn=lambda: os.close(2),
                              stdout=subprocess.PIPE, timeout=120)
        assert proc.returncode == 2
        assert proc.stdout == b""

    @pytest.mark.parametrize("failure,code", [("config", 2), ("numerical", 3)])
    def test_unwritable_standard_error_keeps_the_exit_code(self, tmp_path, monkeypatch, failure, code):
        class Closed(io.TextIOBase):
            def write(self, text):
                raise OSError(errno.EBADF, os.strerror(errno.EBADF))

        def engine(*_args):
            raise secrecy.QuadratureError("the capacities of point 0 are not finite", component=0)

        monkeypatch.setattr(cli, "secrecy_report", engine)
        monkeypatch.setattr(sys, "stderr", Closed())
        argv = ["sweep", "--config", _write(tmp_path, self.SWEEP)]
        if failure == "config":
            argv += ["--out", str(tmp_path / "missing" / "x.csv")]
        assert main(argv) == code


class TestIgnoredBatchKey:
    """mc.batch once set how many blocks one worker task drew. Configs that
    carry it still parse and are checked, and it changes no output."""

    SWEEP = _v2v_doc(outputs=["asc_approx", "mc_asc", "mc_sop"],
                     sweep={"param": "p_s", "start": 2.0, "stop": 20.0, "steps": 3})
    MC = {"trials": 20_000, "seed": 42}

    def _sweep(self, tmp_path, doc, name):
        out = tmp_path / f"{name}.csv"
        assert main(["sweep", "--config", _write(tmp_path, doc, f"{name}.json"), "--out", str(out)]) == 0
        return out.read_bytes()

    def test_batch_changes_no_output_byte(self, tmp_path):
        without = self._sweep(tmp_path, dict(self.SWEEP, mc=self.MC), "without")
        assert self._sweep(tmp_path, dict(self.SWEEP, mc=dict(self.MC, batch=8192)), "with") == without

    @pytest.mark.parametrize("batch", [0, 8192.5, True], ids=["zero", "fraction", "boolean"])
    def test_bad_batch_is_a_config_error(self, tmp_path, capsys, batch):
        doc = dict(self.SWEEP, mc=dict(self.MC, batch=batch))
        assert main(["sweep", "--config", _write(tmp_path, doc)]) == 2
        assert "batch" in capsys.readouterr().err

    def test_dump_config_drops_batch_and_reruns_identically(self, tmp_path):
        doc = dict(self.SWEEP, mc=dict(self.MC, batch=8192))
        dump = tmp_path / "resolved.json"
        assert main(["sweep", "--config", _write(tmp_path, doc), "--dump-config", str(dump)]) == 0
        resolved = json.loads(dump.read_text())
        assert resolved["mc"] == self.MC
        assert build_run_config(resolved) == build_run_config(doc)
        assert self._sweep(tmp_path, resolved, "resolved") == self._sweep(tmp_path, doc, "original")


class TestSweep:
    def test_requires_sweep_section(self, tmp_path, monkeypatch, capsys):
        # without this check the run would write the base point as a one-row CSV
        def engine(*_args):
            raise AssertionError("an engine ran without a sweep section")

        monkeypatch.setattr(cli, "secrecy_report", engine)
        monkeypatch.setattr(cli, "mc_points", engine)
        assert main(["sweep", "--config", _write(tmp_path, _v2v_doc())]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "config error: the sweep command requires a 'sweep' section in the config\n"

    def test_asc_columns_non_decreasing_in_power(self, tmp_path):
        doc = _v2v_doc(outputs=["asc_exact", "asc_approx"],
                       sweep={"param": "p_s", "start": 1.0, "stop": 50.0, "steps": 25})
        out = tmp_path / "sweep.csv"
        assert main(["sweep", "--config", _write(tmp_path, doc), "--out", str(out)]) == 0
        header, rows = _read_csv(out)
        assert header == ["p_s", "asc_exact", "asc_approx"]
        assert len(rows) == 25
        for col in (1, 2):
            vals = [float(r[col]) for r in rows]
            assert all(a <= b for a, b in zip(vals, vals[1:]))

    def test_sop_non_decreasing_in_threshold_for_relay(self, tmp_path):
        doc = {
            "base": {"model": "vanet_ris_relay", "p_s": 1000.0},
            "sweep": {"param": "c_th", "start": 0.5, "stop": 2.5, "steps": 9},
            "outputs": ["sop_corrected"],
        }
        out = tmp_path / "sweep.csv"
        assert main(["sweep", "--config", _write(tmp_path, doc), "--out", str(out)]) == 0
        _, rows = _read_csv(out)
        vals = [float(r[1]) for r in rows]
        assert all(a <= b for a, b in zip(vals, vals[1:]))

    def test_sop_rises_steeply_with_source_distance(self, tmp_path):
        # outage goes from small to near-certain within a few metres
        doc = {
            "base": {"model": "vanet_ris_relay", "p_s": 1000.0, "r_s": 10.0},
            "sweep": {"param": "r_s", "start": 5.0, "stop": 20.0, "steps": 31},
            "outputs": ["sop_corrected"],
        }
        out = tmp_path / "sweep.csv"
        assert main(["sweep", "--config", _write(tmp_path, doc), "--out", str(out)]) == 0
        _, rows = _read_csv(out)
        pts = [(float(r[0]), float(r[1])) for r in rows]
        vals = [v for _, v in pts]
        assert all(a <= b for a, b in zip(vals, vals[1:]))
        lo = max((r for r, v in pts if v < 0.15), default=None)
        hi = min((r for r, v in pts if v > 0.85), default=None)
        assert lo is not None and hi is not None and hi - lo < 5.0

    def test_byte_identical_reruns_and_batch_independence(self, tmp_path):
        doc = _v2v_doc(outputs=["asc_approx", "mc_asc", "mc_sop"],
                       sweep={"param": "p_s", "start": 2.0, "stop": 20.0, "steps": 5},
                       mc={"trials": 20_000, "seed": 42})
        batched = dict(doc, mc={"trials": 20_000, "seed": 42, "batch": 2000})
        outs = []
        for name, cfg_doc in (("a.csv", doc), ("b.csv", doc), ("c.csv", batched)):
            out = tmp_path / name
            cfg_path = _write(tmp_path, cfg_doc, name=f"cfg_{name}.json")
            assert main(["sweep", "--config", cfg_path, "--out", str(out)]) == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1] == outs[2]

    def test_removed_thread_variable_is_ignored(self, tmp_path, monkeypatch):
        # RIS_SECRECY_THREADS selects nothing: the Monte-Carlo pass is serial
        # and reads no environment variable, so no value of it is an error
        doc = _v2v_doc(outputs=["mc_asc"], sweep={"param": "p_s", "start": 1.0, "stop": 2.0, "steps": 2},
                       mc={"trials": 1000, "seed": 1})
        cfg = _write(tmp_path, doc)
        assert main(["sweep", "--config", cfg, "--out", str(tmp_path / "plain.csv")]) == 0
        monkeypatch.setenv("RIS_SECRECY_THREADS", "abc")
        assert main(["sweep", "--config", cfg, "--out", str(tmp_path / "set.csv")]) == 0
        assert (tmp_path / "set.csv").read_bytes() == (tmp_path / "plain.csv").read_bytes()

    def test_cell_count_below_one_is_a_config_error(self, tmp_path, capsys):
        # the counts -5, -1 and 3: a swept count is rounded, never raised to 1
        doc = _v2v_doc(sweep={"param": "n_cells", "start": -5.0, "stop": 3.0, "steps": 3})
        out = tmp_path / "sweep.csv"
        assert main(["sweep", "--config", _write(tmp_path, doc), "--out", str(out)]) == 2
        assert not out.exists()
        assert capsys.readouterr().err.startswith("config error: n_cells=-5: ")

    @pytest.mark.skipif(sys.platform != "linux", reason="caps the child's address space with RLIMIT_AS")
    def test_run_too_large_for_memory_is_a_config_error(self, tmp_path):
        # 10^12 sweep values take 7.3 TiB; the child may map at most 2 GiB
        import resource

        def cap():
            limit = 2 * 2 ** 30
            resource.setrlimit(resource.RLIMIT_AS, (limit, limit))

        doc = _v2v_doc(sweep={"param": "p_s", "start": 1.0, "stop": 2.0, "steps": 10 ** 12})
        proc = subprocess.run([sys.executable, "-m", "ris_secrecy", "sweep", "--config", _write(tmp_path, doc)],
                              env=_child_env(OPENBLAS_NUM_THREADS="1"), preexec_fn=cap,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 2, proc.stderr
        assert proc.stdout == ""
        assert proc.stderr.startswith("config error: ") and "Traceback" not in proc.stderr

    def test_seed_override_changes_mc_columns_only(self, tmp_path):
        # two documents that differ only in mc.seed
        outs = []
        for seed in (1, 99):
            doc = _v2v_doc(outputs=["asc_approx", "mc_asc"],
                           sweep={"param": "p_s", "start": 2.0, "stop": 10.0, "steps": 3},
                           mc={"trials": 10_000, "seed": seed})
            outs.append(tmp_path / f"s{seed}.csv")
            cfg = _write(tmp_path, doc, f"seed{seed}.json")
            assert main(["sweep", "--config", cfg, "--out", str(outs[-1])]) == 0
        out1, out2 = outs
        h1, rows1 = _read_csv(out1)
        h2, rows2 = _read_csv(out2)
        assert h1 == h2
        for r1, r2 in zip(rows1, rows2):
            assert r1[1] == r2[1]          # analytic column unchanged
            assert r1[2] != r2[2]          # mc column reseeded


class TestSinglePassDraws:
    """Every run draws each 8192-trial block once per distinct cell count."""

    TRIALS = 20_000  # three blocks

    @pytest.fixture
    def draws(self, monkeypatch):
        calls = []
        original = montecarlo.sample_gain_sums

        def counting(params, seq, n, **kwargs):
            calls.append((params.n_cells, n))
            return original(params, seq, n, **kwargs)

        monkeypatch.setattr(montecarlo, "sample_gain_sums", counting)
        return calls

    def _blocks(self):
        return math.ceil(self.TRIALS / 8192)

    def test_power_sweep_draws_each_block_once(self, tmp_path, draws):
        doc = _v2v_doc(outputs=["mc_asc", "mc_sop"], mc={"trials": self.TRIALS, "seed": 3},
                       sweep={"param": "p_s", "start": 1.0, "stop": 50.0, "steps": 7})
        assert main(["sweep", "--config", _write(tmp_path, doc), "--out", str(tmp_path / "s.csv")]) == 0
        assert len(draws) == self._blocks()

    def test_relay_validate_draws_each_block_once(self, tmp_path, draws, capsys):
        doc = {"base": {"model": "vanet_ris_relay"}, "c_th": 1.0,
               "sweep": {"param": "p_s", "start": 1.0, "stop": 300.0, "steps": 3, "scale": "log"},
               "mc": {"trials": self.TRIALS, "seed": 3}}
        assert main(["validate", "--config", _write(tmp_path, doc)]) in (0, 1)
        assert "gain-sum variance" in capsys.readouterr().out
        assert len(draws) == self._blocks()

    def test_cell_count_sweep_draws_once_per_distinct_count(self, tmp_path, draws):
        # 1, 1.5, 2, 2.5, 3 round to the cell counts 1, 2, 2, 2, 3
        doc = _v2v_doc(outputs=["mc_asc", "mc_sop"], mc={"trials": self.TRIALS, "seed": 3},
                       sweep={"param": "n_cells", "start": 1.0, "stop": 3.0, "steps": 5})
        assert main(["sweep", "--config", _write(tmp_path, doc), "--out", str(tmp_path / "s.csv")]) == 0
        assert sorted({n for n, _ in draws}) == [1, 2, 3]
        assert len(draws) == 3 * self._blocks()


class TestCapacityRuns:
    """Every point's (c_d, c_e) comes from one capacity engine call, computed
    before any output."""

    RELAY_SWEEP = {"base": {"model": "vanet_ris_relay"}, "outputs": ["asc_exact", "asc_approx"],
                   "sweep": {"param": "p_s", "start": 1.0, "stop": 50.0, "steps": 25}}

    @pytest.fixture
    def runs(self, monkeypatch):
        calls = []
        original = secrecy._capacity_run

        def counting(columns):
            calls.append(len(columns))
            return original(columns)

        monkeypatch.setattr(secrecy, "_capacity_run", counting)
        return calls

    def test_validate_makes_one_quadrature(self, tmp_path, runs, capsys):
        doc = {"base": {"model": "vanet_ris_relay"}, "mc": {"trials": 2000, "seed": 3},
               "sweep": {"param": "p_s", "start": 1.0, "stop": 300.0, "steps": 6, "scale": "log"}}
        assert main(["validate", "--config", _write(tmp_path, doc)]) in (0, 1)
        assert capsys.readouterr().out.count("asc_exact=") == 6
        assert runs == [12]

    def test_nonconvergence_names_the_row_before_any_output(self, tmp_path, monkeypatch, capsys):
        bad_row = 7
        value = SweepSpec("p_s", 1.0, 50.0, 25).values()[bad_row]
        params = cli._point(cli.build_run_config(self.RELAY_SWEEP), value)
        # the rule evaluates every link at its own SNR scale (the node at
        # z = 1), and no other link of the sweep has a node there
        target = params.scales[0]
        original_q = channels.one_minus_mgf_triple_cascade

        def poisoned(s):
            q = original_q(s)
            q[s == target] = math.nan
            return q

        monkeypatch.setattr(channels, "one_minus_mgf_triple_cascade", poisoned)
        out = tmp_path / "s.csv"
        assert main(["sweep", "--config", _write(tmp_path, self.RELAY_SWEEP), "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert f"sweep row {bad_row} (p_s={value!r}) failed" in err
        assert "not finite" in err
        assert not out.exists()


class TestValidate:
    def test_passes_at_defaults_model1(self, tmp_path, capsys):
        doc = _v2v_doc(outputs=["asc_exact"], mc={"trials": 40_000, "seed": 42})
        assert main(["validate", "--config", _write(tmp_path, doc)]) == 0
        out = capsys.readouterr().out
        assert "VALIDATION: PASS" in out

    def test_flags_tiny_sample_sizes(self, tmp_path, capsys):
        doc = _v2v_doc(outputs=["asc_exact"], mc={"trials": 10, "seed": 42})
        assert main(["validate", "--config", _write(tmp_path, doc)]) == 1
        out = capsys.readouterr().out
        assert "INCONCLUSIVE" in out
        assert "std error" in out

    def test_sop_check_allows_for_mc_noise(self, tmp_path, capsys):
        # At this point the CLT formula sits about 0.0185 below the simulated
        # outage. With this seed the sampled gap is 0.0235, inside
        # 0.02 + 3 se (se 0.0031) but outside a bare 0.02.
        doc = {"base": {"model": "v2v_ris_ap", "p_s": 3.04}, "c_th": 1.0,
               "mc": {"trials": 20_000, "seed": 24}}
        assert main(["validate", "--config", _write(tmp_path, doc)]) == 0
        out = capsys.readouterr().out
        sop_line = next(line for line in out.splitlines() if "sop[corrected]" in line)
        assert "|gap|=0.0235" in sop_line
        assert "tol(0.02+3se)=0.0293" in sop_line and sop_line.endswith("PASS")
        assert "VALIDATION: PASS" in out

    def test_sop_line_with_too_large_a_std_error_is_inconclusive(self, tmp_path, capsys):
        # 1,000 trials give the outage estimate a std error of 0.016, above
        # half the formula's tolerance, so the line cannot conclude
        doc = {"base": {"model": "vanet_ris_relay", "p_s": 1000.0}, "c_th": 1.0,
               "mc": {"trials": 1000, "seed": 1}}
        assert main(["validate", "--config", _write(tmp_path, doc)]) == 1
        out = capsys.readouterr().out
        (line,) = [line for line in out.splitlines() if "sop[corrected]" in line]
        assert line.startswith("base point: sop[corrected]=0.468506 mc=0.52 +-0.016 ")
        assert line.endswith("INCONCLUSIVE (std error too large to conclude)")
        assert "VALIDATION: FAIL" in out

    def test_relay_report_prints_both_variance_candidates(self, tmp_path, capsys):
        doc = {
            "base": {"model": "vanet_ris_relay"},
            "outputs": ["asc_exact"],
            "mc": {"trials": 60_000, "seed": 42},
        }
        assert main(["validate", "--config", _write(tmp_path, doc)]) == 0
        out = capsys.readouterr().out
        assert "gain-sum variance" in out
        assert "corrected=65.98" in out
        assert "paper_literal=96.50" in out

    def test_variance_check_that_cannot_tell_the_constants_apart_is_inconclusive(self, tmp_path, capsys):
        doc = {"base": {"model": "vanet_ris_relay"}, "mc": {"trials": 20, "seed": 42}}
        assert main(["validate", "--config", _write(tmp_path, doc)]) == 1
        out = capsys.readouterr().out
        (line,) = [line for line in out.splitlines() if line.startswith("gain-sum variance")]
        z_corr, z_lit = (float(part.split("(")[-1]) for part in line.split(" se)")[:2])
        assert z_corr <= 4.0 and z_lit <= 4.0
        assert line.endswith(f"({z_lit:.1f} se) INCONCLUSIVE (std error too large to conclude)")
        assert "VALIDATION: FAIL" in out

    def test_one_trial_sweep_is_inconclusive_on_every_line(self, tmp_path, capsys):
        doc = _v2v_doc(outputs=["asc_exact"], mc={"trials": 1, "seed": 42},
                       sweep={"param": "p_s", "start": 1.0, "stop": 50.0, "steps": 3})
        assert main(["validate", "--config", _write(tmp_path, doc)]) == 1
        *lines, verdict = capsys.readouterr().out.splitlines()
        assert len(lines) == 6 and verdict == "VALIDATION: FAIL"
        assert all(line.endswith("INCONCLUSIVE (too few trials for a std error)") for line in lines)

    def test_relay_variance_below_four_trials_is_inconclusive(self, tmp_path, capsys):
        doc = {"base": {"model": "vanet_ris_relay"}, "mc": {"trials": 3, "seed": 42}}
        assert main(["validate", "--config", _write(tmp_path, doc)]) == 1
        *lines, verdict = capsys.readouterr().out.splitlines()
        assert verdict == "VALIDATION: FAIL" and not any(line.endswith("FAIL") for line in lines)
        (line,) = [line for line in lines if line.startswith("gain-sum variance")]
        assert line.endswith("(nan se) INCONCLUSIVE (too few trials for a std error)")

    def test_relay_variance_lines_follow_the_cell_counts(self, tmp_path, capsys):
        # 1, 1.5, 2, 2.5, 3 round to the cell counts 1, 2, 2, 2, 3: one line per distinct count, in order
        doc = {"base": {"model": "vanet_ris_relay"}, "mc": {"trials": 2000, "seed": 1},
               "sweep": {"param": "n_cells", "start": 1.0, "stop": 3.0, "steps": 5}}
        assert main(["validate", "--config", _write(tmp_path, doc)]) in (0, 1)
        lines = [line for line in capsys.readouterr().out.splitlines() if "gain-sum variance" in line]
        assert [line.split(":")[0] for line in lines] == [f"gain-sum variance (N={n})" for n in (1, 2, 3)]

    def test_cell_count_labels_print_whole(self, tmp_path, capsys):
        doc = _v2v_doc(outputs=["asc_exact"], mc={"trials": 1, "seed": 42},
                       sweep={"param": "n_cells", "start": 1_000_000, "stop": 1_000_002, "steps": 3})
        assert main(["validate", "--config", _write(tmp_path, doc)]) in (0, 1)
        labels = [line.split(":")[0] for line in capsys.readouterr().out.splitlines() if ": asc_exact=" in line]
        assert labels == ["n_cells=1000000", "n_cells=1000001", "n_cells=1000002"]

    def test_requires_mc_block(self, tmp_path):
        doc = _v2v_doc(outputs=["asc_exact"])
        assert main(["validate", "--config", _write(tmp_path, doc)]) == 2


class TestRecipes:
    @pytest.mark.parametrize("name", ["fig4", "fig5", "fig6", "fig7", "fig8", "fig9"])
    def test_recipe_parses(self, name):
        doc = json.loads((RECIPES / f"{name}.json").read_text())
        cfg = build_run_config(doc)
        assert isinstance(cfg, RunConfig)
        assert cfg.sweep is not None

    @pytest.mark.parametrize("name", ["fig4", "fig5", "fig6", "fig7", "fig8", "fig9"])
    def test_recipe_runs_end_to_end_within_a_minute(self, name, tmp_path):
        out = tmp_path / f"{name}.csv"
        start = time.perf_counter()
        assert main(["sweep", "--config", str(RECIPES / f"{name}.json"), "--out", str(out)]) == 0
        elapsed = time.perf_counter() - start
        assert elapsed < 60.0
        header, rows = _read_csv(out)
        cfg = build_run_config(json.loads((RECIPES / f"{name}.json").read_text()))
        assert header[0] == cfg.sweep.param
        assert len(rows) == cfg.sweep.steps

    def test_module_entry_point_runs_a_recipe(self, tmp_path):
        out = tmp_path / "fig7.csv"
        proc = subprocess.run(
            [sys.executable, "-m", "ris_secrecy", "sweep",
             "--config", str(RECIPES / "fig7.json"), "--out", str(out)],
            env=_child_env(), capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        header, rows = _read_csv(out)
        assert header[0] == "p_s"
        assert len(rows) == 25

    @pytest.mark.parametrize("name", ["fig5", "fig8"])
    def test_validate_rerun_writes_the_same_bytes(self, name, tmp_path):
        # relay recipes, so the reports carry the gain-sum variance lines too;
        # fig8's SOPs lie between 0 and 1, and some of its points fail (exit 1)
        reports = []
        for run in ("first", "second"):
            out = tmp_path / f"{run}.txt"
            assert main(["validate", "--config", str(RECIPES / f"{name}.json"), "--out", str(out)]) in (0, 1)
            reports.append(out.read_bytes())
        assert reports[0] == reports[1]


# Calls cli.main once per argument list, as a library caller in one process
# would, then exits with the last return code. gc.freeze is swapped for a
# wrapper that counts its calls (cli looks it up when main runs); the host's
# own atexit handler, registered first and so run last, writes that count. It
# prints whether the calls left the collector running and nothing frozen.
EXIT_HOST = """
import atexit, gc, json, sys
from ris_secrecy import cli

freeze, freezes = gc.freeze, []
gc.freeze = lambda: freezes.append(freeze())
marker, runs = sys.argv[1], json.loads(sys.argv[2])
atexit.register(lambda: open(marker, "w").write(f"host handler ran after {len(freezes)} freeze"))
for argv in runs:
    code = cli.main(argv)
print(gc.isenabled(), gc.get_freeze_count())
sys.exit(code)
"""


class TestInterpreterExit:
    SWEEP = _v2v_doc(sweep={"param": "p_s", "start": 1.0, "stop": 50.0, "steps": 5})
    BAD_SWEEP = {"base": {"model": "v2v_ris_ap"}, "outputs": ["sop_corrected"],
                 "sweep": {"param": "c_th", "start": -1.0, "stop": 1.0, "steps": 3}}
    TINY_VALIDATE = _v2v_doc(outputs=["asc_exact"], mc={"trials": 10, "seed": 42})

    @pytest.mark.parametrize("second, command, code", [
        (SWEEP, "sweep", 0),
        (BAD_SWEEP, "sweep", 2),
        (TINY_VALIDATE, "validate", 1),
    ])
    def test_host_handlers_run_and_outputs_are_complete(self, tmp_path, second, command, code):
        first_out, second_out = tmp_path / "first.out", tmp_path / "second.out"
        runs = [["sweep", "--config", _write(tmp_path, self.SWEEP, "first.json"), "--out", str(first_out)],
                [command, "--config", _write(tmp_path, second, "second.json"), "--out", str(second_out)]]
        marker = tmp_path / "marker"
        proc = subprocess.run([sys.executable, "-c", EXIT_HOST, str(marker), json.dumps(runs)],
                              env=_child_env(), capture_output=True, text=True, timeout=120)
        assert proc.returncode == code, proc.stderr
        assert marker.read_text() == "host handler ran after 1 freeze"
        assert proc.stdout == "True 0\n"
        header, rows = _read_csv(first_out)
        assert header == ["p_s", "asc_approx"] and len(rows) == 5
        if code == 0:
            assert second_out.read_bytes() == first_out.read_bytes()
        elif code == 2:
            assert not second_out.exists()
            assert "config error: c_th=-1.0" in proc.stderr
        else:
            assert second_out.read_text().endswith("VALIDATION: FAIL\n")
