"""End-to-end checks of the command line front end.

Everything goes through ``main(argv)`` with tiny event budgets; one test
exercises the installed console script. Artifacts land in tmp_path.
"""

import concurrent.futures
import csv
import hashlib
import json
import math
import multiprocessing
import os
import random
import subprocess
import sys
import tracemalloc
import warnings
from concurrent.futures import Future
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lobmm import cli, engine, theory
from lobmm.cli import KIND_TOKENS, READS, check_contract, load_config, main, write_csv
from lobmm.theory import Recurrence

from conftest import kinked_model

SAMPLE_CONFIGS = Path(__file__).resolve().parents[1] / "configs"

UNIFORM_MODEL = {
    "interval": [0.0, 1.0],
    "demand": [[0.0, 1.0], [1.0, 0.0]],
    "supply": [[0.0, 0.0], [1.0, 1.0]],
}

# integer-tick model: ceil(x/2) sends (0,6) into {1, 2, 3}
TICK_MODEL = {
    "interval": [0.0, 6.0],
    "demand": [[0, 3], [1, 3], [2, 2], [3, 2], [4, 1], [5, 1], [6, 0]],
    "supply": [[0, 0], [1, 1], [2, 1], [3, 2], [4, 2], [5, 3], [6, 3]],
}


# 32 segments: phi splits into many knot pieces; the shifted supply reaches
# zero inside the volume ceiling at this rho
KINKED_MODEL = dict(kinked_model(32), rho=0.1)


def write_config(tmp_path, doc, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def read_json(path):
    return json.loads(path.read_text())


def read_csv(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


@pytest.fixture
def outdir(tmp_path):
    return tmp_path / "out"


# -- config validation --------------------------------------------------------


class TestConfigValidation:
    def test_unknown_top_level_key(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"model": UNIFORM_MODEL, "plotting": {}})
        assert main(["theory", cfg]) == 2
        assert "plotting" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "block,key",
        [
            ("model", "slippage"),
            ("run", "thinning"),
            ("output", "dpi"),
            ("compare", "alpha"),
            ("freeze", "reheat"),
        ],
    )
    def test_unknown_nested_key(self, tmp_path, capsys, block, key):
        doc = {"model": dict(UNIFORM_MODEL), "run": {"events": 10, "seed": 1}}
        doc.setdefault(block, {})[key] = 1
        cfg = write_config(tmp_path, doc)
        command = {"compare": "compare", "freeze": "freeze"}.get(block, "simulate")
        assert main([command, cfg, "--seed", "1"]) == 2
        assert key in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command,doc,key",
        [
            pytest.param("theory", {"run": {"events": 10}}, "run", id="theory-run"),
            pytest.param(
                "sweep",
                {
                    "run": {"events": 100, "seed": 1, "restriction": {"volume": 0.6}},
                    "sweep": {"rho": [0.0]},
                },
                "run.restriction",
                id="sweep-restriction",
            ),
            pytest.param(
                "sweep",
                {"sweep": {"rho": [0.0]}, "output": {"formats": ["csv"]}},
                "output.formats",
                id="sweep-formats",
            ),
            pytest.param(
                "freeze",
                {"run": {"events": 100, "restriction": [0.45, 0.55]}},
                "run.restriction",
                id="freeze-restriction",
            ),
            pytest.param(
                "freeze",
                {"run": {"events": 100, "map": {"divisor": 2.0}}},
                "run.map",
                id="freeze-map",
            ),
            pytest.param(
                "simulate",
                {"run": {"events": 100, "workers": 2}},
                "run.workers",
                id="simulate-workers",
            ),
            pytest.param(
                "compare",
                {"run": {"events": 200, "seed": 1, "restriction": {"volume": 0.6}, "replicas": 2}},
                "run.replicas",
                id="compare-replicas",
            ),
            pytest.param(
                "sweep",
                {"run": {"events": 100, "seed": 1}, "sweep": {"volume": [0.6]}},
                "run",
                id="volume-sweep-run",
            ),
            pytest.param(
                "freeze",
                {"run": {"events": 100}, "freeze": {"eps": 0.01}},
                "freeze.eps",
                id="freeze-eps",
            ),
            pytest.param(
                "freeze",
                {"run": {"events": 100}, "freeze": {"min_events": 10}},
                "freeze.min_events",
                id="freeze-min-events",
            ),
            pytest.param(
                "simulate",
                {"run": {"events": 100, "map": {"divisor": 2.0, "offset": 1.0}}},
                "run.map.offset",
                id="map-offset",
            ),
            pytest.param(
                "compare",
                {"run": {"events": 100, "restriction": {"volume": 0.6, "lo": 0.4}}},
                "run.restriction.lo",
                id="restriction-lo",
            ),
            pytest.param(
                "freeze",
                {"run": {"events": 100}, "freeze": {"gambler": {"y": 0.3, "z": 0.1}}},
                "freeze.gambler.z",
                id="gambler-z",
            ),
            pytest.param(
                # a dotted name is not a path into the nested object
                "simulate",
                {"run": {"events": 100, "map.divisor": 2.0}},
                "run.map.divisor",
                id="dotted-name",
            ),
        ],
    )
    def test_key_the_command_does_not_read(self, tmp_path, outdir, capsys, command, doc, key):
        model = dict(UNIFORM_MODEL, rho=0.6 if command == "freeze" else 0.0)
        cfg = write_config(tmp_path, dict(doc, model=model))
        assert main([command, cfg, "--seed", "1", "--out", str(outdir)]) == 2
        err = capsys.readouterr().err
        assert f"lobmm {command} does not read" in err and key in err
        assert not outdir.exists()

    def test_sample_configs_keep_to_the_contract(self):
        # a sample config's filename starts with the command it is for
        commands = set()
        for path in sorted(SAMPLE_CONFIGS.glob("*.json")):
            command = path.name.split("-")[0]
            check_contract(load_config(str(path)), command)
            commands.add(command)
        assert commands == set(READS)

    def test_reader_refuses_an_undeclared_key(self):
        with pytest.raises(KeyError, match="run.seed"):
            cli.Config({}, "theory").get("run.seed")

    @pytest.mark.parametrize(
        "command,doc,where,key",
        [
            ("simulate", {"run": {"events": 10, "map": {}}}, "run.map", "divisor"),
            ("simulate", {"run": {"events": 10, "restriction": {}}}, "run.restriction", "volume"),
            ("freeze", {"run": {"events": 10}, "freeze": {"gambler": {}}}, "freeze.gambler", "y"),
        ],
        ids=["map", "restriction", "gambler"],
    )
    def test_nested_object_needs_its_key(self, tmp_path, outdir, capsys, command, doc, where, key):
        cfg = write_config(tmp_path, dict(doc, model=dict(UNIFORM_MODEL, rho=0.6)))
        assert main([command, cfg, "--seed", "1", "--out", str(outdir)]) == 2
        assert f"missing required key '{key}' in {where}" in capsys.readouterr().err
        assert not outdir.exists()

    def test_missing_model(self, tmp_path):
        cfg = write_config(tmp_path, {"run": {"events": 10}})
        assert main(["theory", cfg]) == 2

    def test_malformed_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        assert main(["theory", str(path)]) == 2

    def test_missing_file(self, tmp_path):
        assert main(["theory", str(tmp_path / "absent.json")]) == 2

    def test_curve_must_span_interval(self, tmp_path):
        model = dict(UNIFORM_MODEL, demand=[[0.0, 1.0], [0.9, 0.0]])
        cfg = write_config(tmp_path, {"model": model})
        assert main(["theory", cfg]) == 2

    def test_bad_breakpoint_shape(self, tmp_path):
        model = dict(UNIFORM_MODEL, demand=[[0.0, 1.0, 9.0], [1.0, 0.0]])
        cfg = write_config(tmp_path, {"model": model})
        assert main(["theory", cfg]) == 2

    def test_events_and_duration_conflict(self, tmp_path):
        doc = {"model": UNIFORM_MODEL, "run": {"events": 10, "duration": 1.0, "seed": 1}}
        cfg = write_config(tmp_path, doc)
        assert main(["simulate", cfg, "--seed", "1"]) == 2

    def test_negative_rho(self, tmp_path):
        model = dict(UNIFORM_MODEL, rho=-0.1)
        cfg = write_config(tmp_path, {"model": model})
        assert main(["theory", cfg]) == 2

    # json writes nan as NaN and inf as Infinity, which Python's reader takes back
    @pytest.mark.parametrize(
        "command,doc,key",
        [
            pytest.param(
                "freeze",
                {
                    "model": dict(UNIFORM_MODEL, rho=0.6),
                    "run": {"events": 100},
                    "freeze": {"gambler": {"y": math.nan}},
                },
                "freeze.gambler.y",
                id="gambler-y-nan",
            ),
            pytest.param(
                "sweep",
                {"model": dict(UNIFORM_MODEL, rho=math.nan), "sweep": {"volume": [0.6, 0.7]}},
                "model.rho",
                id="rho-nan",
            ),
        ],
    )
    def test_non_finite_number(self, tmp_path, outdir, capsys, command, doc, key):
        cfg = write_config(tmp_path, doc)
        assert main([command, cfg, "--seed", "1", "--out", str(outdir)]) == 2
        assert f"{key} must be a finite number" in capsys.readouterr().err
        assert not outdir.exists()

    @pytest.mark.parametrize("duration", [math.inf, 10**400], ids=["infinity", "beyond-float"])
    def test_non_finite_duration(self, tmp_path, outdir, duration):
        # a run with an endless horizon never returns, so it runs in a child
        cfg = write_config(tmp_path, {"model": UNIFORM_MODEL, "run": {"duration": duration}})
        proc = subprocess.run(
            [sys.executable, "-m", "lobmm.cli", "simulate", cfg, "--seed", "1", "--out", str(outdir)],
            capture_output=True,
            text=True,
            timeout=20,
        )
        assert proc.returncode == 2, proc.stderr
        assert "run.duration must be a finite number" in proc.stderr

    @pytest.mark.parametrize(
        "command,model,run",
        [
            pytest.param("simulate", UNIFORM_MODEL, {"duration": 1e300}, id="duration-1e300"),
            pytest.param("simulate", UNIFORM_MODEL, {"events": 10**15}, id="events-1e15"),
            pytest.param(
                "freeze",
                dict(UNIFORM_MODEL, rho=0.6),
                {"events": 1000, "replicas": 10**9},
                id="replicas-1e9",
            ),
            # each run draws a full random block before its first event
            pytest.param(
                "freeze",
                dict(UNIFORM_MODEL, rho=0.6),
                {"events": 0, "replicas": 10**9},
                id="replicas-1e9-no-events",
            ),
            pytest.param(
                "simulate",
                {
                    "interval": [0.0, 1.0],
                    "demand": [[0.0, 1e300], [1.0, 0.0]],
                    "supply": [[0.0, 0.0], [1.0, 1e300]],
                },
                {"duration": 1.0},
                id="rates-1e300",
            ),
        ],
    )
    def test_horizon_beyond_the_event_limit(self, tmp_path, outdir, command, model, run):
        # a horizon no machine finishes is refused before any work; in a
        # child, so that a missing bound fails on the timeout and hangs nothing
        cfg = write_config(tmp_path, {"model": model, "run": run})
        timed = (
            "import sys, time; from lobmm.cli import main; t = time.perf_counter(); "
            "code = main(sys.argv[1:]); print(time.perf_counter() - t); sys.exit(code)"
        )
        proc = subprocess.run(
            [sys.executable, "-c", timed, command, cfg, "--seed", "1", "--out", str(outdir)],
            capture_output=True,
            text=True,
            timeout=20,
        )
        assert proc.returncode == 2, proc.stderr
        assert float(proc.stdout) < 1.0
        assert "limit of 1e+10 events per command" in proc.stderr
        assert "Traceback" not in proc.stderr
        assert not outdir.exists()

    def test_restriction_bad_shape(self, tmp_path, outdir):
        doc = {
            "model": UNIFORM_MODEL,
            "run": {"events": 10, "restriction": [0.1, 0.5, 0.9]},
        }
        cfg = write_config(tmp_path, doc)
        assert main(["simulate", cfg, "--seed", "1", "--out", str(outdir)]) == 2

    def test_non_monotone_curve_is_assumption_error(self, tmp_path, capsys):
        model = dict(UNIFORM_MODEL, demand=[[0.0, 1.0], [0.5, 1.2], [1.0, 0.0]])
        cfg = write_config(tmp_path, {"model": model})
        assert main(["theory", cfg]) == 3
        assert "(A1)" in capsys.readouterr().err

    def test_seed_required_for_simulate(self, tmp_path):
        cfg = write_config(tmp_path, {"model": UNIFORM_MODEL, "run": {"events": 10}})
        with pytest.raises(SystemExit) as exc_info:
            main(["simulate", cfg])
        assert exc_info.value.code == 2

    def test_seed_required_for_freeze(self, tmp_path):
        cfg = write_config(tmp_path, {"model": UNIFORM_MODEL, "run": {"events": 10}})
        with pytest.raises(SystemExit) as exc_info:
            main(["freeze", cfg])
        assert exc_info.value.code == 2

    def test_workers_flag_only_on_freeze(self, tmp_path):
        cfg = write_config(tmp_path, {"model": UNIFORM_MODEL, "run": {"events": 10}})
        with pytest.raises(SystemExit) as exc_info:
            main(["simulate", cfg, "--seed", "1", "--workers", "2"])
        assert exc_info.value.code == 2

    @pytest.mark.parametrize("workers,flag", [(-1, []), (1, ["--workers", "-2"])], ids=["config", "flag"])
    def test_negative_workers(self, tmp_path, outdir, capsys, workers, flag):
        doc = {"model": dict(UNIFORM_MODEL, rho=0.6), "run": {"events": 100, "workers": workers}}
        cfg = write_config(tmp_path, doc)
        assert main(["freeze", cfg, "--seed", "1", "--out", str(outdir)] + flag) == 2
        assert "run.workers" in capsys.readouterr().err
        assert not outdir.exists()

    def test_unwritable_output_exits_2(self, tmp_path, capsys):
        blocker = tmp_path / "file"
        blocker.write_text("")
        out = blocker / "sub"
        cfg = str(SAMPLE_CONFIGS / "theory-uniform.json")
        assert main(["theory", cfg, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert f"config error: cannot write {out}" in err
        assert "Traceback" not in err

    def test_config_seed_alone_is_enough_for_compare(self, tmp_path, outdir):
        doc = {
            "model": UNIFORM_MODEL,
            "run": {"events": 200, "seed": 5, "restriction": {"volume": 0.6}},
        }
        cfg = write_config(tmp_path, doc)
        code = main(["compare", cfg, "--out", str(outdir)])
        assert code in (0, 4)  # tiny run may miss tolerance; must not be 2

    def test_compare_without_seed_anywhere(self, tmp_path, outdir):
        doc = {
            "model": UNIFORM_MODEL,
            "run": {"events": 200, "restriction": {"volume": 0.6}},
        }
        cfg = write_config(tmp_path, doc)
        assert main(["compare", cfg, "--out", str(outdir)]) == 2


# -- the config contract ------------------------------------------------------

# Per command, configs (with their flags) that together set every key the
# command declares.  simulate and freeze require --seed, so run.seed there
# is set twice.
CONTRACT_RUNS = {
    "theory": [
        ({"model": dict(UNIFORM_MODEL, rho=0.0), "output": {"formats": ["json"]}}, []),
    ],
    "simulate": [
        (
            {
                "model": dict(UNIFORM_MODEL, rho=0.0),
                "run": {
                    "events": 200,
                    "seed": 1,
                    "burn_in": 0.3,
                    "replicas": 2,
                    "restriction": {"volume": 0.6},
                },
                "output": {"histogram_bins": 10, "snapshot_at": [50], "formats": ["csv"]},
            },
            ["--seed", "1"],
        ),
        (
            {"model": TICK_MODEL, "run": {"duration": 20.0, "restriction": [1.5, 4.5], "map": {"divisor": 2.0}}},
            ["--seed", "2"],
        ),
    ],
    "compare": [
        (
            {
                "model": dict(UNIFORM_MODEL, rho=0.0),
                "run": {"events": 500, "seed": 1, "burn_in": 0.2, "restriction": {"volume": 0.6}},
                "compare": {"tolerance_cdf": 1.0, "tolerance_empty": 1.0, "grid_size": 128},
                "output": {"formats": ["json"]},
            },
            [],
        ),
        (
            {
                "model": UNIFORM_MODEL,
                "run": {"duration": 200.0, "restriction": [0.4, 0.6]},
                "compare": {"tolerance_cdf": 1.0, "tolerance_empty": 1.0},
            },
            ["--seed", "3"],
        ),
    ],
    "freeze": [
        (
            {
                "model": dict(UNIFORM_MODEL, rho=0.6),
                "run": {"events": 300, "seed": 1, "replicas": 2, "workers": 1},
                "output": {"histogram_bins": 10, "formats": ["csv", "json"]},
                "freeze": {"allow_subcritical": False, "gambler": {"y": 0.3}},
            },
            ["--seed", "1"],
        ),
        ({"model": dict(UNIFORM_MODEL, rho=0.6), "run": {"duration": 50.0}}, ["--seed", "1", "--workers", "1"]),
    ],
    "sweep": [
        (
            {
                "model": dict(UNIFORM_MODEL, rho=0.0),
                "run": {"events": 200, "seed": 1, "burn_in": 0.3},
                "sweep": {"rho": [0.0, 0.6]},
            },
            [],
        ),
        ({"model": UNIFORM_MODEL, "run": {"duration": 50.0, "seed": 1}, "sweep": {"rho": [0.2]}}, []),
        ({"model": UNIFORM_MODEL, "sweep": {"volume": [0.6]}}, []),
    ],
}


def key_paths(node, prefix=""):
    """Every dotted path in a config document, at every depth."""
    for name, value in node.items():
        yield prefix + name
        if isinstance(value, dict):
            yield from key_paths(value, prefix + name + ".")


class TestContract:
    @pytest.mark.parametrize("command", sorted(CONTRACT_RUNS))
    def test_reader_hands_out_exactly_the_declared_keys(self, tmp_path, monkeypatch, command):
        flag_keys = {flag: key for flag, (key, _, _) in cli.FLAGS.items()}
        declared = set(READS[command])
        handed_out = set()
        get = cli.Config.get

        def recording_get(cfg, key):
            handed_out.add(key)
            return get(cfg, key)

        monkeypatch.setattr(cli.Config, "get", recording_get)
        set_by_runs = set()
        for i, (doc, flags) in enumerate(CONTRACT_RUNS[command]):
            cfg = write_config(tmp_path, doc, name=f"{i}.json")
            argv = [command, cfg, "--out", str(tmp_path / f"out-{i}"), *flags]
            assert main(argv) == 0
            set_by_runs |= set(key_paths(doc)) | {flag_keys[f] for f in argv if f in flag_keys}
        assert set_by_runs & declared == declared  # the runs set every declared key
        assert handed_out == declared

    def test_readme_table_matches_reads(self):
        text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        model = ("interval", "demand", "supply", "rho")
        sentence = "Every command reads all four `model` keys (" + ", ".join(f"`{k}`" for k in model)
        assert sentence in " ".join(text.split())
        lines = text.splitlines()
        start = lines.index("| command | `run` | `output` | own block |") + 2
        table = {}
        for line in lines[start:]:
            if not line.startswith("|"):
                break
            command, run_keys, output_keys, own = (c.strip() for c in line.strip("|").split("|"))
            cells = {"run": run_keys, "output": output_keys}
            if own != "—":
                block, own_keys = own.split(": ")
                cells[block.strip("`")] = own_keys
            keys = {f"model.{k}" for k in model}
            for block, cell in cells.items():
                if cell != "—":
                    keys |= {f"{block}.{k}" for k in cell.split(", ")}
            table[command] = keys
        assert table == {command: set(keys) for command, keys in READS.items()}


# -- theory -------------------------------------------------------------------


class TestTheory:
    def test_uniform_report(self, tmp_path, outdir):
        cfg = write_config(tmp_path, {"model": UNIFORM_MODEL})
        assert main(["theory", cfg, "--out", str(outdir)]) == 0
        doc = read_json(outdir / "window.json")
        assert doc["schema_version"] == 1
        assert doc["v_w"] == pytest.approx(0.5, abs=1e-9)
        assert doc["v_l"] == pytest.approx(0.78218, abs=1e-4)
        lo, hi = doc["window"]
        assert lo == pytest.approx(0.21781, abs=1e-4)
        assert hi == pytest.approx(0.78218, abs=1e-4)
        assert not doc["degenerate"] and not doc["boundary"]

        header, rows = read_csv(outdir / "phi.csv")
        assert header == ["volume", "phi", "error_estimate"]
        phis = [float(r[1]) for r in rows]
        assert phis == sorted(phis)

        header, rows = read_csv(outdir / "quotes.csv")
        assert header == ["price", "bid_cdf", "ask_survival"]
        assert len(rows) >= 64

    def test_degenerate_report_embeds_freeze_support(self, tmp_path, outdir):
        cfg = write_config(tmp_path, {"model": dict(UNIFORM_MODEL, rho=0.5)})
        assert main(["theory", cfg, "--out", str(outdir)]) == 0
        doc = read_json(outdir / "window.json")
        assert doc["degenerate"] is True
        assert doc["window"] is None
        fs = doc["freeze_support"]
        assert fs["lo"] == pytest.approx(0.5, abs=1e-9)
        assert fs["hi"] == pytest.approx(0.5, abs=1e-9)
        assert not (outdir / "phi.csv").exists()
        assert not (outdir / "quotes.csv").exists()

    def test_prices_near_the_float_ceiling(self, tmp_path, outdir):
        # the uniform pair on [1e308, 1.7e308]: a bisection midpoint there
        # must not overflow while a + b does
        lo, hi = 1e308, 1.7e308
        model = {"interval": [lo, hi], "demand": [[lo, 1.0], [hi, 0.0]], "supply": [[lo, 0.0], [hi, 1.0]]}
        cfg = write_config(tmp_path, {"model": model})
        assert main(["theory", cfg, "--out", str(outdir)]) == 0
        doc = read_json(outdir / "window.json")
        assert doc["x_w"] == pytest.approx(1.35e308, rel=1e-11)
        assert doc["v_l"] == pytest.approx(0.78218, abs=1e-4)

    def test_prices_at_a_large_offset(self, tmp_path, outdir):
        # the uniform pair on [1e12, 1e12 + 1], where lo + 1e-9 rounds to lo:
        # the (A4) check must probe no point off the breakpoints.  At this
        # offset every phi piece runs to its doubling cap: v_l alone samples
        # the integrand 16.5 million times, about 1 s on 2 vCPUs, so json only
        lo, hi = 1e12, 1e12 + 1.0
        model = {"interval": [lo, hi], "demand": [[lo, 1.0], [hi, 0.0]], "supply": [[lo, 0.0], [hi, 1.0]]}
        cfg = write_config(tmp_path, {"model": model, "output": {"formats": ["json"]}})
        assert main(["theory", cfg, "--out", str(outdir)]) == 0
        doc = read_json(outdir / "window.json")
        assert doc["x_w"] == lo + 0.5
        assert doc["v_l"] == pytest.approx(0.782188294269, abs=1e-8)

    @pytest.mark.parametrize(
        "scale, message",
        [
            pytest.param(1e-300, "threshold 1/V_W^2", id="1e-300"),
            pytest.param(1e300, "threshold 1/V_W^2", id="1e+300"),
            pytest.param(2.0**513, "at the volume ceiling", id="2**513"),
        ],
    )
    def test_rate_scale_without_a_float_threshold(self, tmp_path, outdir, capsys, scale, message):
        # the uniform pair's rates times 1e-300 (V_W**2 underflows to 0), times
        # 1e300 (it overflows, so 1/V_W**2 would read 0.0), and times 2**513:
        # V_W**2 is just finite there, but the phi integrand's w*w overflows at
        # the ceiling
        model = {
            "interval": [0.0, 1.0],
            "demand": [[0.0, scale], [1.0, 0.0]],
            "supply": [[0.0, 0.0], [1.0, scale]],
        }
        run = {"events": 100, "seed": 1, "restriction": {"volume": 0.6 * scale}}
        for command, doc in (("theory", {}), ("compare", {"run": run}), ("sweep", {"sweep": {"rho": [0.0]}})):
            cfg = write_config(tmp_path, dict(doc, model=model))
            assert main([command, cfg, "--out", str(outdir)]) == 2, command
            err = capsys.readouterr().err
            assert message in err and "Traceback" not in err
            assert not outdir.exists()
        cfg = write_config(tmp_path, {"model": model, "sweep": {"volume": [0.6 * scale]}})
        assert main(["sweep", cfg, "--out", str(outdir)]) == 0
        assert [row[1:] for row in read_csv(outdir / "sweep.csv")[1]] == [["", "out_of_domain"]]

    @pytest.mark.parametrize("command", ["theory", "simulate"])
    def test_a_subnormal_interval_is_refused(self, tmp_path, outdir, capsys, command):
        # the uniform pair on [0, 1e-320]: the interval length is subnormal,
        # so the curves carry about 10 bits and their slopes overflow
        hi = 1e-320
        model = {"interval": [0.0, hi], "demand": [[0.0, 1.0], [hi, 0.0]], "supply": [[0.0, 0.0], [hi, 1.0]]}
        doc = {"model": model} if command == "theory" else {"model": model, "run": {"events": 100}}
        cfg = write_config(tmp_path, doc)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main([command, cfg, "--seed", "1", "--out", str(outdir)]) == 2
        assert caught == []
        err = capsys.readouterr().err
        assert "segment 0 [0.0, 1e-320] is too narrow, too wide or too steep" in err and "Traceback" not in err
        assert not outdir.exists()

    def test_json_only_format(self, tmp_path, outdir):
        doc = {"model": UNIFORM_MODEL, "output": {"formats": ["json"]}}
        cfg = write_config(tmp_path, doc)
        assert main(["theory", cfg, "--out", str(outdir)]) == 0
        assert (outdir / "window.json").exists()
        assert not (outdir / "phi.csv").exists()

    @pytest.mark.parametrize(
        "model", [dict(UNIFORM_MODEL, rho=0.1), KINKED_MODEL], ids=["uniform", "kinked"]
    )
    def test_window_json_does_not_depend_on_the_formats(self, tmp_path, model):
        # the quote law is solved whenever a window exists; only quotes.csv
        # waits for csv
        written = {}
        for formats in (["json"], ["csv", "json"]):
            name = "+".join(formats)
            cfg = write_config(tmp_path, {"model": model, "output": {"formats": formats}}, f"{name}.json")
            assert main(["theory", cfg, "--out", str(tmp_path / name)]) == 0
            written[name] = (tmp_path / name / "window.json").read_bytes()
            assert (tmp_path / name / "quotes.csv").exists() == ("csv" in formats)
        assert written["json"] == written["csv+json"]
        assert json.loads(written["json"])["quote_law"]["grid_size"] > 0

    @pytest.mark.parametrize("formats", [["json"], ["csv", "json"]], ids=["json", "csv+json"])
    def test_negative_edge_masses_write_no_quote_law(self, tmp_path, outdir, formats):
        # on [1e12, 1e12 + 1] the solver's edge masses read -1.758e-4 (5.06e-11
        # on [0, 1]); they are no probabilities, so window.json holds no quote
        # law and says why, and no quotes.csv is written
        lo, hi = 1e12, 1e12 + 1.0
        model = {"interval": [lo, hi], "demand": [[lo, 1.0], [hi, 0.0]], "supply": [[lo, 0.0], [hi, 1.0]]}
        cfg = write_config(tmp_path, {"model": model, "output": {"formats": formats}})
        assert main(["theory", cfg, "--out", str(outdir)]) == 0
        doc = read_json(outdir / "window.json")
        assert doc["window"] is not None and doc["quote_law"] is None
        (note,) = doc["notes"]
        assert "negative edge mass" in note and note.count("-0.0001757") == 2
        assert not (outdir / "quotes.csv").exists()
        assert (outdir / "phi.csv").exists() == ("csv" in formats)

    def test_an_empty_phi_range_writes_the_report(self, tmp_path):
        # flat demand 0.5 against supply x: V_W reads 0.49999999999954525
        # and the effective ceiling is 0.5, so phi's table would run from
        # V_W to 0.5 - 1e-9, an empty range; the window report is still
        # written, the same under both formats, with a note naming the range
        model = {"interval": [0.0, 1.0], "demand": [[0.0, 0.5], [1.0, 0.5]], "supply": [[0.0, 0.0], [1.0, 1.0]]}
        written = {}
        for formats in (["json"], ["csv", "json"]):
            name = "+".join(formats)
            cfg = write_config(tmp_path, {"model": model, "output": {"formats": formats}}, f"{name}.json")
            assert main(["theory", cfg, "--out", str(tmp_path / name)]) == 0
            assert sorted(p.name for p in (tmp_path / name).iterdir()) == ["window.json"]
            written[name] = (tmp_path / name / "window.json").read_bytes()
        assert written["json"] == written["csv+json"]
        doc = json.loads(written["json"])
        assert doc["window"] is None and doc["boundary"] is True and "quote_law" not in doc
        assert doc["notes"] == [
            "phi has an empty tabulation range [0.49999999999954525, 0.499999999], "
            "so no phi.csv is written"
        ]


# -- simulate -----------------------------------------------------------------


class TestSimulate:
    def base(self, events=500, **run):
        return {
            "model": UNIFORM_MODEL,
            "run": dict({"events": events}, **run),
            "output": {"histogram_bins": 25},
        }

    def test_out_of_memory_exits_2(self, tmp_path, outdir, capsys, monkeypatch):
        def exhausted(*args):
            raise MemoryError

        monkeypatch.setattr(cli, "_histogram_columns", exhausted)
        cfg = write_config(tmp_path, self.base())
        outdir.mkdir()
        (outdir / "notes.txt").write_text("kept")
        assert main(["simulate", cfg, "--seed", "1", "--out", str(outdir)]) == 2
        assert "out of memory" in capsys.readouterr().err
        # trajectory.csv and final-book.csv were written before the failure;
        # neither stays, and the file that was there before does
        assert [p.name for p in outdir.iterdir()] == ["notes.txt"]
        assert (outdir / "notes.txt").read_text() == "kept"

    def test_failure_takes_back_every_replica(self, tmp_path, outdir, monkeypatch):
        calls = []
        histogram = cli._histogram_columns

        def fails_second_time(*args):
            calls.append(args)
            if len(calls) == 2:
                raise RuntimeError("injected")
            return histogram(*args)

        monkeypatch.setattr(cli, "_histogram_columns", fails_second_time)
        cfg = write_config(tmp_path, self.base(replicas=2))
        with pytest.raises(RuntimeError, match="injected"):
            main(["simulate", cfg, "--seed", "1", "--out", str(outdir / "nested")])
        # replica-000 was complete and replica-001 half written: the
        # directories the command made go too
        assert not outdir.exists()
        assert len(calls) == 2

    def test_artifacts(self, tmp_path, outdir):
        doc = self.base(snapshot := 200)
        doc["output"]["snapshot_at"] = [snapshot]
        cfg = write_config(tmp_path, doc)
        assert main(["simulate", cfg, "--seed", "9", "--out", str(outdir)]) == 0

        header, rows = read_csv(outdir / "trajectory.csv")
        assert header == ["event_index", "time", "kind", "trade_price", "bid", "ask"]
        assert len(rows) == 200
        assert [r[0] for r in rows[:3]] == ["0", "1", "2"]

        summary = read_json(outdir / "summary.json")
        assert summary["seed"] == 9 and summary["replica"] == 0
        assert summary["n_events"] == 200

        header, rows = read_csv(outdir / "histogram.csv")
        assert header == ["bin_lo", "bin_hi", "buy_count", "sell_count"]
        assert len(rows) == 25
        booked = sum(int(r[2]) + int(r[3]) for r in rows)
        assert booked == summary["final_buys"] + summary["final_sells"]

        header, rows = read_csv(outdir / "final-book.csv")
        assert header == ["side", "price", "count"]
        assert len(rows) == booked  # uniform pair: all resting counts are 1

    def test_each_replica_replays_once(self, tmp_path, outdir, monkeypatch):
        # the run draws its events once, and the trajectory.csv writer once
        # more, by one replay read a chunk at a time; where a side empties
        # after the burn-in, the summary replays in between, and the writer
        # still replays once, as it keeps no column
        calls = []
        real = engine._event_chunks

        def counted(config, rates, *most):
            calls.append(config.replica)
            return real(config, rates, *most)

        monkeypatch.setattr(engine, "_event_chunks", counted)
        frozen = dict(self.base(events=5_000, replicas=2), model=dict(UNIFORM_MODEL, rho=0.6))
        restricted = self.base(events=5_000, replicas=2, restriction=[0.4, 0.6])
        for name, doc, replays in (("frozen", frozen, 2), ("restricted", restricted, 3)):
            calls.clear()
            cfg = write_config(tmp_path, doc, f"{name}.json")
            assert main(["simulate", cfg, "--seed", "1", "--out", str(outdir / name)]) == 0
            assert calls == [0] * replays + [1] * replays
        assert read_json(outdir / "frozen" / "replica-000" / "summary.json")["freeze"] is not None
        assert read_json(outdir / "restricted" / "replica-000" / "summary.json")["empty_buy_prob"] > 0.0

    def traced_beyond_stored(self, tmp_path, outdir, monkeypatch, events):
        """The traced peak of a serial restricted simulate of ``events``
        events beyond the quote change points its run stores."""
        monkeypatch.setattr(os, "cpu_count", lambda: 1)
        made = []
        real = engine.run
        monkeypatch.setattr(engine, "run", lambda config: made.append(real(config)) or made[-1])
        cfg = write_config(tmp_path, self.base(events=events, restriction=[0.4, 0.6]), f"{events}.json")
        tracemalloc.start()
        try:
            assert main(["simulate", cfg, "--seed", "1", "--out", str(outdir / str(events))]) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        (traj,) = made
        return peak - sum(c.nbytes for c in (traj._quote_at, traj._quote_times, traj._quote_bids, traj._quote_asks))

    # the traced peak of a serial restricted simulate, beyond the quote
    # change points its run stores, was 5.35-5.40 MB at 2**18 events on
    # seeds 1-6 (CPython 3.11, numpy 2.4): the writer's formatting of one
    # piece, and the pre-pass of the run itself.  A writer that read whole
    # times, kinds and kind tokens grew by 1.7-2.6 MB from 2**16 to 2**18.
    def test_writer_holds_no_whole_column(self, tmp_path, outdir, monkeypatch):
        small, large = (self.traced_beyond_stored(tmp_path, outdir, monkeypatch, n) for n in (1 << 16, 1 << 18))
        assert large - small < 1_000_000

    # The same peak was 7.54-7.56 MB when each replay decoded whole random
    # blocks of up to 65,536 events and derived all five columns of each,
    # and the bound lies between the two.
    def test_writer_replays_one_piece_at_a_time(self, tmp_path, outdir, monkeypatch):
        assert self.traced_beyond_stored(tmp_path, outdir, monkeypatch, 1 << 18) < 6_500_000

    def test_trajectory_row_count_honors_events(self, tmp_path, outdir):
        cfg = write_config(tmp_path, self.base(events=500))
        assert main(["simulate", cfg, "--seed", "9", "--out", str(outdir)]) == 0
        _, rows = read_csv(outdir / "trajectory.csv")
        assert len(rows) == 500

    def test_snapshot_file(self, tmp_path, outdir):
        doc = self.base(events=300)
        doc["output"]["snapshot_at"] = [100]
        cfg = write_config(tmp_path, doc)
        assert main(["simulate", cfg, "--seed", "2", "--out", str(outdir)]) == 0
        header, rows = read_csv(outdir / "snapshot-100.csv")
        assert header == ["side", "price", "count"]
        prices = [float(r[1]) for r in rows]
        assert prices == sorted(prices)

    def test_snapshot_past_the_events_is_refused(self, tmp_path, outdir, capsys, monkeypatch):
        # refused before any event is drawn; an index equal to run.events
        # is the final book, and stays valid
        monkeypatch.setattr(engine, "run", lambda config: pytest.fail("simulated"))
        doc = self.base(events=1000)
        doc["output"]["snapshot_at"] = [1000, 5000]
        cfg = write_config(tmp_path, doc)
        assert main(["simulate", cfg, "--seed", "2", "--out", str(outdir)]) == 2
        assert "output.snapshot_at index 5000 lies past run.events 1000" in capsys.readouterr().err
        assert not outdir.exists()
        monkeypatch.undo()
        doc["output"]["snapshot_at"] = [1000]
        cfg = write_config(tmp_path, doc)
        assert main(["simulate", cfg, "--seed", "2", "--out", str(outdir)]) == 0
        assert (outdir / "snapshot-1000.csv").read_bytes() == (outdir / "final-book.csv").read_bytes()

    def test_replica_directories(self, tmp_path, outdir):
        cfg = write_config(tmp_path, self.base(events=100, replicas=3))
        assert main(["simulate", cfg, "--seed", "4", "--out", str(outdir)]) == 0
        for r in range(3):
            assert (outdir / f"replica-{r:03d}" / "summary.json").exists()
        s0 = read_json(outdir / "replica-000" / "summary.json")
        s1 = read_json(outdir / "replica-001" / "summary.json")
        assert s0["replica"] == 0 and s1["replica"] == 1
        assert s0["trade_count"] != s1["trade_count"]  # independent streams

    def test_image_book_artifact(self, tmp_path, outdir):
        doc = {"model": TICK_MODEL, "run": {"events": 400, "map": {"divisor": 2.0}}}
        cfg = write_config(tmp_path, doc)
        assert main(["simulate", cfg, "--seed", "6", "--out", str(outdir)]) == 0
        header, rows = read_csv(outdir / "image-book.csv")
        assert header == ["side", "price", "count"]
        for row in rows:
            assert float(row[1]) in (1.0, 2.0, 3.0)

    @pytest.mark.parametrize("divisor", [0.0, -2.0])
    def test_image_divisor_must_be_positive(self, tmp_path, outdir, capsys, monkeypatch, divisor):
        # refused before any event is drawn
        monkeypatch.setattr(engine, "run", lambda config: pytest.fail("simulated"))
        doc = {"model": TICK_MODEL, "run": {"events": 400, "map": {"divisor": divisor}}}
        cfg = write_config(tmp_path, doc)
        assert main(["simulate", cfg, "--seed", "6", "--out", str(outdir)]) == 2
        assert "run.map.divisor must be positive" in capsys.readouterr().err
        assert not outdir.exists()

    def test_restriction_by_volume(self, tmp_path, outdir):
        doc = self.base(events=2000)
        doc["run"]["restriction"] = {"volume": 0.6}
        cfg = write_config(tmp_path, doc)
        assert main(["simulate", cfg, "--seed", "8", "--out", str(outdir)]) == 0
        summary = read_json(outdir / "summary.json")
        assert summary["restriction"][0] == pytest.approx(0.4, abs=1e-12)
        assert summary["restriction"][1] == pytest.approx(0.6, abs=1e-12)
        _, rows = read_csv(outdir / "final-book.csv")
        for row in rows:
            assert 0.4 <= float(row[1]) <= 0.6

    def test_rerun_is_byte_identical(self, tmp_path):
        doc = self.base(events=400)
        doc["output"]["snapshot_at"] = [150]
        cfg = write_config(tmp_path, doc)
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(["simulate", cfg, "--seed", "3", "--out", str(a)]) == 0
        assert main(["simulate", cfg, "--seed", "3", "--out", str(b)]) == 0
        files_a = sorted(p.relative_to(a) for p in a.rglob("*") if p.is_file())
        files_b = sorted(p.relative_to(b) for p in b.rglob("*") if p.is_file())
        assert files_a == files_b and files_a
        for rel in files_a:
            assert (a / rel).read_bytes() == (b / rel).read_bytes()

    def test_different_seed_changes_output(self, tmp_path):
        cfg = write_config(tmp_path, self.base(events=400))
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(["simulate", cfg, "--seed", "3", "--out", str(a)]) == 0
        assert main(["simulate", cfg, "--seed", "4", "--out", str(b)]) == 0
        assert (a / "trajectory.csv").read_bytes() != (b / "trajectory.csv").read_bytes()


# -- compare ------------------------------------------------------------------


class TestCompare:
    def config(self, events, volume=0.6, **extra):
        return {
            "model": UNIFORM_MODEL,
            "run": {"events": events, "seed": 7, "restriction": {"volume": volume}},
            **extra,
        }

    def test_passes_with_enough_events(self, tmp_path, outdir):
        cfg = write_config(tmp_path, self.config(200_000))
        assert main(["compare", cfg, "--out", str(outdir)]) == 0
        report = read_json(outdir / "report.json")
        assert report["passed"] is True
        assert report["sup_distance_bid"] <= report["tolerance_cdf"]
        assert report["recurrence"] == "positive-recurrent"

        header, rows = read_csv(outdir / "curves.csv")
        assert header == [
            "price",
            "bid_cdf_sim",
            "bid_cdf_theory",
            "ask_survival_sim",
            "ask_survival_theory",
        ]
        # both laws live on the window and agree to tolerance everywhere
        for row in rows[:: len(rows) // 7]:
            assert abs(float(row[1]) - float(row[2])) <= report["tolerance_cdf"]

    def test_tolerance_failure_exits_4_and_writes_report(self, tmp_path, outdir, capsys):
        doc = self.config(800, compare={"tolerance_cdf": 0.001, "tolerance_empty": 0.001})
        cfg = write_config(tmp_path, doc)
        assert main(["compare", cfg, "--out", str(outdir)]) == 4
        assert "tolerances" in capsys.readouterr().err
        assert read_json(outdir / "report.json")["passed"] is False

    @pytest.mark.parametrize("key", ["tolerance_cdf", "tolerance_empty"])
    def test_negative_tolerance_exits_2_before_any_run(self, tmp_path, outdir, capsys, key):
        # a tolerance below zero can never pass, so no simulation may start
        outdir.mkdir()
        cfg = write_config(tmp_path, self.config(200_000, compare={key: -1}))
        assert main(["compare", cfg, "--out", str(outdir)]) == 2
        assert f"compare.{key} must be nonnegative" in capsys.readouterr().err
        assert list(outdir.iterdir()) == []

    @pytest.mark.parametrize("horizon", [{"events": 0}, {"duration": 1e-9}], ids=["events", "duration"])
    def test_no_state_after_the_burn_in_exits_2(self, tmp_path, outdir, capsys, horizon):
        # a run that draws no event has no post-burn-in state to measure:
        # a config error, not a tolerance failure over NaN distances
        doc = self.config(0)
        del doc["run"]["events"]
        doc["run"].update(horizon)
        cfg = write_config(tmp_path, doc)
        assert main(["compare", cfg, "--out", str(outdir)]) == 2
        err = capsys.readouterr().err
        assert "drew 0 events" in err and "run.burn_in 0.5" in err
        assert not outdir.exists()

    def test_refuses_critical_window(self, tmp_path, outdir, capsys):
        # restriction at the long-run volume: null recurrent, no stationary law
        doc = self.config(10_000)
        doc["run"]["restriction"] = {"volume": 0.7821882942691838}
        cfg = write_config(tmp_path, doc)
        assert main(["compare", cfg, "--out", str(outdir)]) == 2
        err = capsys.readouterr().err
        assert "refused" in err and "critical" in err
        assert not (outdir / "report.json").exists()

    def test_refuses_transient_window(self, tmp_path, outdir, capsys):
        doc = self.config(10_000)
        doc["run"]["restriction"] = {"volume": 0.9}
        cfg = write_config(tmp_path, doc)
        assert main(["compare", cfg, "--out", str(outdir)]) == 2
        assert "not-positive-recurrent" in capsys.readouterr().err

    def test_requires_restriction(self, tmp_path, outdir):
        doc = {"model": UNIFORM_MODEL, "run": {"events": 100, "seed": 1}}
        cfg = write_config(tmp_path, doc)
        assert main(["compare", cfg, "--out", str(outdir)]) == 2

    def test_explicit_window_must_be_level(self, tmp_path, outdir, capsys):
        doc = self.config(1000)
        doc["run"]["restriction"] = [0.4, 0.7]  # demand(0.4)=0.6 != supply(0.7)=0.7
        cfg = write_config(tmp_path, doc)
        assert main(["compare", cfg, "--out", str(outdir)]) == 2
        assert "level window" in capsys.readouterr().err

    def test_explicit_level_window_accepted(self, tmp_path, outdir):
        doc = self.config(50_000)
        doc["run"]["restriction"] = [0.4, 0.6]
        cfg = write_config(tmp_path, doc)
        assert main(["compare", cfg, "--out", str(outdir)]) == 0


# -- replay size --------------------------------------------------------------


def tree_bytes(root):
    """Every file under ``root`` by its relative path, with its bytes."""
    return {str(p.relative_to(root)): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


class TestReplaySize:
    """Every replay of a stored run (the summary's weights, the
    trajectory.csv writer, ``quote_cdfs``) decodes at most
    ``engine._REPLAY_EVENTS`` events at a time, and no artifact depends on
    that size: each is checked against replays of whole random blocks, as
    the run's own pre-pass decodes them."""

    RESTRICTED = {"events": 3000, "restriction": {"volume": 0.6}}
    # the uniform pair's events arrive at total rate 2
    CASES = {
        "restricted": ({"run": RESTRICTED}, ("simulate", "compare")),
        "duration": ({"run": {"duration": 1500.0, "restriction": {"volume": 0.6}}}, ("simulate", "compare")),
        "snapshots": ({"run": {"events": 3000}, "output": {"snapshot_at": [1000, 2500]}}, ("simulate",)),
    }

    def test_a_replay_chunk_is_one_writer_piece(self):
        assert engine._REPLAY_EVENTS == cli._BLOCK_ROWS

    @pytest.mark.parametrize("most", [1, 7, 64, None], ids=["1", "7", "64", "default"])
    @pytest.mark.parametrize("case", sorted(CASES))
    def test_artifacts_do_not_depend_on_the_replay_size(self, tmp_path, monkeypatch, case, most):
        doc, commands = self.CASES[case]
        most = most or engine._REPLAY_EVENTS
        decoded = []
        real = engine._event_chunks

        def recorded(config, rates, cap=None):
            for chunk in real(config, rates) if cap is None else real(config, rates, cap):
                decoded.append((cap, len(chunk[0])))
                yield chunk

        monkeypatch.setattr(engine, "_event_chunks", recorded)
        trees = []
        for label, size in (("blocks", math.inf), ("replay", most)):
            monkeypatch.setattr(engine, "_REPLAY_EVENTS", size)
            for command in commands:
                body = dict(doc, model=UNIFORM_MODEL)
                if command == "compare":
                    body["compare"] = {"tolerance_cdf": 1.0, "tolerance_empty": 1.0}
                cfg = write_config(tmp_path, body, f"{command}.json")
                assert main([command, cfg, "--seed", "5", "--out", str(tmp_path / label / command)]) == 0
            trees.append(tree_bytes(tmp_path / label))
        assert {"simulate/trajectory.csv", "simulate/summary.json"} <= set(trees[1])
        assert trees[0] == trees[1]
        # the replays at this size decoded chunks of at most that many events
        sizes = [n for cap, n in decoded if cap == most]
        assert sizes and max(sizes) <= most


# -- freeze -------------------------------------------------------------------


class TestFreeze:
    def config(self, rho=0.6, replicas=6, events=4000, **freeze):
        return {
            "model": dict(UNIFORM_MODEL, rho=rho),
            "run": {"events": events, "replicas": replicas, "workers": 1},
            "freeze": freeze,
        }

    def test_ensemble_artifacts(self, tmp_path, outdir):
        cfg = write_config(tmp_path, self.config())
        assert main(["freeze", cfg, "--seed", "13", "--out", str(outdir)]) == 0
        doc = read_json(outdir / "ensemble.json")
        assert 0.0 <= doc["fraction_frozen"] <= 1.0
        assert doc["freeze_support"]["lo"] == pytest.approx(0.4, abs=1e-9)
        assert doc["freeze_support"]["hi"] == pytest.approx(0.6, abs=1e-9)

        header, rows = read_csv(outdir / "replicas.csv")
        assert len(rows) == 6
        assert header[0] == "replica" and "freeze_midpoint" in header

        _, hrows = read_csv(outdir / "midpoint-histogram.csv")
        total = sum(int(r[2]) for r in hrows)
        assert total == round(doc["fraction_frozen"] * 6)

    def test_subcritical_refused(self, tmp_path, outdir):
        cfg = write_config(tmp_path, self.config(rho=0.2))
        assert main(["freeze", cfg, "--seed", "1", "--out", str(outdir)]) == 2

    def test_subcritical_allowed_when_asked(self, tmp_path, outdir):
        cfg = write_config(tmp_path, self.config(rho=0.2, allow_subcritical=True))
        assert main(["freeze", cfg, "--seed", "1", "--out", str(outdir)]) == 0
        doc = read_json(outdir / "ensemble.json")
        assert doc["fraction_frozen"] == 0.0

    @pytest.mark.parametrize("flag", ["false", "true", 0, 1, None])
    def test_allow_subcritical_must_be_boolean(self, tmp_path, outdir, capsys, flag):
        # a non-boolean must not count as permission for a subcritical run
        cfg = write_config(tmp_path, self.config(rho=0.1, allow_subcritical=flag))
        assert main(["freeze", cfg, "--seed", "1", "--out", str(outdir)]) == 2
        assert "freeze.allow_subcritical" in capsys.readouterr().err
        assert not outdir.exists()

    def test_gambler_scenario(self, tmp_path, outdir):
        cfg = write_config(tmp_path, self.config(gambler={"y": 0.3}))
        assert main(["freeze", cfg, "--seed", "21", "--out", str(outdir)]) == 0
        g = read_json(outdir / "ensemble.json")["gambler"]
        assert g["bound"] == pytest.approx(0.5)
        assert 0.0 <= g["empirical_fraction"] <= 1.0

    @pytest.mark.parametrize("y", ["0.3", 0.9])
    def test_gambler_checked_before_any_run(self, tmp_path, outdir, y):
        outdir.mkdir()
        cfg = write_config(tmp_path, self.config(replicas=2, events=3000, gambler={"y": y}))
        assert main(["freeze", cfg, "--seed", "1", "--out", str(outdir)]) == 2
        assert list(outdir.iterdir()) == []

    def test_each_replica_decodes_once(self, tmp_path, outdir, monkeypatch):
        # the gambler's replica r draws the stream of replica r, so one
        # decode steps both books; no side of these replicas empties after
        # the burn-in, so none replays for its summary
        calls = []
        real = engine._event_chunks

        def counted(config, rates, *most):
            calls.append(config.replica)
            return real(config, rates, *most)

        monkeypatch.setattr(engine, "_event_chunks", counted)
        for name, freeze in (("main", {}), ("gambler", {"gambler": {"y": 0.3}})):
            calls.clear()
            cfg = write_config(tmp_path, self.config(replicas=4, events=20_000, **freeze), f"{name}.json")
            assert main(["freeze", cfg, "--seed", "3", "--workers", "1", "--out", str(outdir / name)]) == 0
            assert calls == [0, 1, 2, 3]

    @pytest.mark.parametrize("horizon", [{"events": 0}, {"duration": 1e-9}], ids=["events", "duration"])
    def test_gambler_replicas_of_no_events_hold(self, tmp_path, outdir, horizon):
        # a replica of no events has no bid to take its minimum of (min_bid
        # NaN); its bid never left y, so it counts as held
        doc = self.config(replicas=3, gambler={"y": 0.3})
        del doc["run"]["events"]
        doc["run"].update(horizon)
        cfg = write_config(tmp_path, doc)
        assert main(["freeze", cfg, "--seed", "1", "--out", str(outdir)]) == 0
        _, rows = read_csv(outdir / "replicas.csv")
        assert rows and all(row[1] == "0" for row in rows)
        assert read_json(outdir / "ensemble.json")["gambler"]["empirical_fraction"] == 1.0

    def test_gambler_vacuous_bound_is_config_error(self, tmp_path, outdir):
        cfg = write_config(tmp_path, self.config(gambler={"y": 0.7}))
        assert main(["freeze", cfg, "--seed", "1", "--out", str(outdir)]) == 2


# -- sweep --------------------------------------------------------------------


class TestSweep:
    def test_rho_sweep_columns(self, tmp_path, outdir):
        doc = {
            "model": UNIFORM_MODEL,
            "sweep": {"rho": [0.0, 0.2, 0.45, 0.6]},
        }
        cfg = write_config(tmp_path, doc)
        assert main(["sweep", cfg, "--out", str(outdir)]) == 0
        header, rows = read_csv(outdir / "sweep.csv")
        assert header[:3] == ["rho", "v_w", "v_l"]
        assert len(rows) == 4
        lengths = [float(r[5]) for r in rows[:3]]
        assert lengths == sorted(lengths, reverse=True)
        assert rows[3][6] == "1"  # rho=0.6 degenerate

    def test_rho_sweep_with_simulation_columns(self, tmp_path, outdir):
        doc = {
            "model": UNIFORM_MODEL,
            "run": {"events": 3000, "seed": 5},
            "sweep": {"rho": [0.0, 0.6]},
        }
        cfg = write_config(tmp_path, doc)
        assert main(["sweep", cfg, "--out", str(outdir)]) == 0
        header, rows = read_csv(outdir / "sweep.csv")
        assert header[-3:] == ["est_lo", "est_hi", "sim_frozen"]
        assert rows[0][-1] == "0"

    def test_rho_sweep_simulates_on_a_duration_horizon(self, tmp_path, outdir):
        doc = {
            "model": UNIFORM_MODEL,
            "run": {"duration": 2000.0, "seed": 3},
            "sweep": {"rho": [0.0, 0.6]},
        }
        cfg = write_config(tmp_path, doc)
        assert main(["sweep", cfg, "--out", str(outdir)]) == 0
        header, rows = read_csv(outdir / "sweep.csv")
        assert header[-3:] == ["est_lo", "est_hi", "sim_frozen"]
        assert all(len(r) == len(header) for r in rows)
        # rate 2 over 2000 time units: about 4000 events, enough to bracket
        # the rho=0 window
        assert 0.0 < float(rows[0][-3]) < float(rows[0][-2]) < 1.0

    def test_volume_sweep(self, tmp_path, outdir):
        doc = {
            "model": UNIFORM_MODEL,
            "sweep": {"volume": [0.6, 0.7821882942691838, 0.9, 0.3]},
        }
        cfg = write_config(tmp_path, doc)
        assert main(["sweep", cfg, "--out", str(outdir)]) == 0
        header, rows = read_csv(outdir / "sweep.csv")
        assert header == ["volume", "phi", "recurrence"]
        assert rows[0][2] == "positive-recurrent"
        assert rows[1][2] == "critical"
        assert rows[2][2] == "not-positive-recurrent"
        assert rows[3][2] == "out_of_domain" and rows[3][1] == ""

    def test_rho_and_volume_together_rejected(self, tmp_path, outdir):
        doc = {"model": UNIFORM_MODEL, "sweep": {"rho": [0.1], "volume": [0.6]}}
        cfg = write_config(tmp_path, doc)
        assert main(["sweep", cfg, "--out", str(outdir)]) == 2

    def test_missing_sweep_block(self, tmp_path, outdir):
        cfg = write_config(tmp_path, {"model": UNIFORM_MODEL})
        assert main(["sweep", cfg, "--out", str(outdir)]) == 2

    @pytest.mark.parametrize("key,value", [("rho", 0.1), ("volume", 0.6)])
    def test_scalar_grid_is_config_error(self, tmp_path, outdir, capsys, key, value):
        cfg = write_config(tmp_path, {"model": UNIFORM_MODEL, "sweep": {key: value}})
        assert main(["sweep", cfg, "--out", str(outdir)]) == 2
        err = capsys.readouterr().err
        assert f"sweep.{key} must be a list of numbers" in err and "Traceback" not in err
        assert not outdir.exists()

    def test_run_block_without_seed_is_config_error(self, tmp_path, outdir, capsys):
        doc = {"model": UNIFORM_MODEL, "run": {"events": 100}, "sweep": {"rho": [0.0]}}
        cfg = write_config(tmp_path, doc)
        assert main(["sweep", cfg, "--out", str(outdir)]) == 2
        assert "a seed is required" in capsys.readouterr().err
        assert not outdir.exists()

    @pytest.mark.parametrize("run", [{"seed": 1}, {"burn_in": 0.3}, {}], ids=["seed", "burn-in", "empty"])
    def test_run_block_without_horizon_is_config_error(self, tmp_path, outdir, capsys, run):
        doc = {"model": UNIFORM_MODEL, "run": run, "sweep": {"rho": [0.0]}}
        cfg = write_config(tmp_path, doc)
        assert main(["sweep", cfg, "--seed", "1", "--out", str(outdir)]) == 2
        assert "run block must set events or duration" in capsys.readouterr().err
        assert not outdir.exists()

    def test_seed_flag_without_run_block_is_theory_only(self, tmp_path, outdir):
        doc = {"model": UNIFORM_MODEL, "sweep": {"rho": [0.0, 0.6]}}
        cfg = write_config(tmp_path, doc)
        assert main(["sweep", cfg, "--seed", "1", "--out", str(outdir)]) == 0
        header, rows = read_csv(outdir / "sweep.csv")
        assert header[-1] == "boundary" and len(header) == 8
        assert all(len(r) == 8 for r in rows)


# -- csv writer ---------------------------------------------------------------


def reference_csv(path, header, columns):
    """The row-at-a-time writer that write_csv replaced: csv.writer fed
    every cell through the old ``_cell``."""

    def cell(value):
        if isinstance(value, (np.floating, np.integer)):
            value = float(value)
        if isinstance(value, float):
            return "" if math.isnan(value) else repr(value)
        return value

    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in zip(*columns):
            writer.writerow([cell(v) for v in row])


# NaN, the infinities, signed zeros, the smallest subnormal and normal
# doubles, where repr switches to exponent notation (1e16, 1e-5), a
# rounding artefact, and the largest finite double
EDGE_FLOATS = [
    math.nan,
    math.inf,
    -math.inf,
    -0.0,
    0.0,
    5e-324,
    2.2250738585072014e-308,
    1e16,
    1e-5,
    0.1 + 0.2,
    1.7976931348623157e308,
]
TOKENS = KIND_TOKENS + ("buy", "sell", "out_of_domain") + tuple(r.value for r in Recurrence)
BLOCK = cli._BLOCK_ROWS

cell_pools = {
    "float": st.lists(st.one_of(st.floats(), st.sampled_from(EDGE_FLOATS)), min_size=1),
    "int": st.lists(st.integers(-(2**70), 2**70), min_size=1),
    "token": st.lists(
        st.one_of(
            st.sampled_from(TOKENS),
            st.text(st.characters(exclude_characters=',"\r\n', exclude_categories=("Cs",))),
        ),
        min_size=1,
    ),
}


@st.composite
def tables(draw, block=BLOCK):
    """(header, columns, reference columns): 2-6 columns of random cells,
    as lists or numpy arrays, 0 rows up to just past two blocks of
    ``block`` rows."""
    n = draw(
        st.one_of(st.integers(0, 40), st.sampled_from([block - 1, block, block + 1, 2 * block + 1]))
    )
    header, columns, plain = [], [], []
    for _ in range(draw(st.integers(2, 6))):
        kind = draw(st.sampled_from(sorted(cell_pools)))
        pool = draw(cell_pools[kind])
        rng = random.Random(draw(st.integers(0, 2**32)))
        cells = [rng.choice(pool) for _ in range(n)]
        plain.append(cells)
        if kind == "float" and draw(st.booleans()):
            cells = np.array(cells, dtype=float)
        elif kind == "int" and draw(st.booleans()):
            # an integer array is written as its Python ints; the old
            # writer turned numpy integers into floats, and no caller gave it any
            cells = np.array([c % 2**62 for c in cells], dtype=np.int64)
            plain[-1] = cells.tolist()
        elif kind == "token" and draw(st.booleans()):
            cells = np.array(cells, dtype=object)
        header.append(draw(cell_pools["token"])[0])
        columns.append(cells)
    return header, columns, plain


@st.composite
def split_tables(draw, block=BLOCK):
    """(header, blocks, reference columns): a table of ``tables`` with its
    rows cut into blocks of random length, empty blocks included."""
    header, columns, plain = draw(tables(block))
    n = len(plain[0])
    edges = [0, *sorted(draw(st.lists(st.integers(0, n), max_size=6))), n]
    blocks = [[col[a:b] for col in columns] for a, b in zip(edges, edges[1:])]
    return header, blocks, plain


class TestWriteCsv:
    @settings(max_examples=60, deadline=None)
    @given(split_tables())
    def test_matches_the_csv_module_writer(self, tmp_path_factory, table):
        header, blocks, plain = table
        d = tmp_path_factory.mktemp("csv")
        write_csv(d / "new.csv", header, blocks)
        reference_csv(d / "old.csv", header, plain)
        assert (d / "new.csv").read_bytes() == (d / "old.csv").read_bytes()

    @settings(max_examples=60, deadline=None)
    @given(split_tables(block=4))
    def test_matches_the_csv_module_writer_in_blocks_of_4(self, tmp_path_factory, table):
        # tables cut into 4 pieces or more (13-40 rows) go through the pool,
        # and small pieces often repeat their floats, so both new paths are taken
        header, blocks, plain = table
        d = tmp_path_factory.mktemp("csv")
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(cli, "_BLOCK_ROWS", 4)
            patch.setattr(os, "cpu_count", lambda: 2)
            write_csv(d / "new.csv", header, blocks)
        assert multiprocessing.active_children() == []
        reference_csv(d / "old.csv", header, plain)
        assert (d / "new.csv").read_bytes() == (d / "old.csv").read_bytes()

    def test_repeated_floats_keep_their_sign_and_nan_payloads(self, tmp_path, monkeypatch):
        # -0.0 next to 0.0 and NaNs with two payloads, in a block of repeats:
        # each distinct bit pattern is formatted once, and the bytes stay
        nans = np.array([0x7FF8000000000000, 0xFFF8000000000001], dtype=np.uint64).view(np.float64)
        distinct = np.array([-0.0, 0.0, *nans, 0.1 + 0.2])
        column = distinct[np.arange(BLOCK) % len(distinct)]
        formatted = []
        real = cli._float_fields
        monkeypatch.setattr(cli, "_float_fields", lambda values: formatted.append(len(values)) or real(values))
        write_csv(tmp_path / "new.csv", ("i", "x"), [(range(BLOCK), column)])
        assert formatted == [len(distinct)]
        reference_csv(tmp_path / "old.csv", ("i", "x"), (range(BLOCK), column.tolist()))
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()
        assert (tmp_path / "new.csv").read_text().splitlines()[1:6] == [
            "0,-0.0",
            "1,0.0",
            "2,",
            "3,",
            "4,0.30000000000000004",
        ]

    def pooled(self, monkeypatch):
        """Blocks of 4 rows on two CPUs; returns the sizes of the process
        pools that write_csv started."""
        started = []

        class Recorded(concurrent.futures.ProcessPoolExecutor):
            def __init__(self, max_workers):
                started.append(max_workers)
                super().__init__(max_workers=max_workers)

        monkeypatch.setattr(cli, "_BLOCK_ROWS", 4)
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        # the pool class is imported where a pool starts
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Recorded)
        return started

    def test_bad_cell_in_a_late_block_raises_from_a_worker(self, tmp_path, monkeypatch):
        with pytest.raises(TypeError) as serial:
            cli._fields([0.5, None])
        started = self.pooled(monkeypatch)
        column = [0.5] * 40
        column[37] = None  # block 9 of 10
        written = []
        with pytest.raises(TypeError) as raised:
            write_csv(tmp_path / "t.csv", ("i", "x"), [(range(40), column)], written)
        assert str(raised.value) == str(serial.value)
        assert started == [2]
        assert written == [tmp_path / "t.csv"]
        assert multiprocessing.active_children() == []

    def test_blocks_in_flight_are_bounded(self, tmp_path, monkeypatch):
        # a pool that formats each block when it is submitted and counts
        # the blocks submitted and not yet written
        in_flight, peak = [0], [0]

        class CountingPool:
            def submit(self, fn, item):
                in_flight[0] += 1
                peak[0] = max(peak[0], in_flight[0])
                future = Future()
                future.set_result(fn(item))
                return future

            def shutdown(self, cancel_futures=False):
                pass

        real_result = Future.result

        def result(future, timeout=None):
            in_flight[0] -= 1
            return real_result(future, timeout)

        monkeypatch.setattr(Future, "result", result)
        monkeypatch.setattr(cli, "_BLOCK_ROWS", 4)
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", lambda max_workers: CountingPool())
        rows = 4 * 25
        write_csv(tmp_path / "t.csv", ("i", "x"), [(range(rows), [0.5] * rows)])
        # two blocks per process
        assert peak[0] == 2 * 2
        assert (tmp_path / "t.csv").read_text() == "i,x\n" + "".join(f"{i},0.5\n" for i in range(rows))

    def test_failed_write_in_a_pool_leaves_no_file(self, tmp_path, outdir, monkeypatch):
        started = self.pooled(monkeypatch)
        real = engine.Trajectory._chunks

        def bad_chunks(traj, start=0, quoted=True):
            if not quoted:  # the summary replays the times alone
                yield from real(traj, start, quoted)
                return
            # the writer reads the trade prices a chunk of the replay at a time
            for times, kinds, trade_prices, bids, asks in real(traj, start):
                cells = trade_prices.astype(object)
                if start <= 37 < start + len(kinds):
                    cells[37 - start] = None
                yield times, kinds, cells, bids, asks
                start += len(kinds)

        monkeypatch.setattr(engine.Trajectory, "_chunks", bad_chunks)
        cfg = write_config(tmp_path, {"model": UNIFORM_MODEL, "run": {"events": 40}})
        with pytest.raises(TypeError):
            main(["simulate", cfg, "--seed", "1", "--out", str(outdir)])
        assert started == [2]
        assert not outdir.exists()
        assert multiprocessing.active_children() == []

    def test_header_only(self, tmp_path):
        write_csv(tmp_path / "t.csv", ("a", "b"), [([], np.empty(0))])
        assert (tmp_path / "t.csv").read_text() == "a,b\n"

    @pytest.mark.parametrize(
        "column",
        [
            pytest.param([None, 1.0], id="none"),
            pytest.param([np.int64(3), 4], id="numpy-integer"),
            pytest.param([np.float64(0.5), 1.0], id="numpy-float"),
            pytest.param([True, False], id="bool"),
            pytest.param(np.array([True, False]), id="bool-array"),
            pytest.param([1, 2.0], id="int-and-float"),
            pytest.param(["buy", 1.0], id="token-and-float"),
        ],
    )
    def test_unknown_cell_type_raises(self, tmp_path, column):
        with pytest.raises(TypeError):
            write_csv(tmp_path / "t.csv", ("a", "b"), [([0.0, 1.0], column)])

    @pytest.mark.parametrize("token", ["a,b", 'say "hi"', "x\ry", "x\ny"])
    def test_token_that_needs_quoting_raises(self, tmp_path, token):
        with pytest.raises(ValueError, match="quoting"):
            write_csv(tmp_path / "t.csv", ("a", "b"), [([0.0], [token])])
        with pytest.raises(ValueError, match="quoting"):
            write_csv(tmp_path / "h.csv", ("a", token), [([0.0], [1])])

    @pytest.mark.parametrize(
        "header,columns",
        [
            pytest.param(("a",), ([1.0],), id="one-column"),
            pytest.param(("a", "b"), ([1.0],), id="missing-column"),
            pytest.param(("a", "b"), ([1.0], [1, 2]), id="ragged"),
        ],
    )
    def test_malformed_table_raises(self, tmp_path, header, columns):
        with pytest.raises(ValueError):
            write_csv(tmp_path / "t.csv", header, [columns])


# -- artifact bytes -----------------------------------------------------------

# SHA-256 of every CSV a run writes, recorded with the row-at-a-time
# csv-module writer that the columnar write_csv replaced.  These runs cover
# the artifacts the benchmark digests do not: book snapshots (one of them
# empty), the image book, replica directories, compare's curves, and both
# sweep tables with empty (NaN) cells.
ARTIFACT_PINS = [
    pytest.param(
        "simulate",
        {
            "model": UNIFORM_MODEL,
            "run": {"events": 400},
            "output": {"histogram_bins": 25, "snapshot_at": [0, 150, 400]},
        },
        {
            "final-book.csv": "c99ff185182fc95968f2f93478e522738b47a0ec0671b46d9ec7e9dcb961262c",
            "histogram.csv": "529e81613d04a6ce236cbcfa3b76d563e417acdd07a43e0f689ff63b40f1e958",
            "snapshot-0.csv": "d9f8851d449021abc7c4b7cc30705754eb2e3813715cac2676b6b0a996932cbd",
            "snapshot-150.csv": "102e63ea0ed0e0a5df9d5750243686dd16a9ce93ef19bf467109c5bc68adb7b1",
            "snapshot-400.csv": "c99ff185182fc95968f2f93478e522738b47a0ec0671b46d9ec7e9dcb961262c",
            "trajectory.csv": "8795f065ae60f927fec435bbcb6f3b34993640f0dc2d5dd31e4eafd0d0014169",
        },
        id="snapshots",
    ),
    pytest.param(
        "simulate",
        {"model": TICK_MODEL, "run": {"events": 400, "map": {"divisor": 2.0}}},
        {
            "final-book.csv": "6d9f24cd696bf3fc0272949d1b5ea2d4f0d2e03367191f980b4eedea00326bca",
            "histogram.csv": "9a86d42b77bd84697d597079dd95600cfc57e63cf0ac73d044dfb2b8aabb3567",
            "image-book.csv": "2b34a60950833a783cba6da83d18bd065a8c10ca8eb6cc030016af93e8440309",
            "trajectory.csv": "9f0920e376e24978ac79e7cc9a9a0c4196daf67ed25d7191783dff0db18be508",
        },
        id="image-book",
    ),
    pytest.param(
        "simulate",
        {
            "model": UNIFORM_MODEL,
            "run": {"events": 300, "replicas": 2, "restriction": {"volume": 0.6}},
        },
        {
            "replica-000/final-book.csv": "473c2384cde140a999b0bfe3a44dc040b20d4e2e1ed17d0574742d1ca6a337de",
            "replica-000/histogram.csv": "65acbc54d2eceb7f89d6ef9aa98bcc2826d9853df56204cd454294fe24a8ba64",
            "replica-000/trajectory.csv": "757eb447650372fa14a1e259396c1155755fda23d2cbb84a70a955cd77b14773",
            "replica-001/final-book.csv": "d9f8851d449021abc7c4b7cc30705754eb2e3813715cac2676b6b0a996932cbd",
            "replica-001/histogram.csv": "77fa28b97c1186db7521c5d3cb5be2d153c1f9d89526934cae18d4dcb938e726",
            "replica-001/trajectory.csv": "e04471593a6b86ef967d6009dc87c82083ac6fbcd9dbd6dd22237e538cf22614",
        },
        id="replicas",
    ),
    pytest.param(
        "compare",
        {
            "model": UNIFORM_MODEL,
            "run": {"events": 2000, "restriction": {"volume": 0.6}},
            "compare": {"tolerance_cdf": 1.0, "tolerance_empty": 1.0},
        },
        {
            "curves.csv": "6fec3ffd78e682ed0ed5869a41092f3cc1d2e27c28f20034ccbf5c2e7a149adb",
        },
        id="compare-curves",
    ),
    pytest.param(
        "sweep",
        {
            "model": UNIFORM_MODEL,
            "run": {"events": 3000},
            "sweep": {"rho": [0.0, 0.3, 0.6]},
        },
        {
            "sweep.csv": "0ecf9d94f68e927cc6b23ce39cd1fcf81c51c6aaf1d56cf3ee4afe603f7d93e0",
        },
        id="rho-sweep",
    ),
    pytest.param(
        "sweep",
        {"model": UNIFORM_MODEL, "sweep": {"volume": [0.6, 0.7821882942691838, 0.9, 0.3]}},
        {
            "sweep.csv": "8f3e2a93b2ef8810c3826f253e98b07610a28068e4a07085cc1e7e36e7f588d9",
        },
        id="volume-sweep",
    ),
    pytest.param(
        "theory",
        {"model": KINKED_MODEL},
        {
            "phi.csv": "275d23e50c340cc6723c5c4ded8d7a8c488673af72126b1b03cb83b6e4208707",
            "quotes.csv": "172705d440a20f267d2587e9c21567cc9d2454ee282cf40b5676be845b3898fd",
        },
        id="kinked-theory",
    ),
    pytest.param(
        "sweep",
        {"model": KINKED_MODEL, "sweep": {"rho": [0.0, 0.1, 0.3, 0.5]}},
        {
            "sweep.csv": "3a7b03c7896fa7e5971ec65ab2fba8645c7f1d5c5ec8045b038e7421e110ad9c",
        },
        id="kinked-rho-sweep",
    ),
    pytest.param(
        "sweep",
        # below V_W, at V_W (phi is 0 there, but no class), inside, past the
        # effective ceiling, past the volume ceiling
        {
            "model": KINKED_MODEL,
            "sweep": {
                "volume": [0.4, 0.43564418151680256, 0.5, 0.6, 0.65, 0.7, 0.9, 1.0, 1.3]
            },
        },
        {
            "sweep.csv": "7dee6b5df45fa06895b5605a481d53078ceb219e806bee2c1e3fe702da41f43a",
        },
        id="kinked-volume-sweep",
    ),
]


def csv_digests(outdir):
    return {
        p.relative_to(outdir).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(outdir.rglob("*.csv"))
    }


@pytest.mark.parametrize("command,doc,pins", ARTIFACT_PINS)
def test_csv_bytes_are_pinned(tmp_path, outdir, command, doc, pins):
    cfg = write_config(tmp_path, doc)
    assert main([command, cfg, "--seed", "5", "--out", str(outdir)]) == 0
    assert csv_digests(outdir) == pins


# SHA-256 of every artifact of a freeze ensemble (frozen and unfrozen
# replicas, a gambler block) and of simulate's summary.json for a run that
# freezes and one that does not, recorded while each run was still reduced
# twice (a trajectory summary, then a separate replica record).
RECORD_PINS = [
    pytest.param(
        "freeze",
        {
            "model": dict(UNIFORM_MODEL, rho=0.6),
            "run": {"events": 2000, "replicas": 4, "workers": 1},
            "output": {"histogram_bins": 20},
            "freeze": {"gambler": {"y": 0.3}},
        },
        {
            "ensemble.json": "949c18bf10a35cd865c295190270353d78304ebdcf939502e24b15606d0b7908",
            "midpoint-histogram.csv": "158941bea9d0cfe4dca26a45611c5622c39c4f2d0c2f44d88480d88d647d59c7",
            "replicas.csv": "5f50c9066507e349819293910645690c9863f9e08441eeda39e945a09b596213",
        },
        id="freeze-gambler",
    ),
    pytest.param(
        "simulate",
        {"model": dict(UNIFORM_MODEL, rho=0.6), "run": {"events": 2000}, "output": {"formats": ["json"]}},
        {"summary.json": "402bf0fed18c5d2d09eef69702b55122545251db44f17f680cc589c1b7aab6f3"},
        id="simulate-frozen",
    ),
    pytest.param(
        "simulate",
        {
            "model": UNIFORM_MODEL,
            "run": {"events": 3000, "restriction": {"volume": 0.6}},
            "output": {"formats": ["json"]},
        },
        {"summary.json": "041596359e52f00f2a1bb9b57203dbb287e4a03f612a7e4a8914b1bd8c10cea3"},
        id="simulate-restricted",
    ),
]


@pytest.mark.parametrize("command,doc,pins", RECORD_PINS)
def test_run_records_are_pinned(tmp_path, outdir, command, doc, pins):
    cfg = write_config(tmp_path, doc)
    assert main([command, cfg, "--seed", "5", "--out", str(outdir)]) == 0
    digests = {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(outdir.iterdir())
    }
    assert digests == pins


def test_theory_window_json_is_pinned(tmp_path, outdir):
    cfg = write_config(tmp_path, {"model": KINKED_MODEL})
    assert main(["theory", cfg, "--out", str(outdir)]) == 0
    digest = hashlib.sha256((outdir / "window.json").read_bytes()).hexdigest()
    assert digest == "c8b51f5904ce975d77413edd15ecc250241a55ea8eff236b6cc8daafff92978a"


def test_volume_sweep_integrates_each_volume_once(tmp_path, outdir, monkeypatch):
    ends = []
    integrate = theory._integrate_piece

    def recording(f, a, b, *rest):
        ends.append(b)
        return integrate(f, a, b, *rest)

    monkeypatch.setattr(theory, "_integrate_piece", recording)
    volumes = [0.4, 0.5, 0.6, 0.7, 0.9, 1.0]
    cfg = write_config(tmp_path, {"model": KINKED_MODEL, "sweep": {"volume": volumes}})
    assert main(["sweep", cfg, "--out", str(outdir)]) == 0
    _, rows = read_csv(outdir / "sweep.csv")
    inside = [float(r[0]) for r in rows if r[2] != "out_of_domain"]
    assert inside == [0.5, 0.6, 0.7, 0.9]
    # no volume is a knot level, so only the last piece of phi(v) ends at v
    assert [ends.count(v) for v in inside] == [1, 1, 1, 1]


# -- console script -----------------------------------------------------------


def test_console_script_roundtrip(tmp_path):
    doc = {"model": UNIFORM_MODEL, "run": {"events": 100}}
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps(doc))
    out = tmp_path / "out"
    proc = subprocess.run(
        [sys.executable, "-m", "lobmm.cli", "simulate", str(cfg), "--seed", "1", "--out", str(out)],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert (out / "summary.json").exists()
