"""The lobmm benchmark: runs one workload through the real ``lobmm`` CLI,
checks its artifacts, and prints its metrics.

Usage, from the root of a checkout::

    python3 bench/run.py --workload simulate-restricted --seed 1 --seconds 35 --trace 0
    python3 bench/run.py --workload theory-kinked --seed 1 --seconds 35 --trace 1 \\
        --results .bench_results/parent.jsonl
    python3 bench/run.py compare .bench_results/parent.jsonl .bench_results/change.jsonl

A run repeats the workload's commands back to back until ``--seconds`` have
passed (at least three repeats), each into a freshly emptied output
directory, and reports medians.  The last line of standard output is one
JSON object: ``correct``, ``attempted``, ``failed``, ``metrics``.  Metric
names, units and bounds live in ``BENCHMARK.json``.

``--trace 0`` prints the end-to-end metrics, medians over the repeats:

- ``wall_s``: wall time from config file to artifacts on disk, summed over
  the workload's commands;
- ``cpu_s``: user plus system CPU time of each command's process tree, from
  ``os.wait4``, summed;
- ``peak_rss_mb``: the largest ``ru_maxrss`` of any command, that is of the
  largest single process in its tree, pool workers included;
- ``setup_s``: a fresh interpreter that imports ``lobmm.cli`` and parses the
  workload's (first) config; one probe after each repeat.

``--trace 1`` alternates plain and traced repeats (see ``tracer.py``) and
prints the per-layer metrics, medians over the traced repeats, plus
``trace.overhead_frac``.  The counts in ``EXACT`` must repeat exactly
across traced repeats.

A repeat fails on a nonzero exit, a missing or unexpected artifact,
artifacts that differ from the run's first good repeat, or, for the default
seed at full size, artifacts whose SHA-256 differs from ``digests.json``.
``fail_frac`` (failed over attempted) is printed with the metrics; it is
not in ``BENCHMARK.json``, whose metrics must never read 0.

``--results FILE`` appends the run, with an environment record, as one
JSON line; ``compare`` reads two such files (see ``compare.py``).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import compare  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from compare import quartiles  # noqa: E402

DEFAULT_SEED = 1
MIN_REPEATS = 3
# a run stops starting repeats here, and kills a command still running at
# the hard limit, so that it always ends within 180 s
SOFT_LIMIT_S = 120.0
HARD_LIMIT_S = 170.0
# counts that must repeat exactly across traced repeats
EXACT = (
    "engine.run.calls",
    "engine.run.events",
    "engine.run.trades",
    "engine.run.dropped_frac",
    "book.final_levels",
    "book.final_orders",
    "theory.v_l.calls",
    "curves.value_at.calls",
    "curves.inverse.calls",
    "cli.write_csv.bytes",
)

SETUP_PROBE = (
    "import sys\n"
    "from lobmm.cli import load_config, parse_model\n"
    "parse_model(load_config(sys.argv[1]))\n"
    "print(sys.modules['lobmm'].__file__)\n"
)


def environment(loadavg: Tuple[float, float, float]) -> Dict:
    import numpy

    rev = dirty = None
    try:
        top = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "--show-toplevel"],
            capture_output=True, text=True, check=True,
        ).stdout.strip()
        if Path(top).resolve() == ROOT:
            rev = subprocess.run(
                ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                capture_output=True, text=True, check=True,
            ).stdout.strip()
            dirty = bool(subprocess.run(
                ["git", "-C", str(ROOT), "status", "--porcelain", "--untracked-files=no"],
                capture_output=True, text=True, check=True,
            ).stdout.strip())
    except (OSError, subprocess.CalledProcessError):
        pass  # not a git checkout
    cpu = None
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "git_rev": rev,
        "git_dirty": dirty,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "cpu_model": cpu or platform.processor() or platform.machine(),
        "loadavg_at_start": list(loadavg),
    }


class Runner:
    """Runs lobmm commands in child processes and measures them."""

    def __init__(self, work: Path, started: float):
        self.work = work
        self.hard_deadline = started + HARD_LIMIT_S
        src = str(ROOT / "src")
        path = os.environ.get("PYTHONPATH")
        self.env = dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""))

    def _kill(self, proc: subprocess.Popen) -> None:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass

    def command(self, argv: List[str]) -> Tuple[int, float, float, float, str]:
        """(exit code, wall s, CPU s, peak RSS MB, stderr tail) of one
        command and every process it waited for."""
        err_path = self.work / "stderr.txt"
        with open(err_path, "w") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen(
                argv, cwd=ROOT, env=self.env, stdout=subprocess.DEVNULL, stderr=err,
                start_new_session=True,
            )
            timer = threading.Timer(max(self.hard_deadline - time.monotonic(), 0.0), self._kill, (proc,))
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        tail = err_path.read_text()[-500:].strip()
        return proc.returncode, wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss * 1024 / 1e6, tail

    def check_origin(self, config: Path) -> str:
        """Run the set-up probe once, untimed: it warms the bytecode cache
        and must import lobmm from this checkout.  Returns a problem or ''."""
        proc = subprocess.run(
            [sys.executable, "-c", SETUP_PROBE, str(config)],
            cwd=ROOT, env=self.env, capture_output=True, text=True, timeout=60,
        )
        if proc.returncode != 0:
            return f"setup probe failed: {proc.stderr.strip()[-300:]}"
        origin = Path(proc.stdout.strip()).resolve()
        if ROOT / "src" not in origin.parents:
            return f"lobmm imported from {origin}, not from {ROOT / 'src'}"
        return ""

    def setup_probe(self, config: Path) -> Optional[float]:
        """Wall time of a fresh interpreter that imports lobmm.cli and
        parses the config; None if it failed."""
        rc, wall, _, _, _ = self.command([sys.executable, "-c", SETUP_PROBE, str(config)])
        return wall if rc == 0 else None


def digest_tree(out: Path) -> Dict[str, str]:
    digests = {}
    for path in sorted(p for p in out.rglob("*") if p.is_file()):
        h = hashlib.sha256()
        with open(path, "rb") as fh:
            for block in iter(lambda: fh.read(1 << 20), b""):
                h.update(block)
        digests[path.relative_to(out).as_posix()] = h.hexdigest()
    return digests


def run_repeat(runner: Runner, steps, configs, traced: bool, trace_dir: Optional[Path]) -> Dict:
    """One pass over the workload's commands into an emptied output tree."""
    out = runner.work / "out"
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    if trace_dir is not None:
        shutil.rmtree(trace_dir, ignore_errors=True)
    wall = cpu = rss = 0.0
    failures = []
    for step, config in zip(steps, configs):
        cli = [step.command, str(config), "--out", str(out / step.name), *step.extra_args]
        if traced:
            argv = [sys.executable, str(BENCH / "tracer.py"), str(trace_dir), *cli]
        else:
            argv = [sys.executable, "-m", "lobmm.cli", *cli]
        rc, w, c, r, err = runner.command(argv)
        wall, cpu, rss = wall + w, cpu + c, max(rss, r)
        if rc != 0:
            failures.append(f"{step.name}: exit {rc}: {err}")
            continue
        present = sorted(p.name for p in (out / step.name).iterdir()) if (out / step.name).is_dir() else []
        if present != sorted(step.artifacts):
            failures.append(f"{step.name}: artifacts {present}, expected {sorted(step.artifacts)}")
    return {"wall_s": wall, "cpu_s": cpu, "peak_rss_mb": rss, "digests": digest_tree(out), "failures": failures}


def main(argv: Optional[List[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv[:1] == ["compare"]:
        return compare.main(argv[1:])
    parser = argparse.ArgumentParser(prog="bench/run.py", description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny sizes, for the benchmark's own tests")
    parser.add_argument("--results", type=Path, help="append this run as a JSON line to this file")
    parser.add_argument(
        "--record-digests", action="store_true",
        help="store the artifact digests of this run (default seed, full size) in digests.json",
    )
    args = parser.parse_args(argv)

    started = time.monotonic()
    loadavg = os.getloadavg()
    if not (ROOT / "src" / "lobmm" / "cli.py").is_file():
        print(f"bench: no lobmm source under {ROOT / 'src'}; run from a full checkout", file=sys.stderr)
        return 2
    bench_spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    work = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        return _run(args, bench_spec, work, started, loadavg)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass  # another run still uses it


def _run(args, bench_spec: Dict, work: Path, started: float, loadavg) -> int:
    steps = workloads.steps(args.workload, args.seed, args.smoke)
    configs = []
    for step in steps:
        path = work / f"{step.name}.json"
        path.write_text(json.dumps(step.config, indent=1))
        configs.append(path)
    runner = Runner(work, started)
    failures: List[str] = []
    notes: List[str] = []

    problem = runner.check_origin(configs[0])
    if problem:
        print(f"bench: {problem}", file=sys.stderr)
        return 2

    # closed loop: the next repeat starts when the last one has finished
    plain: List[Dict] = []
    traced: List[Dict] = []
    setup_s: List[float] = []
    t0 = time.monotonic()
    while True:
        enough = len(plain) + len(traced) >= MIN_REPEATS and (args.trace == 0 or len(traced) >= 2)
        if enough and time.monotonic() - t0 >= args.seconds:
            break
        if time.monotonic() - started > SOFT_LIMIT_S:
            notes.append("stopped early at the run's time limit")
            break
        use_trace = args.trace == 1 and len(traced) < len(plain)
        trace_dir = work / f"trace-{len(traced)}" if use_trace else None
        rep = run_repeat(runner, steps, configs, use_trace, trace_dir)
        if use_trace and not rep["failures"]:
            rep["layers"], rep["missing"] = tracer.layer_metrics(*tracer.load(trace_dir))
        (traced if use_trace else plain).append(rep)
        if args.trace == 0:
            # spread the set-up probes over the run, like the repeats
            probe = runner.setup_probe(configs[0])
            if probe is None:
                failures.append("a set-up probe failed")
            else:
                setup_s.append(probe)

    repeats = plain + traced
    reference = next((r["digests"] for r in repeats if not r["failures"]), {})
    for rep in repeats:
        if not rep["failures"] and rep["digests"] != reference:
            rep["failures"].append("artifacts differ from the first good repeat")
    recorded = json.loads((BENCH / "digests.json").read_text()) if (BENCH / "digests.json").is_file() else {}
    check_digests = args.seed == DEFAULT_SEED and not args.smoke
    if check_digests and args.record_digests and not any(r["failures"] for r in repeats):
        recorded[args.workload] = reference
        (BENCH / "digests.json").write_text(json.dumps(recorded, indent=1, sort_keys=True) + "\n")
        notes.append("recorded artifact digests in bench/digests.json")
    if check_digests and args.workload in recorded:
        for rep in repeats:
            if not rep["failures"] and rep["digests"] != recorded[args.workload]:
                bad = sorted(k for k in set(reference) | set(recorded[args.workload])
                             if rep["digests"].get(k) != recorded[args.workload].get(k))
                rep["failures"].append(f"SHA-256 differs from digests.json for {bad}")
    elif check_digests:
        notes.append(f"no recorded digests for {args.workload}; byte checks are across repeats only")
    for k, rep in enumerate(repeats):
        failures += [f"repeat {k}: {f}" for f in rep["failures"]]

    ok_traced = [r for r in traced if not r["failures"]]
    for rep in ok_traced[1:]:
        drift = [k for k in EXACT if rep["layers"][k] != ok_traced[0]["layers"][k]]
        if drift:
            failures.append(f"exact counts drifted between traced repeats: {drift}")

    ok_plain = [r for r in plain if not r["failures"]]
    units = {m["name"]: m["unit"] for m in bench_spec["end_to_end"] + bench_spec["per_layer"]}
    samples: Dict[str, List[float]] = {}
    missing: Dict[str, str] = {}
    if args.trace == 0:
        for name in ("wall_s", "cpu_s", "peak_rss_mb"):
            samples[name] = [r[name] for r in ok_plain]
        samples["setup_s"] = setup_s
        names = [m["name"] for m in bench_spec["end_to_end"]]
    else:
        for name in ok_traced[0]["layers"] if ok_traced else ():
            values = [r["layers"][name] for r in ok_traced]
            if values[0] is None:
                missing[name] = ok_traced[0]["missing"][name]
            else:
                samples[name] = values
        if ok_traced and ok_plain:
            plain_wall = statistics.median(r["wall_s"] for r in ok_plain)
            traced_wall = statistics.median(r["wall_s"] for r in ok_traced)
            samples["trace.overhead_frac"] = [traced_wall / plain_wall - 1.0]
            notes.append(f"wall_s median {plain_wall:.4g} s plain, {traced_wall:.4g} s traced")
        names = [m["name"] for m in bench_spec["per_layer"]]

    attempted = len(repeats)
    failed = sum(1 for r in repeats if r["failures"])
    metrics = {}
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"repeats {len(plain)} plain + {len(traced)} traced")
    for name in names:
        if name in missing:
            metrics[name] = {"value": None, "unit": units[name], "missing": missing[name]}
            print(f"  {name:36s} missing: {missing[name]}")
            continue
        values = samples.get(name)
        if not values:
            continue
        q1, med, q3 = quartiles(values)
        metrics[name] = {"value": med, "unit": units[name]}
        print(f"  {name:36s} {med:12.6g} {units[name]:7s} median of {len(values)}"
              + (f"  [q1 {q1:.6g}, q3 {q3:.6g}]" if len(values) > 1 else ""))
    print(f"  {'fail_frac':36s} {failed / attempted:12.6g} {'ratio':7s} {failed} of {attempted} repeats failed")
    for note in notes:
        print(f"  note: {note}")
    for failure in failures:
        print(f"  FAIL: {failure}")

    correct = not failures and set(metrics) == set(names)
    if args.results is not None:
        record = {
            "workload": args.workload,
            "seed": args.seed,
            "seconds": args.seconds,
            "trace": args.trace,
            "smoke": args.smoke,
            "environment": environment(loadavg),
            "correct": correct,
            "attempted": attempted,
            "failed": failed,
            "failures": failures,
            "metrics": metrics,
            "samples": samples,
        }
        args.results.parent.mkdir(parents=True, exist_ok=True)
        with open(args.results, "a") as fh:
            fh.write(json.dumps(record) + "\n")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
