"""Compare two results files (parent and change) written by ``run.py --results``.

Prints one row per workload and end-to-end metric with both sides' medians
and quartiles over runs and a verdict under the bounds in BENCHMARK.json:

- ``improved``: over at least ten runs paired by seed, the change wins at
  least 9 in 10, and its median is better by more than the parent's
  quartile spread;
- ``unresolved``: the parent's quartile spread, as a share of its median,
  is wider than the bound, and not every change run beats every parent run;
- ``worse``: the change's median is worse than the parent's by more than
  the bound;
- ``no worse``: otherwise.

Then one row per per-layer metric of the traced runs, with both medians
and the relative change.

    python3 bench/run.py compare PARENT.jsonl CHANGE.jsonl
"""

from __future__ import annotations

import argparse
import json
import statistics
from collections import defaultdict
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

ROOT = Path(__file__).resolve().parent.parent
MIN_PAIRS = 10


def load(path: Path) -> List[Dict]:
    return [json.loads(line) for line in Path(path).read_text().splitlines() if line.strip()]


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(
    parent: Sequence[float],
    change: Sequence[float],
    bound: float,
    better: str,
    pairs: Sequence[Tuple[float, float]] = (),
) -> str:
    """Verdict for one metric on one workload; ``pairs`` are (parent,
    change) values of runs with the same seed."""
    sign = 1.0 if better == "lower" else -1.0
    p_q1, p_med, p_q3 = quartiles(parent)
    c_med = statistics.median(change)
    wins = sum(1 for p, c in pairs if sign * (c - p) < 0)
    if len(pairs) >= MIN_PAIRS and wins >= 0.9 * len(pairs) and sign * (c_med - p_med) < -(p_q3 - p_q1):
        return "improved"
    if all(sign * (c - p) < 0 for c in change for p in parent):
        return "no worse"
    if p_med == 0 or (p_q3 - p_q1) / abs(p_med) > bound:
        return "unresolved"
    if sign * (c_med - p_med) / abs(p_med) > bound:
        return "worse"
    return "no worse"


def _values(records: List[Dict], trace: int) -> Dict[Tuple[str, str], Dict[int, List[float]]]:
    """(workload, metric) -> seed -> run values (several if a seed repeats)."""
    out: Dict[Tuple[str, str], Dict[int, List[float]]] = defaultdict(lambda: defaultdict(list))
    for rec in records:
        if rec["trace"] != trace or not rec["correct"]:
            continue
        for name, metric in rec["metrics"].items():
            if metric["value"] is not None:
                out[(rec["workload"], name)][rec["seed"]].append(metric["value"])
    return out


def _flat(by_seed: Dict[int, List[float]]) -> List[float]:
    return [v for values in by_seed.values() for v in values]


def _fmt(values: Sequence[float]) -> str:
    q1, med, q3 = quartiles(values)
    return f"{med:10.4g} [{q1:.4g}, {q3:.4g}] n={len(values)}"


def _env_line(label: str, records: List[Dict]) -> Optional[str]:
    if not records:
        return None
    env = records[0]["environment"]
    return (f"{label}: rev {env['git_rev'] or '?'}{' (dirty)' if env.get('git_dirty') else ''}, "
            f"{env['nproc']} CPUs ({env['cpu_model']}), Python {env['python']}, numpy {env['numpy']}")


def main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(prog="bench/run.py compare", description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parent, change = load(args.parent), load(args.change)
    for line in (_env_line("parent", parent), _env_line("change", change)):
        if line:
            print(line)
    if parent and change:
        keys = ("nproc", "cpu_model", "python", "numpy")
        if any(parent[0]["environment"][k] != change[0]["environment"][k] for k in keys):
            print("warning: the two sides ran on different machines or toolchains")

    print(f"\n{'workload':22s} {'metric':12s} {'parent median [q1, q3]':34s} {'change median [q1, q3]':34s} verdict")
    p_e2e, c_e2e = _values(parent, 0), _values(change, 0)
    workloads = sorted({w for w, _ in p_e2e} | {w for w, _ in c_e2e})
    for workload in workloads:
        for metric in spec["end_to_end"]:
            key = (workload, metric["name"])
            p, c = p_e2e.get(key), c_e2e.get(key)
            if not p or not c:
                print(f"{workload:22s} {metric['name']:12s} missing on one side")
                continue
            pairs = [
                (statistics.median(p[s]), statistics.median(c[s])) for s in sorted(set(p) & set(c))
            ]
            v = verdict(_flat(p), _flat(c), metric["bound"], metric["better"], pairs)
            print(f"{workload:22s} {metric['name']:12s} {_fmt(_flat(p)):34s} {_fmt(_flat(c)):34s} {v}")
        for side, records in (("parent", parent), ("change", change)):
            runs = [r for r in records if r["workload"] == workload]
            failed = sum(r["failed"] for r in runs)
            attempted = sum(r["attempted"] for r in runs)
            if failed:
                print(f"{workload:22s} fail_frac    {side}: {failed} of {attempted} repeats failed")

    p_layer, c_layer = _values(parent, 1), _values(change, 1)
    if p_layer or c_layer:
        print(f"\n{'workload':22s} {'per-layer metric':36s} {'parent':>12s} {'change':>12s} {'delta':>9s}")
    for workload in sorted({w for w, _ in p_layer} | {w for w, _ in c_layer}):
        for metric in spec["per_layer"]:
            key = (workload, metric["name"])
            p, c = p_layer.get(key), c_layer.get(key)
            if not p or not c:
                continue
            pm, cm = statistics.median(_flat(p)), statistics.median(_flat(c))
            if pm == 0 and cm == 0:
                continue
            delta = f"{(cm - pm) / abs(pm):+9.1%}" if pm else "      new"
            print(f"{workload:22s} {metric['name']:36s} {pm:12.5g} {cm:12.5g} {delta}")
    return 0
