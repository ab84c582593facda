"""The benchmark's workloads: lobmm configs made from a seed, the commands
that run them, and the artifacts each command must leave behind.

Each workload is a closed loop: one caller runs its commands one after
another and starts the next repeat only when the last one has finished.
The only concurrency is the process pool of ``run_ensemble`` in
``freeze-supercritical`` (``--workers 2``).

Why these three:

- ``simulate-restricted``: the artifact writer does most of the work (a
  large ``trajectory.csv``), the event loop the rest; the book stays small.
- ``freeze-supercritical``: the event loop on a large book, fanned out over
  the process pool, with the post-run reductions once per replica; the
  artifacts are tiny.  Two replicas of 1e6 events each, one per worker:
  per-event arrays and their reductions, not the interpreter or the book,
  dominate a worker's peak memory (166 MB against 55 MB at 1e5 events).
- ``theory-kinked``: the theory solvers on a 32-segment curve pair, where
  knot splitting and curve inverses do real work; the engine and the
  writer do almost nothing.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Tuple

NAMES = ("simulate-restricted", "freeze-supercritical", "theory-kinked")

UNIFORM_MODEL = {
    "interval": [0.0, 1.0],
    "demand": [[0.0, 1.0], [1.0, 0.0]],
    "supply": [[0.0, 0.0], [1.0, 1.0]],
}


def kinked_model(segments: int = 32) -> Dict:
    """Demand 1.5(1-x)^2 + 0.05 and supply 1.2 x^1.5 + 0.02, sampled at
    ``segments + 1`` equally spaced prices on [0, 1].  The pair passes
    A1-A6, with V_W ~ 0.4356 and v_l(0) ~ 0.698."""
    xs = [k / segments for k in range(segments + 1)]
    return {
        "interval": [0.0, 1.0],
        "demand": [[x, 1.5 * (1.0 - x) ** 2 + 0.05] for x in xs],
        "supply": [[x, 1.2 * x**1.5 + 0.02] for x in xs],
    }


@dataclass(frozen=True)
class Step:
    """One ``lobmm`` command of a workload.

    ``name`` names the step's config file and output directory;
    ``artifacts`` is the exact set of files the command must write there.
    """

    name: str
    command: str
    config: Dict
    extra_args: Tuple[str, ...]
    artifacts: Tuple[str, ...]


def steps(workload: str, seed: int, smoke: bool = False) -> List[Step]:
    """The commands of ``workload``; ``smoke`` shrinks every size so that a
    repeat takes well under a second of lobmm time (for the benchmark's own
    tests).  The seed reaches simulations as ``--seed``; theory has no
    randomness, so there it jitters the sweep grids instead."""
    if workload == "simulate-restricted":
        config = {
            "model": dict(UNIFORM_MODEL, rho=0.0),
            "run": {"events": 2_000 if smoke else 300_000, "restriction": {"volume": 0.6}},
            "output": {"formats": ["csv", "json"]},
        }
        return [
            Step(
                "simulate",
                "simulate",
                config,
                ("--seed", str(seed)),
                ("final-book.csv", "histogram.csv", "summary.json", "trajectory.csv"),
            )
        ]
    if workload == "freeze-supercritical":
        config = {
            "model": dict(UNIFORM_MODEL, rho=0.6),
            "run": {"events": 2_000 if smoke else 1_000_000, "replicas": 2},
            "freeze": {"gambler": {"y": 0.3}},
        }
        return [
            Step(
                "freeze",
                "freeze",
                config,
                ("--seed", str(seed), "--workers", "2"),
                ("ensemble.json", "midpoint-histogram.csv", "replicas.csv"),
            )
        ]
    if workload == "theory-kinked":
        rng = random.Random(seed)
        n_rho, n_vol = (2, 3) if smoke else (6, 32)
        rhos = [round(0.05 * k + 0.01 * rng.random(), 6) for k in range(n_rho)]
        volumes = [round(0.44 + 0.02 * k + 0.005 * rng.random(), 6) for k in range(n_vol)]
        model = dict(kinked_model(), rho=0.1)
        seed_args = ("--seed", str(seed))
        return [
            Step(
                "theory",
                "theory",
                {"model": model},
                seed_args,
                ("phi.csv", "quotes.csv", "window.json"),
            ),
            Step("sweep-rho", "sweep", {"model": model, "sweep": {"rho": rhos}}, seed_args, ("sweep.csv",)),
            Step(
                "sweep-volume",
                "sweep",
                {"model": model, "sweep": {"volume": volumes}},
                seed_args,
                ("sweep.csv",),
            ),
        ]
    raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(NAMES)}")
