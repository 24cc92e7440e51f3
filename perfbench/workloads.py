"""Workload definitions shared by the benchmark and its set-up probe.

This module must not import gibbsratio at import time: the set-up probe
imports it first and then times ``import gibbsratio`` itself.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, replace
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"


@dataclass(frozen=True)
class Workload:
    """One closed-loop batch of trials run through ``run_trials``.

    ``trials`` is the batch size; each batch is timed on its own and repeated
    with the same master seed until the run's time is used up.
    ``min_success_upper`` is the floor for the batch's Wilson 95% upper bound
    on the success rate.
    """

    name: str
    experiment: dict
    trials: int = 100
    min_success_upper: float = 0.75
    corrupt_at_tv_budget: bool = False


# Batch sizes put one batch at about 1-2 s on a 2-CPU x86 box, so a 10 s run
# times several batches and reports their median.
WORKLOADS = {
    w.name: w
    for w in (
        # Per-draw cost: 924 draws per sample_many call dominate.
        Workload("q8-tight", {"model": "twolevel", "target_q": 8.0, "epsilon": 0.1}, trials=100),
        # Per-call cost: as many draws as q8-tight over 8x the levels.
        Workload("q64-long", {"model": "twolevel", "target_q": 64.0, "epsilon": 0.5}, trials=50),
        # 23 energy levels: sample_at outweighs sample_many, and every draw
        # passes through the corruption mixture.  Criterion 9's budget caps
        # the total TV over all draws at 0.1, hence the lower success floor.
        Workload(
            "ising-tv",
            {"model": "ising", "epsilon": 0.5},
            trials=100,
            min_success_upper=0.65,
            corrupt_at_tv_budget=True,
        ),
        # Short trials: the process pool's per-batch cost is largest here.
        Workload(
            "q8-pool",
            {"model": "twolevel", "target_q": 8.0, "epsilon": 0.5, "workers": 2},
            trials=200,
        ),
    )
}


def use_checkout_source() -> None:
    """Import gibbsratio from this checkout's ``src``, never from site-packages."""
    if not (SRC / "gibbsratio" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no gibbsratio package under {SRC}")
    sys.path.insert(0, str(SRC))


def grid_edges(side: int) -> list[tuple[int, int]]:
    """Edges of the side x side square grid, vertices numbered row by row."""
    edges = []
    for row in range(side):
        for col in range(side):
            v = row * side + col
            if col + 1 < side:
                edges.append((v, v + 1))
            if row + 1 < side:
                edges.append((v, v + side))
    return edges


def write_grid_graph(out_dir: Path, side: int = 4) -> Path:
    """Write the grid as an edge list that ``load_graph`` reads."""
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / f"grid{side}x{side}.txt"
    path.write_text("".join(f"{u} {v}\n" for u, v in grid_edges(side)), encoding="utf-8")
    return path


def experiment_config(workload: Workload, seed: int, out_dir: Path = OUT_DIR, trials=None):
    """The ``ExperimentConfig`` of one batch of ``workload`` under ``seed``.

    The corrupted workload mixes in uniform draws at criterion 9's budget,
    tv = 0.1 / (m q (r + d) + 3 r + 1), computed from the exact instance.
    """
    from gibbsratio.harness import (
        ExperimentConfig,
        build_model_instance,
        resolve_estimator_config,
    )
    from gibbsratio.instance import log_ratio_true

    kwargs = dict(workload.experiment)
    if kwargs["model"] == "ising":
        kwargs["graph_path"] = str(write_grid_graph(out_dir))
    cfg = ExperimentConfig(
        trials=workload.trials if trials is None else trials, master_seed=seed, **kwargs
    )
    if workload.corrupt_at_tv_budget:
        inst = build_model_instance(cfg)
        est = resolve_estimator_config(cfg, inst)
        q = log_ratio_true(inst)
        tv = 0.1 / (est.m * q * (est.r + est.d) + 3 * est.r + 1)
        cfg = replace(cfg, tv_budget=tv, corruption_mode="uniform")
    return cfg
