"""Time what a CLI user waits for before the first trial, in a fresh interpreter.

Usage: python3 perfbench/setup_probe.py '<ExperimentConfig fields as JSON>'

Prints one JSON object of millisecond timings: the import of gibbsratio,
``build_model_instance``, ``resolve_estimator_config`` and
``log_ratio_true``, their sum as ``setup_ms``, and, for graph models, one
further ``enumerate_ising`` call on the parsed graph (outside the sum).
"""

from __future__ import annotations

import json
import sys
import time

from workloads import use_checkout_source


def main(argv: list[str]) -> None:
    fields = json.loads(argv[1])
    use_checkout_source()
    t0 = time.perf_counter()
    import gibbsratio  # noqa: F401  (the timed import)
    from gibbsratio.harness import (
        ExperimentConfig,
        build_model_instance,
        resolve_estimator_config,
    )
    from gibbsratio.instance import log_ratio_true

    t1 = time.perf_counter()
    cfg = ExperimentConfig(**fields)
    inst = build_model_instance(cfg)
    t2 = time.perf_counter()
    resolve_estimator_config(cfg, inst)
    t3 = time.perf_counter()
    log_ratio_true(inst)
    t4 = time.perf_counter()
    timings = {
        "setup_ms": (t4 - t0) * 1e3,
        "import_ms": (t1 - t0) * 1e3,
        "build_model_instance_ms": (t2 - t1) * 1e3,
        "build_config_ms": (t3 - t2) * 1e3,
        "log_ratio_true_ms": (t4 - t3) * 1e3,
        "enumerate_ising_ms": 0.0,
    }
    if cfg.model == "ising":
        from gibbsratio.models import enumerate_ising, load_graph

        graph = load_graph(cfg.graph_path)
        t5 = time.perf_counter()
        enumerate_ising(graph)
        timings["enumerate_ising_ms"] = (time.perf_counter() - t5) * 1e3
    print(json.dumps(timings))


if __name__ == "__main__":
    main(sys.argv)
