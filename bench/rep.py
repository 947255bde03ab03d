"""One repetition of one workload, in the current process.

``run.py`` starts this module as a fresh subprocess per repetition
(``python -m bench.rep``), so every repetition pays first-run costs:
imports, key generation, cold caches.  The tests call :func:`measure`
in-process on small workloads.

Set-up and every timed phase run inside a :class:`calib.HostSampler`, so
each time is reported raw and normalised by the host speed sampled
before, during and after it.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import pathlib
import resource
import sys
import traceback

from bench.calib import HostSampler
from bench.trace import Tracer
from bench.workloads import COUNTER_METRICS, WORKLOADS


def measure(workload, seed: int, workdir: pathlib.Path, traced: bool = False) -> dict:
    """Set up, run and check ``workload`` once; returns the repetition record."""
    tracer = Tracer().install() if traced else None
    on_probe = tracer.exclude if tracer is not None else None
    samplers: dict[str, HostSampler] = {}

    @contextlib.contextmanager
    def phase(name: str):
        with HostSampler(on_probe) as sampler:
            yield
        samplers[name] = sampler

    try:
        with HostSampler(on_probe) as setup:
            state = workload.setup(seed, workdir)
        inputs = workload.inputs(seed)
        if tracer is not None:
            tracer.reset()
        result = workload.run(state, inputs, phase)
    finally:
        if tracer is not None:
            tracer.uninstall()
    outcome = workload.check(state, inputs, result)
    yardstick = workload.yardstick
    phases = {name: sampler.normalised_s(yardstick[name]) for name, sampler in samplers.items()}
    wall = sum(phases.values())
    record = {
        "workload": workload.name,
        "seed": seed,
        "traced": traced,
        "setup_raw_s": setup.work_s,
        "setup_s": setup.normalised_s(yardstick["setup"]),
        "phases_s": phases,
        "wall_raw_s": sum(sampler.work_s for sampler in samplers.values()),
        "wall_s": wall,
        "ops": outcome.ops,
        "ops_per_s": outcome.ops / wall,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "digest": outcome.digest,
        "error": outcome.error,
    }
    if tracer is not None:
        record["layers"] = _layer_metrics(tracer, samplers, wall, outcome.counters)
    return record


def _layer_metrics(
    tracer: Tracer, samplers: dict[str, HostSampler], wall_s: float, counters: dict
) -> dict:
    """Tracer metrics, with times normalised like the wall they divide."""
    wall_raw = sum(sampler.work_s for sampler in samplers.values())
    factor = wall_s / wall_raw
    layers = tracer.layer_metrics(wall_raw)
    for name in layers:
        if name.endswith(("_s", "_ms")):
            layers[name] *= factor
    write = samplers.get("write")
    append_raw = write.work_s - tracer.stats["store.flush"].inclusive_s if write else 0.0
    layers["store.append_s"] = append_raw * factor
    for name in COUNTER_METRICS:
        layers[name] = counters.get(name, 0)
    return layers


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--workdir", type=pathlib.Path, required=True)
    parser.add_argument("--out", type=pathlib.Path, required=True)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)
    try:
        record = measure(WORKLOADS[args.workload], args.seed, args.workdir, args.trace)
    except Exception:  # reported to the parent as a failed repetition
        traceback.print_exc()
        return 1
    record["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    args.out.write_text(json.dumps(record), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
