"""Run one benchmark workload and print its metrics as one JSON line.

    python3 perfbench/run.py --workload scan-campaign --seed 0 \\
        --seconds 30 --trace 0

``--trace 0`` runs the workload ``round(seconds / ITERATION_S)`` times
(at least once; ``ITERATION_S`` is per workload) and reports the
end-to-end metrics, each the median over iterations.  ``--trace 1``
runs one untraced and one traced iteration and reports the per-layer
metrics of the traced one.  Every iteration's outputs are checked; a
failed check is named on stderr and the exit code is 1.  See
``METRICS.md`` for what each metric means.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import sys

import hygiene
import layers
from tracer import Tracer
from workloads import WORKLOADS, CheckFailed

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SOURCE = os.path.join(ROOT, "src")
#: Scratch space for state dirs, inside the checkout.
SCRATCH = os.path.join(ROOT, ".perfbench-scratch")
#: Timeline constructions per scan-campaign iteration for ``setup_s``.
SETUP_REPEATS = 20

END_TO_END = (("setup_s", "s"), ("work_per_s", "1/s"),
              ("peak_rss_mib", "MiB"))


def run_iteration(workload, offset: int, setup_repeats: int,
                  tracer=None):
    """One checked iteration with run hygiene around it."""
    threads = hygiene.prepare()
    if tracer is not None:
        layers.install(tracer)
    try:
        it = workload.execute(offset, SCRATCH, setup_repeats)
    finally:
        if tracer is not None:
            tracer.restore()
    it.peak_rss_mib = hygiene.peak_rss_mib()
    problems = hygiene.leftovers(threads, it.scratch)
    if tracer is not None:
        problems.extend(f"tracer wrapper still bound: {name}"
                        for name in tracer.leaked())
    if problems:
        raise CheckFailed("hygiene", "; ".join(problems))
    workload.check(it, offset)
    return it


def untraced_metrics(workload, offset: int, seconds: float):
    count = max(1, round(seconds / workload.ITERATION_S))
    iterations = [run_iteration(workload, offset, SETUP_REPEATS)
                  for _ in range(count)]
    reference = iterations[0].outputs
    for it in iterations[1:]:
        same_outputs(reference, it.outputs, "repeat")
    median = statistics.median
    values = {
        "setup_s": median([s for it in iterations for s in it.setup_s]),
        "work_per_s": median([it.work_per_s for it in iterations]),
        "peak_rss_mib": median([it.peak_rss_mib for it in iterations]),
    }
    units = dict(END_TO_END)
    return iterations, {name: (value, units[name])
                        for name, value in values.items()}


def traced_metrics(workload, offset: int):
    from repro.pki.validation import chain_cache_stats

    plain = run_iteration(workload, offset, 1)
    tracer = Tracer()
    traced = run_iteration(workload, offset, 1, tracer)
    pki_stats = chain_cache_stats()
    same_outputs(plain.outputs, traced.outputs, "traced")

    values = layers.layer_metrics(tracer, pki_stats)
    values.update({
        "failed_ratio": traced.failed_ratio,
        "serve.p99_virtual_s": traced.p99_virtual_s,
        "phase.setup_s": plain.setup_s[0],
        "phase.work_s": plain.work_s,
        "phase.analysis_s": plain.analysis_s,
        "unattributed_s": traced.wall_s - tracer.total_self_s(),
        "trace_overhead_ratio": traced.wall_s / plain.wall_s,
    })
    units = layers.metric_units()
    return [plain, traced], {name: (values[name], unit)
                             for name, unit in units.items()}


def same_outputs(reference: dict, outputs: dict, label: str) -> None:
    differing = sorted(key for key in reference
                       if outputs.get(key) != reference[key])
    if differing:
        raise CheckFailed(f"determinism.{label}",
                          f"outputs differ from the first iteration: "
                          f"{', '.join(differing)}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=tuple(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0,
                        help="offset on the workload's reference seed")
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isdir(os.path.join(SOURCE, "repro")):
        print(f"run.py: no program source under {SOURCE}", file=sys.stderr)
        return 2
    sys.path.insert(0, SOURCE)
    workload = WORKLOADS[args.workload]
    os.makedirs(SCRATCH, exist_ok=True)
    try:
        if args.trace:
            iterations, metrics = traced_metrics(workload, args.seed)
        else:
            iterations, metrics = untraced_metrics(workload, args.seed,
                                                   args.seconds)
    except CheckFailed as exc:
        print(f"run.py: check failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(SCRATCH, ignore_errors=True)

    for name, (value, unit) in metrics.items():
        print(f"{name:<36} {value:>16.6f} {unit}", file=sys.stderr)
    print(json.dumps({
        "correct": True,
        "attempted": sum(it.units for it in iterations),
        "failed": sum(it.failed for it in iterations),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
