"""One benchmark run of one workload, in a fresh process.

``run.py`` starts this file once per set-up probe and once for the
measured run, with ``src`` on ``PYTHONPATH``; it can also be run by
hand::

    PYTHONPATH=src python3 perfbench/worker.py --workload faulted --seed 11

The last line of standard output is one JSON object: the result of
:func:`measure` plus ``setup_s``, or ``setup_s`` alone with ``--setup-only``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
from typing import Dict, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

#: fallback start time for ``setup_s`` when run by hand
STARTED = time.monotonic()

#: ur-sweep must step this share of its cycles on the compiled kernel.
MIN_C_RESIDENCY = 0.99


def _timed_pass(workload: workloads.Workload):
    start = time.perf_counter()
    result = workload.run_pass()
    return result, time.perf_counter() - start


def load_reference(path: str = os.path.join(HERE, "reference.json")) -> Dict[str, dict]:
    with open(path) as handle:
        return json.load(handle)


def _compare(name: str, got: List[workloads.OpResult], want: Dict[str, Optional[str]],
             problems: List[str]) -> int:
    """Count operations whose digest differs from ``want``; an expected
    ``None`` (the operation failed when the digests were recorded) is
    not compared."""
    bad = 0
    for op in got:
        expected = want.get(op.name)
        if op.error is None and expected is not None and op.digest != expected:
            problems.append(f"{op.name}: {name} digest {op.digest} != {expected}")
            bad += 1
    return bad


def measure(
    workload: workloads.Workload,
    seconds: float,
    trace: bool,
    reference: Optional[Dict[str, Optional[str]]] = None,
    spans_path: Optional[str] = None,
) -> dict:
    """Run ``workload`` (already set up) and check its results.

    Untraced passes repeat until another would overrun ``seconds`` (at
    least one runs; with ``trace`` exactly one).  With ``trace`` a
    traced pass follows.  Every pass must reproduce the first pass's
    digests, and those must equal ``reference`` when it is given.  An
    operation that raised, or whose digest differs, is failed.

    ``wall_s`` is the mean time of an untraced pass, and ``rate`` the
    first pass's work (see ``Workload.work_name``) over ``wall_s``.
    """
    passes, walls = [], []
    started = time.perf_counter()
    while True:
        result, wall = _timed_pass(workload)
        passes.append(result)
        walls.append(wall)
        if len(passes) == 1:
            # Memory held by the allocator grows a little with every
            # pass, so the peak is taken over set-up and one pass.
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        elapsed = time.perf_counter() - started
        if trace or elapsed + wall > seconds:
            break

    first = passes[0]
    baseline = {op.name: op.digest for op in first.ops}
    problems: List[str] = []
    mismatched = 0
    for index, later in enumerate(passes[1:], 2):
        mismatched += _compare(f"pass {index}", later.ops, baseline, problems)
    if reference is not None:
        mismatched += _compare("reference", first.ops, reference, problems)

    tracer = None
    traced = None
    if trace:
        tracer = Tracer()
        untraced_phase, workload.phase = workload.phase, tracer.phase
        tracer.install()
        try:
            with tracer.phase("pass"):
                traced, traced_wall = _timed_pass(workload)
        finally:
            tracer.remove()
            workload.phase = untraced_phase
        mismatched += _compare("traced", traced.ops, baseline, problems)
        if spans_path is not None:
            tracer.write_spans(spans_path)

    everything = passes + ([traced] if traced is not None else [])
    for p in everything:
        problems.extend(p.errors)
    attempted = sum(len(p.ops) for p in everything)
    errors = [op for p in everything for op in p.ops if op.error is not None]
    failed = len(errors) + mismatched + sum(len(p.errors) for p in everything)

    wall = sum(walls) / len(walls)
    out = {
        "workload": workload.name,
        "seed": workload.seed,
        "pass_walls": walls + ([traced_wall] if traced is not None else []),
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
        "errors": sorted({f"{op.name}: {op.error}" for op in errors}),
        "ops": [[op.name, op.digest, op.error] for op in first.ops],
        "end_to_end": {"wall_s": wall, "peak_rss_mb": peak_rss_mb},
        "rate": first.work / wall,
        "work_name": workload.work_name,
        "failed_frac": failed / attempted,
    }
    if tracer is not None:
        layers = tracer.layer_metrics()
        clean = sum(op.clean for op in traced.ops)
        retx = sum(op.retransmissions for op in traced.ops)
        layers["faults.useful_ratio"] = clean / (clean + retx) if clean + retx else 0.0
        evaluator = getattr(workload, "last_evaluator", None)
        lookups = evaluator.cache_hits + evaluator.evaluations if evaluator else 0
        layers["search.cache_hit_ratio"] = (
            evaluator.cache_hits / lookups if lookups else 0.0
        )
        layers["trace.overhead_s"] = traced_wall - walls[0]
        out["per_layer"] = layers
        cycles = layers["noc.cycles"]
        residency = {k: v / cycles for k, v in tracer.kernel_cycles.items()} if cycles else {}
        out["residency"] = residency
        if isinstance(workload, workloads.UrSweep) and workload.kernel == "c":
            if residency.get("c", 0.0) < MIN_C_RESIDENCY:
                problems.append(
                    f"ur-sweep stepped only {residency.get('c', 0.0):.1%} of its "
                    f"cycles on the c kernel: {dict(tracer.kernel_cycles)}"
                )
    out["correct"] = not problems
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, default=None,
                        help="workload seed (default: the harness seed)")
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny operations, for the benchmark's own tests")
    parser.add_argument("--setup-only", action="store_true",
                        help="set up, report set-up time and exit")
    parser.add_argument("--spawned-at", type=float, default=None,
                        help="time.monotonic() just before this process started")
    parser.add_argument("--scratch", default=os.path.join(".bench_build", "perfbench"))
    args = parser.parse_args(argv)

    seed = workloads.DEFAULT_SEEDS[args.workload] if args.seed is None else args.seed
    os.makedirs(args.scratch, exist_ok=True)
    workload = workloads.make(args.workload, seed, args.scratch, smoke=args.smoke)
    workload.setup()
    spawned = args.spawned_at if args.spawned_at is not None else STARTED
    setup_s = time.monotonic() - spawned
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    reference = None
    if not args.smoke and seed == workloads.DEFAULT_SEEDS[args.workload]:
        reference = load_reference()[args.workload]["ops"]
    spans = os.path.join(args.scratch, f"spans-{args.workload}-{seed}.jsonl")
    out = measure(workload, args.seconds, bool(args.trace), reference,
                  spans if args.trace else None)
    out["setup_s"] = setup_s
    out["reference_checked"] = reference is not None
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
