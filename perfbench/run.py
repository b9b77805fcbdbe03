"""End-to-end benchmark of the simulator: one workload per invocation.

Run from the root of a checkout::

    python3 perfbench/run.py --workload ur-sweep --seed 11 --seconds 25 --trace 0

``--trace 0`` measures the end-to-end metrics, ``--trace 1`` an
untraced pass plus a traced pass that gives the per-layer metrics; the
names and units of both sets come from ``BENCHMARK.json``.  Set-up is
measured in fresh processes (``SETUP_SAMPLES`` of them, the measured
run included) and reported as their median.  Human-readable lines come
first; the last line of standard output is the JSON result.  See
``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
SCRATCH = os.path.join(ROOT, ".bench_build", "perfbench")
NAMES = ("ur-sweep", "faulted", "cmp-apps", "search")

#: fresh processes whose set-up time is measured, the measured run included.
SETUP_SAMPLES = 3
#: seconds a set-up probe may take; the first one in a checkout compiles
#: the C kernel.
SETUP_TIMEOUT_S = 600
#: seconds the measured run may take beyond ``--seconds``.
RUN_GRACE_S = 120


def _environment() -> dict:
    """The children's environment: this checkout's sources, the compiled
    kernel cached inside the checkout, one thread, and no ``REPRO_*``
    settings inherited from the caller."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env.update(
        PYTHONPATH=os.path.join(ROOT, "src"),
        PYTHONHASHSEED="0",
        REPRO_CKERNEL_CACHE=os.path.join(ROOT, ".bench_build", "ckernel"),
        OMP_NUM_THREADS="1",
        OPENBLAS_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
    )
    return env


def _worker(args, extra, timeout: float) -> dict:
    """Run one worker process and return its JSON result."""
    cmd = [
        sys.executable, WORKER,
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--scratch", SCRATCH,
    ] + (["--smoke"] if args.smoke else []) + extra
    cmd += ["--spawned-at", repr(time.monotonic())]
    proc = subprocess.run(
        cmd, cwd=ROOT, env=_environment(), stdout=subprocess.PIPE,
        timeout=timeout, text=True,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"worker exited with {proc.returncode}: {' '.join(cmd)}")
    return json.loads(lines[-1])


def _metrics(spec: list, values: dict) -> dict:
    missing = [m["name"] for m in spec if m["name"] not in values]
    if missing:
        raise RuntimeError(f"the run did not produce metrics {missing}")
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec}


def _report(out: dict, metrics: dict) -> None:
    """Human-readable lines, before the JSON line."""
    walls = ", ".join(f"{w:.3f}" for w in out["pass_walls"])
    print(f"workload {out['workload']}  seed {out['seed']}  pass walls (s): {walls}")
    unit = "1/s" if out["work_name"] == "evals_per_s" else "cycles/s"
    print(f"  {out['work_name']:<22} {out['rate']:.6g} {unit}")
    print(f"  {'failed_frac':<22} {out['failed_frac']:.6g} "
          f"({out['failed']} of {out['attempted']} operations)")
    for name, metric in metrics.items():
        print(f"  {name:<22} {metric['value']:.6g} {metric['unit']}")
    if "residency" in out:
        shares = ", ".join(f"{k} {v:.1%}" for k, v in sorted(out["residency"].items()))
        print(f"  kernel residency: {shares or 'no cycles stepped'}")
    for line in out["errors"]:
        print(f"  failed operation: {line}")
    for line in out["problems"]:
        print(f"  CHECK FAILED: {line}")
    print(f"  reference digests: {'compared' if out['reference_checked'] else 'skipped'}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny operations, for the benchmark's own tests")
    args = parser.parse_args(argv)

    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print(f"error: no simulator sources under {ROOT}/src", file=sys.stderr)
        return 2
    with open(spec_path) as handle:
        spec = json.load(handle)
    os.makedirs(SCRATCH, exist_ok=True)

    try:
        setups = [
            _worker(args, ["--setup-only"], SETUP_TIMEOUT_S)["setup_s"]
            for _ in range(SETUP_SAMPLES - 1)
        ]
        out = _worker(args, [], args.seconds * (2 if args.trace else 1) + RUN_GRACE_S)
        setups.append(out["setup_s"])
        values = dict(out["end_to_end"], setup_s=statistics.median(setups))
        if args.trace:
            values.update(out["per_layer"])
            metrics = _metrics(spec["per_layer"], values)
        else:
            metrics = _metrics(spec["end_to_end"], values)
    except (RuntimeError, subprocess.TimeoutExpired, KeyError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    _report(out, metrics)
    print(json.dumps({
        "correct": out["correct"],
        "attempted": out["attempted"],
        "failed": out["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
