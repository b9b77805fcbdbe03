"""The four benchmark workloads, as lists of operations over public APIs.

An operation is one sweep point, one CMP run or one search run.  Each
workload builds its operations from a seed and runs them serially in
*passes*: one pass executes every operation once.  A pass returns one
:class:`OpResult` per operation, carrying a digest of the simulated
result, so a pass can be compared against another pass, against the
traced pass and against the recorded reference digests.

Importing this module imports nothing from ``repro``; :meth:`Workload.setup`
does that, so the caller can time set-up on its own.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import shutil
import tempfile
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

NAMES = ("ur-sweep", "faulted", "cmp-apps", "search")

#: the harness seeds: a run with one of these compares its digests with
#: ``reference.json``; any other seed skips that comparison.
DEFAULT_SEEDS = {"ur-sweep": 11, "faulted": 11, "cmp-apps": 7, "search": 0}

UR_LAYOUTS = ("baseline", "diagonal+BL")
UR_RATES = (0.01, 0.02, 0.03, 0.04, 0.05, 0.06, 0.08, 0.10)
FAULT_COUNTS = (0, 2)
CMP_APPS = ("SAP", "ddup", "sclst")
CMP_LAYOUTS = ("baseline", "center+BL", "diagonal+BL")
#: about 8x the longest healthy run; a deadlocked run stops here.
CMP_MAX_CYCLES = 20_000


def digest(payload: object) -> str:
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def point_digest(result) -> str:
    return digest([
        result.total_cycles,
        result.latency_sum_cycles,
        result.hops_sum,
        result.packet_id_sum,
        result.saturated,
    ])


@dataclass
class OpResult:
    name: str
    digest: Optional[str] = None
    error: Optional[str] = None
    #: simulated cycles (sweep points and CMP runs) or placement
    #: evaluations (search runs); 0 for a failed operation.
    work: int = 0
    #: clean NI deliveries and retransmissions, for faulted points.
    clean: int = 0
    retransmissions: int = 0


@dataclass
class PassResult:
    ops: List[OpResult]
    #: problems with the pass as a whole (a replay that missed the store).
    errors: List[str] = field(default_factory=list)

    @property
    def work(self) -> int:
        return sum(op.work for op in self.ops)


class Workload:
    """One named workload at one seed; ``smoke`` shrinks it for tests."""

    #: what ``work`` counts, for the printed throughput line.
    work_name = "sim_cycles_per_s"

    def __init__(self, name: str, seed: int, scratch: str, smoke: bool = False):
        self.name = name
        self.seed = seed
        self.scratch = scratch
        self.smoke = smoke
        #: ``phase(name)`` opens a named span of the benchmark's own; a
        #: traced pass sets it to :meth:`tracer.Tracer.phase`.
        self.phase = lambda name: contextlib.nullcontext()

    def setup(self) -> None:
        """Import the layers and do one-time construction."""

    def run_pass(self) -> PassResult:
        """Run every operation once."""
        raise NotImplementedError

    def op_names(self) -> List[str]:
        raise NotImplementedError


def _op_name(point) -> str:
    kills = 0 if point.faults is None else len(point.faults.specs)
    return f"{point.label}/k{kills}"


def _sweep_results(points, results) -> List[OpResult]:
    ops = []
    for point, result in zip(points, results):
        name = _op_name(point)
        if result.error is not None:
            ops.append(OpResult(name, error=result.error))
            continue
        res = result.resilience or {}
        ops.append(OpResult(
            name,
            digest=point_digest(result),
            work=result.total_cycles,
            clean=res.get("clean_deliveries", 0),
            retransmissions=res.get("retransmissions", 0),
        ))
    return ops


def _run_sweep(points, cache):
    from repro.exec import run_sweep

    return run_sweep(
        points,
        jobs=1,
        backend="serial",
        cache=cache,
        progress=None,
        on_error="capture",
        telemetry=None,
        checkpoint_every=None,
        checkpoint_dir=None,
        submit=None,
    )


class UrSweep(Workload):
    """Fig. 7 on the compiled kernel: a cold pass into a fresh store, then
    a replay of the same points from that store."""

    def __init__(self, *args, kernel: str = "c", **kwargs):
        super().__init__(*args, **kwargs)
        self.kernel = kernel

    def setup(self) -> None:
        from repro.exec import SweepPoint

        if self.kernel == "c":
            from repro.noc.ckernel import load_kernel_library, unavailable_reason

            reason = unavailable_reason()
            if reason is not None:
                raise RuntimeError(
                    f"ur-sweep needs the compiled kernel, which is unavailable: "
                    f"{reason}"
                )
            load_kernel_library()
        scale = (
            {"warmup_packets": 20, "measure_packets": 100}
            if self.smoke
            else {"warmup_packets": 1000, "measure_packets": 10000}
        )
        rates = UR_RATES[:2] if self.smoke else UR_RATES
        self.points = [
            SweepPoint(
                layout=layout,
                pattern="uniform_random",
                rate=rate,
                seed=self.seed,
                kernel=self.kernel,
                **scale,
            )
            for layout in UR_LAYOUTS
            for rate in rates
        ]

    def op_names(self) -> List[str]:
        return [_op_name(p) for p in self.points]

    def run_pass(self) -> PassResult:
        from repro.exec import ResultStore

        directory = tempfile.mkdtemp(prefix="store-", dir=self.scratch)
        try:
            with ResultStore(os.path.join(directory, "results.sqlite")) as store:
                with self.phase("cold"):
                    cold = _run_sweep(self.points, store)
                with self.phase("replay"):
                    replay = _run_sweep(self.points, store)
        finally:
            shutil.rmtree(directory, ignore_errors=True)
        ops = _sweep_results(self.points, cold)
        errors = []
        for op, again in zip(ops, replay):
            if op.error is not None:
                continue
            if not again.from_cache:
                errors.append(f"{op.name}: replay missed the store")
            elif point_digest(again) != op.digest:
                errors.append(f"{op.name}: replay digest differs from the cold run")
        return PassResult(ops, errors=errors)


class Faulted(Workload):
    """The resilience harness's points: centre-first router kills on the
    event kernel, with NI retransmission."""

    def setup(self) -> None:
        from repro.exec import SweepPoint
        from repro.experiments.common import measurement_scale
        from repro.experiments.resilience import LAYOUTS, RETRY_KNOBS, kill_order
        from repro.faults import kill_routers

        # A faulted point's cost is set by the NI's retransmission
        # timeouts, not by its packet count, so the smoke size shrinks
        # the mesh.
        mesh, scale = (
            (4, {"warmup_packets": 20, "measure_packets": 100})
            if self.smoke
            else (8, measurement_scale(True))
        )
        order = kill_order(mesh)
        self.points = [
            SweepPoint(
                layout=layout,
                mesh_size=mesh,
                pattern="uniform_random",
                rate=0.08,
                seed=self.seed,
                drain_cycle_cap=60_000,
                faults=kill_routers(order[:k], at=0, **RETRY_KNOBS) if k else None,
                **scale,
            )
            for layout in LAYOUTS
            for k in FAULT_COUNTS
        ]

    def op_names(self) -> List[str]:
        return [_op_name(p) for p in self.points]

    def run_pass(self) -> PassResult:
        return PassResult(_sweep_results(self.points, _run_sweep(self.points, None)))


class CmpApps(Workload):
    """Closed-loop MESI traffic: Fig. 11 full-system runs."""

    def setup(self) -> None:
        from repro.experiments import fig11_applications

        self.fig11 = fig11_applications
        self.records = 40 if self.smoke else 400
        apps = CMP_APPS[:1] if self.smoke else CMP_APPS
        self.runs = [(app, layout) for app in apps for layout in CMP_LAYOUTS]

    def op_names(self) -> List[str]:
        return [f"{app}/{layout}" for app, layout in self.runs]

    def run_pass(self) -> PassResult:
        ops = []
        for (app, layout), name in zip(self.runs, self.op_names()):
            try:
                out = self.fig11.run_one(
                    layout, app, self.records, seed=self.seed,
                    max_cycles=CMP_MAX_CYCLES,
                )
            except Exception as exc:
                ops.append(OpResult(name, error=f"{type(exc).__name__}: {exc}"))
            else:
                ops.append(OpResult(
                    name, digest=digest([out["cycles"], repr(out["ipc"])]),
                    work=out["cycles"],
                ))
        return PassResult(ops)


class Search(Workload):
    """Placement search: annealing, then evolution seeded from its
    survivors; no cycle simulation.

    Both searches run without their final polishing descent
    (``polish_top=0``): its length depends on where the walk ends, so
    with it one pass takes 10 to 37 s depending on the seed.  Without
    it each pass makes the same number of proposals and nearly the
    same number of evaluations.
    """

    work_name = "evals_per_s"

    def setup(self) -> None:
        from repro import search

        self.search = search
        self.budget = (
            dict(steps=100, restarts=1, generations=2, population=6)
            if self.smoke
            else dict(steps=1200, restarts=2, generations=12, population=20)
        )
        # Build the first evaluator now, so its one-time cost (the flow
        # model) is set-up; later passes build their own, because the
        # evaluator caches every placement it has scored.
        self._evaluator = self._new_evaluator()

    def _new_evaluator(self):
        return self.search.PlacementEvaluator(8, "uniform_random")

    def op_names(self) -> List[str]:
        return ["annealing", "evolutionary"]

    def run_pass(self) -> PassResult:
        evaluator, self._evaluator = self._evaluator, None
        if evaluator is None:
            evaluator = self._new_evaluator()
        self.last_evaluator = evaluator
        b = self.budget
        ops = []
        try:
            sa = self.search.simulated_annealing(
                evaluator, 16, seed=self.seed, steps=b["steps"],
                restarts=b["restarts"], t_initial=0.05, polish_top=0,
            )
            ops.append(_search_op("annealing", sa, sa.evaluations))
            ga = self.search.evolutionary_search(
                evaluator, 16, seed=self.seed + 1,
                generations=b["generations"], population=b["population"],
                initial=[record.positions for record in sa.top], polish_top=0,
            )
            ops.append(_search_op("evolutionary", ga, ga.evaluations - sa.evaluations))
        except Exception as exc:
            error = f"{type(exc).__name__}: {exc}"
            ops += [OpResult(n, error=error) for n in self.op_names()[len(ops):]]
        return PassResult(ops)


def _search_op(name: str, result, evaluations: int) -> OpResult:
    return OpResult(
        name,
        digest=digest([list(result.best_placement), repr(result.best.scalar)]),
        work=evaluations,
    )


_CLASSES: Dict[str, Callable[..., Workload]] = {
    "ur-sweep": UrSweep,
    "faulted": Faulted,
    "cmp-apps": CmpApps,
    "search": Search,
}


def make(name: str, seed: int, scratch: str, smoke: bool = False, **kwargs) -> Workload:
    if name not in _CLASSES:
        raise ValueError(f"unknown workload {name!r}; choose from {NAMES}")
    return _CLASSES[name](name, seed, scratch, smoke=smoke, **kwargs)
