"""Outside-in tracing: wrap public functions at each layer boundary.

:class:`Tracer` replaces functions and methods on their modules and
classes with timing wrappers while it is installed, and puts the
originals back when it is removed.  Nothing inside ``src/`` is edited.

Each wrapped call is timed; a call's *self* time is its duration minus
the time spent in wrapped calls it made.  Coarse boundaries (a sweep, a
point, a CMP run, a search run) are also kept as spans -- name, start,
end, parent -- in memory and written out by :meth:`Tracer.write_spans`.
Hot boundaries (one call per cycle, packet or placement) are only
aggregated, so that a traced run fits in memory.
"""

from __future__ import annotations

import contextlib
import json
import time
from collections import Counter
from typing import Dict, List, Optional, Tuple

#: (holder, attribute, stat name, keep spans).  A holder is a module
#: path or ``"module:Class"``, resolved at install time.  A stat name
#: appears more than once where a caller imported the function under
#: its own name.  ``Network.step`` and every ``destination`` method are
#: wrapped separately, in :meth:`Tracer.install`.
BOUNDARIES: Tuple[Tuple[str, str, str, bool], ...] = (
    ("repro.exec", "run_sweep", "exec.run_sweep", True),
    ("repro.exec.engine", "execute_point", "exec.execute_point", True),
    ("repro.exec.store:ResultStore", "get", "exec.store.get", True),
    ("repro.exec.store:ResultStore", "put", "exec.store.put", True),
    ("repro.exec.point:SweepPoint", "build_network", "exec.SweepPoint.build_network", True),
    ("repro.core.layouts", "build_network", "core.layouts.build_network", True),
    ("repro.cmp.system", "build_network", "core.layouts.build_network", True),
    ("repro.core.power", "network_power_breakdown", "core.network_power_breakdown", True),
    ("repro.experiments.fig11_applications", "network_power_breakdown",
     "core.network_power_breakdown", True),
    ("repro.core.merging", "merge_report", "core.merge_report", True),
    ("repro.traffic.runner", "run_synthetic", "traffic.run_synthetic", True),
    ("repro.experiments.fig11_applications", "run_one", "cmp.run_one", True),
    ("repro.experiments.fig11_applications", "generate_core_trace",
     "traffic.generate_core_trace", False),
    ("repro.cmp.system:CmpSystem", "warm_caches", "cmp.warm_caches", True),
    ("repro.cmp.system:CmpSystem", "run", "cmp.run", True),
    ("repro.cmp.system:CmpSystem", "tick", "cmp.tick", False),
    ("repro.cmp.system:CmpSystem", "send_message", "cmp.send_message", False),
    ("repro.noc.network:Network", "make_packet", "noc.make_packet", False),
    ("repro.noc.network:Network", "enqueue", "noc.enqueue", False),
    ("repro.noc.network:Network", "purge_packet", "noc.purge_packet", False),
    ("repro.traffic.selfsimilar:BernoulliInjector", "fires", "traffic.fires", False),
    ("repro.traffic.selfsimilar:SelfSimilarInjector", "fires", "traffic.fires", False),
    ("repro.faults.retransmit:RetransmissionManager", "tick", "faults.ni_tick", False),
    ("repro.search", "simulated_annealing", "search.simulated_annealing", True),
    ("repro.search", "evolutionary_search", "search.evolutionary_search", True),
    ("repro.search.objectives:PlacementEvaluator", "evaluate", "search.evaluate", False),
)


def _resolve(holder: str):
    import importlib

    module_name, _, class_name = holder.partition(":")
    obj = importlib.import_module(module_name)
    return getattr(obj, class_name) if class_name else obj


class Tracer:
    def __init__(self) -> None:
        self._clock = time.perf_counter
        #: frames of open wrapped calls: [child seconds, span id]
        self._stack: List[list] = [[0.0, None]]
        #: name -> [calls, total seconds, self seconds]
        self.stats: Dict[str, List[float]] = {}
        #: (id, name, start, end, parent id) of coarse calls
        self.spans: List[Tuple[int, str, float, float, Optional[int]]] = []
        self._next_id = 0
        #: cycles stepped, by the kernel active after each step
        self.kernel_cycles: Counter = Counter()
        #: store lookups and hits, by phase
        self.store_gets: Counter = Counter()
        self.store_hits: Counter = Counter()
        self._phase = ""
        self._patches: List[Tuple[object, str, object]] = []

    # -- spans ----------------------------------------------------------------
    def _enter(self) -> list:
        frame = [0.0, self._next_id]
        self._next_id += 1
        self._stack.append(frame)
        return frame

    def _exit(self, name: str, frame: list, start: float, end: float) -> None:
        stack = self._stack
        stack.pop()
        duration = end - start
        stack[-1][0] += duration
        stat = self.stats.setdefault(name, [0, 0.0, 0.0])
        stat[0] += 1
        stat[1] += duration
        stat[2] += duration - frame[0]
        self.spans.append((frame[1], name, start, end, stack[-1][1]))

    @contextlib.contextmanager
    def phase(self, name: str):
        """A span of the benchmark's own (a pass, a replay), which also
        labels the store lookups made inside it."""
        outer, self._phase = self._phase, name
        frame = self._enter()
        start = self._clock()
        try:
            yield
        finally:
            self._exit("bench." + name, frame, start, self._clock())
            self._phase = outer

    # -- wrappers -------------------------------------------------------------
    def _wrap(self, original, name: str, keep: bool):
        if not keep:
            return self._wrap_hot(original, name)
        clock, enter, leave = self._clock, self._enter, self._exit

        def wrapper(*args, **kwargs):
            frame = enter()
            start = clock()
            try:
                return original(*args, **kwargs)
            finally:
                leave(name, frame, start, clock())

        wrapper.__wrapped__ = original
        return wrapper

    def _wrap_hot(self, original, name: str, kernels: Optional[Counter] = None):
        """A wrapper for calls made once per cycle, packet or placement:
        aggregated only, with the bookkeeping inlined.  With ``kernels``
        (for ``Network.step``) it also counts the kernel active after
        each call."""
        clock, stack = self._clock, self._stack
        push, pop = stack.append, stack.pop
        stat = self.stats.setdefault(name, [0, 0.0, 0.0])

        def wrapper(*args, **kwargs):
            frame = [0.0, stack[-1][1]]
            push(frame)
            start = clock()
            try:
                return original(*args, **kwargs)
            finally:
                duration = clock() - start
                pop()
                stack[-1][0] += duration
                stat[0] += 1
                stat[1] += duration
                stat[2] += duration - frame[0]
                if kernels is not None:
                    kernels[args[0].active_kernel] += 1

        wrapper.__wrapped__ = original
        return wrapper

    def _wrap_get(self, original):
        wrapped = self._wrap(original, "exec.store.get", True)

        def get(store, point):
            result = wrapped(store, point)
            self.store_gets[self._phase] += 1
            if result is not None:
                self.store_hits[self._phase] += 1
            return result

        get.__wrapped__ = original
        return get

    def _set(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        from repro.noc.network import Network
        from repro.traffic.patterns import TrafficPattern

        for holder, attr, name, keep in BOUNDARIES:
            owner = _resolve(holder)
            original = owner.__dict__[attr]
            if name == "exec.store.get":
                self._set(owner, attr, self._wrap_get(original))
            else:
                self._set(owner, attr, self._wrap(original, name, keep))
        self._set(Network, "step", self._wrap_hot(
            Network.__dict__["step"], "noc.step", self.kernel_cycles
        ))
        pending = [TrafficPattern]
        while pending:
            cls = pending.pop()
            pending.extend(cls.__subclasses__())
            if "destination" in cls.__dict__:
                self._set(
                    cls, "destination",
                    self._wrap(cls.__dict__["destination"], "traffic.destination", False),
                )

    def remove(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- results --------------------------------------------------------------
    def calls(self, name: str) -> int:
        return int(self.stats.get(name, (0, 0.0, 0.0))[0])

    def total_s(self, name: str) -> float:
        return self.stats.get(name, (0, 0.0, 0.0))[1]

    def self_s(self, *names: str) -> float:
        return sum(self.stats.get(n, (0, 0.0, 0.0))[2] for n in names)

    def layer_metrics(self) -> Dict[str, float]:
        """The per-layer metrics, named as in ``BENCHMARK.json``."""
        s, n, t = self.self_s, self.calls, self.total_s
        gets = self.store_gets["replay"]
        return {
            "noc.step_s": s("noc.step"),
            "noc.cycles": n("noc.step"),
            "noc.cycles_on.c": self.kernel_cycles["c"],
            "noc.cycles_on.event": self.kernel_cycles["event"],
            "traffic.inject_s": s(
                "noc.make_packet", "noc.enqueue", "traffic.destination", "traffic.fires"
            ),
            "traffic.packets": n("noc.make_packet"),
            "traffic.runner_self_s": s("traffic.run_synthetic"),
            "traffic.trace_gen_s": t("traffic.generate_core_trace"),
            "noc.build_s": s("exec.SweepPoint.build_network", "core.layouts.build_network"),
            "noc.build_n": n("core.layouts.build_network"),
            "faults.purge_s": s("noc.purge_packet"),
            "faults.purge_n": n("noc.purge_packet"),
            "faults.ni_tick_s": s("faults.ni_tick"),
            "exec.engine_self_s": s("exec.run_sweep"),
            "exec.point.summarize_s": s("exec.execute_point"),
            "exec.store.put_s": t("exec.store.put"),
            "exec.store.put_n": n("exec.store.put"),
            "exec.store.get_s": t("exec.store.get"),
            "exec.store.hit_ratio": self.store_hits["replay"] / gets if gets else 0.0,
            "core.power_s": t("core.network_power_breakdown"),
            "core.merge_s": t("core.merge_report"),
            "cmp.warm_s": t("cmp.warm_caches"),
            "cmp.tick_self_s": s("cmp.tick"),
            "cmp.messages": n("cmp.send_message"),
            "search.evaluate_s": s("search.evaluate"),
            "search.evaluate_n": n("search.evaluate"),
        }

    def write_spans(self, path: str) -> None:
        """Spans as JSON lines, then one line of per-name totals."""
        with open(path, "w") as out:
            for span_id, name, start, end, parent in self.spans:
                out.write(json.dumps({
                    "id": span_id, "name": name, "start": start, "end": end,
                    "parent": parent,
                }) + "\n")
            out.write(json.dumps({"totals": {
                name: {"calls": c, "total_s": tot, "self_s": own}
                for name, (c, tot, own) in sorted(self.stats.items())
            }}) + "\n")
