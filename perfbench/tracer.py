"""Call tracing for the benchmark's traced run.

The tracer wraps every public function of the polyreal library modules,
``cli.main``, and the two hot methods ``AdaptedSequence.color_of`` and
``LinearForm.__init__``. It
rebinds each name wherever a polyreal module holds it, in the defining
module and in every importer (``polyreal.verify.evaluate`` as well as
``polyreal.forms.evaluate``), so calls made inside the package are counted.

Every wrapped function keeps aggregated counts and times only: calls,
inclusive time (busy) and time minus wrapped callees (self). The layer
boundaries listed in SPANS also keep one span per call, in memory, with
its parent span and the job it ran for.
"""

from __future__ import annotations

import inspect
import sys
import time
from typing import Dict, List, Optional

MODULES = ("root_data", "lattice_crystal", "forms", "eyd", "reyd", "young_wall", "verify", "cli")
METHODS = (
    ("root_data", "AdaptedSequence", "color_of", "root_data.color_of"),
    ("forms", "LinearForm", "__init__", "forms.LinearForm.init"),
)
SPANS = {
    "cli.main",
    "lattice_crystal.enumerate_image",
    "verify.generator_forms",
    "verify.generator_objects",
    "forms.closure",
    "eyd.enumerate_eyd",
    "reyd.enumerate_reyd",
    "young_wall.enumerate_walls",
}

# Stat fields: calls, busy (outermost calls only), self, recursion depth.
CALLS, BUSY, SELF, DEPTH = range(4)


def _is_span(name: str) -> bool:
    return name in SPANS or name.startswith("verify.check_")


class Tracer:
    def __init__(self) -> None:
        self.stats: Dict[str, List[float]] = {}
        self.counters: Dict[str, int] = {}
        # (name, start, end, parent span index or None, job id)
        self.spans: List[tuple] = []
        self.job: Optional[str] = None
        self._frames: List[List[float]] = []
        self._open: List[int] = []
        self._patches: List[tuple] = []

    def install(self) -> None:
        """Wrap the functions and rebind them in every polyreal module."""
        wrappers = {}
        for mod in MODULES:
            module = sys.modules[f"polyreal.{mod}"]
            for attr, obj in vars(module).items():
                if (
                    inspect.isfunction(obj)
                    and obj.__module__ == module.__name__
                    and not attr.startswith("_")
                    and not (mod == "cli" and attr != "main")
                ):
                    wrappers[id(obj)] = self._wrap(f"{mod}.{attr}", obj)
        for name, module in list(sys.modules.items()):
            if name != "polyreal" and not name.startswith("polyreal."):
                continue
            for attr, obj in list(vars(module).items()):
                if id(obj) in wrappers and inspect.isfunction(obj):
                    self._patch(module, attr, wrappers[id(obj)])
        for mod, cls, attr, name in METHODS:
            owner = getattr(sys.modules[f"polyreal.{mod}"], cls)
            self._patch(owner, attr, self._wrap(name, getattr(owner, attr)))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def _patch(self, owner, attr: str, wrapper) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def _wrap(self, name: str, fn):
        stat = self.stats.setdefault(name, [0, 0.0, 0.0, 0])
        if _is_span(name):
            return self._wrap_span(name, fn, stat)
        frames = self._frames
        clock = time.perf_counter

        def leaf(*args, **kwargs):
            frame = [0.0]
            frames.append(frame)
            stat[DEPTH] += 1
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                frames.pop()
                if frames:
                    frames[-1][0] += dt
                stat[CALLS] += 1
                stat[SELF] += dt - frame[0]
                stat[DEPTH] -= 1
                if not stat[DEPTH]:
                    stat[BUSY] += dt

        return leaf

    def _wrap_span(self, name: str, fn, stat):
        frames = self._frames
        clock = time.perf_counter

        def boundary(*args, **kwargs):
            index = len(self.spans)
            self.spans.append(None)
            parent = self._open[-1] if self._open else None
            self._open.append(index)
            frame = [0.0]
            frames.append(frame)
            stat[DEPTH] += 1
            evals = self.calls("forms.evaluate")
            t0 = clock()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                t1 = clock()
                dt = t1 - t0
                frames.pop()
                if frames:
                    frames[-1][0] += dt
                stat[CALLS] += 1
                stat[SELF] += dt - frame[0]
                stat[DEPTH] -= 1
                if not stat[DEPTH]:
                    stat[BUSY] += dt
                self._open.pop()
                self.spans[index] = (name, t0, t1, parent, self.job)
                if result is not None:
                    self._probe(name, result, self.calls("forms.evaluate") - evals)

        return boundary

    def _probe(self, name: str, result, evaluate_calls: int) -> None:
        """Work counters read from the return values of boundary calls."""
        found = {}
        if name == "lattice_crystal.enumerate_image":
            found = {"lattice_crystal.enumerate_image.elements": len(result)}
        elif name == "forms.closure":
            found = {"forms.closure.forms": len(result[0]), "forms.closure.pruned": result[1]}
        elif name == "verify.check_image_equality":
            found = {
                "verify.image.candidates": result.counts["candidates"],
                "verify.image.elements": result.counts["image_size"],
                "verify.image.evaluate_calls": evaluate_calls,
            }
        elif name == "verify.check_step_identities":
            found = {"verify.steps.toggles_checked": result.counts["toggles_checked"]}
        for key, value in found.items():
            self.counters[key] = self.counters.get(key, 0) + value

    def calls(self, name: str) -> int:
        stat = self.stats.get(name)
        return stat[CALLS] if stat else 0

    def metric(self, name: str) -> float:
        """Value of a per-layer metric named <module>.<function>.<kind>."""
        if name == "cli.main.self_s":
            return self._main_self()
        if name == "verify.image.evals_per_candidate":
            base = self.counters.get("verify.image.candidates", 0) + self.counters.get(
                "verify.image.elements", 0
            )
            return self.counters.get("verify.image.evaluate_calls", 0) / base if base else 0.0
        if name in self.counters or name in _COUNTERS:
            return self.counters.get(name, 0)
        function, kind = name.rsplit(".", 1)
        if function not in self.stats:
            raise KeyError(f"no traced function {function!r} for metric {name!r}")
        stat = self.stats[function]
        if kind == "calls":
            return stat[CALLS]
        if kind == "busy_s":
            return stat[BUSY]
        if kind == "self_s":
            return stat[SELF]
        if kind == "ns_per_call":
            return stat[BUSY] / stat[CALLS] * 1e9 if stat[CALLS] else 0.0
        raise KeyError(f"unknown metric kind {kind!r} in {name!r}")

    def _main_self(self) -> float:
        """cli.main time minus the verify.check_* spans directly under it."""
        total = 0.0
        for name, t0, t1, parent, _ in self.spans:
            if name == "cli.main":
                total += t1 - t0
            elif name.startswith("verify.check_") and parent is not None:
                if self.spans[parent][0] == "cli.main":
                    total -= t1 - t0
        return total

    def span_records(self) -> List[dict]:
        return [
            {"name": n, "start": t0, "end": t1, "parent": p, "job": j}
            for n, t0, t1, p, j in self.spans
        ]


_COUNTERS = {
    "lattice_crystal.enumerate_image.elements",
    "forms.closure.forms",
    "forms.closure.pruned",
    "verify.image.candidates",
    "verify.steps.toggles_checked",
}
