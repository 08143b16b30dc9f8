"""In-process spans around the onticsim layers, recorded from outside.

Each entry of ``TRACED`` names a function as it is bound in a module (or
as an attribute of a class bound there).  ``Tracer.install`` replaces
each with a wrapper that records a span (name, start, end, parent) in a
list kept in memory; ``Tracer.remove`` puts the originals back.  A name
that no longer resolves is reported as missing rather than raising, and
its time then shows up as self time of the span that called it.
"""

from __future__ import annotations

import functools
import importlib
import inspect
from collections import defaultdict
from time import perf_counter

# (span name, module, attribute path as bound in that module)
TRACED = (
    ("cli.write", "onticsim.cli", "_write_output"),
    ("bitstate.parse", "onticsim.cli", "OnticVector.parse"),
    ("permrep.parse", "onticsim.cli", "Permutation.parse"),
    ("experiment.run_sweep", "onticsim.cli", "run_sweep"),
    ("experiment.sweep_csv", "onticsim.cli", "sweep_csv"),
    ("experiment.plot_data_text", "onticsim.cli", "plot_data_text"),
    ("experiment.run_time_series", "onticsim.cli", "run_time_series"),
    ("experiment.run_cycle_census", "onticsim.cli", "run_cycle_census"),
    ("states.state_from_ontic", "onticsim.experiment", "state_from_ontic"),
    ("permrep.energy_basis", "onticsim.experiment", "energy_basis"),
    ("permrep.transform", "onticsim.permrep", "EnergyBasis.transform"),
    ("permrep.apply_permutation", "onticsim.experiment", "apply_permutation"),
    ("reduction.purity", "onticsim.experiment", "purity"),
    ("entropy.collision_entropy", "onticsim.experiment", "collision_entropy"),
    ("indexing.mask", "onticsim.indexing", "SubsystemMask.__init__"),
)
ROOT = "cli"  # span around onticsim.cli.main itself


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent index]
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object, bool]] = []
        self.missing: list[str] = []

    def wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append([name, perf_counter(), 0.0, stack[-1] if stack else -1])
            stack.append(index)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[index][2] = perf_counter()

        return traced

    def install(self) -> None:
        self.missing = []
        for name, module_name, path in TRACED:
            try:
                owner = importlib.import_module(module_name)
                *parents, attr = path.split(".")
                for part in parents:
                    owner = getattr(owner, part)
                raw = inspect.getattr_static(owner, attr)
            except (ImportError, AttributeError):
                self.missing.append(name)
                continue
            if isinstance(raw, (classmethod, staticmethod)):
                replacement = type(raw)(self.wrap(name, raw.__func__))
            elif callable(raw):
                replacement = self.wrap(name, raw)
            else:
                self.missing.append(name)
                continue
            own = attr in vars(owner)
            setattr(owner, attr, replacement)
            self._restore.append((owner, attr, raw, own))

    def remove(self) -> None:
        while self._restore:
            owner, attr, raw, own = self._restore.pop()
            if own:
                setattr(owner, attr, raw)
            else:
                delattr(owner, attr)

    def call_root(self, fn, *args):
        return self.wrap(ROOT, fn)(*args)

    def totals(self) -> dict[str, dict[str, float]]:
        """Per span name: inclusive seconds, self seconds and call count."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, dict[str, float]] = defaultdict(
            lambda: {"s": 0.0, "self_s": 0.0, "calls": 0}
        )
        for i, (name, start, end, _) in enumerate(self.spans):
            entry = out[name]
            entry["s"] += end - start
            entry["self_s"] += end - start - child[i]
            entry["calls"] += 1
        return dict(out)
