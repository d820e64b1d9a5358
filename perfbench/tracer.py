"""Outside-in layer tracer: wraps the program's functions from the benchmark.

The program keeps no spans of its own, so the benchmark wraps calls into
each layer from outside. A target is a module-level function or a class
method. Modules bind functions with ``from ... import``, so a function
object can sit under several names in several modules; installing a
target replaces *every* module-global binding of that object, found by
identity across the ``repro`` entries of ``sys.modules``. A method is
replaced as a class attribute. A target whose module or attribute no
longer exists is reported as ``absent`` instead of failing the run.

Each wrapped call records a span (name, start, end, parent, session) in
memory, bumps the target's counters, and charges its *self time* (its
duration minus the time covered by wrapped calls inside it) to its
layer. Spans are written out only when the run ends.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Any, Callable

#: Spans kept per run; later spans are counted but not stored.
MAX_SPANS = 100_000


@dataclass(frozen=True)
class Target:
    """One wrapped function.

    ``count`` names the counter bumped once per call. ``split`` picks a
    sub key from the call's arguments; the self time is charged
    additionally to ``<layer>.<sub key>``. ``before(tracer, args)`` runs
    before the call and its value is handed to ``after(tracer, args,
    result, token)``, which records counters that need the call's
    arguments or result.
    """

    layer: str
    module: str
    qualname: str
    count: str | None = None
    split: Callable[[tuple], str] | None = None
    before: Callable[["LayerTracer", tuple], Any] | None = None
    after: Callable[["LayerTracer", tuple, Any, Any], None] | None = None

    @property
    def key(self) -> str:
        return f"{self.module}:{self.qualname}"


def _is_repro_module(name: str) -> bool:
    return name == "repro" or name.startswith("repro.")


class LayerTracer:
    """Installs wrappers around ``targets`` and accumulates per-layer data."""

    def __init__(self, targets: list[Target]) -> None:
        self.targets = targets
        self.counts: defaultdict[str, float] = defaultdict(float)
        self.calls: defaultdict[str, int] = defaultdict(int)
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.status: dict[str, str] = {}
        self.spans: list[list] = []
        self.spans_dropped = 0
        #: Networks seen by the netsim hooks, keyed by id(), with their
        #: packet counters at first sight.
        self.networks: dict[int, tuple] = {}
        #: Session (or round) id stamped on spans; set by the workload loop.
        self.session: int | None = None
        self._stack: list[list] = []
        self._undo: list[Callable[[], None]] = []

    # ------------------------------------------------------------ install

    def install(self) -> None:
        for target in self.targets:
            self.status[target.key] = self._install(target)

    def uninstall(self) -> None:
        while self._undo:
            self._undo.pop()()

    def __enter__(self) -> "LayerTracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def _install(self, target: Target) -> str:
        try:
            module = importlib.import_module(target.module)
        except ImportError as exc:
            return f"absent: {exc}"
        owner_name, _, attr = target.qualname.rpartition(".")
        if owner_name:
            owner = getattr(module, owner_name, None)
            if not isinstance(owner, type):
                return f"absent: no class {owner_name}"
            if not hasattr(owner, attr):
                return f"absent: no method {target.qualname}"
            had_own = attr in owner.__dict__
            original = owner.__dict__.get(attr, getattr(owner, attr))
            if not callable(original):
                return f"absent: {target.qualname} is not a plain method"
            setattr(owner, attr, self._wrap(target, original))

            def undo(owner=owner, attr=attr, original=original, had_own=had_own):
                if had_own:
                    setattr(owner, attr, original)
                else:
                    delattr(owner, attr)

            self._undo.append(undo)
            return "wrapped (class attribute)"
        original = getattr(module, attr, None)
        if original is None or not callable(original):
            return f"absent: no function {attr}"
        wrapper = self._wrap(target, original)
        bindings = 0
        for name, mod in list(sys.modules.items()):
            if mod is None or not _is_repro_module(name):
                continue
            for binding, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, binding, wrapper)
                    self._undo.append(
                        lambda mod=mod, binding=binding: setattr(
                            mod, binding, original
                        )
                    )
                    bindings += 1
        return f"wrapped ({bindings} bindings)"

    def _wrap(self, target: Target, original: Callable) -> Callable:
        layer = target.layer
        count_key = f"{layer}.{target.count}" if target.count else None
        split, before, after = target.split, target.before, target.after
        name = f"{layer}:{target.qualname}"
        stack, spans, counts, calls, self_s = (
            self._stack, self.spans, self.counts, self.calls, self.self_s
        )
        clock = time.perf_counter
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            calls[layer] += 1
            if count_key is not None:
                counts[count_key] += 1
            sub = None if split is None else f"{layer}.{split(args)}"
            token = before(tracer, args) if before is not None else None
            if len(spans) < MAX_SPANS:
                span = len(spans)
                parent = stack[-1][2] if stack else -1
                spans.append([name, 0.0, 0.0, parent, tracer.session])
            else:
                span = -1
                tracer.spans_dropped += 1
            frame = [clock(), 0.0, span]
            stack.append(frame)
            try:
                result = original(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - frame[0]
                own = duration - frame[1]
                self_s[layer] += own
                if sub is not None:
                    self_s[sub] += own
                if stack:
                    stack[-1][1] += duration
                if span >= 0:
                    spans[span][1] = frame[0]
                    spans[span][2] = end
            if after is not None:
                after(tracer, args, result, token)
            return result

        return wrapper

    # ------------------------------------------------------------ results

    def absent(self) -> list[str]:
        return sorted(k for k, v in self.status.items() if v.startswith("absent"))

    def write_spans(self, path) -> None:
        """Write the kept spans as JSON lines (one span per line)."""
        with open(path, "w", encoding="utf-8") as out:
            for name, start, end, parent, session in self.spans:
                out.write(
                    json.dumps(
                        {
                            "name": name,
                            "start": start,
                            "end": end,
                            "parent": parent,
                            "session": session,
                        }
                    )
                )
                out.write("\n")
