"""Outside-in tracer: spans and work counts around plotkit's public functions.

The tracer wraps every public function of the traced modules from outside
the library. `plotkit.plotkin`, `plotkit.cli`, `plotkit.codefile` and
`plotkit.families` import by name (`from .invariants import kernel`), so a
wrapper installed on the defining module alone would miss those calls: each
wrapper is bound into every plotkit namespace that holds the original.

Spans stay in memory while the program runs and are summarised (and
written out) once the traced work is done.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import Counter, defaultdict
from pathlib import Path

# Modules whose public functions are timed. `oracle` is left out on purpose:
# the brute-force oracles stay naive and are not an optimisation target.
LAYERS = ("core", "gf2", "invariants", "plotkin", "families", "codefile", "cli")


def _meter_rows(args, result):
    return {"rows_in": len(args[0])}


def _meter_kernel(args, result):
    return {"scanned": len(args[0]), "kept": len(result)}


def _meter_construct(args, result):
    return {"words_out": len(result)}


def _meter_parse(args, result):
    return {"lines_in": args[0].count("\n")}


def _meter_format(args, result):
    return {"lines_out": result.count("\n")}


# Work counts taken at the layer boundary, by span name.
METERS = {
    "gf2.rref": _meter_rows,
    "invariants.rank": _meter_rows,
    "invariants.kernel": _meter_kernel,
    "plotkin.plotkin_construct": _meter_construct,
    "codefile.parse_code_file": _meter_parse,
    "codefile.format_code_file": _meter_format,
}


class Tracer:
    """Records one span per wrapped call: (name, start, end, parent, op).

    `op` is the identifier of the benchmark operation that caused the call;
    spans of one operation share it.
    """

    def __init__(self) -> None:
        self.spans: list[tuple[str, float, float, int, str | None] | None] = []
        self.counts: Counter[str] = Counter()
        self.op: str | None = None
        self._stack: list[int] = []

    def _wrap(self, name: str, fn):
        meter = METERS.get(name)
        spans, stack, counts = self.spans, self._stack, self.counts

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            index = len(spans)
            spans.append(None)
            stack.append(index)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[index] = (name, start, end, parent, self.op)
            if meter is not None:
                counts.update(
                    {f"{name}.{k}": v for k, v in meter(args, result).items()}
                )
            return result

        return traced

    def install(self) -> None:
        """Wrap each public function of LAYERS, plus the `Code.words` property."""
        import plotkit
        from plotkit.core import Code

        namespaces = [plotkit] + [
            m for key, m in sys.modules.items() if key.startswith("plotkit.")
        ]
        for layer in LAYERS:
            module = sys.modules[f"plotkit.{layer}"]
            for attr, obj in list(vars(module).items()):
                if (
                    attr.startswith("_")
                    or isinstance(obj, type)
                    or not callable(obj)
                    or getattr(obj, "__module__", None) != module.__name__
                ):
                    continue
                traced = self._wrap(f"{layer}.{attr}", obj)
                for ns in namespaces:
                    for key in [k for k, v in vars(ns).items() if v is obj]:
                        setattr(ns, key, traced)
        Code.words = property(self._wrap("core.Code.words", Code.words.fget))

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, total seconds and self seconds.

        Self time is a span's duration minus the time its child spans
        cover. Calls run one at a time, so children never overlap.
        """
        child = defaultdict(float)
        for span in self.spans:
            name, start, end, parent, _ = span
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, dict[str, float]] = {}
        for index, (name, start, end, _, _) in enumerate(self.spans):
            row = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            row["total_s"] += end - start
            row["self_s"] += end - start - child[index]
        return out

    def write_spans(self, path: Path) -> None:
        """Write every span as one JSON line, start and end in seconds."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as f:
            for name, start, end, parent, op in self.spans:
                f.write(json.dumps([name, start, end, parent, op]) + "\n")
