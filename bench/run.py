"""Seeded end-to-end benchmark of the plotkit CLI, with an opt-in layer trace.

Run from the repository root:

    python3 bench/run.py --workload dense-random --seed 1 --seconds 20 --trace 0

Workloads are defined in `workloads.py`, the tracer in `tracer.py`, and the
metric names, units and regression bounds in `BENCHMARK.json`.

Each run is one process for one workload. Set-up writes the seeded input
files with plotkit's generators; it runs three times before every
repetition of the list, and its median time is `setup_s`. The load is a
closed loop with one client: the workload's fixed list of
`plotkit.cli.cli_main(argv)` calls runs sequentially, stdout captured, and
the list repeats while another repetition fits in `--seconds`. Every
output is checked; a call that raises, exits nonzero, writes to stderr,
fails its check or differs from its first repetition counts as failed.
Before each call the garbage collector runs and the `reed_muller` cache is
emptied, and every call parses its input files afresh, so no analysed code
carries over from one call to the next.

Call times are reported relative to a reference loop timed beside each
call (see `probe_s`): `wall_rel` is the list's time in units of the loop's
time, and `pairs_per_probe` the pairs verified per unit. The same figures
in seconds are in the report line.

With `--trace 1` the list instead repeats untraced for half of `--seconds`,
then set-up and list run once traced; the run reports per-layer spans and
counts, and the traced list's time over the untraced median.

The last stdout line is the result object; the line before it is a report
with provenance, sample counts, the workload's figures in seconds
(`wall_s`, `pairs_per_s`, `pair_p50_s`, `pair_p99_s`, `write_s`, `read_s`),
`failed_frac` and, when traced, each span's calls and times and each
layer's share of self time. Both also go to `.bench_out/`.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path
from typing import Callable

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUPS_PER_LIST = 3

if not (SRC / "plotkit" / "cli.py").is_file():
    sys.exit(f"bench: plotkit sources not found under {SRC}")
sys.path.insert(0, str(SRC))

from plotkit import cli  # noqa: E402

from tracer import Tracer  # noqa: E402
from workloads import WORKLOADS, Op, OpResult, clear_reed_muller_cache  # noqa: E402


class _LineClock(io.TextIOBase):
    """Stdout stand-in that keeps the text and when each line ended."""

    def __init__(self, start: float) -> None:
        self.parts: list[str] = []
        self.line_ends: list[float] = []
        self._start = start

    def write(self, text: str) -> int:
        self.parts.append(text)
        newlines = text.count("\n")
        if newlines:
            self.line_ends += [time.perf_counter() - self._start] * newlines
        return len(text)


def _probe_once() -> float:
    start = time.perf_counter()
    members = set(range(0, 12000, 3))
    total = 0
    rows = []
    for i in range(12000):
        if i ^ 0x5A5 in members:
            total += (i * 2654435761 & 0xFFFFFF).bit_count()
        rows.append((i, i >> 3))
    ordered = sorted(frozenset(rows), reverse=True)
    "\n".join(format(a, "016b") for a, _ in ordered[::4])
    [{"a": a, "b": b} for a, b in ordered[::8]]
    return time.perf_counter() - start


def probe_s() -> float:
    """Median time of a fixed pure-Python reference loop: the machine's speed now.

    On a shared 2-vCPU virtual machine the same call ran up to 50% slower
    from one minute to the next. The loop does the kinds of work plotkit
    does (set membership and popcounts on ints, small tuples, sorting, bit
    strings, small dicts), so a call's time divided by the loop's, measured
    right beside it, keeps a change in the code and drops most of that
    drift: on that machine it cut the spread of `corpus` between 10-second
    windows from 12% to 2.5%, where a loop of set lookups alone left 7%.
    """
    return statistics.median(_probe_once() for _ in range(5))


def run_op(op: Op) -> OpResult:
    gc.collect()
    clear_reed_muller_cache()
    err = io.StringIO()
    error = None
    start = time.perf_counter()
    out = _LineClock(start)
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = cli.cli_main(op.argv)
        except Exception:  # a crash is a failed operation, not a crashed run
            rc, error = None, traceback.format_exc()
        seconds = time.perf_counter() - start
    written = op.writes.read_text() if op.writes and op.writes.exists() else None
    return OpResult(rc, "".join(out.parts), err.getvalue(), seconds, out.line_ends,
                    written, error)


def _digest(res: OpResult) -> str:
    return hashlib.sha256(f"{res.out}\0{res.written}".encode()).hexdigest()


class Pass:
    """Results of the workload's list, repeated; failures found so far."""

    def __init__(self) -> None:
        self.ops: list[Op] = []
        self.lists: list[dict[str, OpResult]] = []
        self.digests: dict[str, str] = {}
        self.failures: list[str] = []
        self.attempted = 0
        self.failed = 0

    def run_list(self, ops: list[Op], tracer: Tracer | None = None) -> float:
        """Run the list once, check it, and return its seconds.

        The reference loop runs before the first call and after each; a
        call's probe time is the mean of the two beside it.
        """
        self.ops = ops
        results = {}
        probes = [probe_s()]
        for op in ops:
            if tracer is not None:
                tracer.op = f"{len(self.lists)}:{op.name}"
            results[op.name] = res = run_op(op)
            probes.append(probe_s())
            res.probe_s = (probes[-2] + probes[-1]) / 2
        for op in ops:
            self.attempted += 1
            problems = self._problems(op, results)
            self.failed += bool(problems)
            self.failures += [f"list {len(self.lists)} {op.name}: {p}" for p in problems]
        # The texts are checked and digested; holding them for every
        # repetition would make peak_rss_mb grow with the repetition count.
        for res in results.values():
            res.out, res.written = "", None
        self.lists.append(results)
        return sum(r.seconds for r in results.values())

    def _problems(self, op: Op, results: dict[str, OpResult]) -> list[str]:
        res = results[op.name]
        if res.error is not None:
            return [f"raised\n{res.error}"]
        problems = [] if res.rc == 0 else [f"exit code {res.rc}"]
        if res.err:
            problems.append(f"stderr {res.err[:300]!r}")
        try:
            problems += op.check(res, results)
        except (ValueError, KeyError, IndexError, TypeError) as exc:
            problems.append(f"output unreadable: {exc!r}")
        if self.digests.setdefault(op.name, _digest(res)) != _digest(res):
            problems.append("output differs from the first repetition")
        return problems

    def seconds(self, group: str | None = None, relative: bool = False) -> list[float]:
        """Per repetition: seconds spent in the list, or in one group of it.

        `relative` divides each call's seconds by its probe time.
        """
        return [
            sum(r.seconds / (r.probe_s if relative else 1.0)
                for op, r in zip(self.ops, lst.values())
                if group is None or op.group == group)
            for lst in self.lists
        ]

    def pair_latencies(self) -> list[float]:
        """Seconds per verified pair, timed from outside by its report line.

        A pair's latency runs from the previous report line (or the call's
        start) to the end of its own line.
        """
        out = []
        for lst in self.lists:
            for op, res in zip(self.ops, lst.values()):
                if op.group == "verify":
                    ends = [0.0] + res.line_ends
                    out += [b - a for a, b in zip(ends, ends[1:])]
        return out


def timed_setup(workload: str, work: Path, seed: int) -> tuple[float, list[Op]]:
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    gc.collect()
    clear_reed_muller_cache()
    start = time.perf_counter()
    ops = WORKLOADS[workload](work, seed)
    return time.perf_counter() - start, ops


def repeat(step: Callable[[], float], seconds: float) -> None:
    """Call `step` until another call, taking as long as the last, would end past `seconds`."""
    start = time.perf_counter()
    while True:
        took = step()
        if time.perf_counter() - start + took > seconds:
            return


def measure(workload: str, work: Path, seed: int, seconds: int) -> tuple[dict, dict, list[Pass]]:
    setups: list[float] = []
    run = Pass()

    def step() -> float:
        # Set-up runs before every repetition, so that its median, like the
        # list's, samples the machine over the whole run.
        for _ in range(SETUPS_PER_LIST):
            took, ops = timed_setup(workload, work, seed)
            setups.append(took)
        return run.run_list(ops)

    repeat(step, seconds)

    reps = len(run.lists)
    latencies = run.pair_latencies()
    pairs = len(latencies) // reps
    verify_s = run.seconds("verify")
    metrics = {
        "setup_s": statistics.median(setups),
        "wall_rel": statistics.median(run.seconds(relative=True)),
        "pairs_per_probe": statistics.median(
            pairs / s for s in run.seconds("verify", relative=True)),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    extra = {
        "probe_s": statistics.median(
            r.probe_s for lst in run.lists for r in lst.values()),
        "wall_s": statistics.median(run.seconds()),
        "pairs_per_s": statistics.median(pairs / s for s in verify_s),
        "pair_p50_s": statistics.median(latencies),
    }
    samples = {
        "setup_s": len(setups), "peak_rss_mb": 1,
        **dict.fromkeys(("wall_rel", "pairs_per_probe", "probe_s", "wall_s", "pairs_per_s"), reps),
        "pair_p50_s": len(latencies),
    }
    for group, name in (("write", "write_s"), ("read", "read_s")):
        if any(op.group == group for op in run.ops):
            extra[name] = statistics.median(run.seconds(group))
            samples[name] = reps
    # The highest percentile with at least ten samples beyond it.
    if len(latencies) >= 1000:
        extra["pair_p99_s"] = statistics.quantiles(latencies, n=100)[98]
        samples["pair_p99_s"] = len(latencies)
    return metrics, {"samples": samples, "figures": extra}, [run]


def layer_metrics(names: list[str], tracer: Tracer, overhead_s: float) -> dict:
    spans = tracer.summary()
    out = {}
    for name in names:
        span, _, stat = name.rpartition(".")
        if name == "trace.overhead_s":
            value = overhead_s
        elif name == "families.self_s":
            value = sum(row["self_s"] for key, row in spans.items()
                        if key.startswith("families."))
        elif name == "invariants.kernel.kept_ratio":
            scanned = tracer.counts["invariants.kernel.scanned"]
            value = tracer.counts["invariants.kernel.kept"] / scanned if scanned else 0.0
        elif stat in ("calls", "self_s"):
            value = spans.get(span, {}).get(stat, 0)
        else:
            value = tracer.counts[name]
        out[name] = value
    return out


def self_shares(tracer: Tracer) -> dict:
    """Each span's and each layer's share of all traced self time."""
    spans = tracer.summary()
    total = sum(row["self_s"] for row in spans.values())
    by_span = {name: row["self_s"] / total for name, row in spans.items()}
    by_layer: dict[str, float] = {}
    for name, share in by_span.items():
        layer = name.split(".")[0]
        by_layer[layer] = by_layer.get(layer, 0.0) + share
    return {
        level: dict(sorted(shares.items(), key=lambda kv: -kv[1]))
        for level, shares in (("layers", by_layer), ("spans", by_span))
    }


def trace(
    workload: str, work: Path, seed: int, seconds: int, names: list[str]
) -> tuple[dict, dict, list[Pass]]:
    _, ops = timed_setup(workload, work, seed)
    plain = Pass()
    repeat(lambda: plain.run_list(ops), seconds / 2)
    tracer = Tracer()
    tracer.install()
    tracer.op = "setup"
    _, ops = timed_setup(workload, work, seed)
    traced = Pass()
    traced.run_list(ops, tracer)
    overhead = traced.seconds()[0] - statistics.median(plain.seconds())
    tracer.write_spans(OUT / f"{workload}-seed{seed}.spans.jsonl")
    traced.failures = [f"traced {f}" for f in traced.failures]
    extra = {"samples": {"spans": len(tracer.spans), "untraced_lists": len(plain.lists)},
             "self_shares": self_shares(tracer), "spans": tracer.summary(), "figures": {}}
    return layer_metrics(names, tracer, overhead), extra, [plain, traced]


def provenance(seed: int) -> dict:
    try:
        git = subprocess.run(
            ["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
            capture_output=True, text=True, timeout=30,
        ).stdout.split()
        sha = git[1] if len(git) == 2 and Path(git[0]) == ROOT else None
    except (OSError, subprocess.SubprocessError):
        sha = None
    src = hashlib.sha256()
    for path in sorted((SRC / "plotkit").glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "git_sha": sha,
        "src_sha256": src.hexdigest(),
        "seed": seed,
    }


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")

    work = ROOT / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        if args.trace:
            specs = spec["per_layer"]
            metrics, extra, passes = trace(
                args.workload, work, args.seed, args.seconds, [m["name"] for m in specs])
        else:
            specs = spec["end_to_end"]
            metrics, extra, passes = measure(args.workload, work, args.seed, args.seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work.parent.rmdir()
    failures = [f for p in passes for f in p.failures]
    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    extra["figures"]["failed_frac"] = failed / attempted

    units = {m["name"]: m["unit"] for m in specs}
    if set(metrics) != set(units):
        raise RuntimeError(f"metrics {sorted(metrics)} do not match BENCHMARK.json")
    for failure in failures:
        print(f"FAILED {failure}", file=sys.stderr)
    samples = extra["samples"]
    figure_units = {"failed_frac": "ratio", "pairs_per_s": "1/s"}
    for name, value in {**metrics, **extra["figures"]}.items():
        n = samples.get(name, "")
        print(f"{name:<40} {value:>14.6g} {units.get(name) or figure_units.get(name, 's')}"
              + (f"  (n={n})" if n else ""))
    for level in ("layers", "spans"):
        for name, share in extra.get("self_shares", {}).get(level, {}).items():
            print(f"self-time share  {name:<38} {100 * share:6.2f}%")

    report = {"workload": args.workload, "trace": args.trace,
              "provenance": provenance(args.seed), **extra}
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    OUT.mkdir(exist_ok=True)
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({"report": report, "result": result}, indent=1) + "\n")
    print(json.dumps(report))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
