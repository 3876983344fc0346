"""Seeded workloads: input generation, the operations to time, and their checks.

Each workload's `setup` writes its input files with plotkit's own generators
and writers, and returns the fixed list of CLI operations the benchmark
times. Every check compares an operation's output with facts the benchmark
knows from how it built the inputs (sizes, lengths, ranks fixed by
construction), never with plotkit's own predictions alone.

Why each workload exists (the layer it loads, and which ROADMAP item it
measures):

- dense-random: `verify` on random pairs of 256 words of length 10, the
  ROADMAP's n=12, 1024-word rung scaled down 16-fold in words so that a
  run repeats it often enough for a steady median. Row reduction (`rank`,
  `rref`) and `Word` construction dominate; distance costs nothing because
  d = 1 turns up at once. ROADMAP item 2 (one analysis per code) lands here.
- near-linear: linear codes plus one word. The kernel scan and the full
  pairwise distance scan do almost all the work and `gf2` almost none.
  ROADMAP item 3 (witness-first kernel, coset distance) lands here; item 2
  bypasses it.
- corpus: 3000 tiny `verify` analyses per repetition, where per-call fixed
  costs weigh and `random_code` runs inside the timed call.
- cli-files: `verify`, then a `plotkin -o` write and `info`, `kernel` and
  `span` reads of the written file: the only workload where `codefile`
  does real work, so a change to `Word` handling that slows file I/O shows
  here.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import reduce
from operator import xor
from pathlib import Path
from random import Random
from typing import Callable, Iterator

from plotkit import codefile, families
from plotkit.core import Code, Word

# Captured before any tracer wraps `reed_muller`, so the cache can always be
# emptied: no cached code may carry over from one timed operation to the next.
clear_reed_muller_cache = families.reed_muller.cache_clear

REPORT_FLAGS = (
    "theorem_i_holds",
    "theorem_ii_holds",
    "corollary_i_holds",
    "corollary_ii_holds",
    "params_hold",
    "hypothesis_ok",
)


@dataclass
class OpResult:
    """What one `cli_main` call returned, printed and wrote."""

    rc: int | None
    out: str
    err: str
    seconds: float
    # Seconds from the call's start to the end of each stdout line.
    line_ends: list[float]
    written: str | None = None
    error: str | None = None
    # Reference-loop time measured beside the call (see run.probe_s).
    probe_s: float = 0.0


@dataclass
class Op:
    """One CLI invocation of a workload.

    `group` sorts its time into the reported figures: "verify" calls print
    one JSON report line per verified pair, "write" calls write a code file,
    "read" calls analyse one code file. `check` returns the problems found
    in the result, given the results of the whole list by operation name.
    """

    name: str
    argv: list[str]
    group: str
    check: Callable[[OpResult, dict[str, OpResult]], list[str]]
    writes: Path | None = None


def _write_code(path: Path, code: Code) -> str:
    path.write_text(codefile.format_code_file(code))
    return str(path)


def _systematic_rows(rng: Random, n: int, k: int, nonzero_parity: bool) -> list[int]:
    """Rows of a seeded [I_k | P] generator: rank k by construction.

    With every parity row nonzero the code has no weight-1 word, so d >= 2.
    """
    rows = []
    for i in range(k):
        parity = rng.getrandbits(n - k)
        while nonzero_parity and not parity:
            parity = rng.getrandbits(n - k)
        rows.append((1 << (n - 1 - i)) | parity)
    return rows


def _linear_code(n: int, rows: list[int]) -> Code:
    return families.from_generator([Word(n, r) for r in rows])


def _plus_word(code: Code, extra: int) -> Code:
    return Code(list(code.words) + [Word(code.n, extra)])


def _low_extra_word(rng: Random, linear: Code) -> int:
    """A seeded word at distance >= 2 from `linear`, below its least nonzero word.

    The word sorts right after zero, so the kernel scans of `verify` stop at
    the same early point on every seed, and distance >= 2 rules out the
    d = 1 early exit of the pairwise distance scan: the pair's cost is the
    same on every seed.
    """
    patterns = linear.bit_patterns
    while True:
        w = rng.randrange(1, patterns[1])
        if all((w ^ c).bit_count() >= 2 for c in patterns):
            return w


def _reports(res: OpResult) -> list[dict]:
    return [json.loads(line) for line in res.out.splitlines()]


def _report_problems(report: dict, n: int, m1: int, m2: int) -> list[str]:
    problems = [f"{flag} is not true" for flag in REPORT_FLAGS if report[flag] is not True]
    observed = report["observed"]
    if report["n_in"] != n or observed["length"] != 2 * n:
        problems.append(f"length {observed['length']} from n={report['n_in']}, want {2 * n}")
    if observed["size"] != m1 * m2:
        problems.append(f"size {observed['size']}, want {m1} * {m2}")
    return problems


def _one_report(res: OpResult, n: int, m1: int, m2: int) -> tuple[dict, list[str]]:
    reports = _reports(res)
    if len(reports) != 1:
        return {}, [f"{len(reports)} report lines, want 1"]
    return reports[0], _report_problems(reports[0], n, m1, m2)


# dense-random --------------------------------------------------------------

DENSE_N, DENSE_M = 10, 256


def dense_random(work: Path, seed: int) -> list[Op]:
    rng = Random(seed)
    a, b = (
        _write_code(
            work / name,
            families.random_code(DENSE_N, DENSE_M, rng.getrandbits(64), include_zero=True),
        )
        for name in ("a.code", "b.code")
    )

    def check(res: OpResult, _: dict) -> list[str]:
        return _one_report(res, DENSE_N, DENSE_M, DENSE_M)[1]

    return [Op("verify", ["verify", "--json", a, b], "verify", check)]


# near-linear ---------------------------------------------------------------

# The kernel scan: an [18,11] code plus the largest pattern outside it. That
# word sorts last, so every candidate of the scan survives until the final
# membership probe: |L| * (|L| + 1) probes on every seed.
SCAN_N, SCAN_K = 18, 11
# The distance pair: RM(1,4) + 1 word and a [16,7] code + 1 word, the extra
# words at distance >= 2 from their linear parts. The constructed code has
# 33 * 129 = 4257 words and d >= 2, so the distance scan visits every pair.
PAIR_N, PAIR_K2 = 16, 7
PAIR_R, PAIR_M = 1, 4
PAIR_K1 = 5  # dimension of RM(1, 4)


def near_linear(work: Path, seed: int) -> list[Op]:
    rng = Random(seed)
    rows = _systematic_rows(rng, SCAN_N, SCAN_K, nonzero_parity=False)
    full = (1 << SCAN_N) - 1
    # The codeword with every information bit set is the xor of all rows;
    # the all-ones word is outside the span unless it is that codeword.
    top = reduce(xor, rows)
    last = full if top != full else full ^ 1
    scan = _write_code(work / "scan.code", _plus_word(_linear_code(SCAN_N, rows), last))

    rm = families.reed_muller(PAIR_R, PAIR_M)
    c1 = _plus_word(rm, _low_extra_word(rng, rm))
    lin2 = _linear_code(PAIR_N, _systematic_rows(rng, PAIR_N, PAIR_K2, nonzero_parity=True))
    c2 = _plus_word(lin2, _low_extra_word(rng, lin2))
    a, b = _write_code(work / "a.code", c1), _write_code(work / "b.code", c2)
    m1, m2 = (1 << PAIR_K1) + 1, (1 << PAIR_K2) + 1

    # |C| = 2^k + 1 is odd and the kernel's cosets partition C, so the
    # kernel of a linear code plus one word is {0}.
    kernel_text = f"# kernel n={SCAN_N} dim=0 M=1\n{'0' * SCAN_N}\n"

    def check_kernel(res: OpResult, _: dict) -> list[str]:
        return [] if res.out == kernel_text else ["kernel is not {0}"]

    def check_verify(res: OpResult, _: dict) -> list[str]:
        report, problems = _one_report(res, PAIR_N, m1, m2)
        if problems:
            return problems
        observed = report["observed"]
        if observed["rank"] != (PAIR_K1 + 1) + (PAIR_K2 + 1):
            problems.append(f"rank {observed['rank']}, want {PAIR_K1 + PAIR_K2 + 2}")
        if observed["kernel_dim"] != 0:
            problems.append(f"kernel dimension {observed['kernel_dim']}, want 0")
        if observed["distance"] < 2:
            problems.append(f"distance {observed['distance']}, want >= 2")
        return problems

    return [
        Op("kernel", ["kernel", scan], "read", check_kernel),
        Op("verify", ["verify", "--json", a, b], "verify", check_verify),
    ]


# corpus --------------------------------------------------------------------

# 3000 pairs per repetition keep the seed's mix of pair shapes from moving
# the total; six calls of 500 let the reference loop run between them.
CORPUS_CALLS, CORPUS_PAIRS, CORPUS_MAX_N = 6, 500, 12
_MASK64 = (1 << 64) - 1


def _splitmix64(seed: int) -> Iterator[int]:
    # The documented SplitMix64 stream that `corpus` draws its pairs from.
    state = seed & _MASK64
    while True:
        state = (state + 0x9E3779B97F4A7C15) & _MASK64
        z = state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        yield z ^ (z >> 31)


def corpus_shapes(seed: int, pairs: int, max_n: int) -> list[tuple[int, int, int]]:
    """(n, |C1|, |C2|) of each pair `corpus --seed` generates."""
    stream = _splitmix64(seed)
    shapes = []
    for _ in range(pairs):
        n = 2 + next(stream) % (max_n - 1)
        bound = min(1 << n, 32)
        m1 = 1 + next(stream) % bound
        m2 = 1 + next(stream) % bound
        next(stream), next(stream)  # the seeds of the two random codes
        shapes.append((n, m1, m2))
    return shapes


def _corpus_op(name: str, corpus_seed: int) -> Op:
    shapes = corpus_shapes(corpus_seed, CORPUS_PAIRS, CORPUS_MAX_N)

    def check(res: OpResult, _: dict) -> list[str]:
        reports = _reports(res)
        if len(reports) != len(shapes):
            return [f"{len(reports)} report lines, want {len(shapes)}"]
        problems = []
        for i, (report, shape) in enumerate(zip(reports, shapes), start=1):
            problems += [f"pair {i}: {p}" for p in _report_problems(report, *shape)]
        return problems

    argv = [
        "corpus", "--json", "--pairs", str(CORPUS_PAIRS),
        "--seed", str(corpus_seed), "--max-n", str(CORPUS_MAX_N),
    ]
    return Op(name, argv, "verify", check)


def corpus(work: Path, seed: int) -> list[Op]:
    rng = Random(seed)
    return [_corpus_op(f"corpus-{i}", rng.getrandbits(32)) for i in range(CORPUS_CALLS)]


# cli-files -----------------------------------------------------------------

# Inputs: 256 random words of length 11 each. 256 random words lie in a
# hyperplane with probability below 2^-240, so each input has rank 11 and the
# written code rank 22: its span, 2^22 words, is over the default
# enumeration cap, and `span` prints the basis only.
FILES_N, FILES_M = 11, 256
FILES_RANK = 2 * FILES_N


def cli_files(work: Path, seed: int) -> list[Op]:
    rng = Random(seed)
    a, b = (
        _write_code(
            work / name,
            families.random_code(FILES_N, FILES_M, rng.getrandbits(64), include_zero=True),
        )
        for name in ("a.code", "b.code")
    )
    ab = work / "ab.code"
    n, m = 2 * FILES_N, FILES_M * FILES_M

    def observed(results: dict) -> dict:
        return _one_report(results["verify"], FILES_N, FILES_M, FILES_M)[0]["observed"]

    def check_verify(res: OpResult, _: dict) -> list[str]:
        report, problems = _one_report(res, FILES_N, FILES_M, FILES_M)
        if not problems and report["observed"]["rank"] != FILES_RANK:
            problems.append(f"rank {report['observed']['rank']}, want {FILES_RANK}")
        return problems

    def check_write(res: OpResult, _: dict) -> list[str]:
        lines = (res.written or "").splitlines()
        if not lines or lines[0] != f"# code n={n} M={m}":
            return ["written file lacks its header"]
        if len(lines) - 1 != m or any(len(line) != n for line in lines[1:]):
            return [f"written file has {len(lines) - 1} lines, want {m} of length {n}"]
        return []

    def check_info(res: OpResult, results: dict) -> list[str]:
        obs = observed(results)
        want = {
            "n": n, "M": m, "d": obs["distance"], "rank": obs["rank"],
            "ker_dim": obs["kernel_dim"], "is_linear": False,
        }
        got = json.loads(res.out)
        return [] if got == want else [f"info {got} does not match verify {want}"]

    def check_kernel(res: OpResult, results: dict) -> list[str]:
        dim = observed(results)["kernel_dim"]
        lines = res.out.splitlines()
        if lines[0] != f"# kernel n={n} dim={dim} M={1 << dim}" or len(lines) != 1 + (1 << dim):
            return [f"kernel output {lines[0]!r} does not match verify dimension {dim}"]
        return []

    def check_span(res: OpResult, results: dict) -> list[str]:
        dim = observed(results)["rank"]
        lines = res.out.splitlines()
        if lines[0] != f"# generator n={n} dim={dim}" or len(lines) != 1 + dim:
            return [f"span output {lines[0]!r} does not match verify rank {dim}"]
        return []

    return [
        Op("verify", ["verify", "--json", a, b], "verify", check_verify),
        Op("write", ["plotkin", a, b, "-o", str(ab)], "write", check_write, writes=ab),
        Op("info", ["info", "--json", str(ab)], "read", check_info),
        Op("kernel", ["kernel", str(ab)], "read", check_kernel),
        Op("span", ["span", str(ab)], "read", check_span),
    ]


WORKLOADS = {
    "dense-random": dense_random,
    "near-linear": near_linear,
    "corpus": corpus,
    "cli-files": cli_files,
}
