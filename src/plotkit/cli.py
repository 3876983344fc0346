"""Command-line interface: build, inspect, and verify (u|u+v) codes.

Exit codes: 0 on success, 1 when a structural check fails on inputs that
satisfy the zero-word hypothesis (or an oracle cross-check disagrees),
2 for usage and input errors.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import io
import json
import os
import signal
import sys
import warnings
from pathlib import Path

from .codefile import (
    ParseError,
    _pack,
    format_basis_file,
    format_code_file,
    parse_code_file,
    parse_gen_file,
)
from . import __version__, core
from .core import Code
from .families import _GAMMA, KINDS, _splitmix64, build_family, random_code
from .gf2 import _code_rows, _span_code, code_basis, enumeration_cap, span_enumerate
from .invariants import CodeSummary, dim, kernel, min_distance, summarize
from .oracle import (
    BRUTE_DISTANCE_MAX_PAIRS,
    BRUTE_KERNEL_MAX_N,
    BRUTE_SPAN_MAX_WORDS,
    distance_bruteforce,
    kernel_bruteforce,
    pair_count,
    span_bruteforce,
)
from .plotkin import (
    CHECKS,
    CodeParams,
    PlotkinReport,
    _verify,
    plotkin_construct,
    verify_plotkin,
)

def _load(path: str, as_gen: bool) -> Code:
    """Read a code file; each parse warning, such as a repeated line, is
    printed as one `warning: ...` line on stderr, in file order."""
    text = Path(path).read_text()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = parse_gen_file(text) if as_gen else parse_code_file(text)
    for w in caught:
        print(f"warning: {w.message}", file=sys.stderr)
    return code


def _emit(text: str, output: str | None) -> None:
    if output is None or output == "-":
        sys.stdout.write(text)
    else:
        Path(output).write_text(text)


def _format_summary(s: CodeSummary) -> str:
    d = "-" if s.d is None else str(s.d)
    if s.is_linear:
        params, tag = f"[{s.n}, {s.rank}, {d}]", "linear"
    else:
        params, tag = f"({s.n}, {s.M}, {d})", "nonlinear"
    return f"{params}  rank={s.rank}  ker={s.ker_dim}  {tag}"


def _format_params(p: CodeParams) -> str:
    d = "-" if p.distance is None else str(p.distance)
    return f"({p.length}, {p.size}, {d})  rank={p.rank}  ker={p.kernel_dim}"


def _cmd_info(args: argparse.Namespace) -> int:
    code = _load(args.file, args.gen)
    s = summarize(code)
    if args.json:
        print(json.dumps(s, default=vars))
    else:
        print(_format_summary(s))
    return 0


def _cmd_plotkin(args: argparse.Namespace) -> int:
    c1 = _load(args.file_a, args.gen)
    c2 = _load(args.file_b, args.gen)
    _emit(format_code_file(plotkin_construct(c1, c2)), args.output)
    return 0


def _cmd_kernel(args: argparse.Namespace) -> int:
    code = _load(args.file, args.gen)
    k = kernel(code)
    text = f"# kernel n={k.n} dim={dim(k)} M={len(k)}\n"
    if not code.contains_zero():
        text += "# note: input lacks the zero word; kernel is not a subcode\n"
    _emit(text + _pack(k.n, k.bit_patterns), args.output)
    return 0


def _cmd_span(args: argparse.Namespace) -> int:
    code = _load(args.file, args.gen)
    basis = code_basis(code)
    text = format_basis_file(basis)
    if (1 << basis.dim) <= enumeration_cap():
        span = span_enumerate(basis)
        text += f"# enumeration M={len(span)}\n"
        text += _pack(span.n, span.bit_patterns)
    _emit(text, args.output)
    return 0


def _oracle_agrees(c1: Code, c2: Code, code: Code) -> tuple[bool, str]:
    """Cross-check the fast kernel, distance and span paths against the naive ones."""
    for label, c in (("first input", c1), ("second input", c2), ("construction", code)):
        # The kernel oracle makes up to 2^n + M^2 probes, as each x stops
        # at its first miss; the distance check's pair budget bounds M^2.
        if (
            c.n <= BRUTE_KERNEL_MAX_N
            and pair_count(c) <= BRUTE_DISTANCE_MAX_PAIRS
            and kernel(c) != kernel_bruteforce(c)
        ):
            return False, f"kernel mismatch against brute force on {label}"
        if 1 <= pair_count(c) <= BRUTE_DISTANCE_MAX_PAIRS and (
            min_distance(c) != distance_bruteforce(c)
        ):
            return False, f"distance mismatch against pair scan on {label}"
        rows = _code_rows(c)
        if 1 << len(rows) <= min(BRUTE_SPAN_MAX_WORDS, enumeration_cap()) and (
            _span_code(c.n, rows) != span_bruteforce(c)
        ):
            return False, f"span mismatch against closure on {label}"
    return True, ""


def _dump_bundle(
    directory: str, c1: Code, c2: Code, code: Code, report: PlotkinReport
) -> Path:
    """Write the inputs, the construction and the report to `directory`.

    report.json holds the report's fields and a `provenance` object: the
    plotkit version and the sha256 of each input file as written.
    """
    # Imported here: hashlib loads OpenSSL, which added about 3.7 MB to the
    # peak RSS of every plotkit process, and only a failing verify hashes.
    import hashlib

    bundle = Path(directory)
    bundle.mkdir(parents=True, exist_ok=True)
    hashes = {}
    for name, c in (("input_a.code", c1), ("input_b.code", c2)):
        data = format_code_file(c).encode()
        (bundle / name).write_bytes(data)
        hashes[name] = hashlib.sha256(data).hexdigest()
    (bundle / "constructed.code").write_text(format_code_file(code))
    record = {**vars(report), "provenance": {"version": __version__, "sha256": hashes}}
    text = json.dumps(record, indent=2, default=vars)
    (bundle / "report.json").write_text(text + "\n")
    return bundle


def _cmd_verify(args: argparse.Namespace) -> int:
    c1 = _load(args.file_a, args.gen)
    c2 = _load(args.file_b, args.gen)
    # Built and analysed once, for the report, the oracles and the bundle.
    code = plotkin_construct(c1, c2)
    report = _verify(c1, c2, code)

    oracle_ok, oracle_msg = True, ""
    if args.oracle:
        oracle_ok, oracle_msg = _oracle_agrees(c1, c2, code)

    if args.json:
        print(json.dumps(report, default=vars))
    else:
        print(f"hypothesis (zero word in both inputs): "
              f"{'yes' if report.hypothesis_ok else 'no'}")
        print(f"predicted  {_format_params(report.predicted)}")
        print(f"observed   {_format_params(report.observed)}")
        for field, label in CHECKS:
            print(f"{label:<27} {'pass' if getattr(report, field) else 'FAIL'}")
        if args.oracle:
            print(f"{'oracle cross-check':<27} {'pass' if oracle_ok else 'FAIL'}")

    if report.ok and oracle_ok:
        return 0
    if not oracle_ok:
        print(f"verification failed: {oracle_msg}", file=sys.stderr)
    else:
        failing = next(label for field, label in CHECKS if not getattr(report, field))
        print(f"verification failed: {failing}", file=sys.stderr)
    bundle = _dump_bundle(args.bundle_dir, c1, c2, code, report)
    print(f"counterexample bundle written to {bundle}", file=sys.stderr)
    return 1


def _cmd_family(args: argparse.Namespace) -> int:
    code = build_family(args.kind, tuple(args.params))
    _emit(format_code_file(code), args.output)
    return 0


def _cmd_random(args: argparse.Namespace) -> int:
    code = random_code(args.n, args.M, args.seed, include_zero=args.zero)
    _emit(format_code_file(code), args.output)
    return 0


# The least number of pairs worth a forked worker. A fork, a one-byte pipe
# round trip and a reap took 1.6 ms in a 20 MB process and 3.0 ms in a
# 75 MB one, and a pair at --max-n 12 about 0.28 ms (2 vCPUs, Python
# 3.11.7). So a chunk of 50 pairs, about 14 ms, outweighs its fork: two
# processes ran 100 pairs in 0.63 of one process's time, but 20 pairs in
# 1.12 of it.
_CORPUS_CHUNK = 50
# The most pairs in one chunk: a child holds its chunk's lines until the
# parent reads them, about 330 bytes a pair with --json, so longer runs go
# in rounds of at most this many pairs per CPU, each about 1.4 s of work.
_CORPUS_MAX_CHUNK = 5000


def _corpus_run(args: argparse.Namespace, first: int, last: int) -> int:
    """Verify pairs first..last of the corpus, printing one line each.

    Returns the number of failing pairs. Pair i draws five numbers from
    offset 5(i - 1) of the seed's SplitMix64 stream, so any chunk of pairs
    starts at its own offset with no draw before it.
    """
    stream = _splitmix64(args.seed + 5 * (first - 1) * _GAMMA)
    failures = 0
    for i in range(first, last + 1):
        n = 2 + next(stream) % (args.max_n - 1)
        bound = 1 << min(n, 5)
        m1 = 1 + next(stream) % bound
        m2 = 1 + next(stream) % bound
        c1 = random_code(n, m1, seed=next(stream), include_zero=True)
        c2 = random_code(n, m2, seed=next(stream), include_zero=True)
        report = verify_plotkin(c1, c2)
        if not report.ok:
            failures += 1
        if args.json:
            print(json.dumps(report, default=vars))
        else:
            flags = "".join(
                f"{'ok' if getattr(report, field) else 'FAIL':<5}"
                for field, _ in CHECKS
            )
            print(f"{i:>5} {n:>3} {m1:>4} {m2:>4}  {flags}"
                  f"{'yes' if report.ok else 'NO'}")
    return failures


def _fork_chunk(args: argparse.Namespace, first: int, last: int) -> tuple[int, int]:
    """Run pairs first..last in a forked child; return its pid and pipe.

    The child buffers its lines and sends (text, failures, exception or
    None) through the pipe. It leaves through os._exit whatever happens,
    so it never returns into the caller's stack.
    """
    # Imported here, as in _receive: pickle and its helpers added about
    # 0.3 MB to the peak RSS of every plotkit process, and only a forked
    # corpus run needs them.
    import pickle

    sys.stdout.flush()  # so that no child starts with a copy of unwritten text
    read, write = os.pipe()
    pid = os.fork()
    if pid:
        os.close(write)
        return pid, read
    try:
        out = io.StringIO()
        try:
            with contextlib.redirect_stdout(out):
                result = (_corpus_run(args, first, last), None)
        except BaseException as exc:  # sent to the parent, which re-raises it
            result = (0, exc)
        data = pickle.dumps((out.getvalue(), *result))  # all or nothing is sent
        with open(write, "wb") as pipe:
            pipe.write(data)
    finally:
        os._exit(0)


def _receive(read: int) -> tuple[str, int, BaseException | None]:
    """The text, failures and exception a forked chunk sent."""
    import pickle

    with open(read, "rb", closefd=False) as pipe:
        data = pipe.read()
    if not data:
        raise RuntimeError("a corpus worker exited without sending its result")
    return pickle.loads(data)


def _corpus_chunks(args: argparse.Namespace, first: int, last: int, cpus: int) -> int:
    """Verify pairs first..last in one contiguous chunk per CPU; return failures.

    Each chunk has at least _CORPUS_CHUNK pairs. Chunks after the first run
    in forked children (the CLI starts no thread, so forking is safe) while
    this process runs the first; their lines follow in chunk order, so the
    output is the same for any number of chunks. A child's exception is
    raised here after its lines, as one process would have raised it, and
    no child outlives the call.
    """
    w = max(1, min(cpus, (last - first + 1) // _CORPUS_CHUNK))
    ends = [first - 1 + (last - first + 1) * k // w for k in range(w + 1)]
    children: list[tuple[int, int]] = []
    try:
        for k in range(1, w):
            children.append(_fork_chunk(args, ends[k] + 1, ends[k + 1]))
        failures = _corpus_run(args, first, ends[1])
        for _, read in children:
            text, failed, exc = _receive(read)
            sys.stdout.write(text)
            if exc is not None:
                raise exc
            failures += failed
    finally:
        for pid, read in children:
            os.close(read)
            # A child that has sent its result has nothing left to do.
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
    return failures


def _cmd_corpus(args: argparse.Namespace) -> int:
    if args.pairs < 0:
        raise ValueError(f"--pairs must be at least 0, got {args.pairs}")
    if args.max_n < 2:
        raise ValueError(f"--max-n must be at least 2, got {args.max_n}")
    # The construction doubles the length, which must stay within the limit.
    half = core.MAX_LENGTH // 2
    if args.max_n > half:
        raise ValueError(f"--max-n must be at most {half}, got {args.max_n}")
    if not args.json:
        print(f"{'pair':>5} {'n':>3} {'M1':>4} {'M2':>4}  "
              f"{'ker':<5}{'span':<5}{'dims':<5}{'rank':<5}{'par':<5}ok")
    # The CPUs this process may run on; without an affinity call, one.
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
    step = cpus * _CORPUS_MAX_CHUNK
    failures = sum(
        _corpus_chunks(args, first, min(first + step - 1, args.pairs), cpus)
        for first in range(1, args.pairs + 1, step)
    )
    if not args.json:
        print(f"corpus: {args.pairs - failures}/{args.pairs} pairs ok "
              f"(seed={args.seed})")
    return 1 if failures else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="plotkit",
        description="Construct and analyze binary block codes under the "
        "(u|u+v) construction.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_gen(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--gen",
            action="store_true",
            help="treat input files as generator matrices (row space is the code)",
        )

    p = sub.add_parser("info", help="summarize a code file")
    p.add_argument("file")
    p.add_argument("--json", action="store_true", help="machine-readable output")
    add_gen(p)
    p.set_defaults(func=_cmd_info)

    p = sub.add_parser("plotkin", help="apply the (u|u+v) construction")
    p.add_argument("file_a")
    p.add_argument("file_b")
    p.add_argument("-o", "--output", required=True)
    add_gen(p)
    p.set_defaults(func=_cmd_plotkin)

    p = sub.add_parser("kernel", help="translation-invariance kernel of a code")
    p.add_argument("file")
    p.add_argument("-o", "--output")
    add_gen(p)
    p.set_defaults(func=_cmd_kernel)

    p = sub.add_parser("span", help="RREF basis (and enumeration) of the span")
    p.add_argument("file")
    p.add_argument("-o", "--output")
    add_gen(p)
    p.set_defaults(func=_cmd_span)

    p = sub.add_parser("verify", help="check construction structure on two codes")
    p.add_argument("file_a")
    p.add_argument("file_b")
    p.add_argument("--oracle", action="store_true",
                   help="also cross-check against the brute-force oracles")
    p.add_argument("--json", action="store_true", help="machine-readable report")
    p.add_argument("--bundle-dir", default="plotkin-counterexample",
                   help="where to write inputs and report on failure")
    add_gen(p)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("family", help="emit a named code family")
    p.add_argument("kind", choices=KINDS)
    p.add_argument("params", nargs="+",
                   help="kind-specific arguments (e.g. n; r m; n M seed)")
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=_cmd_family)

    p = sub.add_parser("random", help="emit a seeded random code")
    p.add_argument("-n", type=int, required=True, help="word length")
    p.add_argument("-M", type=int, required=True, help="number of codewords")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--zero", action="store_true", help="force the zero word in")
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=_cmd_random)

    p = sub.add_parser("corpus", help="verify a stream of seeded random pairs")
    p.add_argument("--pairs", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--max-n", type=int, required=True)
    p.add_argument("--json", action="store_true",
                   help="one report object per line instead of the table")
    p.set_defaults(func=_cmd_corpus)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """build_parser(), once per process: parsing leaves a parser unchanged."""
    return build_parser()


def cli_main(argv: list[str] | None = None) -> int:
    parser = _parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else 0
    try:
        enumeration_cap()  # a malformed cap is refused by every command
        return args.func(args)
    except (ParseError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(cli_main())


if __name__ == "__main__":
    main()
