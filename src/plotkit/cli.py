"""Command-line interface: build, inspect, and verify (u|u+v) codes.

Exit codes: 0 on success, 1 when a structural check fails on inputs that
satisfy the zero-word hypothesis (or an oracle cross-check disagrees),
2 for usage and input errors.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict
from pathlib import Path

from .codefile import (
    ParseError,
    code_lines,
    format_basis_file,
    format_code_file,
    parse_code_file,
    parse_gen_file,
)
from . import core
from .core import Code
from .families import KINDS, _splitmix64, build_family, random_code
from .gf2 import code_basis, enumeration_cap, span_enumerate
from .invariants import CodeSummary, dim, kernel, summarize
from .oracle import BRUTE_KERNEL_MAX_N, kernel_bruteforce, span_bruteforce
from .plotkin import (
    CodeParams,
    PlotkinReport,
    _verify,
    plotkin_construct,
    verify_plotkin,
)

_CLAUSES = (
    ("theorem_i_holds", "kernel factorization"),
    ("theorem_ii_holds", "span factorization"),
    ("corollary_i_holds", "kernel dimension additivity"),
    ("corollary_ii_holds", "rank additivity"),
    ("params_hold", "parameter prediction"),
)


def _load(path: str, as_gen: bool) -> Code:
    text = Path(path).read_text()
    return parse_gen_file(text) if as_gen else parse_code_file(text)


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
        print(json.dumps(asdict(s)))
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
    lines = [f"# kernel n={k.n} dim={dim(k)} M={len(k)}"]
    if not code.contains_zero():
        lines.append("# note: input lacks the zero word; kernel is not a subcode")
    lines.extend(code_lines(k))
    _emit("\n".join(lines) + "\n", args.output)
    return 0


def _cmd_span(args: argparse.Namespace) -> int:
    code = _load(args.file, args.gen)
    basis = code_basis(code)
    text = format_basis_file(basis)
    if (1 << basis.dim) <= enumeration_cap():
        span = span_enumerate(basis)
        text += f"# enumeration M={len(span)}\n"
        text += "".join(f"{line}\n" for line in code_lines(span))
    _emit(text, args.output)
    return 0


def _oracle_agrees(c1: Code, c2: Code, code: Code) -> tuple[bool, str]:
    """Cross-check the fast kernel and span paths against the naive ones."""
    for label, c in (("first input", c1), ("second input", c2), ("construction", code)):
        if c.n <= BRUTE_KERNEL_MAX_N and kernel(c) != kernel_bruteforce(c):
            return False, f"kernel mismatch against brute force on {label}"
        if span_enumerate(code_basis(c)) != span_bruteforce(c):
            return False, f"span mismatch against closure on {label}"
    return True, ""


def _dump_bundle(
    directory: str, c1: Code, c2: Code, code: Code, report: PlotkinReport
) -> Path:
    bundle = Path(directory)
    bundle.mkdir(parents=True, exist_ok=True)
    (bundle / "input_a.code").write_text(format_code_file(c1))
    (bundle / "input_b.code").write_text(format_code_file(c2))
    (bundle / "constructed.code").write_text(format_code_file(code))
    (bundle / "report.json").write_text(json.dumps(asdict(report), indent=2) + "\n")
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
        print(json.dumps(asdict(report)))
    else:
        print(f"hypothesis (zero word in both inputs): "
              f"{'yes' if report.hypothesis_ok else 'no'}")
        print(f"predicted  {_format_params(report.predicted)}")
        print(f"observed   {_format_params(report.observed)}")
        for field, label in _CLAUSES:
            print(f"{label:<27} {'pass' if getattr(report, field) else 'FAIL'}")
        if args.oracle:
            print(f"{'oracle cross-check':<27} {'pass' if oracle_ok else 'FAIL'}")

    if report.ok and oracle_ok:
        return 0
    if not oracle_ok:
        print(f"verification failed: {oracle_msg}", file=sys.stderr)
    else:
        failing = next(
            label for field, label in _CLAUSES if not getattr(report, field)
        )
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


def _cmd_corpus(args: argparse.Namespace) -> int:
    if args.max_n < 2:
        raise ValueError(f"--max-n must be at least 2, got {args.max_n}")
    if args.max_n > core.MAX_LENGTH:
        raise ValueError(f"--max-n must be at most {core.MAX_LENGTH}, got {args.max_n}")
    stream = _splitmix64(args.seed)
    failures = 0
    if not args.json:
        print(f"{'pair':>5} {'n':>3} {'M1':>4} {'M2':>4}  "
              f"{'ker':<5}{'span':<5}{'dims':<5}{'rank':<5}{'par':<5}ok")
    for i in range(1, args.pairs + 1):
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
            print(json.dumps(asdict(report)))
        else:
            flags = "".join(
                f"{'ok' if getattr(report, field) else 'FAIL':<5}"
                for field, _ in _CLAUSES
            )
            print(f"{i:>5} {n:>3} {m1:>4} {m2:>4}  {flags}"
                  f"{'yes' if report.ok else 'NO'}")
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


def cli_main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else 0
    try:
        return args.func(args)
    except (ParseError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(cli_main())


if __name__ == "__main__":
    main()
