"""Acceptance gate: every release criterion, one printed pass/fail line each.

All arithmetic is over GF(2); every comparison is exact. The corpora are
seeded, so failures reproduce; any factorization failure also dumps the
offending pair as files.
"""

import time
from dataclasses import replace
from math import comb

import pytest
from strategies import code, w

import plotkit.cli as cli
from plotkit.cli import cli_main
from plotkit.codefile import format_code_file, parse_code_file
from plotkit.core import Word
from plotkit.families import (
    _splitmix64,
    parity,
    random_code,
    reed_muller,
)
from plotkit.gf2 import rref, span_enumerate
from plotkit.invariants import is_linear, kernel, min_distance, rank, summarize
from plotkit.oracle import kernel_bruteforce, span_bruteforce
from plotkit.plotkin import (
    CodeParams,
    _verify,
    plotkin_construct,
    span_direct,
    verify_plotkin,
)


def report_line(name, ok, detail=""):
    tail = f" {detail}" if detail else ""
    print(f"ACCEPTANCE {name}: {'PASS' if ok else 'FAIL'}{tail}")
    assert ok, f"{name}{tail}"


def dump_pair(tmp_path, idx, c1, c2):
    directory = tmp_path / f"counterexample-{idx}"
    directory.mkdir(parents=True, exist_ok=True)
    (directory / "input_a.code").write_text(format_code_file(c1))
    (directory / "input_b.code").write_text(format_code_file(c2))
    return directory


@pytest.fixture(scope="session")
def theorem_corpus():
    """200 seeded pairs, n in 2..8, sizes up to 64, zero word forced in."""
    stream = _splitmix64(0x51EC7)
    pairs = []
    for _ in range(200):
        n = 2 + next(stream) % 7
        bound = min(1 << n, 64)
        m1 = 1 + next(stream) % bound
        m2 = 1 + next(stream) % bound
        pairs.append(
            (
                random_code(n, m1, seed=next(stream), include_zero=True),
                random_code(n, m2, seed=next(stream), include_zero=True),
            )
        )
    return pairs


@pytest.fixture(scope="session")
def measurement_corpus():
    """500 seeded codes, n in 2..10, half without the zero word."""
    stream = _splitmix64(0x0AC1E)
    codes = []
    for i in range(500):
        n = 2 + next(stream) % 9
        include_zero = i % 2 == 0
        bound = min((1 << n) - (not include_zero), 12)
        m = 1 + next(stream) % bound
        codes.append(random_code(n, m, seed=next(stream), include_zero=include_zero))
    return codes


def test_criterion_1_kernel_factorization(theorem_corpus, tmp_path):
    start = time.perf_counter()
    failures = []
    for idx, (c1, c2) in enumerate(theorem_corpus):
        constructed = plotkin_construct(c1, c2)
        if kernel(constructed) != plotkin_construct(kernel(c1), kernel(c2)):
            failures.append(dump_pair(tmp_path, idx, c1, c2))
    elapsed = time.perf_counter() - start
    report_line(
        "1 kernel factorization equality on 200 pairs",
        not failures and elapsed < 10.0,
        f"({elapsed:.2f}s)" if not failures else f"counterexamples: {failures}",
    )


def test_criterion_2_span_factorization(theorem_corpus, tmp_path):
    failures = []
    for idx, (c1, c2) in enumerate(theorem_corpus):
        constructed = plotkin_construct(c1, c2)
        direct = span_direct(rref(c1.words), rref(c2.words))
        if rref(constructed.words) != direct:
            failures.append(dump_pair(tmp_path, idx, c1, c2))
    report_line(
        "2 span factorization equality on 200 pairs",
        not failures,
        "" if not failures else f"counterexamples: {failures}",
    )


def test_criterion_3_dimension_additivity(theorem_corpus, tmp_path):
    failures = []
    for idx, (c1, c2) in enumerate(theorem_corpus):
        constructed = plotkin_construct(c1, c2)
        ker_ok = (
            len(kernel(constructed)).bit_length() - 1
            == (len(kernel(c1)).bit_length() - 1) + (len(kernel(c2)).bit_length() - 1)
        )
        rank_ok = rank(constructed) == rank(c1) + rank(c2)
        if not (ker_ok and rank_ok):
            failures.append(dump_pair(tmp_path, idx, c1, c2))
    report_line(
        "3 kernel-dimension and rank additivity on 200 pairs",
        not failures,
        "" if not failures else f"counterexamples: {failures}",
    )


def test_criterion_4_parameter_bullets():
    stream = _splitmix64(0x4B1D)
    linear_ok = True
    for _ in range(50):
        n = 2 + next(stream) % 9
        rows1 = [Word(n, 1 + next(stream) % ((1 << n) - 1))
                 for _ in range(1 + next(stream) % 5)]
        rows2 = [Word(n, 1 + next(stream) % ((1 << n) - 1))
                 for _ in range(1 + next(stream) % 5)]
        c1 = span_enumerate(rref(rows1))
        c2 = span_enumerate(rref(rows2))
        constructed = plotkin_construct(c1, c2)
        s = summarize(constructed)
        linear_ok &= s.is_linear
        linear_ok &= s.n == 2 * n
        linear_ok &= s.rank == rank(c1) + rank(c2)
        linear_ok &= s.d == min(2 * min_distance(c1), min_distance(c2))

    nonlinear_sizes = (3, 5, 6, 7, 9, 10, 11, 12)
    nonlinear_ok = True
    for i in range(50):
        n = 4 + next(stream) % 5
        m1 = nonlinear_sizes[next(stream) % len(nonlinear_sizes)]
        m2 = nonlinear_sizes[next(stream) % len(nonlinear_sizes)]
        c1 = random_code(n, m1, seed=next(stream), include_zero=i % 2 == 0)
        c2 = random_code(n, m2, seed=next(stream), include_zero=i % 3 == 0)
        nonlinear_ok &= not is_linear(c1) and not is_linear(c2)
        constructed = plotkin_construct(c1, c2)
        nonlinear_ok &= len(constructed) == m1 * m2
        nonlinear_ok &= min_distance(constructed) == min(
            2 * min_distance(c1), min_distance(c2)
        )
    report_line(
        "4 parameter formulas on 50 linear and 50 nonlinear pairs",
        linear_ok and nonlinear_ok,
    )


def test_criterion_5_oracle_equivalence(measurement_corpus):
    start = time.perf_counter()
    kernel_mismatches = sum(
        1 for c in measurement_corpus if kernel(c) != kernel_bruteforce(c)
    )
    span_mismatches = sum(
        1
        for c in measurement_corpus
        if span_enumerate(rref(c.words)) != span_bruteforce(c)
    )
    elapsed = time.perf_counter() - start
    report_line(
        "5 fast kernel/span agree with brute force on 500 codes",
        kernel_mismatches == 0 and span_mismatches == 0 and elapsed < 30.0,
        f"({elapsed:.2f}s, {kernel_mismatches}+{span_mismatches} mismatches)",
    )


def test_criterion_6_family_cross_checks():
    ok = True
    rm12 = reed_muller(1, 2)
    s12 = summarize(rm12)
    ok &= (s12.n, s12.rank, s12.d, s12.is_linear) == (4, 3, 2, True)
    ok &= rm12 == parity(4)
    s13 = summarize(reed_muller(1, 3))
    ok &= (s13.n, s13.rank, s13.d, s13.is_linear) == (8, 4, 4, True)
    for m in range(1, 5):
        for r in range(0, m + 1):
            rm = reed_muller(r, m)
            ok &= is_linear(rm)
            ok &= rank(rm) == sum(comb(m, i) for i in range(r + 1))
            ok &= min_distance(rm) == 1 << (m - r)
    report_line("6 family parameters match the classical formulas", ok)


def test_criterion_7_worked_example(tmp_path):
    c1, c2 = code("00", "01", "10"), code("00", "11")
    constructed = plotkin_construct(c1, c2)
    report = verify_plotkin(c1, c2)
    ok = report.observed == CodeParams(
        length=4, size=6, distance=2, rank=3, kernel_dim=1
    )
    ok &= kernel(constructed) == code("0000", "0011")
    ok &= kernel_bruteforce(constructed) == code("0000", "0011")
    ok &= report.hypothesis_ok and report.all_checks_hold
    a = tmp_path / "a.code"
    b = tmp_path / "b.code"
    a.write_text(format_code_file(c1))
    b.write_text(format_code_file(c2))
    ok &= cli_main(["verify", str(a), str(b)]) == 0
    report_line("7 worked example regression (exit code 0)", ok)


def test_criterion_8_cli_contract(theorem_corpus, tmp_path, monkeypatch):
    round_trip_ok = all(
        parse_code_file(format_code_file(c)) == c
        for pair in theorem_corpus
        for c in pair
    )

    a = tmp_path / "a.code"
    b = tmp_path / "b.code"
    a.write_text(format_code_file(code("00", "01", "10")))
    b.write_text(format_code_file(code("00", "11")))
    exit_ok = cli_main(["verify", str(a), str(b)]) == 0
    exit_ok &= cli_main(["verify", str(a)]) == 2
    exit_ok &= cli_main(["verify", str(a), "missing.code"]) == 2

    def doctored(c1, c2, built):
        return replace(_verify(c1, c2, built), corollary_ii_holds=False)

    monkeypatch.setattr(cli, "_verify", doctored)
    exit_ok &= (
        cli_main(
            ["verify", str(a), str(b), "--bundle-dir", str(tmp_path / "bundle")]
        )
        == 1
    )
    monkeypatch.undo()

    # oracle mode agrees with the fast mode on a corpus kept small enough
    # for the quadratic closure oracle
    stream = _splitmix64(0x0C11)
    oracle_ok = True
    for i in range(40):
        n = 2 + next(stream) % 4
        bound = min(1 << n, 16)
        c1 = random_code(n, 1 + next(stream) % bound, seed=next(stream),
                         include_zero=True)
        c2 = random_code(n, 1 + next(stream) % bound, seed=next(stream),
                         include_zero=True)
        fa = tmp_path / f"oracle-a-{i}.code"
        fb = tmp_path / f"oracle-b-{i}.code"
        fa.write_text(format_code_file(c1))
        fb.write_text(format_code_file(c2))
        oracle_ok &= cli_main(["verify", "--oracle", str(fa), str(fb)]) == 0

    report_line(
        "8 CLI contract (round trip, exit codes, oracle mode)",
        round_trip_ok and exit_ok and oracle_ok,
    )
