"""CLI contract: subcommands, output formats, and the 0/1/2 exit codes."""

import hashlib
import json
import time
from dataclasses import asdict, fields, replace

import pytest
from strategies import code, w

import plotkit
import plotkit.cli as cli
import plotkit.core as core
from plotkit.cli import cli_main
from plotkit.codefile import format_code_file, parse_code_file
from plotkit.core import Code, Word
from plotkit.families import random_code, universe
from plotkit.plotkin import CHECKS, PlotkinReport, _verify, verify_plotkin


@pytest.fixture
def files(tmp_path):
    def write(name, c):
        path = tmp_path / name
        path.write_text(format_code_file(c))
        return str(path)

    return write


class TestInfo:
    def test_repeated_lines_are_one_warning_each(self, tmp_path, capsys):
        # Lines 3 and 5 repeat lines 1 and 2: each is dropped, and named
        # on stderr in file order, with no Python source location.
        path = tmp_path / "dup.code"
        path.write_text("01\n10\n01\n11\n10\n")
        assert cli_main(["info", str(path)]) == 0
        assert capsys.readouterr() == (
            "(2, 3, 1)  rank=2  ker=0  nonlinear\n",
            "warning: duplicate codeword 01 at line 3\n"
            "warning: duplicate codeword 10 at line 5\n",
        )

    def test_text_output(self, files, capsys):
        path = files("c.code", code("00", "01", "10"))
        assert cli_main(["info", path]) == 0
        assert capsys.readouterr().out.strip() == "(2, 3, 1)  rank=2  ker=0  nonlinear"

    def test_linear_text_output(self, files, capsys):
        path = files("c.code", code("00", "11"))
        assert cli_main(["info", path]) == 0
        assert capsys.readouterr().out.strip() == "[2, 1, 2]  rank=1  ker=1  linear"

    def test_json_output(self, files, capsys):
        path = files("c.code", code("00", "01", "10"))
        assert cli_main(["info", "--json", path]) == 0
        record = json.loads(capsys.readouterr().out)
        assert record == {
            "n": 2, "M": 3, "d": 1, "rank": 2, "ker_dim": 0, "is_linear": False,
        }

    def test_gen_input(self, tmp_path, capsys):
        path = tmp_path / "g.gen"
        path.write_text("11\n01\n")
        assert cli_main(["info", "--gen", str(path)]) == 0
        assert "[2, 2, 1]" in capsys.readouterr().out


class TestConstructionCommands:
    def test_plotkin_writes_canonical_file(self, files, tmp_path):
        a = files("a.code", code("00", "01", "10"))
        b = files("b.code", code("00", "11"))
        out = tmp_path / "c.code"
        assert cli_main(["plotkin", a, b, "-o", str(out)]) == 0
        assert parse_code_file(out.read_text()) == code(
            "0000", "0011", "0101", "0110", "1010", "1001"
        )

    def test_plotkin_of_zero_singletons(self, files, tmp_path):
        path = files("z.code", Code([Word.zero(3)]))
        out = tmp_path / "zz.code"
        assert cli_main(["plotkin", path, path, "-o", str(out)]) == 0
        assert out.read_text() == "# code n=6 M=1\n000000\n"

    def test_kernel_output(self, files, capsys):
        path = files("c.code", code("0000", "0011", "0101", "0110", "1010", "1001"))
        assert cli_main(["kernel", path]) == 0
        out = capsys.readouterr().out
        assert "dim=1" in out
        assert out.splitlines()[1:] == ["0000", "0011"]

    def test_kernel_notes_missing_zero_word(self, files, capsys):
        path = files("c.code", code("01", "10"))
        assert cli_main(["kernel", path]) == 0
        assert "not a subcode" in capsys.readouterr().out

    def test_span_output(self, files, capsys):
        path = files("c.code", code("0000", "0011", "0101", "0110", "1010", "1001"))
        assert cli_main(["span", path]) == 0
        out = capsys.readouterr().out
        assert "dim=3" in out
        assert "# enumeration M=8" in out

    def test_family_and_random(self, tmp_path, capsys):
        out = tmp_path / "f.code"
        assert cli_main(["family", "reed_muller", "1", "2", "-o", str(out)]) == 0
        assert len(parse_code_file(out.read_text())) == 8
        assert cli_main(
            ["random", "-n", "5", "-M", "6", "--seed", "3", "--zero", "-o", str(out)]
        ) == 0
        assert parse_code_file(out.read_text()) == random_code(
            5, 6, seed=3, include_zero=True
        )


class TestVerify:
    def test_passing_pair_exits_zero(self, files, capsys):
        a = files("a.code", code("00", "01", "10"))
        b = files("b.code", code("00", "11"))
        assert cli_main(["verify", a, b]) == 0
        out = capsys.readouterr().out
        assert out.count("pass") == 5
        assert "FAIL" not in out

    def test_json_mirrors_report_fields(self, files, capsys):
        a = files("a.code", code("00", "01", "10"))
        b = files("b.code", code("00", "11"))
        assert cli_main(["verify", "--json", a, b]) == 0
        record = json.loads(capsys.readouterr().out)
        expected = verify_plotkin(code("00", "01", "10"), code("00", "11"))
        assert record == asdict(expected)
        assert set(record) == {f.name for f in fields(PlotkinReport)}

    def test_oracle_mode_agrees(self, files, capsys):
        a = files("a.code", code("000", "011", "101"))
        b = files("b.code", code("000", "111"))
        assert cli_main(["verify", "--oracle", a, b]) == 0
        assert "oracle cross-check" in capsys.readouterr().out

    def test_oracle_mode_catches_a_wrong_distance(
        self, files, tmp_path, capsys, monkeypatch
    ):
        monkeypatch.setattr(cli, "min_distance", lambda c: 5)
        a = files("a.code", code("000", "011", "101"))
        b = files("b.code", code("000", "111"))
        bundle = ["--bundle-dir", str(tmp_path / "bundle")]
        assert cli_main(["verify", "--oracle", a, b, *bundle]) == 1
        captured = capsys.readouterr()
        assert "oracle cross-check          FAIL" in captured.out
        assert "distance mismatch against pair scan on first input" in captured.err

    def test_oracle_mode_catches_a_wrong_kernel(
        self, files, tmp_path, capsys, monkeypatch
    ):
        monkeypatch.setattr(cli, "kernel", lambda c: c)
        a = files("a.code", code("000", "011", "101"))
        b = files("b.code", code("000", "111"))
        bundle = ["--bundle-dir", str(tmp_path / "bundle")]
        assert cli_main(["verify", "--oracle", a, b, *bundle]) == 1
        captured = capsys.readouterr()
        assert "oracle cross-check          FAIL" in captured.out
        assert "kernel mismatch against brute force on first input" in captured.err

    def test_oracle_mode_catches_a_wrong_span(
        self, files, tmp_path, capsys, monkeypatch
    ):
        monkeypatch.setattr(cli, "_span_code", lambda n, rows: Code._from_bits(n, [0]))
        a = files("a.code", code("000", "011", "101"))
        b = files("b.code", code("000", "111"))
        bundle = ["--bundle-dir", str(tmp_path / "bundle")]
        assert cli_main(["verify", "--oracle", a, b, *bundle]) == 1
        captured = capsys.readouterr()
        assert "oracle cross-check          FAIL" in captured.out
        assert "span mismatch against closure on first input" in captured.err

    def test_oracle_mode_closes_no_span_over_2_to_the_11_words(
        self, files, capsys, record
    ):
        # Rank-6 inputs give a rank-12 construction, whose 4,096-word span
        # would take up to 2^24 sums to close: only the inputs are closed.
        closed = record(cli, "span_bruteforce")
        units = [1 << i for i in range(6)]
        a = files("a.code", Code._from_bits(6, [0, *units]))
        b = files("b.code", Code._from_bits(6, [0, *(u ^ 0b111111 for u in units)]))
        assert cli_main(["verify", "--oracle", a, b]) == 0
        assert "oracle cross-check          pass" in capsys.readouterr().out
        assert [call.args[0].n for call in closed] == [6, 6]

    def test_oracle_mode_scans_no_kernel_past_the_pair_budget(
        self, files, capsys, record
    ):
        # universe(7) with itself gives 16,384 words of length 14, whose
        # 134,209,536 pairs are past the distance check's budget: neither
        # the pair scan nor the 2^14 translations run on them, and the two
        # 128-word inputs are still checked.
        scanned = record(cli, "kernel_bruteforce")
        u = files("u.code", universe(7))
        start = time.perf_counter()
        assert cli_main(["verify", "--oracle", u, u]) == 0
        assert time.perf_counter() - start < 2
        assert "oracle cross-check          pass" in capsys.readouterr().out
        assert [len(call.args[0]) for call in scanned] == [128, 128]

    def test_oracle_mode_skips_a_span_over_the_cap(self, files, capsys, monkeypatch):
        # Under a cap of 64 words the rank-7 construction's span is neither
        # listed nor closed; the rank-4 and rank-3 inputs are still checked.
        monkeypatch.setenv("PLOTKIN_MAX_ENUM", "64")
        a = files("a.code", code("0000", "0011", "0101", "1001", "1110"))
        b = files("b.code", code("0000", "0111", "1011", "1101"))
        assert cli_main(["verify", "--oracle", a, b]) == 0
        assert "oracle cross-check          pass" in capsys.readouterr().out

    def test_out_of_hypothesis_exits_zero(self, files, capsys):
        a = files("a.code", code("01", "10"))
        b = files("b.code", code("00", "11"))
        assert cli_main(["verify", a, b]) == 0
        assert "hypothesis (zero word in both inputs): no" in capsys.readouterr().out

    def test_injected_violation_exits_one_with_bundle(
        self, files, tmp_path, capsys, monkeypatch
    ):
        # the factorization laws cannot be made to fail with real inputs,
        # so fake a failing report to exercise the failure path
        def doctored(c1, c2, built):
            return replace(_verify(c1, c2, built), theorem_i_holds=False)

        monkeypatch.setattr(cli, "_verify", doctored)
        a = files("a.code", code("00", "01", "10"))
        b = files("b.code", code("00", "11"))
        bundle = tmp_path / "bundle"
        assert cli_main(["verify", a, b, "--bundle-dir", str(bundle)]) == 1
        err = capsys.readouterr().err
        assert "kernel factorization" in err
        assert (bundle / "input_a.code").exists()
        assert (bundle / "constructed.code").exists()
        report = json.loads((bundle / "report.json").read_text())
        assert report["theorem_i_holds"] is False
        provenance = report.pop("provenance")
        assert set(report) == {f.name for f in fields(PlotkinReport)}
        assert provenance["version"] == plotkit.__version__
        assert provenance["sha256"] == {
            name: hashlib.sha256((bundle / name).read_bytes()).hexdigest()
            for name in ("input_a.code", "input_b.code")
        }


    @pytest.mark.parametrize("field, label", CHECKS)
    def test_a_failing_check_is_named(
        self, field, label, files, tmp_path, capsys, monkeypatch
    ):
        def doctored(c1, c2, built):
            return replace(_verify(c1, c2, built), **{field: False})

        monkeypatch.setattr(cli, "_verify", doctored)
        a = files("a.code", code("00", "01", "10"))
        b = files("b.code", code("00", "11"))
        bundle = str(tmp_path / "bundle")
        assert cli_main(["verify", a, b, "--bundle-dir", bundle]) == 1
        out, err = capsys.readouterr()
        assert "hypothesis (zero word in both inputs): yes" in out
        assert f"{label:<27} FAIL" in out
        assert err.splitlines()[0] == f"verification failed: {label}"


class TestFamily:
    def test_reed_muller_over_the_cap_exits_two_without_output(
        self, tmp_path, capsys, monkeypatch
    ):
        monkeypatch.setenv("PLOTKIN_MAX_ENUM", "4096")
        out = tmp_path / "rm.code"
        assert cli_main(["family", "reed_muller", "3", "8", "-o", str(out)]) == 2
        assert "over the enumeration cap of 4096" in capsys.readouterr().err
        assert not out.exists()

    def test_universe_over_the_length_limit_exits_two_without_output(
        self, tmp_path, capsys
    ):
        out = tmp_path / "uni.code"
        assert cli_main(["family", "universe", "4097", "-o", str(out)]) == 2
        assert "word length must be in 1..4096, got 4097" in capsys.readouterr().err
        assert not out.exists()

    def test_random_over_the_cap_exits_two_without_output(
        self, tmp_path, capsys, monkeypatch
    ):
        monkeypatch.setenv("PLOTKIN_MAX_ENUM", "100")
        out = tmp_path / "r.code"
        argv = ["random", "-n", "8", "-M", "101", "--seed", "1", "-o", str(out)]
        assert cli_main(argv) == 2
        assert "has 101 words, over the enumeration cap of 100" in (
            capsys.readouterr().err
        )
        assert not out.exists()

    def test_random_cardinality_error_writes_the_limit_as_a_power(
        self, tmp_path, capsys
    ):
        out = tmp_path / "r.code"
        argv = ["random", "-n", "4096", "-M", "0", "--seed", "1", "-o", str(out)]
        assert cli_main(argv) == 2
        err = capsys.readouterr().err
        assert "cardinality must be in 1..2^4096 - 1 for n=4096" in err
        assert len(err.encode()) < 200
        assert not out.exists()


class TestCorpus:
    def test_table_and_exit_zero(self, capsys):
        assert cli_main(["corpus", "--pairs", "4", "--seed", "9", "--max-n", "5"]) == 0
        out = capsys.readouterr().out
        assert "corpus: 4/4 pairs ok (seed=9)" in out

    def test_json_lines(self, capsys):
        assert cli_main(
            ["corpus", "--pairs", "3", "--seed", "9", "--max-n", "4", "--json"]
        ) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 3
        for line in lines:
            record = json.loads(line)
            assert record["hypothesis_ok"] is True
            assert record["theorem_i_holds"] is True

    def test_negative_pairs_are_refused(self, capsys):
        argv = ["corpus", "--pairs", "-5", "--seed", "1", "--max-n", "4"]
        assert cli_main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err == "error: --pairs must be at least 0, got -5\n"
        assert captured.out == ""

    def test_failures_are_counted(self, capsys, monkeypatch):
        real, calls = cli.verify_plotkin, []

        def second_fails(c1, c2):
            calls.append(1)
            report = real(c1, c2)
            return replace(report, params_hold=False) if len(calls) == 2 else report

        monkeypatch.setattr(cli, "verify_plotkin", second_fails)
        assert cli_main(["corpus", "--pairs", "3", "--seed", "9", "--max-n", "5"]) == 1
        assert "corpus: 2/3 pairs ok (seed=9)" in capsys.readouterr().out

    def test_max_n_validation(self, capsys):
        assert cli_main(["corpus", "--pairs", "1", "--seed", "1", "--max-n", "1"]) == 2

    def test_max_n_over_the_length_limit(self, capsys):
        argv = ["corpus", "--pairs", "1", "--seed", "1", "--max-n", "4097"]
        assert cli_main(argv) == 2
        assert "--max-n must be at most 2048, got 4097" in capsys.readouterr().err

    def test_max_n_over_half_the_length_limit_prints_nothing(self, capsys):
        # (u|u+v) doubles n, so a length-4096 input could not be built on.
        argv = ["corpus", "--pairs", "3", "--seed", "1", "--max-n", "4096"]
        assert cli_main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: --max-n must be at most 2048, got 4096\n"

    def test_max_n_reads_the_length_limit_at_call_time(self, capsys, monkeypatch):
        # core.MAX_LENGTH may be rebound; the check must not keep the old value.
        monkeypatch.setattr(core, "MAX_LENGTH", 8)
        argv = ["corpus", "--pairs", "1", "--seed", "1", "--max-n", "9"]
        assert cli_main(argv) == 2
        assert "--max-n must be at most 4, got 9" in capsys.readouterr().err


class TestUsageErrors:
    def test_unknown_subcommand(self, capsys):
        assert cli_main(["frobnicate"]) == 2

    def test_unknown_flag(self, capsys):
        assert cli_main(["info", "--wat", "x.code"]) == 2

    def test_missing_file(self, capsys):
        assert cli_main(["info", "definitely-not-here.code"]) == 2

    def test_parse_error_names_line(self, tmp_path, capsys):
        path = tmp_path / "bad.code"
        path.write_text("01\n0x\n")
        assert cli_main(["info", str(path)]) == 2
        assert "line 2" in capsys.readouterr().err

    def test_family_arity_error(self, tmp_path, capsys):
        out = tmp_path / "o.code"
        assert cli_main(["family", "repetition", "2", "3", "-o", str(out)]) == 2
        capsys.readouterr()
        assert cli_main(["family", "reed_muller", "2", "-o", str(out)]) == 2
        err = capsys.readouterr().err
        assert err == "error: reed_muller takes two arguments (r, m), got 1\n"
        assert not out.exists()

    @pytest.mark.parametrize("flag", ["7", "-1", "2"])
    def test_random_family_zero_flag_is_0_or_1(self, flag, tmp_path, capsys):
        out = tmp_path / "r.code"
        argv = ["family", "random", "4", "3", "1", flag, "-o", str(out)]
        assert cli_main(argv) == 2
        err = capsys.readouterr().err
        assert err == f"error: random's include_zero must be 0 or 1, got {flag}\n"
        assert not out.exists()

    def test_no_arguments(self):
        assert cli_main([]) == 2

    @pytest.mark.parametrize(
        ("raw", "argv"),
        [
            pytest.param("abc", ["family", "universe", "3", "-o", "u.code"], id="abc"),
            pytest.param("0", ["family", "universe", "3", "-o", "u.code"], id="0"),
            # these never reach a cap check of their own
            pytest.param(
                "abc",
                ["family", "repetition", "3", "-o", "u.code"],
                id="abc-repetition",
            ),
            pytest.param("abc", ["info", "z.code"], id="abc-info"),
            pytest.param("abc", ["kernel", "z.code"], id="abc-kernel"),
        ],
    )
    def test_bad_enumeration_cap_is_named(
        self, raw, argv, files, tmp_path, capsys, monkeypatch
    ):
        files("z.code", code("00", "11"))
        monkeypatch.chdir(tmp_path)
        monkeypatch.setenv("PLOTKIN_MAX_ENUM", raw)
        assert cli_main(argv) == 2
        message = f"PLOTKIN_MAX_ENUM must be a positive integer, got {raw!r}"
        assert capsys.readouterr() == ("", f"error: {message}\n")
        assert not (tmp_path / "u.code").exists()

    @pytest.mark.parametrize(
        "argv",
        [[], ["--help"], ["verify", "-h"], ["corpus", "--help"], ["frobnicate"],
         ["verify", "a.code"], ["random", "-n", "x", "-M", "1", "--seed", "1"]],
    )
    def test_the_shared_parser_answers_as_a_new_one(self, argv, capsys):
        # cli_main parses with one parser per process; build_parser still
        # returns a new one, which prints the same help and errors.
        assert cli._parser() is cli._parser()
        assert cli.build_parser() is not cli.build_parser()
        for _ in range(2):
            rc = cli_main(argv)
            shared = rc, capsys.readouterr()
            with pytest.raises(SystemExit) as exc:
                cli.build_parser().parse_args(argv)
            assert shared == (exc.value.code, capsys.readouterr())
