"""CLI contract: subcommands, output formats, and the 0/1/2 exit codes."""

import json
from dataclasses import asdict, fields, replace

import pytest

import plotkit.cli as cli
import plotkit.core as core
from plotkit.cli import cli_main
from plotkit.codefile import format_code_file, parse_code_file
from plotkit.core import Word, code_from_words
from plotkit.families import random_code
from plotkit.plotkin import PlotkinReport, _verify, verify_plotkin


def w(s):
    return Word.from_string(s)


def code(*strings):
    return code_from_words([w(s) for s in strings])


@pytest.fixture
def files(tmp_path):
    def write(name, c):
        path = tmp_path / name
        path.write_text(format_code_file(c))
        return str(path)

    return write


class TestInfo:
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
        path = files("z.code", code_from_words([Word.zero(3)]))
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

    def test_max_n_validation(self, capsys):
        assert cli_main(["corpus", "--pairs", "1", "--seed", "1", "--max-n", "1"]) == 2

    def test_max_n_over_the_length_limit(self, capsys):
        argv = ["corpus", "--pairs", "1", "--seed", "1", "--max-n", "4097"]
        assert cli_main(argv) == 2
        assert "--max-n must be at most 4096, got 4097" in capsys.readouterr().err

    def test_max_n_reads_the_length_limit_at_call_time(self, capsys, monkeypatch):
        # core.MAX_LENGTH may be rebound; the check must not keep the old value.
        monkeypatch.setattr(core, "MAX_LENGTH", 8)
        argv = ["corpus", "--pairs", "1", "--seed", "1", "--max-n", "9"]
        assert cli_main(argv) == 2
        assert "--max-n must be at most 8, got 9" in capsys.readouterr().err


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

    def test_family_arity_error(self, tmp_path):
        out = tmp_path / "o.code"
        assert cli_main(["family", "repetition", "2", "3", "-o", str(out)]) == 2

    def test_no_arguments(self):
        assert cli_main([]) == 2

    @pytest.mark.parametrize("raw", ["abc", "0"])
    def test_bad_enumeration_cap_is_named(self, raw, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("PLOTKIN_MAX_ENUM", raw)
        out = tmp_path / "u.code"
        assert cli_main(["family", "universe", "3", "-o", str(out)]) == 2
        message = f"PLOTKIN_MAX_ENUM must be a positive integer, got {raw!r}"
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()
