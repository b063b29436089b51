import hashlib
import json

import numpy as np
import pytest

from sigmaconics import census, cli
from sigmaconics.cli import main
from sigmaconics.projective import ProjectiveSpace


def run_cli(args, capsys):
    code = main(args)
    out = capsys.readouterr().out
    return code, [json.loads(line) for line in out.splitlines() if line]


def test_classify_identity_pg2_4(capsys):
    code, recs = run_cli(["classify", "--p", "2", "--n", "2", "--m", "1",
                          "--matrix", "1", "0", "0", "0", "1", "0", "0", "0", "1"],
                         capsys)
    assert code == 0
    header, rec = recs
    assert header["record"] == "header" and header["modulus"] == [1, 1, 1]
    assert rec["kind"] == "kestenband_nondegenerate" and rec["absolute"] == 9


def test_classify_rank1(capsys):
    code, recs = run_cli(["classify", "--p", "2", "--n", "3", "--m", "1",
                          "--matrix", "0", "0", "1", "0", "0", "0", "0", "0", "0"],
                         capsys)
    assert code == 0
    assert recs[1]["kind"] == "union_two_lines"


def test_classify_line_form(capsys):
    code, recs = run_cli(["classify", "--p", "2", "--n", "3", "--m", "1",
                          "--matrix", "0", "1", "0", "0"], capsys)
    assert code == 0
    assert recs[1]["kind"] == "two_points"


def test_gcd_violation_exits_2(capsys):
    code = main(["classify", "--p", "2", "--n", "4", "--m", "2",
                 "--matrix", "1", "0", "0", "0", "1", "0", "0", "0", "1"])
    assert code == 2


def test_bad_matrix_length_exits_2(capsys):
    code = main(["classify", "--p", "2", "--n", "2", "--m", "1",
                 "--matrix", "1", "2", "3"])
    assert code == 2


def test_census_diagonal(capsys):
    code, recs = run_cli(["census", "--p", "2", "--n", "2", "--m", "1",
                          "--mode", "exhaustive", "--scope", "diagonal"], capsys)
    assert code == 0
    assert recs[-1]["histogram"] == {"3": 6, "9": 3}


def test_census_random_requires_seed(capsys):
    code = main(["census", "--p", "2", "--n", "2", "--m", "1",
                 "--mode", "random", "--count", "10"])
    assert code == 2


def test_census_random_bytes_deterministic(tmp_path):
    args = ["census", "--p", "3", "--n", "2", "--m", "1", "--mode", "random",
            "--count", "100", "--seed", "41", "--records", "5"]
    p1, p2 = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    assert main(args + ["--out", str(p1)]) == 0
    assert main(args + ["--out", str(p2)]) == 0
    assert p1.read_bytes() == p2.read_bytes()


def test_census_cap_exits_4(capsys):
    code = main(["census", "--p", "3", "--n", "3", "--m", "1",
                 "--mode", "exhaustive", "--scope", "gl"])
    assert code == 4


def test_census_cap_names_the_index_count(capsys):
    """The exhaustive budget is checked before any batch: Q = 25 exits 4 and
    says how many torus indices the sweep would need, against which cap."""
    code = main(["census", "--p", "5", "--n", "2", "--scope", "gl"])
    captured = capsys.readouterr()
    assert code == 4 and captured.out == ""
    assert captured.err == ("error: exhaustive census beyond the matrix budget: "
                            "2.1e+08 torus indices, cap 1e+08; use random sampling\n")


def test_census_random_pg2_49(capsys):
    """A random census of PG(2,49), an odd-p plane over an extension, runs
    clean within the kernel budget."""
    code, recs = run_cli(["census", "--p", "7", "--n", "2", "--mode", "random",
                          "--count", "200", "--seed", "1"], capsys)
    assert code == 0
    assert recs[-1]["total"] == 200 and recs[-1]["violations"] == 0


@pytest.mark.parametrize("args, lines", [
    (["classify", "--p", "2", "--n", "1", "--matrix", "1", "1", "0", "0", "0",
      "1", "0", "1", "0"], 2),
    (["classify", "--p", "3", "--n", "1", "--matrix", "1", "0", "0", "0", "0",
      "1", "0", "2", "0"], 1),
], ids=["x0(x0+x1)", "x0^2"])
def test_classify_invertible_conic_with_lines_at_n1(args, lines, capsys):
    """At n = 1 sigma is the identity, so an invertible form may have a
    quadratic form x^T A x that is a product of lines: no violation."""
    code, recs = run_cli(args, capsys)
    assert code == 0
    rec = recs[1]
    assert rec["rank"] == 3 and rec["violations"] == []
    assert rec["spectrum"][str(int(args[2]) + 1)] == lines


def test_census_records_at_n1_flag_no_line(capsys):
    code, recs = run_cli(["census", "--p", "2", "--n", "1", "--mode", "random",
                          "--count", "5", "--seed", "1", "--records", "5"], capsys)
    assert code == 0
    assert recs[-1]["total"] == 5 and recs[-1]["violations"] == 0
    # full lines of PG(1,2), 3 points each, in some invertible records
    assert any("3" in rec["spectrum"] for rec in recs if rec["record"] == "matrix")


def test_census_random_past_kernel_budget_exits_4(capsys):
    code = main(["census", "--p", "13", "--n", "2", "--mode", "random",
                 "--count", "10", "--seed", "1"])
    assert code == 4
    err = capsys.readouterr().err
    assert "64 MiB kernel budget" in err and "PG(2,169)" in err


@pytest.mark.parametrize("args", [
    ["census", "--mode", "random", "--count", "1000000", "--seed", "1"],
    ["steiner-check", "--count", "1000000", "--seed", "1"],
    ["census", "--mode", "exhaustive", "--scope", "diagonal"],
], ids=["random", "steiner-check", "diagonal"])
def test_streamed_census_past_kernel_budget_exits_4(args, capsys):
    """PG(2,157) is refused before any sample is drawn: exit 4, no report."""
    code = main([args[0], "--p", "157", "--n", "1", *args[1:]])
    out, err = capsys.readouterr()
    assert code == 4 and out == ""
    assert "64 MiB kernel budget" in err and "PG(2,157)" in err


def test_census_records_past_dense_incidence(capsys):
    """Records list the lines of PG(2,89) without the dense incidence, whose
    cap made this command exit 2."""
    code, recs = run_cli(["census", "--p", "89", "--n", "1", "--mode", "random",
                          "--count", "5", "--seed", "1", "--records", "1"], capsys)
    assert code == 0
    assert recs[-1]["total"] == 5 and recs[-1]["violations"] == 0


def _classify_identity(p: int) -> int:
    return main(["classify", "--p", str(p), "--n", "1",
                 "--matrix", "1", "0", "0", "0", "1", "0", "0", "0", "1"])


def test_classify_past_line_list_budget_exits_4(capsys):
    """A plane record takes its line spectrum from the line-count tables,
    so `classify` stops at the kernel budget, not at the line-list one."""
    assert _classify_identity(163) == 4
    err = capsys.readouterr().err
    assert ("line-count tables for PG(2,163) need 75 MiB, beyond the "
            "64 MiB kernel budget") in err


def test_classify_stops_where_every_census_does(capsys):
    """PG(2,151) is the largest plane whose line-count tables fit the
    kernel budget; PG(2,157), the next prime plane, exits 4."""
    assert _classify_identity(157) == 4
    err = capsys.readouterr().err
    assert ("line-count tables for PG(2,157) need 67 MiB, beyond the "
            "64 MiB kernel budget") in err


def test_classify_past_point_budget_exits_4(capsys):
    """PG(2,2371) is the first prime plane whose point array passes the
    budget (PG(2,2357) fits); it is refused before any point is built."""
    code = main(["classify", "--p", "2371", "--n", "1",
                 "--matrix", "1", "0", "0", "0", "1", "0", "0", "0", "1"])
    assert code == 4
    err = capsys.readouterr().err
    assert "64 MiB point-array budget" in err and "PG(2,2371)" in err


def test_field_order_cap_exits_4(capsys):
    code = main(["classify", "--p", "2", "--n", "21",
                 "--matrix", "1", "0", "0", "0", "1", "0", "0", "0", "1"])
    assert code == 4
    assert "field order 2097152 exceeds the order cap" in capsys.readouterr().err


def test_census_csv_summary(tmp_path):
    out = tmp_path / "summary.csv"
    assert main(["census", "--p", "2", "--n", "2", "--m", "1", "--mode",
                 "exhaustive", "--scope", "diagonal", "--format", "csv",
                 "--out", str(out)]) == 0
    text = out.read_text()
    assert "histogram,3,6" in text and "histogram,9,3" in text


def test_mrd_pipeline(tmp_path, capsys):
    code_file = tmp_path / "code.jsonl"
    code, recs = run_cli(["mrd", "--p", "3", "--n", "3", "--m", "1",
                          "--T", "1", "--code-out", str(code_file)], capsys)
    assert code == 0
    summary = recs[-1]
    assert summary["code_size"] == 729
    assert summary["min_rank_distance"] == 2
    assert summary["meets_bound"] and not summary["linear"]
    lines = code_file.read_text().splitlines()
    assert len(lines) == 730                      # header + codewords
    first = json.loads(lines[1])
    assert first["entries"] == [0] * 9


def test_mrd_bytes_pinned(tmp_path, capsys):
    """The exported code of T = {1} and the report of T = {1, 2}, byte for
    byte: the exterior-set constructions and the code reduction behind
    them."""
    code_file = tmp_path / "code.jsonl"
    assert main(["mrd", "--p", "3", "--n", "3", "--T", "1",
                 "--code-out", str(code_file)]) == 0
    assert hashlib.sha256(code_file.read_bytes()).hexdigest() == (
        "577309405423b25d17db39978e9e99e1ff0e7562e568c0dd0cd448918e53b662")
    capsys.readouterr()
    assert main(["mrd", "--p", "3", "--n", "3", "--T", "1", "2"]) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == (
        "10896f0b90baae6c47a4cb6b665b9fa013f288bbcdbd658a1b419b2a1b1776f9")


def test_mrd_requires_one_in_t(capsys):
    assert main(["mrd", "--p", "3", "--n", "3", "--m", "1", "--T", "2"]) == 2


def test_mrd_hypotheses(capsys):
    assert main(["mrd", "--p", "2", "--n", "3", "--m", "1"]) == 2


def test_steiner_check_explicit(capsys):
    code, recs = run_cli(["steiner-check", "--p", "2", "--n", "3", "--m", "1",
                          "--matrix", "0", "0", "1", "0", "1", "0", "0", "0", "0"],
                         capsys)
    assert code == 0 and recs[1]["match"] is True


def test_steiner_check_random(capsys):
    code, recs = run_cli(["steiner-check", "--p", "3", "--n", "3", "--m", "1",
                          "--count", "60", "--seed", "2"], capsys)
    assert code == 0
    assert recs[-1]["kinds"]["steiner_checked"] == 60


def test_steiner_check_rejects_invertible(capsys):
    code = main(["steiner-check", "--p", "2", "--n", "3", "--m", "1",
                 "--matrix", "1", "0", "0", "0", "1", "0", "0", "0", "1"])
    assert code == 2


def test_classify_extension_tower(capsys):
    # F_16 over F_4 (e = 2)
    code, recs = run_cli(["classify", "--p", "2", "--e", "2", "--n", "2",
                          "--m", "1", "--matrix", "1", "0", "0", "0", "1",
                          "0", "0", "0", "1"], capsys)
    assert code == 0
    assert recs[0]["q"] == 4 and recs[0]["order"] == 16
    assert recs[1]["kind"] == "kestenband_nondegenerate"
    assert recs[1]["absolute"] == 65             # the Hermitian unital size


@pytest.mark.parametrize("args,message", [
    (["census", "--p", "2", "--n", "2", "--mode", "random", "--seed", "1",
      "--count", "0"], "argument --count: must be at least 1, got 0"),
    (["census", "--p", "2", "--n", "2", "--mode", "random", "--seed", "1",
      "--count", "-5"], "argument --count: must be at least 1, got -5"),
    (["census", "--p", "2", "--n", "2", "--mode", "random", "--seed", "1",
      "--records", "-1"], "argument --records: must be at least 0, got -1"),
    (["census", "--p", "2", "--n", "2", "--scope", "diagonal",
      "--max-violations", "-1"],
     "argument --max-violations: must be at least 0, got -1"),
    (["steiner-check", "--p", "2", "--n", "3", "--seed", "1", "--count", "0"],
     "argument --count: must be at least 1, got 0"),
    # seeds are 64-bit: -1 and 2^64 - 1 would draw the same samples
    (["census", "--p", "2", "--n", "2", "--mode", "random", "--seed", "-1"],
     "argument --seed: must be at least 0, got -1"),
    (["census", "--p", "2", "--n", "2", "--mode", "random", "--seed", str(1 << 64)],
     f"argument --seed: must be at most {(1 << 64) - 1}, got {1 << 64}"),
    (["steiner-check", "--p", "2", "--n", "3", "--seed", "-1"],
     "argument --seed: must be at least 0, got -1"),
    (["steiner-check", "--p", "2", "--n", "3", "--seed", str(1 << 64)],
     f"argument --seed: must be at most {(1 << 64) - 1}, got {1 << 64}"),
])
def test_out_of_range_counts_rejected_at_parse_time(capsys, args, message):
    assert main(args) == 2
    captured = capsys.readouterr()
    assert message in captured.err
    assert captured.out == ""


def test_largest_seed_accepted(capsys):
    code, recs = run_cli(["census", "--p", "2", "--n", "2", "--mode", "random",
                          "--seed", str((1 << 64) - 1), "--count", "5"], capsys)
    assert code == 0 and recs[0]["params"]["seed"] == (1 << 64) - 1
    assert recs[-1]["total"] == 5


def test_zero_records_and_violations_accepted(capsys):
    code, recs = run_cli(["census", "--p", "2", "--n", "2", "--mode", "random",
                          "--seed", "1", "--count", "5", "--records", "0",
                          "--max-violations", "0"], capsys)
    assert code == 0 and recs[-1]["total"] == 5


@pytest.mark.parametrize("command", ["classify", "steiner-check"])
@pytest.mark.parametrize("entry", ["99", "-1"])
def test_out_of_range_matrix_entry_exits_2(capsys, command, entry):
    code = main([command, "--p", "2", "--n", "3",
                 "--matrix", "0", "0", "1", "0", "1", "0", "0", "0", entry])
    assert code == 2
    captured = capsys.readouterr()
    assert (f"matrix entry {entry} at row 3, column 3 is outside 0..7"
            in captured.err)
    assert captured.out == ""


def test_steiner_check_rejects_2x2(capsys):
    code = main(["steiner-check", "--p", "2", "--n", "3",
                 "--matrix", "0", "1", "1", "0"])
    assert code == 2
    assert "steiner-check needs a rank-2 3x3 matrix" in capsys.readouterr().err


@pytest.mark.parametrize("matrix", [["0"] * 4, ["0"] * 9])
def test_classify_zero_form_exits_2(capsys, matrix):
    code = main(["classify", "--p", "2", "--n", "3", "--matrix", *matrix])
    assert code == 2
    captured = capsys.readouterr()
    assert ("the zero form is absolute everywhere and is not classified"
            in captured.err)
    assert captured.out == ""


def test_classify_line_taxonomy_escape_exits_3(capsys, monkeypatch):
    # x0 x1^2 + x1 x0^2 vanishes on the F_2-subline {(1,0), (0,1), (1,1)};
    # with the batch subline test failing, three points fit no line shape
    monkeypatch.setattr(ProjectiveSpace, "sublines",
                        lambda self, ids: np.zeros(len(ids), dtype=bool))
    code, recs = run_cli(["classify", "--p", "2", "--n", "3",
                          "--matrix", "0", "1", "1", "0"], capsys)
    assert code == 3
    rec = recs[1]
    assert rec["kind"] is None and rec["absolute"] == 3
    assert rec["violations"] == ["absolute set of size 3 escapes the line taxonomy"]


@pytest.mark.parametrize("argv", [
    ["census", "--p", "2", "--n", "2", "--scope", "diagonal",
     "--out", "{missing}"],
    ["census", "--p", "2", "--n", "2", "--scope", "diagonal", "--out", "{dir}"],
    ["mrd", "--p", "3", "--n", "3", "--code-out", "{missing}"],
], ids=["census-missing-dir", "census-directory", "mrd-code-out"])
def test_unwritable_report_path_exits_2(capsys, tmp_path, argv):
    argv = [a.format(missing=tmp_path / "absent" / "x", dir=tmp_path) for a in argv]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err


@pytest.mark.parametrize("argv", [
    ["census", "--p", "2", "--n", "3", "--scope", "rank-le2", "--out", "{missing}"],
    ["census", "--p", "3", "--n", "3", "--mode", "random", "--seed", "1",
     "--out", "{dir}"],
    ["mrd", "--p", "3", "--n", "3", "--code-out", "{missing}"],
    ["mrd", "--p", "3", "--n", "3", "--out", "{dir}", "--code-out", "{code}"],
], ids=["census-rank-le2", "census-random", "mrd-code-out", "mrd-out"])
def test_unwritable_path_fails_before_the_work(capsys, tmp_path, monkeypatch, argv):
    """An output path that cannot be written exits 2 before any sweep or
    code is built, with nothing on stdout and no other file written."""
    def no_work(*args, **kwargs):
        raise AssertionError("the work started before the paths were checked")
    monkeypatch.setattr(census, "_sweep", no_work)
    monkeypatch.setattr(cli, "check_code_budget", no_work)
    argv = [a.format(missing=tmp_path / "absent" / "x", dir=tmp_path,
                     code=tmp_path / "code.jsonl") for a in argv]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert not (tmp_path / "code.jsonl").exists()


def test_failed_census_leaves_no_report_file(capsys, tmp_path):
    """The path check before the work creates no file: a census that
    exits 4 writes nothing, as before."""
    out = tmp_path / "r.jsonl"
    assert main(["census", "--p", "3", "--n", "3", "--scope", "gl",
                 "--out", str(out)]) == 4
    assert not out.exists()


def test_report_replaces_an_existing_file(capsys, tmp_path):
    """A writable --out keeps the report's bytes, whatever the file held."""
    argv = ["census", "--p", "2", "--n", "2", "--scope", "diagonal"]
    assert main(argv) == 0
    report = capsys.readouterr().out
    out = tmp_path / "r.jsonl"
    out.write_text("x" * 10 * len(report))
    assert main([*argv, "--out", str(out)]) == 0
    assert out.read_text() == report and capsys.readouterr().out == ""


@pytest.mark.parametrize("flags, message", [
    (["--mode", "random", "--seed", "1", "--scope", "rank-le2"],
     "--scope applies to exhaustive mode only"),
    (["--mode", "random", "--seed", "1", "--scope", "all"],
     "--scope applies to exhaustive mode only"),
    (["--scope", "diagonal", "--any-rank"], "--any-rank applies to random mode only"),
    (["--scope", "diagonal", "--records", "3"], "--records applies to random mode only"),
])
def test_flags_of_the_other_mode_exit_2(capsys, flags, message):
    assert main(["census", "--p", "2", "--n", "2", *flags]) == 2
    captured = capsys.readouterr()
    assert f"error: {message}" in captured.err
    assert captured.out == ""


def test_default_scope_and_zero_records_keep_their_bytes(capsys):
    """`--scope gl` in random mode and `--records 0` in exhaustive mode are
    the defaults written out; they are accepted with the same report."""
    base = ["census", "--p", "2", "--n", "2"]
    reports = []
    for argv in ([*base, "--mode", "random", "--seed", "1", "--count", "50"],
                 [*base, "--mode", "random", "--seed", "1", "--count", "50",
                  "--scope", "gl"],
                 [*base, "--scope", "diagonal"],
                 [*base, "--scope", "diagonal", "--records", "0"]):
        assert main(argv) == 0
        reports.append(capsys.readouterr().out)
    assert reports[0] == reports[1] and reports[2] == reports[3]


def test_parser_is_built_once_and_dispatch_reads_the_module(capsys, monkeypatch):
    """`main` parses every call with one parser and calls the cmd_* function
    the module holds at that moment, so a replaced one runs; usage errors
    still exit 2."""
    main(["census", "--p", "2", "--n", "2", "--scope", "diagonal"])
    calls = []
    monkeypatch.setattr(cli, "cmd_steiner_check", lambda args: calls.append(args) or 7)
    monkeypatch.setattr(cli, "build_parser", None)    # a rebuild would fail
    for _ in range(2):
        assert main(["steiner-check", "--p", "2", "--n", "2", "--seed", "1"]) == 7
    assert [a.seed for a in calls] == [1, 1]
    assert main(["census", "--p", "2", "--n", "2", "--scope", "bogus"]) == 2
    assert "invalid choice: 'bogus'" in capsys.readouterr().err
