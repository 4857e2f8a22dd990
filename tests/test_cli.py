import json
import os
import subprocess
import sys

import pytest

from helpers import hilbert_series_ci, rational_points_0dim
from test_acceptance import CI_GRID, N2_GRID
from lefschetz_locus import cli
from lefschetz_locus.cli import main


def _run(capsys, argv):
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    out = capsys.readouterr().out
    return code, (json.loads(out) if out.strip() else None)


def test_hilbert_command_reports_profile(capsys):
    code, report = _run(capsys, ["hilbert", "--a", "2,2,3", "--b", "0", "--seed", "7"])
    assert code == 0
    assert report["hilbert"]["values"] == [1, 3, 4, 3, 1]
    assert report["hilbert"]["d"] == 7
    assert report["socle"] == [4]
    assert report["seed"] == 7 and report["prime"] == 65521


def test_hilbert_rejects_empty_b(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["hilbert", "--a", "2,2,3", "--b", ""])
    assert exc.value.code == 1


def test_hilbert_monomial_matrix_matches_series(tmp_path, capsys):
    grid = tmp_path / "monomial.json"
    grid.write_text(json.dumps([["x1^3", "x2^4", "x3^4"]]))
    code, report = _run(capsys, ["hilbert", "--a", "3,4,4", "--b", "0",
                                 "--matrix", str(grid)])
    assert code == 0
    assert tuple(report["hilbert"]["values"]) == hilbert_series_ci((3, 4, 4))


def test_locus_command_match(capsys):
    code, report = _run(capsys, ["locus", "--a", "2,2,3", "--b", "0", "--seed", "1"])
    assert code == 0
    assert (report["codim"], report["degree"], report["verdict"]) == (2, 6, "match")


def test_locus_command_curve(capsys):
    code, report = _run(capsys, ["locus", "--a", "2,2,2", "--b", "0"])
    assert code == 0
    assert (report["codim"], report["degree"]) == (1, 3)


def test_locus_monomial_generality_required(tmp_path, capsys):
    grid = tmp_path / "monomial.json"
    grid.write_text(json.dumps([["x1^3", "x2^4", "x3^4"]]))
    code, report = _run(capsys, ["locus", "--a", "3,4,4", "--b", "0",
                                 "--matrix", str(grid)])
    assert code == 2
    assert report["codim"] == 1
    assert report["expected"] == 2
    assert report["verdict"] == "generality-required"


def test_line_generic(capsys):
    code, report = _run(capsys, ["line", "--a", "2,2,3", "--b", "0",
                                 "--seed", "1", "--line", "1,2,3"])
    assert code == 0
    assert report["lefschetz"] is True
    assert report["jumping"] is False
    assert report["ok"] is True


def test_line_zero_rejected(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["line", "--a", "2,2,3", "--b", "0", "--line", "0,0,0"])
    assert exc.value.code == 1


def test_line_on_locus_point(capsys):
    from lefschetz_locus.groebner import buchberger
    from lefschetz_locus.lefschetz import dual_ring, locus_ideal_at
    from lefschetz_locus.presentation import DegreeData, generic_module

    m = generic_module(DegreeData((1, 1, 1, 2), (0, 0)), 2)
    li = locus_ideal_at(m, m.degrees.middle_degree)
    pts = rational_points_0dim(buchberger(list(li.gens), ring=dual_ring(m)))
    assert pts
    coords = ",".join(str(c) for c in pts[0])
    code, report = _run(capsys, ["line", "--a", "1,1,1,2", "--b", "0,0",
                                 "--seed", "2", "--line", coords])
    assert code == 0  # claims agree even though the line is special
    assert report["lefschetz"] is False
    assert report["jumping"] is True


def test_reports_are_byte_identical(capsys):
    argv = ["locus", "--a", "2,2,3", "--b", "0", "--seed", "9"]
    main(argv)
    first = capsys.readouterr().out
    main(argv)
    second = capsys.readouterr().out
    assert first == second


def test_env_prime_override(capsys, monkeypatch):
    monkeypatch.setenv("LL_PRIME", "101")
    code, report = _run(capsys, ["hilbert", "--a", "2,2,3", "--b", "0"])
    assert code == 0
    assert report["prime"] == 101


def test_prime_flag_beats_env(capsys, monkeypatch):
    monkeypatch.setenv("LL_PRIME", "101")
    code, report = _run(capsys, ["hilbert", "--a", "2,2,3", "--b", "0",
                                 "--prime", "32003"])
    assert report["prime"] == 32003


@pytest.mark.parametrize("source", ["flag", "env"])
def test_prime_beyond_int64_products_is_named_error(capsys, monkeypatch, source):
    # 4294967291 is prime, but its residue products overflow int64; the run
    # used to reject every seeded draw as non-generic instead
    argv = ["hilbert", "--a", "2,2,3", "--b", "0"]
    if source == "flag":
        argv += ["--prime", "4294967291"]
    else:
        monkeypatch.setenv("LL_PRIME", "4294967291")
    code, report = _run(capsys, argv)
    assert code == 1
    assert "below 2^31" in report["error"]


def test_largest_prime_below_bound_is_accepted(capsys):
    code, report = _run(capsys, ["line", "--a", "2,2,3", "--b", "0",
                                 "--prime", str(2**31 - 1), "--line", "1,2,3"])
    assert code == 0
    assert report["prime"] == 2**31 - 1 and report["lefschetz"] is True


def test_line_needs_three_coordinates(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["line", "--a", "2,2,3", "--b", "0", "--line", "1,2"])
    assert exc.value.code == 1
    assert "exactly three coordinates" in capsys.readouterr().err


def test_survey_grid_without_fixtures_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["survey", "--grid", "ci:4-2"])
    assert exc.value.code == 1
    assert "yields no fixture" in capsys.readouterr().err


def test_survey_ci_grid_all_match(capsys):
    code, report = _run(capsys, ["survey", "--grid", "ci:2-3", "--seed", "1"])
    assert code == 0
    assert report["fixtures"] == 4
    assert report["verdicts"] == {"match": 4}


def test_survey_with_monomial_row(capsys):
    code, report = _run(capsys, ["survey", "--grid", "ci:2-3", "--seed", "1",
                                 "--monomial", "3,4,4"])
    assert code == 2
    assert report["verdicts"]["generality-required"] == 1
    assert report["verdicts"]["match"] == 4


def test_survey_full_ci_grid_all_match(capsys):
    # every triple with entries between 2 and 4 matches its codimension
    # classification; only genuinely special presentations may deviate
    code, report = _run(capsys, ["survey", "--grid", "ci:2-4", "--seed", "1"])
    assert code == 0
    assert report["fixtures"] == 10
    assert report["verdicts"] == {"match": 10}
    assert report["claims"]["predicted-codim-match"] == {"pass": 10, "total": 10}


def test_survey_n2_grid_wlp_and_matches(capsys):
    code, report = _run(capsys, ["survey", "--grid", "n2", "--seed", "1"])
    assert code == 0
    assert report["fixtures"] == 5
    assert report["verdicts"] == {"match": 5}
    assert report["claims"]["wlp-witness"] == {"pass": 5, "total": 5}


def test_survey_single_fixture_with_samples(capsys):
    code, report = _run(capsys, ["survey", "--a", "2,2,3", "--b", "0",
                                 "--seed", "1", "--samples", "3"])
    assert code == 0
    assert report["fixtures"] == 3
    assert [row["seed"] for row in report["rows"]] == [1, 2, 3]


@pytest.mark.parametrize("command", ["hilbert", "locus", "line"])
def test_samples_belongs_to_survey_only(command, capsys):
    # only survey repeats fixtures over seeds; the other commands reject the
    # option instead of ignoring it
    argv = [command, "--a", "2,2,3", "--b", "0", "--samples", "2"]
    if command == "line":
        argv += ["--line", "1,2,3"]
    code, report = _run(capsys, argv)
    assert (code, report) == (1, None)


def test_localization_row_takes_one_basis_and_no_saturation(monkeypatch):
    # the middle basis is the only Groebner basis a criterion-8 row builds:
    # every other degree passes the containment test by rank alone
    from lefschetz_locus import groebner, lefschetz

    calls = {"buchberger": 0, "saturate": 0}
    for name in calls:
        original = getattr(groebner, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        for mod in (cli, groebner, lefschetz):
            if getattr(mod, name, None) is original:
                monkeypatch.setattr(mod, name, counted)
    for a, b in [(a, (0,)) for a in CI_GRID] + N2_GRID:
        calls.update(buchberger=0, saturate=0)
        row = cli.survey_row({"a": list(a), "b": list(b), "seed": 1, "prime": 65521,
                              "matrix": None, "localization": True})
        assert {"claim": "middle-localization", "ok": True} in row["claims"]
        assert calls == {"buchberger": 1, "saturate": 0}, a


@pytest.mark.parametrize("argv", [["--grid", "ci:2-3", "--seed", "4"],
                                  ["--grid", "ci:2-4", "--localization", "--seed", "1"]],
                         ids=["ci:2-3", "ci:2-4-localization"])
def test_survey_parallel_matches_serial(capsys, argv):
    # workers draw the same seeded combination weights as the parent process,
    # so the reports are byte-identical
    def run(jobs):
        code = main(["survey"] + argv + ["--jobs", jobs])
        return code, capsys.readouterr().out

    assert run("1") == run("2")


def test_survey_jobs_capped_by_fixture_and_core_counts(capsys, monkeypatch):
    asked = []

    class SerialPool:
        def __init__(self, max_workers):
            asked.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr(cli, "ProcessPoolExecutor", SerialPool)
    argv = ["survey", "--a", "2,2,3", "--b", "0", "--samples", "3", "--jobs", "1000000"]
    reports = []
    for cores in (2, 64, None):
        monkeypatch.setattr(os, "cpu_count", lambda: cores)
        reports.append(_run(capsys, argv))
    assert asked == [2, 3]  # no pool at all when the core count is unknown
    assert reports[0][0] == 0
    assert reports[0] == reports[1] == reports[2]


def test_hilbert_rejects_generator_alive_far_past_socle(tmp_path, capsys):
    # the second generator sits in degree 15, ten past the nominal socle
    # degree 5, and only x1^5 acts on it, so the module has infinite length
    grid = tmp_path / "late.json"
    grid.write_text(json.dumps([["x1", "x2", "x3", "0"], ["0", "0", "0", "x1^5"]]))
    code, report = _run(capsys, ["hilbert", "--a", "1,1,1,20", "--b", "0,15",
                                 "--matrix", str(grid)])
    assert code == 1
    assert "nonzero graded piece in degree 15" in report["error"]


@pytest.mark.parametrize("content", ["5", "[[1, 2, 3]]", '["x1^2", "x2^2", "x3^3"]'],
                         ids=["scalar", "numbers", "flat"])
def test_malformed_matrix_file_is_json_error(tmp_path, capsys, content):
    # a grid that is not a list of lists of strings names the expected shape
    grid = tmp_path / "bad.json"
    grid.write_text(content)
    for command in ("locus", "survey"):
        code = main([command, "--a", "2,2,3", "--b", "0", "--matrix", str(grid)])
        out = capsys.readouterr().out
        assert code == 1 and len(out.splitlines()) == 1
        assert "list of 1 rows, each a list of 3 polynomial strings" in json.loads(out)["error"]


@pytest.mark.parametrize("argv,matrix,kind", [
    (["hilbert", "--a", "2,2,3", "--b", "0"], '[["x1^2", "x1^2", "x1^3"]]',
     "NonFiniteLengthError"),
    (["locus", "--a", "1,1,2", "--b", "3"], None, "NonGenericPresentationError"),
    (["locus", "--a", "3,4,4", "--b", "0", "--prime", "7"], None, "ValueError"),
    (["locus", "--a", "2,2,3", "--b", "0"], "[[", "JSONDecodeError"),
], ids=["infinite-length", "non-generic", "prime-not-above-minor-size", "malformed-json"])
def test_error_json_names_the_exception_type(tmp_path, capsys, argv, matrix, kind):
    if matrix is not None:
        grid = tmp_path / "grid.json"
        grid.write_text(matrix)
        argv = argv + ["--matrix", str(grid)]
    code, report = _run(capsys, argv)
    assert code == 1
    assert set(report) == {"error", "type"} and report["type"] == kind


@pytest.mark.parametrize("a,b", [("1,1,1", "0"), ("2,2,2", "1")])
def test_empty_middle_map_is_an_empty_locus(capsys, a, b):
    # h(i*) = 0, so the middle minors form the unit ideal and C(c2_norm, 2)
    # = C(1, 2) = 0 points are predicted; this used to crash on C(1, -1)
    for command in ("locus", "survey"):
        code, report = _run(capsys, [command, "--a", a, "--b", b])
        assert code == 0
        row = report["rows"][0] if command == "survey" else report
        assert (row["codim"], row["degree"], row["verdict"]) == (3, 0, "match")
        assert (row["expected"], row["predicted"], row["predicted_degree"]) == (3, 3, 0)


def test_pretty_goes_to_stderr_only(capsys):
    main(["hilbert", "--a", "2,2,3", "--b", "0", "--pretty"])
    captured = capsys.readouterr()
    json.loads(captured.out)  # stdout stays pure JSON
    assert "hilbert" in captured.err


def test_console_module_entry():
    proc = subprocess.run(
        [sys.executable, "-m", "lefschetz_locus.cli", "hilbert",
         "--a", "2,2,3", "--b", "0"],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["hilbert"]["values"] == [1, 3, 4, 3, 1]


def test_bad_grid_argument_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["survey", "--grid", "nonsense"])
    assert exc.value.code == 1


def test_mismatched_twist_lengths_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["hilbert", "--a", "2,2,3", "--b", "0,0"])
    assert exc.value.code == 1
