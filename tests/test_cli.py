import json
import os
import subprocess
import sys

import pytest

from helpers import hilbert_series_ci
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
    from lefschetz_locus.groebner import buchberger, rational_points_0dim
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


def test_survey_parallel_matches_serial(capsys):
    serial_code, serial = _run(capsys, ["survey", "--grid", "ci:2-3", "--seed", "4"])
    parallel_code, parallel = _run(capsys, ["survey", "--grid", "ci:2-3", "--seed", "4",
                                            "--jobs", "2"])
    assert serial_code == parallel_code
    assert serial == parallel


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
