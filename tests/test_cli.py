import concurrent.futures
import json
import os
import subprocess
import sys

import pytest

from helpers import hilbert_series_ci, minor_basis, rational_points_0dim, rows, variable
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


@pytest.mark.parametrize("a,b,socle", [("2,3,4,4,5", "0,0,2", [13, 13]),
                                       ("2,2,2,3", "0,2", [4]), ("1,2,2,3", "0,1", [4])])
def test_socle_formula_counts_minimal_generators(a, b, socle, capsys):
    # a_i = b_j makes the generic entry (j, i) a nonzero constant, which
    # cancels the generator of degree b_j: the socle has no degree
    # d - 3 - b_j, and the claim counts only the minimal generators
    code, report = _run(capsys, ["hilbert", "--a", a, "--b", b])
    assert code == 0
    assert report["socle"] == socle
    assert {"claim": "socle-formula", "ok": True} in report["claims"]


def test_socle_formula_reads_the_constant_entries_of_a_matrix(tmp_path, capsys):
    # the unit entry 1 cancels the degree-2 generator, so M = R/(x2^2, x3^2,
    # x1^3 - x1^2 x2) with socle {4}; two units in the one degree-2 row
    # still cancel one generator, the rank of the constant block
    grid = tmp_path / "unit.json"
    grid.write_text(json.dumps([["x1^2", "x2^2", "x3^2", "x1^3"], ["1", "0", "0", "x2"]]))
    code, report = _run(capsys, ["hilbert", "--a", "2,2,2,3", "--b", "0,2",
                                 "--matrix", str(grid)])
    assert code == 0
    assert report["socle"] == [4] and report["hilbert"]["values"] == [1, 3, 4, 3, 1]
    assert {"claim": "socle-formula", "ok": True} in report["claims"]
    mod = cli.build_module({"a": [2, 2, 2, 3], "b": [0, 2], "seed": 1, "prime": 65521,
                            "matrix": [["x1^2", "x2^2", "x3^2", "x1^3"], ["0", "1", "1", "x2"]]})
    assert cli._expected_socle(mod) == (4,)


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
    from lefschetz_locus.presentation import DegreeData, generic_module

    m = generic_module(DegreeData((1, 1, 1, 2), (0, 0)), 2)
    pts = rational_points_0dim(minor_basis(m, m.degrees.middle_degree))
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


def test_parser_is_built_once_and_shared(capsys):
    # one parser serves every call in a process; no call's options may leak
    # into the next
    cli.build_parser.cache_clear()
    line = ["line", "--a", "2,2,3,3", "--b", "0,1", "--line", "5,7,11"]
    first = _run(capsys, line)
    code, survey = _run(capsys, ["survey", "--a", "2,2,3", "--b", "0", "--samples", "2"])
    assert code == 0 and [row["seed"] for row in survey["rows"]] == [1, 2]
    assert _run(capsys, line) == first
    assert cli.build_parser.cache_info().misses == 1


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


def test_localization_row_takes_no_basis_and_no_saturation(monkeypatch):
    # every criterion-8 row measures its middle locus on one seeded line,
    # with no Groebner basis and no ``measure``.  On (2,2,4) the values of
    # one degree fall short, and its forms are tested against the middle
    # minors by one Macaulay rank; every other degree passes by rank alone
    from lefschetz_locus import groebner, lefschetz

    calls = {"buchberger": 0, "_variable_saturations": 0, "measure": 0}
    for name in calls:
        original = getattr(groebner, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        for mod in (cli, groebner, lefschetz):
            if getattr(mod, name, None) is original:
                monkeypatch.setattr(mod, name, counted)
    # the locus code binds all three, so no count passes vacuously
    assert all(getattr(lefschetz, name).__name__ == "counted" for name in calls)
    for a, b in [(a, (0,)) for a in CI_GRID] + N2_GRID:
        calls.update(buchberger=0, _variable_saturations=0, measure=0)
        row = cli.survey_row({"a": list(a), "b": list(b), "seed": 1, "prime": 65521,
                              "matrix": None, "localization": True})
        assert {"claim": "middle-localization", "ok": True} in row["claims"]
        assert calls == {"buchberger": 0, "_variable_saturations": 0, "measure": 0}, a


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

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
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


_GRID_SHAPE = "the matrix must be a list of 1 rows, each a list of 3 polynomial strings"


@pytest.mark.parametrize("a,b,matrix,message", [
    ("3,4,4", "0", '[["x1^3", "x2^4"]]', "entry grid must have one column per source twist"),
    ("3,4,4", "0", "[]", "entry grid must have one row per target twist"),
    ("3,4,4", "0", '{"a": 1}', _GRID_SHAPE),
    ("3,4,4", "0", '[["x1^3", 4, "x3^4"]]', _GRID_SHAPE),
    ("3,4,4", "0", '[["x1^3", "x2^4 + x1", "x3^4"]]',
     "entry (0,1) must be homogeneous of degree 4"),
    ("3,4,4", "0", '[["x1^99999999999999999999", "x2^4", "x3^4"]]',
     "entry (0,0) must be homogeneous of degree 3"),
    # three exponents whose sum wraps to 3 in int64
    ("3,4,4", "0", '[["x1^4611686018427387906*x2^4611686018427387906*x3^9223372036854775807", '
     '"x2^4", "x3^4"]]', "entry (0,0) must be homogeneous of degree 3"),
    ("3,4,4", "0", '[["x1^3", "y^4", "x3^4"]]',
     "unrecognized factor 'y^4' for ring variables ('x1', 'x2', 'x3')"),
    # rows are checked in order: a degree error in row 0 comes before a
    # short row 1, and a short row 0 before a degree error in row 1
    ("2,2,3,3", "0,1", '[["x1^2", "x2", "x3^3", "x1^3"], ["x1"]]',
     "entry (0,1) must be homogeneous of degree 2"),
    ("2,2,3,3", "0,1", '[["x1^2"], ["x1", "x2", "x3^2", "x1"]]',
     "entry grid must have one column per source twist"),
], ids=["short-row", "no-rows", "object", "number", "inhomogeneous", "huge-exponent",
        "wrapping-exponents", "unknown-variable",
        "degree-before-short-row", "short-row-before-degree"])
def test_matrix_boundary_names_the_first_fault(tmp_path, capsys, a, b, matrix, message):
    grid = tmp_path / "grid.json"
    grid.write_text(matrix)
    code, report = _run(capsys, ["locus", "--a", a, "--b", b, "--matrix", str(grid)])
    assert code == 1
    assert report == {"error": message, "type": "ValueError"}


def test_matrix_terms_that_cancel_are_no_degree_error(tmp_path, capsys):
    # x1 - x1 cancels before the degree check: the row is the pure powers
    grids = [[["x1^3", "x2^4 + x1 - x1", "x3^4"]], [["x1^3", "x2^4", "x3^4"]]]
    reports = []
    for k, rows in enumerate(grids):
        grid = tmp_path / f"grid{k}.json"
        grid.write_text(json.dumps(rows))
        reports.append(_run(capsys, ["locus", "--a", "3,4,4", "--b", "0", "--matrix", str(grid)]))
    assert reports[0] == reports[1] and reports[0][0] == 2


def test_commands_build_no_polynomial(tmp_path, capsys, monkeypatch):
    # forms stay coefficient rows from the presentation to the Groebner
    # basis: only ``GroebnerBasis.basis`` builds a ``Polynomial``, and no
    # command reads it.  The localization fallback, which none of these
    # commands reaches, runs on its own: (l3) against an m-primary ideal
    from lefschetz_locus import lefschetz, polyring

    ring = polyring.Ring(dual=True)
    l1, l2, l3 = (variable(ring, v) for v in range(3))
    mid, ideal = rows([l3], 1), rows((l1 * l1, l2 * l2, l3 * l3, l1 * l2), 2)

    def refused(*args):
        raise AssertionError("a Polynomial was built")

    monkeypatch.setattr(polyring.Polynomial, "__init__", refused)
    grid = tmp_path / "monomial.json"
    grid.write_text(json.dumps([["x1^3", "x2^4", "x3^4"]]))
    for argv in ("locus --a 3,4,4 --b 0", f"locus --a 3,4,4 --b 0 --matrix {grid}",
                 "survey --grid ci:2-3 --monomial 3,4,4 --localization",
                 "line --a 2,2,3,3 --b 0,1 --line 1,2,3",
                 f"hilbert --a 3,4,4 --b 0 --matrix {grid}"):
        assert _run(capsys, argv.split())[0] in (0, 2), argv
    assert lefschetz._in_saturation(mid, 1, ideal, 2, ring)


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


def test_missing_matrix_file_is_json_error(tmp_path, capsys):
    # one reader serves the single-fixture commands and survey alike
    for command in ("hilbert", "survey"):
        code, report = _run(capsys, [command, "--a", "2,2,3", "--b", "0",
                                     "--matrix", str(tmp_path / "absent.json")])
        assert code == 1 and report["type"] == "FileNotFoundError"


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


def test_cli_imports_the_process_pool_only_for_workers():
    # concurrent.futures.process takes a tenth of the CLI's import time, and
    # only ``survey --jobs`` above 1 uses it (run by
    # ``test_survey_parallel_matches_serial``)
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, lefschetz_locus.cli; "
         "print(sorted(k for k in sys.modules if k.startswith('concurrent')))"],
        capture_output=True, text=True, timeout=120,
    )
    assert (proc.returncode, proc.stdout) == (0, "[]\n")


def test_bad_grid_argument_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["survey", "--grid", "nonsense"])
    assert exc.value.code == 1


def test_mismatched_twist_lengths_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["hilbert", "--a", "2,2,3", "--b", "0,0"])
    assert exc.value.code == 1


def test_finite_length_claim_reads_the_build_predicate():
    # the claim is computed, not assumed: a module whose predicate reports a
    # nonzero piece beyond the socle degree fails it
    from lefschetz_locus.presentation import DegreeData, generic_module

    m = generic_module(DegreeData((2, 2, 3), (0,)), 1)
    assert ("finite-length", True) in cli._structural_claims(m)
    m.first_piece_beyond_socle = lambda: m.degrees.socle_degree + 1
    assert ("finite-length", False) in cli._structural_claims(m)


@pytest.mark.parametrize("argv,built", [
    ("locus --a 4,4,4 --b 0", (set(range(0, 6)), set(range(6, 11)))),
    ("locus --a 3,4,4 --b 0", (set(range(0, 6)), set(range(6, 10)))),
    ("line --a 2,2,3,3 --b 0,1 --line 1,2,3", (set(range(0, 5)), set(range(5, 8)))),
    ("hilbert --a 2,2,3,3 --b 0,1", (set(range(0, 5)), set(range(5, 8)))),
    ("survey --a 4,4,4 --b 0", (set(range(0, 6)), set(range(6, 11)))),
])
def test_commands_build_only_the_pieces_they_read(argv, built, capsys, monkeypatch):
    # slices up to t0 = max(a_(n+2), b_n) and above it until the seeded
    # line is onto, quotients from there: build certifies degree e + 1
    # through that chain, Serre duality serves h and the Lefschetz scan
    # above the middle, and the socle reads every piece.  On (4,4,4),
    # h(4) > h(3) leaves piece 5 to its slice and h(5) = h(4) makes the line
    # onto; on (3,4,4) (odd d) and (2,2,3,3|0,1), h(t0) > h(t0 - 1) leaves
    # piece t0 + 1 to its slice
    from lefschetz_locus.presentation import GradedModule, _QuotientPiece

    slices, quotient = set(), set()
    build_piece, upper_piece = GradedModule._build_piece, GradedModule._upper_piece

    def counted(pres, t):
        assert t not in slices
        slices.add(t)
        return build_piece(pres, t)

    def counted_upper(self, t):
        piece = upper_piece(self, t)
        if type(piece) is _QuotientPiece:
            assert t not in quotient
            quotient.add(t)
        return piece

    monkeypatch.setattr(GradedModule, "_build_piece", staticmethod(counted))
    monkeypatch.setattr(GradedModule, "_upper_piece", counted_upper)
    code, _ = _run(capsys, argv.split())
    assert code == 0 and (slices, quotient) == built


@pytest.mark.parametrize("argv", ["locus --a 4,4,4 --b 0", "locus --a 3,4,4 --b 0",
                                  "line --a 2,2,3,3 --b 0,1 --line 1,2,3",
                                  "line --a 4,4,4 --b 0 --line 1,0,0",
                                  "hilbert --a 4,4,4 --b 0", "hilbert --a 2,2,3,3 --b 0,1",
                                  "survey --a 3,4,4 --b 0 --localization",
                                  "survey --grid n2 --samples 1"])
def test_no_command_forms_a_map_into_a_quotient_piece(argv, capsys, monkeypatch):
    # a quotient piece V/W stores no maps: those out of the degree below it
    # are formed only when read, and no command reads them.  ``locus`` and
    # ``line`` read maps only from the middle down, and the socles of
    # ``hilbert`` and ``survey`` read the kernel of the seeded line there.
    # Every command builds quotient pieces, so this is not vacuous
    from lefschetz_locus.presentation import GradedModule, _QuotientPiece

    modules, init = [], GradedModule.__init__

    def recorded(self, *args):
        init(self, *args)
        modules.append(self)

    monkeypatch.setattr(GradedModule, "__init__", recorded)
    code, _ = _run(capsys, argv.split())
    assert code == 0 and modules
    for mod in modules:
        upper = [t for t, piece in mod._pieces.items() if isinstance(piece, _QuotientPiece)]
        assert upper, mod.degrees
        assert not [t for t in mod._maps if t + 1 in upper], mod.degrees


@pytest.mark.parametrize("argv", ["locus --a 4,4,4 --b 0", "locus --a 3,4,4 --b 0",
                                  "locus --a 2,2,4 --b 0",
                                  "locus --a 3,4,4 --b 0 --prime 13 --seed 1",
                                  "survey --grid ci:2-4 --localization",
                                  "survey --grid n2 --samples 2 --localization",
                                  "survey --a 3,3,4,4,5 --b 0,1,1"])
def test_no_section_is_eliminated_twice(argv, capsys, monkeypatch):
    # the seeded line's section out of a degree is recorded when first
    # formed, failures included, and the quotient chain, the middle
    # certificate and the Lefschetz witness read the record: one [L^T | I]
    # elimination per recorded degree, and every module records some
    from lefschetz_locus import presentation
    from lefschetz_locus.presentation import GradedModule

    modules, init, calls, section = [], GradedModule.__init__, [], presentation._section

    def recorded(self, *args):
        init(self, *args)
        modules.append(self)

    monkeypatch.setattr(GradedModule, "__init__", recorded)
    monkeypatch.setattr(presentation, "_section", lambda l, p: calls.append(l) or section(l, p))
    code, _ = _run(capsys, argv.split())
    assert code == 0 and modules
    assert all(mod._sections for mod in modules)
    assert len(calls) == sum(len(mod._sections) for mod in modules)


@pytest.mark.parametrize("argv", ["hilbert", "locus", "line --line 1,2,3",
                                  "survey --localization"])
def test_the_zero_module_is_accepted(argv, capsys):
    # (0,0,0 | 0) presents M = 0: its support is empty, and so is the
    # generic Hilbert profile, which once listed degree b_1 = 0 and made
    # every seeded draw look non-generic
    code, report = _run(capsys, argv.split() + ["--a", "0,0,0", "--b", "0"])
    assert code == 0, report
    row = report["rows"][0] if "rows" in report else report
    assert row.get("hilbert", {"values": []})["values"] == []
    if argv == "hilbert":
        assert report["socle"] == []


def test_a_line_the_vote_called_generic_is_jumping(tmp_path, capsys):
    # on the pure-power (3,4,4) over F_13 at seed 6, three of the five
    # seeded lines jump, so a majority vote took (1,0,1) for generic; the
    # first seeded line that attains the least splitting type is the witness
    grid = tmp_path / "m.json"
    grid.write_text(json.dumps([["x1^3", "x2^4", "x3^4"]]))
    code, report = _run(capsys, ["line", "--a", "3,4,4", "--b", "0", "--matrix", str(grid),
                                 "--prime", "13", "--seed", "6", "--line", "1,0,1"])
    assert code == 0 and report["jumping"] and not report["lefschetz"]
    assert report["splitting_normalized"]["alpha"] > 0


# sha256 of stdout and the exit code of each command, taken before the
# graded pieces were built on demand (with the full Lefschetz scan)
GOLDEN = [
    ("locus --a 3,4,4 --b 0 --seed 1",
     "ad252837ee2159b5df12aea1749f509add008e32f93fd717270ee47718aa5ddc", 0),
    ("locus --a 4,4,4 --b 0 --seed 3",
     "82b7fb9e91052bead2b83e9f188c62a0bda3e2aba2be5ad73f8e1433d530218d", 0),
    ("line --a 3,4,4 --b 0 --prime 13 --line 1,6,11",  # fails in degrees [3, 4]
     "79bcda407cf2515947b5f72be77a370ec834ecf857a1bcad405fbb74f2059256", 0),
    ("line --a 2,2,3,3 --b 0,1 --prime 13 --line 1,6,0",  # fails in degrees [2, 3]
     "032921f73a5186fa7ddb2d2df96501c968e3ec0f38c42ed9cc70e605f2843307", 0),
    ("hilbert --a 2,3,4,4,5 --b 0,0,2",
     "f4bb8144813a352e11c5a29bd2e68126f728995f6415fc8ca61698bcff278aa5", 0),
    ("survey --grid ci:2-3 --prime 13 --samples 3 --localization",
     "71f7256bac2728c63d5408ef9da86a14481a43b90349748db0f37e74a5115b4d", 0),
    # these three were taken before the multiplication maps became bare
    # residue arrays: a pure-power row, a prime just below 2^31, the n = 2 grid
    ("survey --grid ci:2-3 --monomial 3,4,4 --localization",
     "4d5267a4a7cddd3ae54cc7ae8a21d92392a3ad6a0968ad840a9020fe65c8c2c2", 2),
    ("line --a 2,2,3,3 --b 0,1 --line 5,7,11 --seed 3 --prime 2147483647",
     "549dc74d9d4e989ef8128944e9935a1c9ac00e19d09862dc6c7b21871461d244", 0),
    ("survey --grid n2 --localization --seed 2",
     "3d2c3d1064297acca3594cdb336e34c25303c8a5d00d2477dc09a4a6db63ac46", 0),
    # these two were taken before balanced lines skipped the vote: an
    # unstable bundle, whose every line is unbalanced and goes to the vote,
    # and a balanced line of a semistable one
    ("line --a 1,1,1,8 --b 0,0 --seed 1 --line 1,2,3",
     "bbf24aa60291413f4f2bf6d648383560f448dbc6474ebe23d2ca8351aa9a0b87", 0),
    ("line --a 2,2,2 --b 0 --seed 1 --line 1,2,3",
     "86bb41b9ebfe3f29546c51f0c71a4b56785bc3faa31bad2b753f8f6b95b2cd1e", 0),
    # these two were taken before the localization scan stopped at the
    # first injective degree: the benchmark's survey grid, at two primes
    ("survey --grid ci:2-4 --localization --seed 1",
     "6ef362ab39d27d56370c4b3c3e02d84eb2aa9688aaffb25ae3fb13540fc6cc1f", 0),
    ("survey --grid ci:2-4 --localization --prime 2147483647 --seed 3",
     "de23b749498296d02eeb36b21659f1417189903b94099d0e9c6ccf54108a11c2", 0),
]


def test_reports_are_byte_identical_to_the_recorded_ones(capsys, monkeypatch):
    import hashlib

    monkeypatch.delenv("LL_PRIME", raising=False)
    got = []
    for argv, _, _ in GOLDEN:
        try:
            code = main(argv.split())
        except SystemExit as exc:
            code = exc.code
        got.append((argv, hashlib.sha256(capsys.readouterr().out.encode()).hexdigest(), code))
    assert got == GOLDEN


@pytest.mark.parametrize("argv,most", [
    ("line --a 2,2,3,3 --b 0,1 --line 1,2,3", 1),  # balanced: no other line
    ("line --a 2,2,2 --b 0 --seed 1 --line 1,2,3", 1),
    # the two jumping lines of GOLDEN: three sampled lines agree
    ("line --a 3,4,4 --b 0 --prime 13 --line 1,6,11", 1 + 3),
    ("line --a 2,2,3,3 --b 0,1 --prime 13 --line 1,6,0", 1 + 3),
])
def test_line_report_restricts_the_line_and_at_most_a_majority(argv, most, capsys,
                                                               monkeypatch):
    from lefschetz_locus import jumping

    calls, restrict = [], jumping.restrict

    def counting(*args):
        calls.append(args[1].coords)
        return restrict(*args)

    monkeypatch.setattr(jumping, "restrict", counting)
    assert jumping.restrict is counting
    assert main(argv.split()) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["jumping"] == (most > 1)
    assert calls[0] == tuple(report["line"])
    assert 1 <= len(calls) <= most
