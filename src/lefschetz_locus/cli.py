"""Command-line entry point.

One JSON document per run on stdout, machine-diffable: identical
(command, seed, prime) inputs give byte-identical output.  ``--pretty``
adds a human summary on stderr.  Exit codes: 0 when every checked claim
matched, 2 when a mismatch was found (for instance a locus needing the
genericity hypothesis), 1 for input or internal errors, which print
``{"error": message, "type": exception class name}``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from concurrent.futures import ProcessPoolExecutor

from . import __version__, bundle, jumping, lefschetz, predictor
from .field_linalg import DEFAULT_PRIME
from .groebner import GroebnerBasis, buchberger, measure
from .presentation import (
    DegreeData,
    GradedModule,
    NonFiniteLengthError,
    NonGenericPresentationError,
    generic_hilbert_profile,
    generic_module,
    presentation_from_strings,
)

_N2_GRID: tuple[tuple[tuple[int, ...], tuple[int, ...]], ...] = (
    ((1, 1, 1, 2), (0, 0)),
    ((1, 1, 2, 2), (0, 0)),
    ((2, 2, 2, 2), (0, 0)),
    ((2, 2, 2, 3), (0, 1)),
    ((2, 2, 3, 3), (0, 1)),
)


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse defaults to exit code 2; we reserve that
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _csv_ints(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(x) for x in text.split(","))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"not a comma-separated integer list: {text!r}") from exc


def build_parser() -> _Parser:
    parser = _Parser(prog="lefschetz-locus")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("hilbert", "locus", "line", "survey"):
        p = sub.add_parser(name, add_help=True)
        p.add_argument("--a", type=_csv_ints, default=None, help="source twists, e.g. 2,2,3")
        p.add_argument("--b", type=_csv_ints, default=None, help="target twists, e.g. 0")
        p.add_argument("--matrix", default=None, help="JSON file with a grid of polynomial strings")
        p.add_argument("--seed", type=int, default=1)
        p.add_argument("--prime", type=int, default=None)
        p.add_argument("--pretty", action="store_true")
        if name == "line":
            p.add_argument("--line", type=_csv_ints, required=True, help="dual coordinates l1,l2,l3")
        if name == "survey":
            p.add_argument("--grid", default=None, help="'ci:LO-HI' or 'n2'")
            p.add_argument("--monomial", type=_csv_ints, default=None,
                           help="add a pure-power complete intersection row, e.g. 3,4,4")
            p.add_argument("--samples", type=int, default=1)
            p.add_argument("--jobs", type=int, default=1)
            p.add_argument("--localization", action="store_true",
                           help="check that the middle-degree ideal cuts out the whole locus")
    return parser


def _resolve_prime(args) -> int:
    if args.prime is not None:
        return args.prime
    env = os.environ.get("LL_PRIME")
    return int(env) if env else DEFAULT_PRIME


def _job_from_args(args, parser: _Parser) -> dict:
    if args.a is None or args.b is None:
        parser.error("--a and --b are required")
    if len(args.b) < 1:
        parser.error("need at least one target twist (n >= 1)")
    if len(args.a) != len(args.b) + 2:
        parser.error("--a must have exactly two more entries than --b")
    matrix = None
    if args.matrix:
        with open(args.matrix) as fh:
            matrix = json.load(fh)
    return {
        "a": list(args.a),
        "b": list(args.b),
        "seed": args.seed,
        "prime": _resolve_prime(args),
        "matrix": matrix,
    }


def build_module(job: dict) -> GradedModule:
    degrees = DegreeData(tuple(job["a"]), tuple(job["b"]))
    if job.get("matrix") is not None:
        pres = presentation_from_strings(degrees, job["matrix"], job["prime"])
        mod = GradedModule.build(pres)
        profile = generic_hilbert_profile(degrees)
        mod.audit = {
            "requested_seed": job["seed"],
            "seed": job["seed"],
            "rejected_seeds": [],
            "hilbert_matches_generic_profile": mod.hilbert() == profile,
        }
        return mod
    return generic_module(degrees, job["seed"], job["prime"])


def _base_report(job: dict, command: str) -> dict:
    return {
        "tool": "lefschetz-locus",
        "version": __version__,
        "command": command,
        "prime": job["prime"],
        "seed": job["seed"],
        "degrees": {"a": list(job["a"]), "b": list(job["b"])},
        "presentation": "matrix" if job.get("matrix") is not None else "seed",
    }


def _hilbert_block(mod: GradedModule) -> dict:
    deg = mod.degrees
    return {
        "start": deg.b[0],
        "values": [mod.h(t) for t in mod.support],
        "d": deg.d,
        "socle_degree": deg.socle_degree,
    }


def _structural_claims(mod: GradedModule) -> list[tuple[str, bool]]:
    values = [mod.h(t) for t in mod.support]
    peak = values.index(max(values)) if values else 0
    unimodal = all(values[i] <= values[i + 1] for i in range(peak)) and all(
        values[i] >= values[i + 1] for i in range(peak, len(values) - 1)
    )
    deg = mod.degrees
    expected_socle = tuple(sorted(deg.d - bj - 3 for bj in deg.b))
    return [
        ("finite-length", True),  # GradedModule.build raises NonFiniteLengthError otherwise
        ("unimodal", unimodal),
        ("socle-formula", tuple(sorted(mod.socle())) == expected_socle),
    ]


def analyze_hilbert(job: dict) -> dict:
    mod = build_module(job)
    report = _base_report(job, "hilbert")
    report["hilbert"] = _hilbert_block(mod)
    report["socle"] = sorted(mod.socle())
    report["audit"] = mod.audit
    claims = _structural_claims(mod)
    report["claims"] = [{"claim": name, "ok": ok} for name, ok in claims]
    report["ok"] = all(ok for _, ok in claims)
    return report


def _middle_basis(mod: GradedModule) -> GroebnerBasis:
    """Reduced Groebner basis of the middle-degree minor ideal; one per row,
    shared by the measurement and the localization check."""
    mid = lefschetz.locus_ideal_at(mod, mod.degrees.middle_degree)
    return buchberger(list(mid.gens), ring=lefschetz.dual_ring(mod))


def analyze_locus(job: dict) -> dict:
    mod = build_module(job)
    return _locus_report(job, mod, _middle_basis(mod))


def _locus_report(job: dict, mod: GradedModule, gb_mid: GroebnerBasis) -> dict:
    degrees = mod.degrees
    stab = bundle.classify_stability(degrees)
    chern_data = bundle.chern(degrees)
    measured = measure(gb_mid)
    comp = predictor.compare(mod, stab, chern_data, measured)

    report = _base_report(job, "locus")
    report["hilbert"] = _hilbert_block(mod)
    report["audit"] = mod.audit
    report["middle_degree"] = degrees.middle_degree
    report["stability"] = {
        "class": stab.cls,
        "t0": stab.t0,
        "c1_normalized": stab.c1_norm,
        "instability_index": stab.k,
    }
    report["chern"] = {"c1": chern_data.c1, "c2": chern_data.c2}
    report["codim"] = comp.measured_codim
    report["dim_projective"] = measured.dim_projective
    report["degree"] = comp.measured_degree
    report["expected"] = comp.prediction.expected_codim
    report["predicted"] = comp.prediction.predicted_codim
    report["predicted_degree"] = comp.prediction.predicted_degree
    report["claims"] = [{"claim": name, "ok": ok} for name, ok in comp.claims]
    report["verdict"] = comp.verdict
    return report


def analyze_line(job: dict, line_coords) -> dict:
    mod = build_module(job)
    degrees = mod.degrees
    prime = mod.prime
    coords = tuple(int(c) % prime for c in line_coords)
    check = lefschetz.is_lefschetz(mod, coords)  # raises on the zero line
    point = jumping.line_point(coords, prime)
    split = jumping.splitting_type(jumping.restrict(mod.pres, point))
    stab = bundle.classify_stability(degrees)
    normalized = split.shifted(stab.t0)
    oracle = bundle.lefschetz_oracle(stab, normalized)
    jump = split != jumping.generic_splitting_empirical(mod.pres, job["seed"])

    report = _base_report(job, "line")
    report["line"] = list(coords)
    report["lefschetz"] = check.ok
    report["failing_degrees"] = list(check.failing_degrees)
    report["splitting"] = {"alpha": split.alpha, "beta": split.beta}
    report["splitting_normalized"] = {"alpha": normalized.alpha, "beta": normalized.beta}
    report["jumping"] = jump
    report["oracle_lefschetz"] = oracle
    agreement = {
        "jumping-equals-non-lefschetz": jump == (not check.ok),
        "oracle-equals-direct": oracle == check.ok,
    }
    report["claims"] = [{"claim": k, "ok": v} for k, v in sorted(agreement.items())]
    report["ok"] = all(agreement.values())
    return report


def survey_row(job: dict) -> dict:
    mod = build_module(job)
    gb_mid = _middle_basis(mod)
    row = _locus_report(job, mod, gb_mid)
    claims = _structural_claims(mod)
    witness = lefschetz.find_lefschetz_line(mod, job["seed"], tries=25)
    claims.append(("wlp-witness", witness is not None))
    stab = row["stability"]
    if stab["class"] == "unstable" or stab["c1_normalized"] == 0:
        claims.append(("expected-codim-one", predictor.expected_codimension(mod) == 1))
    if job.get("localization"):
        claims.append(("middle-localization", lefschetz.locus_ideal(mod, gb_mid)))
    row["claims"] = row["claims"] + [{"claim": name, "ok": ok} for name, ok in claims]
    row["ok"] = all(c["ok"] for c in row["claims"]) and row["verdict"] in (
        "match",
        "generality-required",
    )
    return row


def _survey_jobs(args, parser: _Parser) -> list[dict]:
    prime = _resolve_prime(args)
    fixtures: list[tuple[tuple[int, ...], tuple[int, ...], list | None]] = []
    if args.grid:
        if args.grid.startswith("ci:"):
            try:
                lo, hi = (int(x) for x in args.grid[3:].split("-"))
            except ValueError:
                parser.error(f"bad grid argument {args.grid!r}")
            for a1 in range(lo, hi + 1):
                for a2 in range(a1, hi + 1):
                    for a3 in range(a2, hi + 1):
                        fixtures.append(((a1, a2, a3), (0,), None))
            if not fixtures:
                parser.error(f"grid {args.grid!r} yields no fixture")
        elif args.grid == "n2":
            fixtures.extend((a, b, None) for a, b in _N2_GRID)
        else:
            parser.error(f"unknown grid {args.grid!r}")
    elif args.a is not None and args.b is not None:
        grid = None
        if args.matrix:
            with open(args.matrix) as fh:
                grid = json.load(fh)
        fixtures.append((tuple(args.a), tuple(args.b), grid))
    else:
        parser.error("survey needs --grid or --a/--b")
    if args.monomial:
        powers = tuple(sorted(args.monomial))
        if len(powers) != 3:
            parser.error("--monomial takes three exponents")
        grid = [[f"x1^{powers[0]}", f"x2^{powers[1]}", f"x3^{powers[2]}"]]
        fixtures.append((powers, (0,), grid))
    jobs = []
    for a, b, grid in fixtures:
        for k in range(max(args.samples, 1)):
            jobs.append({
                "a": list(a),
                "b": list(b),
                "seed": args.seed + k,
                "prime": prime,
                "matrix": grid,
                "localization": bool(args.localization),
            })
    return jobs


def analyze_survey(jobs: list[dict], workers: int = 1) -> dict:
    # the fork start method launches every worker up front, so never ask for
    # more than there are jobs or cores
    workers = min(workers, len(jobs), os.cpu_count() or 1)
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            rows = list(pool.map(survey_row, jobs))
    else:
        rows = [survey_row(job) for job in jobs]
    verdicts: dict[str, int] = {}
    claim_counts: dict[str, list[int]] = {}
    for row in rows:
        verdicts[row["verdict"]] = verdicts.get(row["verdict"], 0) + 1
        for c in row["claims"]:
            passed, total = claim_counts.get(c["claim"], [0, 0])
            claim_counts[c["claim"]] = [passed + (1 if c["ok"] else 0), total + 1]
    report = {
        "tool": "lefschetz-locus",
        "version": __version__,
        "command": "survey",
        "prime": jobs[0]["prime"] if jobs else None,
        "fixtures": len(rows),
        "rows": rows,
        "verdicts": verdicts,
        "claims": {k: {"pass": v[0], "total": v[1]} for k, v in sorted(claim_counts.items())},
    }
    report["ok"] = all(row["ok"] for row in rows) and all(
        row["verdict"] == "match" for row in rows
    )
    return report


def _emit(report: dict, pretty: bool) -> None:
    sys.stdout.write(json.dumps(report, sort_keys=True, separators=(",", ":")) + "\n")
    if pretty:
        _pretty(report)


def _pretty(report: dict) -> None:
    err = sys.stderr
    cmd = report.get("command")
    print(f"[{report.get('tool')}] {cmd} (prime={report.get('prime')})", file=err)
    if cmd == "survey":
        header = f"{'a':<12}{'b':<8}{'seed':<6}{'verdict':<22}{'codim':<7}{'degree':<8}"
        print(header, file=err)
        for row in report["rows"]:
            a = ",".join(str(x) for x in row["degrees"]["a"])
            b = ",".join(str(x) for x in row["degrees"]["b"])
            print(f"{a:<12}{b:<8}{row['seed']:<6}{row['verdict']:<22}"
                  f"{row['codim']:<7}{row['degree']:<8}", file=err)
        print(f"verdicts: {report['verdicts']}", file=err)
        return
    if "hilbert" in report:
        h = report["hilbert"]
        print(f"hilbert start={h['start']} values={h['values']} d={h['d']} "
              f"socle degree={h['socle_degree']}", file=err)
    for key in ("stability", "codim", "degree", "expected", "predicted", "verdict",
                "lefschetz", "splitting", "jumping"):
        if key in report:
            print(f"{key}: {report[key]}", file=err)
    for claim in report.get("claims", []):
        mark = "ok" if claim["ok"] else "FAIL"
        print(f"  claim {claim['claim']}: {mark}", file=err)


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "survey":
            jobs = _survey_jobs(args, parser)
            report = analyze_survey(jobs, workers=max(args.jobs, 1))
            _emit(report, args.pretty)
            return 0 if report["ok"] else 2
        job = _job_from_args(args, parser)
        if args.command == "hilbert":
            report = analyze_hilbert(job)
            _emit(report, args.pretty)
            return 0 if report["ok"] else 2
        if args.command == "locus":
            report = analyze_locus(job)
            _emit(report, args.pretty)
            return 0 if report["verdict"] == "match" else 2
        if args.command == "line":
            if len(args.line) != 3:
                parser.error("--line takes exactly three coordinates l1,l2,l3")
            if not any(c % job["prime"] for c in args.line):
                parser.error("--line must be a nonzero coordinate triple")
            report = analyze_line(job, args.line)
            _emit(report, args.pretty)
            return 0 if report["ok"] else 2
        parser.error(f"unknown command {args.command!r}")
    except SystemExit:
        raise
    except (NonFiniteLengthError, NonGenericPresentationError, ValueError,
            ArithmeticError, OSError, json.JSONDecodeError) as exc:
        sys.stdout.write(json.dumps({"error": str(exc), "type": type(exc).__name__}) + "\n")
        return 1
    return 1


if __name__ == "__main__":
    raise SystemExit(main())
