"""Checks of CLI reports against results computed here, from the twist
data alone, with no call into the program.

* Hilbert function: the alternating sum over the four twisted free modules
  of the self-dual resolution of H^1_*(E).
* Codimension and degree of the locus: the determinantal closed forms at
  the middle degree i* = floor((d - 4) / 2).  When h(i*) != h(i*+1) the
  h(i*+1) x h(i*) matrix of linear forms drops rank in codimension 2 with
  degree C(h(i*+1), h(i*) - 1) (Eagon-Northcott / Porteous); when it is
  square the locus is the determinant curve, of degree h(i*).
* Line reports: both agreement claims hold, the seeded line is Lefschetz,
  and the restricted splitting has total -d and is balanced
  (Grauert-Mulich on a general line).

Each check returns the list of problems found; an empty list passes.
"""

from __future__ import annotations

import copy
from math import comb

LINE_CLAIMS = ("jumping-equals-non-lefschetz", "oracle-equals-direct")


def _dim_r(k: int) -> int:
    return (k + 2) * (k + 1) // 2 if k >= 0 else 0


def hilbert_values(a, b) -> list[int]:
    """h(t) for t = b_1 .. socle degree d - 3 - b_1."""
    d = sum(a) - sum(b)
    return [
        sum(_dim_r(t - x) for x in b) - sum(_dim_r(t - x) for x in a)
        + sum(_dim_r(t - d + x) for x in a) - sum(_dim_r(t - d + x) for x in b)
        for t in range(b[0], d - 3 - b[0] + 1)
    ]


def locus_closed_form(a, b) -> tuple[int, int]:
    """(codimension, degree) of the non-Lefschetz locus of a general module."""
    values = hilbert_values(a, b)
    mid = (sum(a) - sum(b) - 4) // 2

    def h(t: int) -> int:
        k = t - b[0]
        return values[k] if 0 <= k < len(values) else 0

    lo, hi = h(mid), h(mid + 1)
    if lo == hi:
        return 1, lo
    return 2, comb(hi, lo - 1)


def _claims_ok(claims) -> list[str]:
    return [f"claim {c.get('claim')} failed" for c in claims if c.get("ok") is not True]


def check_locus_row(row: dict) -> list[str]:
    """Checks shared by `locus` reports and `survey` rows."""
    a, b = row["degrees"]["a"], row["degrees"]["b"]
    problems = _claims_ok(row.get("claims", []))
    if row.get("verdict") != "match":
        problems.append(f"verdict {row.get('verdict')!r}")
    hb = row.get("hilbert", {})
    if hb.get("start") != b[0] or hb.get("values") != hilbert_values(a, b):
        problems.append(f"hilbert {hb.get('values')} != {hilbert_values(a, b)}")
    codim, degree = locus_closed_form(a, b)
    if (row.get("codim"), row.get("degree")) != (codim, degree):
        problems.append(f"codim/degree {(row.get('codim'), row.get('degree'))} "
                        f"!= {(codim, degree)}")
    return problems


def check_locus(report: dict, code: int, expect: dict) -> list[str]:
    problems = [] if code == 0 else [f"exit code {code}"]
    if report.get("command") != "locus" or report.get("degrees") != expect["degrees"]:
        return problems + ["not the requested locus report"]
    return problems + check_locus_row(report)


def check_survey(report: dict, code: int, expect: dict) -> list[str]:
    problems = [] if code == 0 else [f"exit code {code}"]
    rows = report.get("rows", [])
    if report.get("command") != "survey" or len(rows) != expect["fixtures"]:
        return problems + [f"expected {expect['fixtures']} survey rows, got {len(rows)}"]
    for row in rows:
        names = {c.get("claim") for c in row.get("claims", [])}
        if "middle-localization" not in names:
            problems.append("row without a middle-localization claim")
        problems += check_locus_row(row)
    return problems


def check_line(report: dict, code: int, expect: dict) -> list[str]:
    problems = [] if code == 0 else [f"exit code {code}"]
    if report.get("command") != "line" or report.get("degrees") != expect["degrees"]:
        return problems + ["not the requested line report"]
    claims = report.get("claims", [])
    if sorted(c.get("claim") for c in claims) != sorted(LINE_CLAIMS):
        problems.append("line report lacks its agreement claims")
    problems += _claims_ok(claims)
    if report.get("lefschetz") is not True:
        problems.append("seeded line is not Lefschetz")
    if report.get("line") != expect["line"]:
        problems.append(f"line {report.get('line')} != {expect['line']}")
    a, b = expect["degrees"]["a"], expect["degrees"]["b"]
    split = report.get("splitting", {})
    alpha, beta = split.get("alpha"), split.get("beta")
    if not isinstance(alpha, int) or not isinstance(beta, int):
        problems.append("line report lacks a splitting type")
    elif alpha + beta != sum(b) - sum(a) or alpha - beta not in (0, 1):
        problems.append(f"splitting ({alpha}, {beta}) is not balanced of total "
                        f"{sum(b) - sum(a)}")
    return problems


CHECKS = {"locus": check_locus, "survey": check_survey, "line": check_line}


def _corrupt_row(row: dict) -> list[dict]:
    """Wrong degree, off-by-one Hilbert value, false claim."""
    wrong_degree = copy.deepcopy(row)
    wrong_degree["degree"] += 1
    off_by_one = copy.deepcopy(row)
    off_by_one["hilbert"]["values"][len(off_by_one["hilbert"]["values"]) // 2] += 1
    false_claim = copy.deepcopy(row)
    false_claim["claims"][0]["ok"] = False
    return [wrong_degree, off_by_one, false_claim]


def corruptions(kind: str, report: dict, code: int) -> list[tuple[str, dict, int]]:
    """Damaged copies of a passing report, each of which must fail."""
    out = [("exit code 2", report, 2)]
    if kind == "line":
        false_claim = copy.deepcopy(report)
        false_claim["claims"][0]["ok"] = False
        not_lefschetz = copy.deepcopy(report)
        not_lefschetz["lefschetz"] = False
        wrong_split = copy.deepcopy(report)
        wrong_split["splitting"]["alpha"] += 1
        return out + [("false claim", false_claim, code),
                      ("non-Lefschetz line", not_lefschetz, code),
                      ("wrong splitting", wrong_split, code)]
    names = ("wrong degree", "off-by-one Hilbert value", "false claim")
    if kind == "locus":
        return out + [(n, r, code) for n, r in zip(names, _corrupt_row(report))]
    damaged = []
    for name, row in zip(names, _corrupt_row(report["rows"][0])):
        whole = copy.deepcopy(report)
        whole["rows"][0] = row
        damaged.append((name, whole, code))
    return out + damaged
