"""Checkers: compare parsed command output with reference values.

Every checker returns a list of failure messages; an empty list means the
output passed.  Rows are the command's CSV rows as dicts of strings.
Tolerances are absolute unless named ``rel``.
"""

from __future__ import annotations

import csv
import io
import math

TOL = 1e-9


def parse_csv(text: str) -> list[dict]:
    return list(csv.DictReader(io.StringIO(text)))


def num(text: str) -> float:
    return float(text) if text != "" else math.nan


def close(what: str, got: float, want: float, tol: float = TOL, rel: bool = False) -> list[str]:
    scale = abs(want) if rel else 1.0
    if not abs(got - want) <= tol * scale:
        kind = "relative" if rel else "absolute"
        return [f"{what}: got {got!r}, want {want!r} ({kind} tolerance {tol:g})"]
    return []


def in_unit(what: str, value: float) -> list[str]:
    return [] if 0.0 <= value <= 1.0 else [f"{what}: {value!r} is outside [0, 1]"]


def single(rows: list[dict], what: str) -> tuple[dict | None, list[str]]:
    if len(rows) != 1:
        return None, [f"{what}: expected one row, got {len(rows)}"]
    return rows[0], []


def overflow(rows, n: int, rate: float, want: float) -> list[str]:
    """Overflow probability to relative 1e-9 and its exponent -ln(P)/n.

    The rate comes from ``reference.pick_rate``, which keeps every outcome's
    per-symbol length at least 5e-8 from it, so the program and the
    reference select the same outcomes; the program's lengths themselves
    are compared with the reference's by the ``distribution`` checks.
    """
    what = f"overflow n={n} rate={rate!r}"
    row, errs = single(rows, what)
    if row is None:
        return errs
    got = num(row["overflow_probability"])
    errs += close(f"{what} probability", got, want, rel=True)
    errs += close(f"{what} exponent", num(row["exponent"]), -math.log(want) / n)
    return errs


def error(rows, what: str, want: float | None = None) -> list[str]:
    """An error row lies in [0, 1] and, when a reference is given, matches it."""
    row, errs = single(rows, what)
    if row is None:
        return errs
    got = num(row["error"])
    errs += in_unit(what, got)
    if want is not None:
        errs += close(what, got, want)
    return errs


def error_value(rows) -> float:
    return num(rows[0]["error"])


def same_error(what: str, rows_a, rows_b) -> list[str]:
    """Two routes to one error value agree to 1e-9."""
    return close(what, error_value(rows_a), error_value(rows_b))


def monte_carlo(what: str, rows, exact_rows) -> list[str]:
    """The estimate lies within 4 reported standard errors of the exact value."""
    row = rows[0]
    est, se = num(row["error"]), num(row["stderr"])
    exact = error_value(exact_rows)
    errs = in_unit(what, est)
    if not (se > 0 and math.isfinite(se)):
        return errs + [f"{what}: standard error {se!r} is not positive and finite"]
    if abs(est - exact) > 4 * se:
        errs.append(f"{what}: estimate {est!r} is {abs(est - exact) / se:.2f} standard errors "
                    f"from the exact {exact!r}")
    return errs


def distribution(rows, outcomes: list[str], probs, contribs=None, log_lengths=None,
                 error_rows=None) -> list[str]:
    """Per-outcome probabilities (and error contributions, lengths) by outcome.

    The probabilities must sum to 1; with ``error_rows`` the contributions
    must sum to that command's error value.
    """
    errs = []
    by_label = {row["outcome"]: row for row in rows}
    if sorted(by_label) != sorted(outcomes) or len(rows) != len(outcomes):
        return [f"distribution: outcome labels differ from the reference "
                f"({len(rows)} rows, {len(outcomes)} expected)"]
    total = sum(num(row["probability"]) for row in rows)
    errs += close("distribution probability sum", total, 1.0)
    for i, label in enumerate(outcomes):
        row = by_label[label]
        errs += close(f"probability of {label}", num(row["probability"]), probs[i])
        if contribs is not None:
            errs += close(f"error contribution of {label}", num(row["error_contribution"]), contribs[i])
        if log_lengths is not None:
            errs += close(f"coding length of {label}", num(row["coding_length_nats"]),
                          log_lengths[i], rel=True)
    if error_rows is not None:
        contrib = sum(num(row["error_contribution"]) for row in rows)
        errs += close("distribution contributions vs error", contrib, error_value(error_rows))
    return errs[:20]


def fixed_length(rows, want_fixed: float, want_variable: float, want_overflow: float) -> list[str]:
    """Both errors and the overflow match; the conversion inequality holds."""
    row, errs = single(rows, "fixed-length")
    if row is None:
        return errs
    fixed, variable, over = (num(row[k]) for k in ("error_fixed", "error_variable", "overflow"))
    errs += close("fixed-length error_fixed", fixed, want_fixed)
    errs += close("fixed-length error_variable", variable, want_variable)
    errs += close("fixed-length overflow", over, want_overflow)
    if fixed - variable > over + 1e-12:
        errs.append(f"fixed-length: error increase {fixed - variable!r} exceeds overflow {over!r}")
    return errs


def decompose(rows) -> list[str]:
    """All four projector residuals are present and at most 1e-10."""
    seen = {row["check"]: num(row["residual"]) for row in rows}
    errs = []
    for name in ("completeness", "hermiticity", "idempotency", "orthogonality"):
        if not seen.get(name, math.inf) <= 1e-10:
            errs.append(f"decompose-check {name}: residual {seen.get(name)!r}")
    return errs


def exponent(rows, rate: float, want: float) -> list[str]:
    row, errs = single(rows, "exponent")
    if row is None:
        return errs
    return errs + close(f"exponent at rate {rate!r}", num(row["exponent"]), want)


def bounds(rows, optimal: float, restricted: bool = False) -> list[str]:
    """Error ceilings lie in [0, 1]; the overflow-exponent floor is at most
    the optimal exponent, and the restricted floor (present when
    ``restricted``) at least the plain one: it minimizes over a subset."""
    values = {row["bound"]: num(row["value"]) for row in rows}
    errs = []
    for name in ("error", "error-overlap2", "error-restricted"):
        if name in values:
            errs += in_unit(f"bounds {name}", values[name])
    floor = values.get("overflow-exponent")
    if floor is None:
        return errs + ["bounds: no overflow-exponent row"]
    if not floor <= optimal + TOL:
        errs.append(f"bounds: floor {floor!r} exceeds the optimal exponent {optimal!r}")
    if restricted:
        value = values.get("overflow-exponent-restricted")
        if value is None:
            errs.append("bounds: no overflow-exponent-restricted row")
        elif not value >= floor - TOL:
            errs.append(f"bounds: restricted floor {value!r} is below the plain floor {floor!r}")
    return errs
