"""Every checker passes output within its tolerance and rejects output
perturbed beyond it, so each check is shown able to fail."""

import math

import pytest

import checks

OUT = 2e-9  # beyond every 1e-9 tolerance
IN = 5e-10  # within it


def rows(**fields):
    return [{k: repr(v) if isinstance(v, float) else str(v) for k, v in fields.items()}]


def test_parse_csv():
    assert checks.parse_csv("a,b\n1,\n") == [{"a": "1", "b": ""}]
    assert math.isnan(checks.num(""))


@pytest.mark.parametrize("scale, ok", [(1 + IN, True), (1 + OUT, False), (1 - OUT, False)])
def test_overflow(scale, ok):
    n, want = 100, 0.3
    got = rows(overflow_probability=want * scale, exponent=-math.log(want * scale) / n)
    assert (checks.overflow(got, n, 0.7, want) == []) is ok


def test_overflow_exponent_is_checked():
    n, want = 100, 0.3
    got = rows(overflow_probability=want, exponent=-math.log(want) / n + OUT)
    assert checks.overflow(got, n, 0.7, want)


@pytest.mark.parametrize("value, want, ok", [
    (0.1 + IN, 0.1, True), (0.1 + OUT, 0.1, False), (1.2, None, False), (-1e-3, None, False),
    (0.5, None, True)])
def test_error(value, want, ok):
    assert (checks.error(rows(error=value), "e", want) == []) is ok


def test_same_error():
    assert checks.same_error("x", rows(error=0.1), rows(error=0.1 + IN)) == []
    assert checks.same_error("x", rows(error=0.1), rows(error=0.1 + OUT))


@pytest.mark.parametrize("est, se, ok", [(0.13, 0.01, True), (0.15, 0.01, False), (0.1, 0.0, False),
                                         (0.1, math.nan, False)])
def test_monte_carlo(est, se, ok):
    assert (checks.monte_carlo("mc", rows(error=est, stderr=se), rows(error=0.1)) == []) is ok


def distribution_rows(probs, contribs, lengths):
    return [{"outcome": f"{k}:{2 - k}", "probability": repr(p), "error_contribution": repr(c),
             "coding_length_nats": repr(ll)} for k, p, c, ll in zip((2, 1, 0), probs, contribs, lengths)]


@pytest.mark.parametrize("i, field, delta, ok", [
    (0, "probability", IN, True), (0, "probability", OUT, False), (1, "error_contribution", OUT, False),
    (2, "coding_length", 2e-9 * 3.0, False)])
def test_distribution(i, field, delta, ok):
    labels, probs, contribs, lengths = ["2:0", "1:1", "0:2"], [0.5, 0.3, 0.2], [0.01, 0.02, 0.03], [1.0, 2.0, 3.0]
    got_p, got_c, got_l = list(probs), list(contribs), list(lengths)
    {"probability": got_p, "error_contribution": got_c, "coding_length": got_l}[field][i] += delta
    got = distribution_rows(got_p, got_c, got_l)
    assert (checks.distribution(got, labels, probs, contribs, lengths, rows(error=0.06)) == []) is ok


def test_distribution_sums_and_labels():
    labels = ["2:0", "1:1", "0:2"]
    short = distribution_rows([0.5, 0.3, 0.19], [0.01, 0.02, 0.03], [1.0, 2.0, 3.0])
    assert checks.distribution(short, labels, [0.5, 0.3, 0.19])  # sums to 0.99
    good = distribution_rows([0.5, 0.3, 0.2], [0.01, 0.02, 0.03], [1.0, 2.0, 3.0])
    assert checks.distribution(good, labels, [0.5, 0.3, 0.2], error_rows=rows(error=0.06 + OUT))
    assert checks.distribution(good, ["2:0", "1:1", "3:-1"], [0.5, 0.3, 0.2])


@pytest.mark.parametrize("fixed, variable, over, ok", [
    (0.5, 0.1, 0.4, True), (0.5 + OUT, 0.1, 0.4, False), (0.5, 0.1 + OUT, 0.4, False),
    (0.5, 0.1, 0.4 + OUT, False)])
def test_fixed_length(fixed, variable, over, ok):
    got = rows(error_fixed=fixed, error_variable=variable, overflow=over)
    assert (checks.fixed_length(got, 0.5, 0.1, 0.4) == []) is ok


def test_fixed_length_inequality():
    got = rows(error_fixed=0.6, error_variable=0.1, overflow=0.4)
    assert any("exceeds" in p for p in checks.fixed_length(got, 0.6, 0.1, 0.4))


def test_decompose():
    names = ("completeness", "hermiticity", "idempotency", "orthogonality")
    good = [{"check": c, "residual": "1e-15"} for c in names]
    assert checks.decompose(good) == []
    assert checks.decompose(good[:3])
    assert checks.decompose(good[:3] + [{"check": "orthogonality", "residual": "2e-10"}])


def test_exponent():
    assert checks.exponent(rows(exponent=0.02 + IN), 1.0, 0.02) == []
    assert checks.exponent(rows(exponent=0.02 + OUT), 1.0, 0.02)


def bound_rows(floor, restricted=None, error=0.5):
    out = [{"bound": "error", "value": repr(error)}, {"bound": "overflow-exponent", "value": repr(floor)}]
    if restricted is not None:
        out.append({"bound": "overflow-exponent-restricted", "value": repr(restricted)})
    return out


def test_bounds():
    assert checks.bounds(bound_rows(0.05), 0.05 + IN) == []
    assert checks.bounds(bound_rows(0.05 + OUT), 0.05)
    assert checks.bounds(bound_rows(0.05, error=1.5), 0.1)
    assert checks.bounds(bound_rows(0.05, restricted=0.05 - IN), 0.1, restricted=True) == []
    assert checks.bounds(bound_rows(0.05, restricted=math.inf), 0.1, restricted=True) == []
    assert checks.bounds(bound_rows(0.05, restricted=0.05 - OUT), 0.1, restricted=True)
    assert checks.bounds(bound_rows(0.05), 0.1, restricted=True)
