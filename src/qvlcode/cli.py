"""Command-line front end: run one experiment, emit CSV or JSON.

Every result row carries the inputs that produced it, the value, and a
``method`` tag (exact | closed-form | convex-program | monte-carlo).
Output is byte-stable for a fixed configuration and seed, independent of
the worker-thread count: threads only split the rows of ``dims`` and
``lemma-l1``, which are always collected in submission order.

Exit codes: 0 success, 1 invalid configuration, 2 dimension budget
exceeded, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import locale  # noqa: F401  at start, not in the first operation (argparse's gettext loads it)
import math
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, fields

import numpy as np
import numpy.ma  # noqa: F401  likewise (np.unique)
import numpy.random  # noqa: F401  likewise (Monte Carlo)

from . import __version__, bounds, codec, info, young
from .linalg import DimensionBudgetError, NumericalFailure, Source, basis_source
from .schur_weyl import young_projectors


class ConfigError(ValueError):
    """Invalid command-line or file configuration."""


@dataclass
class ExperimentConfig:
    command: str
    n: int | None = None
    d: int = 2
    delta: float | None = None
    delta1: float | None = None
    rate: float | None = None
    schedule: bool = False
    spectrum: tuple[float, ...] | None = None
    spectrum_set: tuple[tuple[float, ...], ...] | None = None
    source_path: str | None = None
    n_grid: tuple[int, ...] | None = None
    t1: float | None = None
    t0: float | None = None
    dtheta: float | None = None
    criterion: str = "exact"
    samples: int | None = None
    seed: int = 0
    format: str = "csv"
    output: str | None = None

    def to_dict(self) -> dict:
        out = {}
        for key, value in asdict(self).items():
            if value is None or key == "output":
                continue
            out[key] = list(value) if isinstance(value, tuple) else value
        if self.spectrum_set is not None:
            out["spectrum_set"] = [list(s) for s in self.spectrum_set]
        return out

    @classmethod
    def from_dict(cls, data: dict) -> "ExperimentConfig":
        kwargs = dict(data)
        for key in ("spectrum", "n_grid"):
            if kwargs.get(key) is not None:
                kwargs[key] = tuple(kwargs[key])
        if kwargs.get("spectrum_set") is not None:
            kwargs["spectrum_set"] = tuple(tuple(s) for s in kwargs["spectrum_set"])
        return cls(**kwargs)


def _parse_spectrum(text: str) -> tuple[float, ...]:
    try:
        vals = tuple(float(v) for v in text.split(","))
    except ValueError as exc:
        raise ConfigError(f"bad spectrum {text!r}") from exc
    if not (all(v >= 0 for v in vals) and abs(sum(vals) - 1.0) <= 1e-9):  # NaN fails both
        raise ConfigError(f"spectrum {text!r} is not a probability vector")
    return vals


def _parse_spectrum_set(text: str) -> tuple[tuple[float, ...], ...]:
    return tuple(_parse_spectrum(part) for part in text.split(";") if part)


def _parse_n_grid(text: str) -> tuple[int, ...]:
    try:
        if ":" not in text:
            return tuple(int(v) for v in text.split(","))
        parts = [int(v) for v in text.split(":")]
        if len(parts) in (2, 3):
            return tuple(range(parts[0], parts[1] + 1, *parts[2:]))
    except ValueError as exc:  # not an integer, or a step of 0
        raise ConfigError(f"bad n-grid {text!r}") from exc
    raise ConfigError(f"bad n-grid {text!r}")


def load_source_file(path: str) -> Source:
    """Parse a JSON source file: {"d": ..., "atoms": [{"weight", "matrix"}]}.

    Matrix entries are [re, im] pairs.
    """
    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
        d = int(data["d"])
        weights, states = [], []
        for atom in data["atoms"]:
            weights.append(float(atom["weight"]))
            m = np.array([[complex(re, im) for re, im in row] for row in atom["matrix"]])
            states.append(m)
        return Source(d=d, weights=tuple(weights), states=tuple(states))
    except (OSError, KeyError, TypeError, ValueError) as exc:  # ValueError: bad JSON or UTF-8 too
        raise ConfigError(f"bad source file {path}: {exc}") from exc


# smallest value each numeric setting may take (NaN fails every comparison)
MINIMA = {"n": 1, "d": 1, "delta": 0.0, "delta1": 0.0, "samples": 2, "seed": 0}
# commands whose --spectrum is a spectrum on C^d
ON_D = ("overflow", "bounds", "error", "distribution", "fixed-length")
SIMULATED = {"definitional": "average_error_definitional", "prime": "average_error_prime"}  # criteria by simulation


def _validate(config: ExperimentConfig) -> None:
    """ConfigError for a setting out of range, before any command runs."""
    for name in ("delta", "delta1", "rate", "t1", "t0", "dtheta"):
        if not math.isfinite(getattr(config, name) or 0.0):  # an unset option passes
            raise ConfigError(f"--{name} must be a finite number")
    for name, low in MINIMA.items():
        value = getattr(config, name)
        if value is not None and not value >= low:
            raise ConfigError(f"--{name} must be at least {low}, got {value}")
    if config.delta1 is not None and config.delta is not None and not config.delta1 < config.delta:
        raise ConfigError("--delta1 must be below --delta")
    if config.n_grid is not None and not (config.n_grid and min(config.n_grid) >= 1):
        raise ConfigError("--n-grid must list block lengths of at least 1")
    if config.samples is not None and config.command not in ("error", "distribution", "fixed-length"):
        raise ConfigError(f"--samples has no Monte Carlo route for {config.command}")
    if config.command == "error" and config.criterion in SIMULATED and config.samples is not None:
        raise ConfigError(f"--samples has no Monte Carlo route for --criterion {config.criterion}")
    if config.command in ON_D and config.spectrum and len(config.spectrum) != config.d:
        raise ConfigError("spectrum length must equal d")
    if config.command == "bounds" and config.d < 2:
        raise ConfigError("bounds needs --d of at least 2")
    if config.command == "exponent" and config.spectrum and config.rate is not None \
            and config.rate > math.log(len(config.spectrum)) + 1e-12:
        raise ConfigError("--rate must not exceed ln d, the log of the spectrum length")
    if config.command in ("lemma-l1", "lemma-l2") and config.spectrum:
        p = sorted(config.spectrum, reverse=True)
        if len(p) != 2 or not p[0] > p[1]:
            raise ConfigError(f"{config.command} needs a two-entry spectrum with p1 > p2")
        if config.command == "lemma-l2" and p[1] == 0:
            raise ConfigError("lemma-l2 needs p2 > 0: its rate ceiling is infinite at p2 = 0")
    if config.command == "lemma-l2" and config.n_grid and min(config.n_grid) < 2:
        raise ConfigError("lemma-l2 needs --n-grid points of at least 2 (the error is 0 at n = 1)")
    if config.command == "sec6-gap" and not all(t is None or 0.0 < t < 0.5 for t in (config.t1, config.t0)):
        raise ConfigError("--t1 and --t0 must lie in (0, 1/2)")


def _resolve_source(config: ExperimentConfig) -> Source:
    if config.source_path:
        return load_source_file(config.source_path)
    if config.spectrum:
        return basis_source(config.d, config.spectrum)
    raise ConfigError("need --spectrum or --source")


def _resolve_radii(config: ExperimentConfig) -> tuple[float, float | None]:
    if config.schedule:
        if config.n is None:
            raise ConfigError("--schedule needs --n")
        return codec.delta_schedule(config.n)
    if config.delta is None:
        raise ConfigError("need --delta or --schedule")
    return config.delta, config.delta1


def _build_code(config: ExperimentConfig) -> codec.VLCode:
    delta, delta1 = _resolve_radii(config)
    if config.spectrum_set is not None:
        if delta1 is None:
            raise ConfigError("a restricted code needs --delta1 or --schedule")
        params = codec.CodeParams(n=config.n, d=config.d, delta=delta,
                                  delta1=delta1, spectrum_set=config.spectrum_set)
    else:
        params = codec.CodeParams(n=config.n, d=config.d, delta=delta)
    return codec.build_code(params)


def _fmt_outcome(k) -> str:
    return "reject" if k is codec.REJECT else ":".join(str(v) for v in k)


def _require(config: ExperimentConfig, *names: str) -> None:
    for name in names:
        if getattr(config, name) is None:
            raise ConfigError(f"command {config.command!r} needs --{name.replace('_', '-')}")


# --- command implementations --------------------------------------------------

def cmd_dims(config: ExperimentConfig, threads: int) -> list[dict]:
    _require(config, "n")
    labels = young.young_indices(config.n, config.d)

    def row(lam):
        du = young.dim_unitary_group(lam, config.d)
        dv = young.dim_sym_group(lam)
        return {
            "block": _fmt_outcome(lam),
            "dim_unitary": du,
            "dim_symmetric": dv,
            "dim_total": du * dv,
            "method": "exact",
        }

    with ThreadPoolExecutor(max_workers=max(1, threads)) as pool:
        return list(pool.map(row, labels))


def cmd_decompose_check(config: ExperimentConfig) -> list[dict]:
    _require(config, "n")
    projs = young_projectors(config.n, config.d)
    mats = list(projs.values())
    dim = mats[0].shape[0]
    total = sum(mats)
    rows = [{
        "check": "completeness",
        "residual": float(np.max(np.abs(total - np.eye(dim)))),
        "method": "exact",
    }]
    herm = max(float(np.max(np.abs(m - m.conj().T))) for m in mats)
    idem = max(float(np.max(np.abs(m @ m - m))) for m in mats)
    rows.append({"check": "hermiticity", "residual": herm, "method": "exact"})
    rows.append({"check": "idempotency", "residual": idem, "method": "exact"})
    ortho = 0.0
    for i, a in enumerate(mats):
        for b in mats[i + 1:]:
            ortho = max(ortho, float(np.max(np.abs(a @ b))))
    rows.append({"check": "orthogonality", "residual": ortho, "method": "exact"})
    if any(row["residual"] > 1e-10 for row in rows):
        raise NumericalFailure("block decomposition residual above 1e-10")
    return rows


def cmd_distribution(config: ExperimentConfig) -> list[dict]:
    _require(config, "n")
    code = _build_code(config)
    source = _resolve_source(config)
    records, stderr = codec.outcome_records(code, source, samples=config.samples, seed=config.seed)
    method = "monte-carlo" if stderr is not None else "closed-form"
    return [{
        "outcome": _fmt_outcome(rec.k),
        "probability": rec.probability,
        "coding_length_nats": rec.coding_length,
        "error_contribution": rec.error_contribution,
        "method": method,
    } for rec in records]


def cmd_error(config: ExperimentConfig) -> list[dict]:
    _require(config, "n")
    code = _build_code(config)
    source = _resolve_source(config)
    exponent = {"exact": 1.5, "dprime": 2.0}.get(config.criterion)
    if config.criterion in SIMULATED:  # the instrument simulations: no Monte Carlo route
        value, stderr = getattr(codec, SIMULATED[config.criterion])(code, source), None
    elif exponent is not None:
        value, stderr = codec.average_error_chain(code, source, exponent, samples=config.samples, seed=config.seed)
    else:
        raise ConfigError(f"unknown criterion {config.criterion!r}")
    return [{
        "n": config.n,
        "criterion": config.criterion,
        "error": value,
        "stderr": stderr,
        "method": "monte-carlo" if stderr is not None else "exact",
    }]


def cmd_overflow(config: ExperimentConfig) -> list[dict]:
    _require(config, "n", "rate")
    if config.spectrum is None:
        raise ConfigError("overflow needs --spectrum")
    code = _build_code(config)
    logp = codec.log_overflow_probability(code, config.spectrum, config.rate)
    prob = math.exp(logp) if logp > float("-inf") else 0.0
    return [{
        "n": config.n,
        "rate": config.rate,
        "overflow_probability": prob,
        "exponent": (-logp / config.n) if logp > float("-inf") else float("inf"),
        "method": "closed-form",
    }]


def cmd_bounds(config: ExperimentConfig) -> list[dict]:
    _require(config, "n")
    delta, delta1 = _resolve_radii(config)
    n, d = config.n, config.d
    rows = [
        {"bound": "error", "value": bounds.error_ceiling_bures(n, d, delta), "method": "closed-form"},
        {"bound": "error-overlap2", "value": bounds.error_ceiling_overlap2(n, d, delta), "method": "closed-form"},
    ]
    if delta1 is not None:
        rows.append({"bound": "error-restricted",
                     "value": bounds.restricted_error_ceiling(n, d, delta, delta1),
                     "method": "closed-form"})
    if config.rate is not None and config.spectrum is not None:
        method = "closed-form" if d == 2 else "convex-program"
        rows.append({"bound": "overflow-exponent",
                     "value": bounds.overflow_exponent_floor(n, d, delta, config.rate, config.spectrum),
                     "method": method})
        if config.spectrum_set is not None and delta1 is not None:
            rows.append({"bound": "overflow-exponent-restricted",
                         "value": bounds.restricted_overflow_exponent_floor(n, d, delta, delta1, config.spectrum_set,
                                                   config.rate, config.spectrum),
                         "method": method})
    return rows


def cmd_exponent(config: ExperimentConfig) -> list[dict]:
    _require(config, "rate")
    if config.spectrum is None:
        raise ConfigError("exponent needs --spectrum")
    value = info.optimal_overflow_exponent(config.rate, config.spectrum)
    return [{"rate": config.rate, "exponent": value, "method": "closed-form"}]


def cmd_lemma_l1(config: ExperimentConfig, threads: int) -> list[dict]:
    if config.spectrum is None or config.n_grid is None:
        raise ConfigError("lemma-l1 needs --spectrum and --n-grid")
    floor = bounds.zero_radius_error_floor(config.spectrum)
    source = basis_source(2, sorted(config.spectrum, reverse=True))

    def row(n):
        code = codec.build_code(codec.CodeParams(n=n, d=2, delta=0.0))
        err = codec.average_error_exact(code, source)
        return {"n": n, "error": err, "floor_constant": floor, "method": "closed-form"}

    with ThreadPoolExecutor(max_workers=max(1, threads)) as pool:
        return list(pool.map(row, config.n_grid))


def cmd_lemma_l2(config: ExperimentConfig) -> list[dict]:
    if config.spectrum is None or config.n_grid is None:
        raise ConfigError("lemma-l2 needs --spectrum and --n-grid")
    rows = bounds.decay_rate_table(config.spectrum, config.n_grid)
    return [{
        "n": n,
        "decay_rate": lhs,
        "rate_ceiling": ceiling,
        "satisfied": lhs <= ceiling,
        "method": "closed-form",
    } for n, lhs, ceiling in rows]


def cmd_sec6_gap(config: ExperimentConfig) -> list[dict]:
    _require(config, "t1", "t0", "dtheta")
    t1, t0, dtheta = config.t1, config.t0, config.dtheta
    gap = info.rotating_family_gap(t1, t0, lambda t: dtheta if t == t1 else 0.0)
    achievable = info.binary_divergence(t1, t0)
    return [{
        "t1": t1, "t0": t0, "dtheta": dtheta,
        "achievable_exponent": achievable,
        "ceiling": achievable + gap,
        "gap": gap,
        "method": "closed-form",
    }]


def cmd_fixed_length(config: ExperimentConfig) -> list[dict]:
    _require(config, "n", "rate")
    code = _build_code(config)
    source = _resolve_source(config)
    rep = codec.to_fixed_length(code, config.rate, source,
                                samples=config.samples, seed=config.seed)
    return [{
        "n": config.n,
        "rate": rep.rate,
        "error_fixed": rep.error_fixed,
        "error_variable": rep.error_variable,
        "overflow": rep.overflow,
        "inequality_slack": rep.slack,
        "method": "monte-carlo" if rep.stderr is not None else "closed-form",
    }]


COMMANDS = {
    "dims": cmd_dims,
    "decompose-check": cmd_decompose_check,
    "distribution": cmd_distribution,
    "error": cmd_error,
    "overflow": cmd_overflow,
    "bounds": cmd_bounds,
    "exponent": cmd_exponent,
    "lemma-l1": cmd_lemma_l1,
    "lemma-l2": cmd_lemma_l2,
    "sec6-gap": cmd_sec6_gap,
    "fixed-length": cmd_fixed_length,
}


# --- emission -----------------------------------------------------------------

def emit(results: list[dict], config: ExperimentConfig) -> str:
    """Render results as CSV or JSON text (byte-stable for fixed inputs)."""
    if not results:
        raise NumericalFailure("no results to emit")
    if config.format == "json":
        doc = {
            "config": config.to_dict(),
            "results": results,
            "seed": config.seed,
            "version": __version__,
        }
        return json.dumps(doc, indent=2, sort_keys=True, allow_nan=True) + "\n"
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=list(results[0].keys()), lineterminator="\n")
    writer.writeheader()
    for row in results:
        writer.writerow(row)
    return buf.getvalue()


def run(config: ExperimentConfig, threads: int = 1) -> str:
    """Execute one experiment and return the rendered output text."""
    if config.command not in COMMANDS:
        raise ConfigError(f"unknown command {config.command!r}")
    _validate(config)
    command = COMMANDS[config.command]
    results = command(config, threads) if config.command in ("dims", "lemma-l1") else command(config)
    return emit(results, config)


# --- argument parsing -----------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse exits with 2; remap to ConfigError
        raise ConfigError(message)


def build_parser() -> _Parser:
    """One parser for every command: the command is a positional, and the
    options, common to all commands, may come before or after it."""
    p = _Parser(prog="qvlcode", description=__doc__)
    p.add_argument("command", choices=list(COMMANDS))
    p.add_argument("--n", type=int)
    p.add_argument("--d", type=int, default=2)
    p.add_argument("--delta", type=float)
    p.add_argument("--delta1", type=float)
    p.add_argument("--rate", type=float)
    p.add_argument("--schedule", action="store_true", help="use the radius schedule delta = n^(-1/4)")
    p.add_argument("--spectrum", type=str, help="comma-separated descending probabilities")
    p.add_argument("--spectrum-set", type=str, help="semicolon-separated spectra for a restricted code")
    p.add_argument("--source", type=str, help="path to a JSON source file")
    p.add_argument("--n-grid", type=str, help="start:stop:step or comma list")
    p.add_argument("--t1", type=float)
    p.add_argument("--t0", type=float)
    p.add_argument("--dtheta", type=float)
    p.add_argument("--criterion", type=str, default="exact", choices=["exact", "dprime", "prime", "definitional"])
    p.add_argument("--samples", type=int)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--format", type=str, default="csv", choices=["csv", "json"])
    p.add_argument("--output", type=str)
    p.add_argument("--threads", type=int, default=1)
    return p


def config_from_args(args: argparse.Namespace) -> ExperimentConfig:
    raw = vars(args)
    kwargs = {f.name: raw[f.name] for f in fields(ExperimentConfig) if f.name in raw}
    for name, parse in (("spectrum", _parse_spectrum), ("spectrum_set", _parse_spectrum_set),
                        ("n_grid", _parse_n_grid)):
        kwargs[name] = parse(raw[name]) if raw[name] else None
    return ExperimentConfig(source_path=args.source, **kwargs)


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        config = config_from_args(args)
        text = run(config, threads=args.threads)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except DimensionBudgetError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (NumericalFailure, FloatingPointError, np.linalg.LinAlgError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    if config.output:
        try:
            with open(config.output, "w", encoding="utf-8", newline="") as fh:
                fh.write(text)
        except OSError as exc:
            print(f"error: cannot write {config.output}: {exc}", file=sys.stderr)
            return 1
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
