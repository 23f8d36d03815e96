"""Command-line surface tying the library together.

Subcommands: estimate (histogram or sample file, in the one ASCII format
read_counts describes, to point estimate), approx
(best-polynomial report), risk-sweep (Monte Carlo rate table to CSV),
lower-bound (two-point and composite constructions), check-speed
(divergence-speed fit), priors (moment-matched pair to CSV).  Every
command prints one JSON document with the resolved configuration
embedded, so a run can be reproduced from its own output; a NaN or
infinite number in it prints as null.  --phi is 'shannon' or
'power:<alpha>' with a finite alpha.  Exit codes: 0 success, 2
malformed input (with line number, or a bad --phi), 3 configuration
rejected (also an unwritable --out, or running out of memory), 4
numerical failure; every failure prints one 'error:' line to stderr and
nothing to stdout.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

import numpy as np

from .errors import (
    ConfigurationError,
    InputFormatError,
    MinifuncError,
    NumericalError,
)
from .estimators import (
    ESTIMATORS,
    EstimatorConfig,
    Histogram,
    default_config,
    default_correction_order,
    recommended_estimator,
    run_estimator,
    tuned_config,
    validate_config,
)
from .functionals import Functional, check_divergence_speed, power_functional, shannon_functional
from .polyapprox import _check_converged, remez_best_approx

# lowerbounds and risklab are imported inside the commands that call them,
# so every other command runs without loading them

__all__ = ["main", "parse_phi", "read_counts", "schema_path"]


def schema_path(command: str):
    """Filesystem path of the published output schema for a command."""
    from importlib import resources  # only here: it costs every CLI process ~8 ms

    name = command.replace("-", "_") + ".json"
    return resources.files("minifunc") / "schemas" / name


def parse_phi(text: str) -> Functional:
    """The functional named by --phi: 'shannon' or 'power:<alpha>', alpha finite."""
    text = text.strip()
    if text == "shannon":
        return shannon_functional()
    if text.startswith("power:"):
        try:
            alpha = float(text.split(":", 1)[1])
        except ValueError:
            raise InputFormatError(f"bad power exponent in {text!r}") from None
        if not math.isfinite(alpha):
            raise InputFormatError(f"power exponent must be finite, got {text!r}")
        return power_functional(alpha)
    raise InputFormatError(f"phi must be 'shannon' or 'power:<alpha>', got {text!r}")


def _write_out(path: str, text: str | None) -> None:
    """Write text to path, or with text None check that path is writable
    without truncating it or leaving a new file behind."""
    try:
        if text is None:
            existed = os.path.lexists(path)
            os.close(os.open(path, os.O_WRONLY | os.O_CREAT))
            if not existed:
                os.remove(path)
            return
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    except OSError as e:
        raise ConfigurationError(f"cannot write {path}: {e}") from None


def _parse_interval(text: str) -> tuple[float, float]:
    parts = text.split(",")
    if len(parts) != 2:
        raise InputFormatError(f"interval must be 'lo,hi', got {text!r}")
    try:
        lo, hi = float(parts[0]), float(parts[1])
    except ValueError:
        raise InputFormatError(f"interval must be 'lo,hi', got {text!r}") from None
    return lo, hi


def _parse_int_list(text: str, what: str) -> list[int]:
    out = []
    for piece in text.split(","):
        try:
            out.append(int(piece))
        except ValueError:
            raise InputFormatError(f"{what} must be comma-separated integers, got {text!r}") from None
    return out


def read_counts(path: str, k_override: int | None = None) -> tuple[np.ndarray, str]:
    """Load a histogram CSV (header symbol,count) or a raw sample file.

    Symbols are 0-based indices; the alphabet size is the largest index
    plus one unless k_override says otherwise (zero-count symbols are
    real symbols).  Returns (counts, kind) with kind 'histogram' or
    'samples'; for samples the number of lines is the sample size.

    The file is ASCII: blank space, then the header 'symbol,count'
    (any case, spaces allowed) and rows of 'digits,digits', or samples
    of 'digits', one a line.  Lines end in LF, CRLF or a lone CR, the
    last one optionally; blank space after the last row is ignored.
    numpy parses the rows in one call.  Anything else (a blank line
    between rows, a space, tab or sign inside a row, a non-ASCII byte)
    is an InputFormatError naming the first line that is not plain.
    Once every row is plain, the earliest row with a value of 2**63 or
    more, a repeated symbol or a running total past 2**63 - 1 (so
    counts.sum() is exact) is named the same way, and so is the line of
    a symbol whose alphabet cannot be allocated.  A k_override below the
    largest symbol plus one, or too large to allocate, is a
    ConfigurationError.
    """
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except OSError as e:
        raise InputFormatError(f"cannot read {path}: {e}") from None
    if b"\r" in data:
        data = data.replace(b"\r\n", b"\n").replace(b"\r", b"\n")
    body = data.lstrip()
    if not body:
        raise InputFormatError("input file is empty", line=1)
    first = data.count(b"\n", 0, len(data) - len(body)) + 1  # line of the first row
    end = body.find(b"\n")
    if end < 0:
        end = len(body)
    histogram = body[:end].strip().replace(b" ", b"").lower() == b"symbol,count"
    if histogram:
        body = body[end + 1 :]
        first += 1
        if not body or body.isspace():
            last = data.count(b"\n") + (not data.endswith(b"\n"))
            raise InputFormatError("histogram has no data rows", line=last)
    if body[-1:] != b"\n" or body[-2:-1].isspace():
        body = body.rstrip() + b"\n"
    width = 2 if histogram else 1
    skeleton = body.translate(None, b"0123456789")
    rows = len(skeleton) // width
    table = None
    if skeleton == (b",\n" if histogram else b"\n") * rows:
        # fields hold only digits, so an empty one is the only way numpy
        # can return fewer values than fields
        table = np.fromstring(body.replace(b",", b" "), dtype=np.uint64, sep=" ")
    if table is None or table.size != width * rows:
        raise _first_bad_row(body, histogram, first)
    table = table.reshape(rows, width)
    symbols = table[:, 0]

    faults = []  # (row, message); the earliest row is reported
    if table.max() > _INT64_MAX:
        # numpy saturates a field at 2**64 - 1, so one of 2**63 or more reads above 2**63 - 1
        what = "symbol and count" if histogram else "symbols"
        faults.append((np.argmax(table > _INT64_MAX) // width, f"{what} must be below 2**63"))
    if histogram:
        # on 1e6 distinct symbols np.unique takes about 1 s, np.sort about 15 ms
        ordered = np.sort(symbols)
        if (ordered[1:] == ordered[:-1]).any():
            order = np.argsort(symbols, kind="stable")
            row = order[1:][symbols[order[1:]] == symbols[order[:-1]]].min()
            faults.append((row, f"duplicate symbol {symbols[row]}"))
        if table[:, 1].max() > _INT64_MAX // rows:
            # below 2**63 before the first step past it, so uint64 holds that step
            over = np.flatnonzero(np.cumsum(table[:, 1], dtype=np.uint64) > _INT64_MAX)
            if over.size:
                faults.append((over[0], "total count must be below 2**63"))
    if faults:
        row, message = min(faults, key=lambda fault: fault[0])
        raise InputFormatError(message, line=first + int(row))
    table = table.view(np.int64)  # every value is below 2**63
    symbols = table[:, 0]

    top = int(symbols.max())
    k = top + 1 if k_override is None else k_override
    if k <= top:
        raise ConfigurationError(f"--k={k} is smaller than the largest symbol index {top}")
    try:
        if histogram:
            counts = np.zeros(k, dtype=np.int64)
            counts[symbols] = table[:, 1]
        else:
            counts = np.bincount(symbols, minlength=k).astype(np.int64, copy=False)
    except (ValueError, OverflowError, MemoryError):
        if k_override is not None:
            raise ConfigurationError(f"--k={k} is too large to allocate") from None
        raise InputFormatError(
            f"symbol {top} implies k = {k}, too large to allocate",
            line=first + int(np.argmax(symbols)),
        ) from None
    return counts, "histogram" if histogram else "samples"


# counts and symbols are stored as int64
_INT64_MAX = int(np.iinfo(np.int64).max)


def _first_bad_row(body: bytes, histogram: bool, first: int) -> InputFormatError:
    """The error for the first row of body (LF-terminated, its first row
    on line first) that is not plain digits."""
    width = 2 if histogram else 1
    for line, row in enumerate(body[:-1].split(b"\n"), start=first):
        fields = row.split(b",")
        if len(fields) == width and all(f.isdigit() for f in fields):
            continue
        if not row.isascii():
            byte = next(b for b in row if b > 0x7F)
            return InputFormatError(f"byte 0x{byte:02x} is not ASCII", line=line)
        if not row.strip():
            return InputFormatError("blank line between rows", line=line)
        text = row[:80].decode() + ("…" if len(row) > 80 else "")  # a row can be megabytes
        if len(fields) == width and all(f.lstrip(b"+-").isdigit() for f in fields):
            what = "symbol and count" if histogram else "symbols"
            message = f"{what} must be non-negative digits without a sign, got {text!r}"
        else:
            what = "'symbol,count'" if histogram else "one symbol"
            message = f"expected {what} of digits only, got {text!r}"
        return InputFormatError(message, line=line)
    raise AssertionError("every row is plain")


def _resolve_seed(args) -> int:
    seed = 0 if args.seed is None else args.seed
    if seed < 0:
        raise ConfigurationError(f"--seed must be >= 0, got {seed}")
    return seed


def _cmd_estimate(args, phi: Functional) -> tuple[dict, dict]:
    counts, kind = read_counts(args.input, args.k)
    n = int(counts.sum())  # exact: read_counts keeps it below 2**63
    h = Histogram(counts=counts, n_nominal=n)

    alpha = phi.alpha
    if (args.c1 is None) != (args.c2 is None):
        raise ConfigurationError("--c1 and --c2 must be given together")
    preset = args.preset if args.c1 is None else "explicit"
    if preset == "explicit":
        order = default_correction_order(alpha)
        cfg = EstimatorConfig(c1=args.c1, c2=args.c2, correction_order=order)
    else:
        make = tuned_config if preset == "tuned" else default_config
        cfg = make(alpha)
    # only explicit constants are rejected; a preset's violations are warnings
    violations = validate_config(cfg, alpha)
    if violations and preset == "explicit" and not args.allow_unvalidated:
        raise ConfigurationError(
            "constants fail the admissibility inequalities: "
            + "; ".join(str(v) for v in violations)
        )
    warnings = [f"admissibility: {v}" for v in violations]

    estimator = args.estimator or recommended_estimator(alpha)
    res = run_estimator(estimator, h, phi, cfg)
    warnings.extend(res.warnings)

    params = {
        "n": n,
        "k": int(h.k),
        "input_kind": kind,
        "estimator": estimator,
        "c1": cfg.c1,
        "c2": cfg.c2,
        "correction_order": cfg.correction_order,
        "preset": preset,
    }
    return params, {
        "estimate": res.estimate,
        "branch_counts": res.branch_counts,
        "warnings": warnings,
        "n_effective": res.n_effective,
        "degree": res.degree,
        "threshold": res.threshold,
        "poly_interval": res.poly_interval,
    }


def _cmd_approx(args, phi: Functional) -> tuple[dict, dict]:
    interval = _parse_interval(args.interval)
    result = _check_converged(remez_best_approx(phi.eval, args.L, interval), args.L)
    if not np.isfinite(result.poly.coeffs).all():  # they grow like (2 / interval width)**m
        raise NumericalError(f"monomial coefficients of the degree-{args.L} approximation "
                             f"on [{interval[0]!r}, {interval[1]!r}] overflow the float range")
    return {"L": args.L, "interval": list(interval)}, {
        "sup_error": result.sup_error,
        "coefficients": [float(c) for c in result.poly.coeffs],
        "alternation_points": [float(x) for x in result.alternation_points],
        "iterations": result.iterations,
        "converged": result.converged,
        "at_roundoff_floor": result.at_roundoff_floor,
    }


def _cmd_check_speed(args, phi: Functional) -> tuple[dict, dict]:
    report = check_divergence_speed(phi, args.ell)
    return {"ell": args.ell, "alpha": report.alpha}, {
        "holds": report.holds,
        "W": report.W,
        "c": report.c,
        "c_prime": report.c_prime,
        "spread": report.spread,
        "witness": report.witness,
    }


def _cmd_lower_bound(args, phi: Functional) -> tuple[dict, dict]:
    from .lowerbounds import (
        canonical_two_point_pair,
        composite_lower_bound,
        divergence,
        fitted_bound_constants,
        hellinger_le_cam_bound,
        le_cam_bound,
    )

    params = {
        "k": args.k,
        "n": args.n,
        "construction": args.construction,
        "lam": None,
        "degree": None,
        "gap": None,
    }
    extras: dict = {"condition": None, "e_l": None, "gamma": None}
    if args.construction in ("le-cam", "hellinger"):
        pair = canonical_two_point_pair(phi, args.k, args.n)
        if args.construction == "le-cam":
            bound = le_cam_bound(pair.P, pair.Q, phi, args.n)
            terms = {
                "theta_gap": pair.theta_gap,
                "kl": divergence(pair.P, pair.Q, "kl"),
                "kl_bound": pair.kl_bound,
            }
        else:
            h2 = divergence(pair.P, pair.Q, "hellinger")
            bound = hellinger_le_cam_bound(pair.P, pair.Q, phi, args.n)
            terms = {"theta_gap": pair.theta_gap, "hellinger_sq": h2}
    else:
        if args.gap is None:
            raise ConfigurationError("composite construction needs --gap (the separation to certify)")
        # the default lam and degree take logs and roots of n and k
        if args.k < 2 or args.n < 1:
            raise ConfigurationError(f"need k >= 2 and n >= 1, got k={args.k}, n={args.n}")
        lam = args.lam if args.lam is not None else min(
            0.05 * args.k * math.log(args.n) / args.n, math.sqrt(args.k) / 12.0
        )
        L = args.degree if args.degree is not None else int(math.ceil(2.0 * math.log(args.n)))
        d = args.gap
        W, Wp = fitted_bound_constants(phi, phi.alpha)
        res = composite_lower_bound(phi, args.n, args.k, lam=lam, L=L, d=d, W=W, Wprime=Wp)
        bound = res.bound
        terms = {key: float(val) for key, val in res.terms.items()}
        params["lam"] = lam
        params["degree"] = L
        params["gap"] = d
        extras = {
            "condition": res.condition,
            "e_l": res.e_l,
            "gamma": res.gamma,
        }
    return params, {
        "construction": args.construction,
        "bound_value": bound,
        "terms": terms,
        **extras,
    }


def _cmd_priors(args, phi: Functional) -> tuple[dict, dict]:
    from .lowerbounds import moment_matched_pair, tilted_pair

    if args.gamma is not None:
        pair = tilted_pair(phi, args.L, args.gamma, args.gamma)
        interval = None
    else:
        interval = _parse_interval(args.interval)
        pair = moment_matched_pair(phi.eval, args.L, interval)
    lines = ["x,w0,w1"]
    for x, w0, w1 in zip(pair.support, pair.w0, pair.w1):
        lines.append(f"{float(x)!r},{float(w0)!r},{float(w1)!r}")
    _write_out(args.out, "\n".join(lines) + "\n")
    params = {
        "L": args.L,
        "interval": list(interval) if interval is not None else None,
        "gamma": args.gamma,
    }
    return params, {
        "gap": pair.gap,
        "expected_gap": pair.expected_gap,
        "matched_orders": pair.matched_orders,
        "support_size": int(pair.support.size),
        "warnings": list(pair.warnings),
        "out": args.out,
    }


def _cmd_risk_sweep(args, phi: Functional) -> tuple[dict, dict]:
    from .risklab import rate_sweep

    n_grid = _parse_int_list(args.n_grid, "--n-grid")
    estimators = [e.strip() for e in args.estimators.split(",") if e.strip()]
    _write_out(args.out, None)  # before any rep runs
    result = rate_sweep(
        args.family,
        phi,
        estimators,
        n_grid,
        k_rule=args.k_rule,
        reps=args.reps,
        param=args.param,
        master_seed=args.seed,
        jobs=args.jobs,
    )
    _write_out(args.out, result.to_csv())
    params = {
        "family": args.family,
        "param": args.param,
        "n_grid": sorted(n_grid),
        "k_rule": args.k_rule,
        "reps": args.reps,
        "estimators": estimators,
        "jobs": args.jobs,
    }
    return params, {
        "out": args.out,
        "slopes": result.slopes,
        "theory_slope": result.theory_slope,
    }


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="minifunc",
        description="Estimation and approximation tools for additive functionals "
        "of discrete distributions.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--phi", required=True)
    common.add_argument("--seed", type=int)

    def command(name: str, summary: str) -> argparse.ArgumentParser:
        # whole option names only: a removed option such as --p is rejected,
        # not read as --phi
        return sub.add_parser(name, help=summary, parents=[common], allow_abbrev=False)

    p = command("estimate", "estimate theta from a histogram or sample file")
    p.add_argument("--input", required=True)
    p.add_argument("--k", type=int)
    p.add_argument("--c1", type=float)
    p.add_argument("--c2", type=float)
    p.add_argument("--estimator", choices=list(ESTIMATORS))
    p.add_argument("--preset", choices=["default", "tuned"], default="default")
    p.add_argument("--allow-unvalidated", action="store_true")
    p.set_defaults(handler=_cmd_estimate)

    p = command("approx", "best uniform polynomial approximation report")
    p.add_argument("--L", required=True, type=int)
    p.add_argument("--interval", default="0,1")
    p.set_defaults(handler=_cmd_approx)

    p = command("check-speed", "fit divergence-speed constants for phi")
    p.add_argument("--ell", type=int, default=1)
    p.set_defaults(handler=_cmd_check_speed)

    p = command("lower-bound", "minimax lower-bound constructions")
    p.add_argument("--k", required=True, type=int)
    p.add_argument("--n", required=True, type=int)
    p.add_argument(
        "--construction", choices=["le-cam", "hellinger", "composite"], default="le-cam"
    )
    p.add_argument("--lam", type=float)
    p.add_argument("--degree", type=int)
    p.add_argument("--gap", type=float)
    p.set_defaults(handler=_cmd_lower_bound)

    p = command("priors", "moment-matched measure pair to CSV")
    p.add_argument("--L", required=True, type=int)
    p.add_argument("--interval", default="0,1")
    p.add_argument("--gamma", type=float)
    p.add_argument("--out", required=True)
    p.set_defaults(handler=_cmd_priors)

    p = command("risk-sweep", "Monte Carlo risk table across an n-grid")
    p.add_argument("--family", required=True, choices=["uniform", "zipf", "two_spike", "dirichlet"])
    p.add_argument("--param", type=float)
    p.add_argument("--n-grid", required=True)
    p.add_argument("--k-rule", default="n")
    p.add_argument("--reps", type=int, default=1000)
    p.add_argument("--estimators", default="plugin,composite")
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--out", required=True)
    p.set_defaults(handler=_cmd_risk_sweep)

    return parser


# the first class an error is an instance of sets its exit code
_EXIT_CODES = ((InputFormatError, 2), (ConfigurationError, 3), (MinifuncError, 4), (MemoryError, 3))


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        # every handler sees the resolved seed and phi; a negative --seed
        # exits 3 before a bad --phi exits 2
        args.seed = _resolve_seed(args)
        phi = parse_phi(args.phi)
        params, body = args.handler(args, phi)
    except (MinifuncError, MemoryError) as e:
        code = next(code for cls, code in _EXIT_CODES if isinstance(e, cls))
        prefix = "out of memory: " if isinstance(e, MemoryError) else ""
        _error_line(f"error: {prefix}{e}")
        return code
    phi_doc = {"kind": phi.kind} if phi.kind == "shannon" else {"kind": phi.kind, "alpha": phi.alpha}
    doc = {"command": args.command, "config": dict(params, phi=phi_doc, seed=args.seed), **body}
    text = json.dumps(_finite_or_null(doc), indent=2, sort_keys=True, allow_nan=False)
    try:
        if sys.stdout is None:  # started with descriptor 1 closed
            raise BrokenPipeError
        print(text)
        sys.stdout.flush()
    except BrokenPipeError:
        _to_devnull(sys.stdout)
        _error_line("error: standard output was closed before the result was written")
        return 3
    return 0


def _to_devnull(stream) -> None:
    """Point stream's descriptor at devnull, where its reader is gone, so
    that the interpreter's own flush at exit does not fail again."""
    if stream is not None:
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, stream.fileno())
        os.close(devnull)


def _error_line(line: str) -> None:
    """Print line to stderr, or drop it where stderr is closed or its
    reader gone (it may share stdout's pipe)."""
    try:
        if sys.stderr is not None:
            print(line, file=sys.stderr)
    except BrokenPipeError:
        _to_devnull(sys.stderr)


def _finite_or_null(x):
    """x with every NaN or infinite float replaced by None (JSON null)."""
    if isinstance(x, dict):
        return {key: _finite_or_null(v) for key, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_finite_or_null(v) for v in x]
    return None if isinstance(x, float) and not math.isfinite(x) else x


if __name__ == "__main__":
    sys.exit(main())
