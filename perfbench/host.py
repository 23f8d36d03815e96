"""Child-process side of the benchmark.  Run by run.py, never imported by it.

  host.py cli SPANS RUN_ID -- ARGV...
      One traced CLI call: import minifunc and run cli.main(ARGV) in a
      fresh interpreter, with a span around each; the JSON goes to stdout.
  host.py lib OUT SEED SECONDS [SPANS RUN_ID]
      approx-sweep: import once, then whole rounds of library calls until
      SECONDS have passed.  With SPANS, one round, every call in a span.
  host.py layers WORKLOAD WORKDIR INPUTS SEED SPANS RUN_ID
      Layer pass of the traced run: the benchmark's own direct calls into
      each module's public functions for WORKLOAD, then a census of the
      other workloads' calls at small size, so every layer is measured.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import sys
import time

import numpy as np

from spans import Tracer
import workloads


def _import(tr: Tracer):
    before = set(sys.modules)
    with tr.span("minifunc.import") as s:
        import minifunc  # noqa: F401
        from minifunc import cli  # noqa: F401
    loaded = set(sys.modules) - before
    s["attrs"]["modules_loaded"] = len(loaded)
    s["attrs"]["scipy_modules_loaded"] = sum(1 for m in loaded if m == "scipy" or m.startswith("scipy."))


class Counted:
    """phi wrapper that counts the points it is evaluated at."""

    def __init__(self, f):
        self.f = f
        self.points = 0

    def __call__(self, x):
        self.points += int(np.size(x))
        return self.f(x)


def _phi(name: str):
    from minifunc import power_functional, shannon_functional

    return shannon_functional() if name == "shannon" else power_functional(float(name.split(":")[1]))


def _remez(tr, f, L, interval, **attrs):
    from minifunc import polyapprox

    cf = Counted(f)
    with tr.span("polyapprox.remez_best_approx", L=L, **attrs) as s:
        r = polyapprox.remez_best_approx(cf, L, interval)
    s["attrs"].update(exchanges=r.iterations, f_points=cf.points)
    return r


def _quiet(fn, *args):
    with contextlib.redirect_stdout(io.StringIO()):
        return fn(*args)


# ---------------------------------------------------------------- cli

def cmd_cli(spans_path: str, run_id: str, argv: list[str]) -> int:
    tr = Tracer(run_id)
    _import(tr)
    from minifunc import cli

    with tr.span("cli.main", command=argv[0]):
        rc = cli.main(argv)
    sys.stdout.flush()
    tr.dump(spans_path)
    return rc


# ---------------------------------------------------------------- approx-sweep

def approx_call(op: dict, tr: Tracer | None):
    """Run one approx-sweep call; return its result as plain JSON data."""
    from minifunc import lowerbounds, polyapprox

    phi = _phi(op["phi"])
    if tr is None:
        f = phi.eval
        span = contextlib.nullcontext({"attrs": {}})
    else:
        f = Counted(phi.eval)
        name = {"remez": "polyapprox.remez_best_approx", "pair": "lowerbounds.moment_matched_pair",
                "tilted": "lowerbounds.tilted_pair"}[op["kind"]]
        span = tr.span(name, L=op["L"])
    with span as s:
        if op["kind"] == "remez":
            r = polyapprox.remez_best_approx(f, op["L"], (0.0, op["lam"]))
        elif op["kind"] == "pair":
            r = lowerbounds.moment_matched_pair(f, op["L"], tuple(op["interval"]))
        else:
            r = lowerbounds.tilted_pair(f, op["L"], op["gamma"], op["eta"])
    if op["kind"] == "remez":
        s["attrs"].update(exchanges=r.iterations)
        out = {"sup_error": r.sup_error, "converged": bool(r.converged),
               "coefficients": r.poly.coeffs.tolist(), "points": r.alternation_points.tolist()}
    else:
        s["attrs"].update(shortfall=1.0 - r.gap / r.expected_gap if r.expected_gap > 0 else 0.0)
        out = {"gap": r.gap, "expected_gap": r.expected_gap, "support": r.support.tolist(),
               "w0": r.w0.tolist(), "w1": r.w1.tolist(), "matched_orders": r.matched_orders}
    if tr is not None:
        s["attrs"].update(f_points=f.points)
    return out


def cmd_lib(out_path: str, seed: int, seconds: float, spans_path: str | None, run_id: str | None) -> int:
    tr = Tracer(run_id) if spans_path else None
    if tr is not None:
        _import(tr)
    else:
        import minifunc  # noqa: F401
    ops = workloads.approx_sweep(seed)
    rounds = []
    t_start = time.perf_counter()
    while not rounds or (tr is None and time.perf_counter() - t_start < seconds):
        calls = []
        t0 = time.perf_counter()
        with (tr.span("round") if tr else contextlib.nullcontext()):
            for op in ops:
                c0 = time.perf_counter()
                res = approx_call(op, tr)
                calls.append({"s": time.perf_counter() - c0, "result": res})
        rounds.append({"wall": time.perf_counter() - t0, "calls": calls})
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump({"ops": ops, "rounds": rounds}, fh)
    if tr is not None:
        tr.dump(spans_path)
    return 0


# ---------------------------------------------------------------- layer pass

def layers_cli_cold(tr, workdir, seed, with_main: bool):
    from minifunc import cli, functionals, lowerbounds

    if with_main:
        for argv in workloads.cli_cold(workdir, seed):
            with tr.span("cli.main", command=argv[0]):
                _quiet(cli.main, argv)
    sh, pw = _phi("shannon"), _phi("power:0.5")
    _remez(tr, sh.eval, 8, (0.0, 0.1))
    _remez(tr, pw.eval, 16, (0.0, 1.0))
    with tr.span("functionals.check_divergence_speed"):
        functionals.check_divergence_speed(sh, 2)
    with tr.span("lowerbounds.le_cam_bound"):
        pair = lowerbounds.canonical_two_point_pair(sh, 100, 1000)
        lowerbounds.le_cam_bound(pair.P, pair.Q, sh, 1000)
    k = n = 1000
    with tr.span("lowerbounds.fitted_bound_constants"):
        W, Wp = lowerbounds.fitted_bound_constants(pw, 0.5)
    lam = min(0.05 * k * math.log(n) / n, math.sqrt(k) / 12.0)
    with tr.span("lowerbounds.composite_lower_bound"):
        lowerbounds.composite_lower_bound(pw, n, k, lam=lam, L=int(math.ceil(2.0 * math.log(n))),
                                          d=1e-6, W=W, Wprime=Wp)
    op = {"kind": "pair", "phi": "shannon", "L": 10, "interval": [0.0, 0.5]}
    approx_call(op, tr)
    _lp_ref(tr, op)


def _lp_ref(tr, op):
    """The Remez solve inside a prior pair, run alone: the pair's LP share is the difference."""
    phi = _phi(op["phi"])
    if op["kind"] == "pair":
        _remez(tr, phi.eval, op["L"], tuple(op["interval"]), ref="lp")
    else:
        g, e = op["gamma"], op["eta"]
        _remez(tr, lambda x: np.asarray(phi.eval(x), dtype=float) / np.asarray(x, dtype=float),
               op["L"], (g, g / e), ref="lp")


def layers_estimate_bulk(tr, inputs, seed):
    from minifunc import cli, estimators, functionals

    seen = set()
    for argv in workloads.estimate_bulk(inputs, seed):
        phi = _phi(argv[argv.index("--phi") + 1])
        path = argv[argv.index("--input") + 1]
        kind = "samples" if path.endswith(".txt") else "hist"
        with tr.span(f"cli.read_counts_{kind}"):
            counts, _ = cli.read_counts(path, inputs["sizes"]["k"])
        n = int(counts.sum())
        cfg = estimators.tuned_config(phi.alpha, rng_seed=seed)
        with tr.span("estimators.histogram"):
            h = estimators.Histogram(counts=counts, n_nominal=n)
        with tr.span("estimators.split_samples"):
            split = estimators.split_samples(h, rng=np.random.default_rng(seed))
        _composite(tr, split, phi, cfg, seen)
        n_eff = split.n_effective
        with tr.span("functionals.bias_corrected_fn"):
            functionals.bias_corrected_fn(phi, cfg.correction_order, cfg.delta(n_eff), n_eff,
                                          split.est.counts / n_eff)
        with tr.span("functionals.range_on_interval"):
            functionals.range_on_interval(phi.eval, cfg.poly_interval(n_eff))
        with tr.span("estimators.plain_plugin_estimate"):
            estimators.plain_plugin_estimate(h, phi)


def _composite(tr, split, phi, cfg, seen):
    from minifunc import estimators

    n_eff = split.n_effective
    key = (phi.cache_key(), cfg.degree(n_eff), cfg.poly_interval(n_eff))
    name = "estimators.composite_estimate" if key in seen else "estimators.composite_estimate_cold"
    seen.add(key)
    with tr.span(name) as s:
        res = estimators.composite_estimate(split, phi, cfg)
    s["attrs"]["poly_symbols"] = res.branch_counts["poly"]


def layers_risk_sweep(tr, seed, grid, direct_reps, cell_reps):
    from minifunc import estimators, functionals, risklab

    sh = _phi("shannon")
    cfg = estimators.tuned_config(1.0)
    seen = set()
    ns = [int(n) for n in grid.split(",")]
    for n in ns:
        P = np.full(n, 1.0 / n)
        rng = np.random.default_rng(np.random.SeedSequence([seed, n]))
        for _ in range(direct_reps):
            with tr.span("estimators.sample_histogram"):
                h = estimators.sample_histogram(P, n, rng=rng)
            with tr.span("estimators.split_samples"):
                split = estimators.split_samples(h, rng=rng)
            _composite(tr, split, sh, cfg, seen)
            with tr.span("estimators.plain_plugin_estimate"):
                estimators.plain_plugin_estimate(h, sh)
            n_eff = split.n_effective
            with tr.span("functionals.bias_corrected_fn"):
                functionals.bias_corrected_fn(sh, 2, cfg.delta(n_eff), n_eff, split.est.counts / n_eff)
        spec = risklab.DistributionSpec("uniform", k=n)
        for est in workloads.RISK_ESTIMATORS:
            for jobs in (1, 2):
                with tr.span("risklab.monte_carlo_risk", n=n, estimator=est, jobs=jobs):
                    risklab.monte_carlo_risk(spec, sh, est, n, reps=cell_reps, master_seed=seed, jobs=jobs)
    with tr.span("risklab.rate_sweep"):
        result = risklab.rate_sweep("uniform", sh, list(workloads.RISK_ESTIMATORS), ns,
                                    reps=cell_reps, master_seed=seed)
    with tr.span("risklab.to_csv"):
        result.to_csv()


def layers_approx_sweep(tr, seed, census: bool):
    """Census: a few sweep calls.  Own pass: the traced round already timed
    every call, so only the pairs' reference solves run here."""
    for op in workloads.approx_census() if census else workloads.approx_sweep(seed):
        if census:
            approx_call(op, tr)
        if op["kind"] != "remez":
            _lp_ref(tr, op)


def cmd_layers(workload, workdir, inputs_path, seed, spans_path, run_id) -> int:
    tr = Tracer(run_id)
    _import(tr)
    with open(inputs_path, encoding="utf-8") as fh:
        inputs = json.load(fh)
    passes = {
        "cli-cold": lambda census: layers_cli_cold(tr, workdir, seed, with_main=census),
        "estimate-bulk": lambda census: layers_estimate_bulk(
            tr, inputs["census" if census else "bulk"], seed),
        "risk-sweep": lambda census: layers_risk_sweep(
            tr, seed, "100,200,500,1000" if census else workloads.RISK_GRID,
            direct_reps=5 if census else 20, cell_reps=100),
        "approx-sweep": lambda census: layers_approx_sweep(tr, seed, census),
    }
    with tr.span(f"layers:{workload}"):
        passes[workload](False)
    for other, fn in passes.items():
        if other != workload:
            with tr.span(f"census:{other}"):
                fn(True)
    tr.dump(spans_path)
    return 0


def main(argv: list[str]) -> int:
    mode = argv[0]
    if mode == "cli":
        sep = argv.index("--")
        return cmd_cli(argv[1], argv[2], argv[sep + 1:])
    if mode == "lib":
        spans = argv[4] if len(argv) > 4 else None
        return cmd_lib(argv[1], int(argv[2]), float(argv[3]), spans, argv[5] if spans else None)
    if mode == "layers":
        return cmd_layers(argv[1], argv[2], argv[3], int(argv[4]), argv[5], argv[6])
    raise SystemExit(f"unknown mode {mode!r}")


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
