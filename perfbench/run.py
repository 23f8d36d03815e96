#!/usr/bin/env python3
"""minifunc benchmark: run one workload for one seed and print its metrics.

    python3 perfbench/run.py --workload cli-cold --seed 1 --seconds 10 --trace 0

Runs from the root of a source checkout: the program is the package
under src/, put on PYTHONPATH of every child interpreter.  Operations
run one at a time from this single process (closed loop, one client);
BLAS is pinned to one thread.  The run repeats whole rounds of the
workload's operations until --seconds have passed, checks every output
against an independent computation, re-runs the checks on deliberately
corrupted copies of the first round's outputs (they must reject them),
prints one line per metric, and ends with one JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics.  --trace 1 runs one untraced
and one traced round plus a layer pass and reports the per-layer
metrics; its spans go to perfbench/_work/<workload>/spans.json.
Exit status is 0 only when every operation passed its check.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import threading
import time
import uuid

import numpy as np

import checks
import gen
import workloads
from spans import LAYERS, Tracer, duration, layer_self_times, subtree

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(HERE, "_work")
PY = sys.executable

SETUP_IMPORTS = 3
RUN_BUDGET_S = 170.0
T0 = time.perf_counter()


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k not in ("MINIFUNC_SEED", "PYTHONPATH")}
    env.update(PYTHONPATH=SRC, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    return env


ENV = child_env()


def run_proc(argv: list[str], stdout_path: str) -> dict:
    """Run one child to completion; wall time, peak RSS and exit code.

    A child still running when the run's time budget is spent is killed
    and reported with a non-zero code.
    """
    with open(stdout_path, "wb") as out, open(stdout_path + ".err", "wb") as err:
        t0 = time.perf_counter()
        p = subprocess.Popen(argv, stdout=out, stderr=err, env=ENV, cwd=ROOT)
        timer = threading.Timer(max(1.0, RUN_BUDGET_S - (t0 - T0)), p.kill)
        timer.start()
        try:
            _, status, ru = os.wait4(p.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
    p.returncode = os.waitstatus_to_exitcode(status)
    return {"wall": wall, "rss_mb": ru.ru_maxrss / 1024.0, "rc": p.returncode, "out": stdout_path}


def measure_setup(workdir: str) -> float:
    """Median wall time of `import minifunc` in a fresh interpreter.

    Bytecode is compiled first, as an installed package would have it.
    """
    run_proc([PY, "-m", "compileall", "-q", SRC], os.path.join(workdir, "compileall.log"))
    walls = []
    for i in range(SETUP_IMPORTS):
        r = run_proc([PY, "-c", "import minifunc"], os.path.join(workdir, f"import{i}.log"))
        if r["rc"] != 0:
            with open(r["out"] + ".err", encoding="utf-8", errors="replace") as fh:
                raise SystemExit(f"import minifunc failed:\n{fh.read()}")
        walls.append(r["wall"])
    return statistics.median(walls)


def _load_json(path: str):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


# ------------------------------------------------------------------ workloads

class CliWorkload:
    """Operations are CLI calls, each in a fresh interpreter."""

    name = ""

    def __init__(self, workdir: str, seed: int):
        self.workdir = workdir
        self.seed = seed

    def argvs(self) -> list[list[str]]:
        raise NotImplementedError

    def _run_round(self, tag: str, traced: Tracer | None = None) -> dict:
        ops = []
        t0 = time.perf_counter()
        for i, argv in enumerate(self.argvs()):
            out = os.path.join(self.workdir, f"{tag}_op{i}.json")
            if traced is None:
                op = run_proc([PY, "-m", "minifunc.cli"] + argv, out)
            else:
                spans_path = out + ".spans"
                with traced.span("op", command=argv[0]) as s:
                    op = run_proc([PY, os.path.join(HERE, "host.py"), "cli", spans_path,
                                   traced.run_id, "--"] + argv, out)
                if os.path.exists(spans_path):
                    traced.adopt(_load_json(spans_path)["spans"], s["id"])
            op["argv"] = argv
            op["doc"] = None
            if op["rc"] == 0:
                try:
                    op["doc"] = _load_json(out)
                except ValueError:
                    pass
            ops.append(op)
        rnd = {"wall": time.perf_counter() - t0, "ops": ops}
        self.check_round(rnd)
        return rnd

    def measure(self, seconds: float) -> list[dict]:
        rounds = []
        t0 = time.perf_counter()
        while not rounds or time.perf_counter() - t0 < seconds:
            rounds.append(self._run_round(f"r{len(rounds)}"))
        return rounds

    def traced_round(self, tr: Tracer) -> dict:
        with tr.span("round:traced"):
            return self._run_round("traced", traced=tr)

    def check_round(self, rnd: dict) -> None:
        for op in rnd["ops"]:
            if op["rc"] != 0 or op["doc"] is None:
                op["problems"] = [f"exit code {op['rc']}"]
            else:
                op["problems"] = self.check_op(op)
        self.check_jointly(rnd)

    def check_op(self, op) -> list[str]:
        return []

    def check_jointly(self, rnd) -> None:
        pass

    def peak_rss(self, rounds) -> float:
        return max(op["rss_mb"] for r in rounds for op in r["ops"])


def _flag(argv, name):
    return argv[argv.index(name) + 1] if name in argv else None


class CliCold(CliWorkload):
    name = "cli-cold"

    def argvs(self):
        return workloads.cli_cold(self.workdir, self.seed)

    def check_op(self, op, doc=None, pair=None):
        argv, doc = op["argv"], doc or op["doc"]
        cmd = argv[0]
        if cmd == "approx":
            lo, hi = (float(v) for v in _flag(argv, "--interval").split(","))
            return checks.check_alternation(checks.PHI[_flag(argv, "--phi")], doc["coefficients"],
                                            doc["alternation_points"], doc["sup_error"], (lo, hi))
        if cmd == "check-speed":
            return checks.check_speed_shannon_ell2(doc)
        if cmd == "lower-bound":
            if _flag(argv, "--construction") == "composite":
                return checks.check_composite_bound(doc)
            return checks.check_le_cam(doc, checks.shannon, int(_flag(argv, "--k")), int(_flag(argv, "--n")))
        if cmd == "priors":
            if pair is None:
                with open(_flag(argv, "--out"), encoding="utf-8") as fh:
                    pair = checks.read_pair_csv(fh.read())
                op["pair"] = pair
            L = int(_flag(argv, "--L"))
            interval = tuple(float(v) for v in _flag(argv, "--interval").split(","))
            return checks.check_pair(checks.shannon, *pair, doc["gap"], L,
                                     checks.el_upper_bound(checks.shannon, L, interval))
        return [f"no check for {cmd}"]

    def selftest(self, rnd) -> list[str]:
        missed = []
        for op in rnd["ops"]:
            doc, cmd = op["doc"], op["argv"][0]
            bad = json.loads(json.dumps(doc))
            pair = None
            if cmd == "approx":
                lo, hi = (float(v) for v in _flag(op["argv"], "--interval").split(","))
                tol = checks.alternation_tolerance(doc["coefficients"], doc["sup_error"], (lo, hi))
                bad["coefficients"][0] += 10.0 * tol
                what = "approx coefficient nudged"
            elif cmd == "check-speed":
                bad["W"] = 1.0 + 1e-6
                what = "check-speed W changed"
            elif cmd == "lower-bound" and _flag(op["argv"], "--construction") == "composite":
                bad["terms"]["main"] *= 1.0 + 1e-6
                what = "composite bound main term nudged"
            elif cmd == "lower-bound":
                bad["bound_value"] *= 1.0 + 1e-6
                what = "le-cam bound nudged"
            else:
                x, w0, w1 = (a.copy() for a in op["pair"])
                i = int(np.argmax(np.abs(w0 - w1)))
                w0[i], w1[i] = w1[i], w0[i]
                pair = (x, w0, w1)
                what = "priors atom with w0 and w1 swapped"
            if not self.check_op(op, doc=bad, pair=pair):
                missed.append(what)
        return missed

    def workload_metrics(self, rounds):
        return {"cli_wall_p50_s": (statistics.median(op["wall"] for r in rounds for op in r["ops"]), "s"),
                "cli_batch_s": (statistics.median(r["wall"] for r in rounds), "s")}


class EstimateBulk(CliWorkload):
    name = "estimate-bulk"

    def __init__(self, workdir, seed, inputs):
        super().__init__(workdir, seed)
        self.inputs = inputs
        k = inputs["sizes"]["k"]
        p = gen.zipf_p(k)
        zipf = np.load(inputs["zipf_counts"])
        samples = np.load(inputs["samples_counts"])
        # (counts, n, phi, true functional of the generating distribution)
        self.truth = [
            (zipf, int(zipf.sum()), checks.shannon, math.fsum((-p * np.log(p)).tolist())),
            (zipf, int(zipf.sum()), checks.sqrt, math.fsum(np.sqrt(p).tolist())),
            (samples, int(samples.sum()), checks.shannon, math.log(k)),
            (samples, int(samples.sum()), checks.shannon, math.log(k)),
        ]

    def argvs(self):
        return workloads.estimate_bulk(self.inputs, self.seed)

    def check_op(self, op, doc=None):
        i = self.argvs().index(op["argv"])
        return checks.check_estimate(doc or op["doc"], *self.truth[i])

    def check_jointly(self, rnd):
        b, c = rnd["ops"][2], rnd["ops"][3]
        if b["doc"] and c["doc"] and not _same_estimate(b["doc"], c["doc"]):
            for op in (b, c):
                op["problems"].append("samples file and its histogram give different results")

    def selftest(self, rnd):
        missed = []
        op = rnd["ops"][0]
        counts, n, phi, theta = self.truth[0]
        bad = dict(op["doc"], estimate=op["doc"]["estimate"] + checks.plugin(counts, n, phi) - theta)
        if not self.check_op(op, doc=bad):
            missed.append("estimate shifted by the plugin bias")
        b, c = rnd["ops"][2]["doc"], rnd["ops"][3]["doc"]
        if _same_estimate(b, dict(c, estimate=math.nextafter(c["estimate"], math.inf))):
            missed.append("histogram estimate moved by one ulp")
        return missed

    def workload_metrics(self, rounds):
        return {"cli_batch_s": (statistics.median(r["wall"] for r in rounds), "s")}


def _same_estimate(a, b) -> bool:
    return a["estimate"] == b["estimate"] and a["branch_counts"] == b["branch_counts"]


class RiskSweep(CliWorkload):
    name = "risk-sweep"

    def argvs(self):
        return workloads.risk_sweep(self.workdir, self.seed)

    def _csvs(self, rnd):
        out = []
        for op in rnd["ops"]:
            with open(_flag(op["argv"], "--out"), "rb") as fh:
                out.append(fh.read())
        return out

    def check_jointly(self, rnd):
        if any(op["rc"] != 0 for op in rnd["ops"]):
            return
        rnd["csvs"] = self._csvs(rnd)
        problems = checks.check_sweep(*rnd["csvs"])
        for op in rnd["ops"]:
            op["problems"] += problems

    def selftest(self, rnd):
        missed = []
        a, b = rnd["csvs"]
        i = len(b) // 2
        flipped = b[:i] + bytes([b[i] ^ 1]) + b[i + 1:]
        if not checks.check_sweep(a, flipped):
            missed.append("one byte of the --jobs 2 CSV changed")
        lines = a.decode().splitlines()
        lines[1] = lines[1].rsplit(",", 1)[0] + "," + repr(float(lines[1].rsplit(",", 1)[1]) * (1 + 1e-9))
        bad = ("\n".join(lines) + "\n").encode()
        if not checks.check_sweep(bad, bad):
            missed.append("theory_rate nudged")
        return missed

    def workload_metrics(self, rounds):
        reps = len(workloads.RISK_GRID.split(",")) * len(workloads.RISK_ESTIMATORS) * workloads.RISK_REPS
        j1 = statistics.median(r["ops"][0]["wall"] for r in rounds)
        j2 = statistics.median(r["ops"][1]["wall"] for r in rounds)
        return {"reps_per_s": (reps / j1, "1/s"), "reps_per_s_jobs2": (reps / j2, "1/s")}


class ApproxSweep:
    """Library calls in one interpreter after one import (host.py lib)."""

    name = "approx-sweep"

    def __init__(self, workdir, seed):
        self.workdir = workdir
        self.seed = seed

    def _host(self, tag, seconds, tr=None):
        out = os.path.join(self.workdir, f"{tag}.json")
        argv = [PY, os.path.join(HERE, "host.py"), "lib", out, str(self.seed), str(seconds)]
        if tr is None:
            proc = run_proc(argv, out + ".log")
        else:
            spans_path = out + ".spans"
            with tr.span("op", command="approx-sweep") as s:
                proc = run_proc(argv + [spans_path, tr.run_id], out + ".log")
            if os.path.exists(spans_path):
                tr.adopt(_load_json(spans_path)["spans"], s["id"])
        if proc["rc"] != 0:
            with open(out + ".log.err", encoding="utf-8", errors="replace") as fh:
                raise SystemExit(f"approx-sweep host failed:\n{fh.read()}")
        doc = _load_json(out)
        rounds = []
        for r in doc["rounds"]:
            ops = [dict(op=op, wall=c["s"], result=c["result"], problems=[])
                   for op, c in zip(doc["ops"], r["calls"])]
            rnd = {"wall": r["wall"], "ops": ops, "rss_mb": proc["rss_mb"]}
            self.check_round(rnd)
            rounds.append(rnd)
        return rounds

    def measure(self, seconds):
        return self._host("rounds", seconds)

    def traced_round(self, tr):
        with tr.span("round:traced"):
            return self._host("traced", 0, tr)[0]

    def check_call(self, op, res) -> list[str]:
        if op["kind"] == "remez":
            return [] if res["converged"] else ["Remez did not converge"]
        x, w0, w1 = (np.asarray(res[k]) for k in ("support", "w0", "w1"))
        if op["kind"] == "pair":
            el = checks.el_upper_bound(checks.PHI[op["phi"]], op["L"], tuple(op["interval"]))
            return checks.check_pair(checks.PHI[op["phi"]], x, w0, w1, res["gap"], op["L"], el)
        g, e = op["gamma"], op["eta"]
        el = checks.el_upper_bound(checks.neg_log, op["L"], (g, g / e))
        return checks.check_pair(checks.shannon, x, w0, w1, res["gap"], op["L"] + 1, el,
                                 first_moment=g, scale=g)

    def _identity_problems(self, ops):
        """Scale identity per (phi, L): returns {op index: problems}."""
        groups = {}
        for i, o in enumerate(ops):
            if o["op"]["kind"] == "remez":
                groups.setdefault((o["op"]["phi"], o["op"]["L"]), {})[o["op"]["lam"]] = (i, o["result"]["sup_error"])
        out = {}
        for (phi, _), by_lam in groups.items():
            probs = checks.check_scale_identity(phi, {lam: e for lam, (_, e) in by_lam.items()})
            if probs:
                for i, _ in by_lam.values():
                    out[i] = probs
        return out

    def check_round(self, rnd):
        for o in rnd["ops"]:
            o["problems"] = self.check_call(o["op"], o["result"])
        for i, probs in self._identity_problems(rnd["ops"]).items():
            rnd["ops"][i]["problems"] += probs

    def selftest(self, rnd):
        missed = []
        ops = json.loads(json.dumps([{"op": o["op"], "result": o["result"]} for o in rnd["ops"]]))
        i = next(i for i, o in enumerate(ops) if o["op"]["kind"] == "remez" and o["op"]["lam"] != 1.0)
        ops[i]["result"]["sup_error"] *= 1.0 + 1e-6
        if i not in self._identity_problems(ops):
            missed.append("one Remez sup_error nudged")
        for kind in ("pair", "tilted"):
            o = next(o for o in ops if o["op"]["kind"] == kind)
            res = dict(o["result"])
            w0, w1 = np.asarray(res["w0"]), np.asarray(res["w1"])
            j = int(np.argmax(np.abs(w0 - w1)))
            w0[j], w1[j] = w1[j], w0[j]
            res["w0"], res["w1"] = w0, w1
            if not self.check_call(o["op"], res):
                missed.append(f"{kind} atom with w0 and w1 swapped")
        return missed

    def peak_rss(self, rounds):
        return max(r["rss_mb"] for r in rounds)

    def workload_metrics(self, rounds):
        remez = [o["wall"] for r in rounds for o in r["ops"] if o["op"]["kind"] == "remez"]
        pairs = [o["wall"] for r in rounds for o in r["ops"] if o["op"]["kind"] != "remez"]
        return {"remez_solves_per_s": (len(remez) / math.fsum(remez), "1/s"),
                "prior_pairs_per_s": (len(pairs) / math.fsum(pairs), "1/s")}


# ------------------------------------------------------------------ traced run

def per_layer_metrics(spans: list[dict], workload: str) -> tuple[dict, dict]:
    """Per-layer metrics from the traced round and the layer pass.

    A metric comes from the workload's own spans when they hold any
    call it is made of, else from the census of the other workloads'
    calls (the second dict says which).
    """
    own = _under(spans, lambda name: name in ("round:traced", f"layers:{workload}"))
    census = _under(spans, lambda name: name.startswith("census:"))

    def pick(pred):
        mine = [s for s in own if pred(s)]
        return (mine, "own") if mine else ([s for s in census if pred(s)], "census")

    def named(name, **attrs):
        return lambda s: s["name"] == name and all(s["attrs"].get(k) == v for k, v in attrs.items())

    out, source = {}, {}

    def total(metric, name, **attrs):
        sel, src = pick(named(name, **attrs))
        out[metric] = (math.fsum(duration(s) for s in sel), "s")
        source[metric] = src

    imports, src = pick(named("minifunc.import"))
    out["minifunc.import_s"] = (statistics.median(duration(s) for s in imports), "s")
    out["minifunc.modules_loaded"] = (imports[0]["attrs"]["modules_loaded"], "count")
    out["minifunc.scipy_modules_loaded"] = (imports[0]["attrs"]["scipy_modules_loaded"], "count")
    source.update(dict.fromkeys(("minifunc.import_s", "minifunc.modules_loaded", "minifunc.scipy_modules_loaded"), src))

    total("cli.main_inproc_s", "cli.main")
    total("cli.read_counts_hist_s", "cli.read_counts_hist")
    total("cli.read_counts_samples_s", "cli.read_counts_samples")
    for fn in ("sample_histogram", "split_samples", "composite_estimate", "composite_estimate_cold",
               "plain_plugin_estimate"):
        total(f"estimators.{fn}_s", f"estimators.{fn}")
    comp, src = pick(lambda s: s["name"].startswith("estimators.composite_estimate"))
    out["estimators.poly_branch_symbols"] = (statistics.median(s["attrs"]["poly_symbols"] for s in comp), "count")
    source["estimators.poly_branch_symbols"] = src
    for fn in ("bias_corrected_fn", "range_on_interval", "check_divergence_speed"):
        total(f"functionals.{fn}_s", f"functionals.{fn}")

    def solve(s):
        return s["name"] == "polyapprox.remez_best_approx" and "ref" not in s["attrs"]

    remez, src = pick(solve)
    out["polyapprox.remez_best_approx_s"] = (math.fsum(duration(s) for s in remez), "s")
    out["polyapprox.remez_exchanges"] = (sum(s["attrs"]["exchanges"] for s in remez), "count")
    out["polyapprox.f_points_evaluated"] = (sum(s["attrs"]["f_points"] for s in remez), "count")
    source.update(dict.fromkeys(("polyapprox.remez_best_approx_s", "polyapprox.remez_exchanges",
                                 "polyapprox.f_points_evaluated"), src))

    for fn in ("moment_matched_pair", "tilted_pair", "fitted_bound_constants"):
        total(f"lowerbounds.{fn}_s", f"lowerbounds.{fn}")
    pairs, src = pick(lambda s: s["name"] in ("lowerbounds.moment_matched_pair", "lowerbounds.tilted_pair"))
    out["lowerbounds.pair_gap_shortfall"] = (max(s["attrs"]["shortfall"] for s in pairs), "ratio")
    source["lowerbounds.pair_gap_shortfall"] = src
    refs = [s for s in (own if src == "own" else census) if s["attrs"].get("ref") == "lp"]
    out["simplexlp.lp_s"] = (math.fsum(duration(s) for s in pairs) - math.fsum(duration(s) for s in refs), "s")
    source["simplexlp.lp_s"] = src

    cells, src = pick(named("risklab.monte_carlo_risk"))
    j1 = [duration(s) for s in cells if s["attrs"]["jobs"] == 1]
    j2 = [duration(s) for s in cells if s["attrs"]["jobs"] == 2]
    out["risklab.monte_carlo_risk_s"] = (statistics.median(j1), "s")
    out["risklab.jobs2_speedup"] = (math.fsum(j1) / math.fsum(j2), "ratio")
    source["risklab.monte_carlo_risk_s"] = source["risklab.jobs2_speedup"] = src
    total("risklab.to_csv_s", "risklab.to_csv")

    own_self = _attribute_pairs(layer_self_times(own), own)
    census_self = _attribute_pairs(layer_self_times(census), census)
    for layer in LAYERS:
        use_own = own_self[layer] > 0.0
        out[f"{layer}.self_s"] = (own_self[layer] if use_own else census_self[layer], "s")
        source[f"{layer}.self_s"] = "own" if use_own else "census"
    return out, source


def _under(spans: list[dict], is_root) -> list[dict]:
    return [s for r in spans if is_root(r["name"]) for s in subtree(spans, r["id"])]


def _attribute_pairs(self_times: dict, spans: list[dict]) -> dict:
    """Move the LP inside each prior pair from lowerbounds to simplexlp.

    A pair's span holds its Remez solve and its LP; the reference solve
    (a polyapprox span of its own) stands for the first, the rest of the
    pair's time is the LP share, as in simplexlp.lp_s.
    """
    pairs = math.fsum(duration(s) for s in spans
                      if s["name"] in ("lowerbounds.moment_matched_pair", "lowerbounds.tilted_pair"))
    refs = math.fsum(duration(s) for s in spans if s["attrs"].get("ref") == "lp")
    out = dict(self_times)
    out["lowerbounds"] -= pairs
    out["simplexlp"] += pairs - refs
    return out


def traced_run(wl, workdir, inputs_path) -> tuple[list[dict], dict, dict]:
    run_id = uuid.uuid4().hex
    tr = Tracer(run_id)
    untraced = wl.measure(0)[0]
    with tr.span("run", workload=wl.name):
        traced = wl.traced_round(tr)
        spans_path = os.path.join(workdir, "layers.spans")
        with tr.span("op", command="layers") as s:
            proc = run_proc([PY, os.path.join(HERE, "host.py"), "layers", wl.name, workdir, inputs_path,
                             str(wl.seed), spans_path, run_id], os.path.join(workdir, "layers.log"))
        if proc["rc"] != 0:
            with open(os.path.join(workdir, "layers.log.err"), encoding="utf-8", errors="replace") as fh:
                raise SystemExit(f"layer pass failed:\n{fh.read()}")
        tr.adopt(_load_json(spans_path)["spans"], s["id"])
    tr.dump(os.path.join(workdir, "spans.json"))
    metrics, source = per_layer_metrics(tr.spans, wl.name)
    metrics["trace.overhead_ratio"] = (traced["wall"] / untraced["wall"], "ratio")
    source["trace.overhead_ratio"] = "own"
    # the workload's direct library calls: its own spans less the whole-command and import spans
    direct = [s for s in _under(tr.spans, lambda name: name in ("round:traced", f"layers:{wl.name}"))
              if s["name"] not in ("cli.main", "minifunc.import")]
    shares = _attribute_pairs(layer_self_times(direct), direct)
    report = {
        "run_id": run_id,
        "untraced_round_s": untraced["wall"],
        "traced_round_s": traced["wall"],
        "overhead_s": traced["wall"] - untraced["wall"],
        "direct_calls_self_s": shares,
        "risk_cells_s": [dict(s["attrs"], s=duration(s)) for s in tr.spans
                         if s["name"] == "risklab.monte_carlo_risk"],
        "source": source,
        "metrics": {k: v[0] for k, v in metrics.items()},
    }
    with open(os.path.join(workdir, "trace_report.json"), "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1)
    return [untraced, traced], metrics, report


# ------------------------------------------------------------------ main

def main() -> int:
    ap = argparse.ArgumentParser(description="minifunc benchmark")
    ap.add_argument("--workload", required=True, choices=("cli-cold", "estimate-bulk", "risk-sweep", "approx-sweep"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not os.path.isfile(os.path.join(SRC, "minifunc", "__init__.py")):
        print(f"error: no minifunc package under {SRC}; run from the root of a source checkout",
              file=sys.stderr)
        return 2
    workdir = os.path.join(WORK, args.workload)
    os.makedirs(workdir, exist_ok=True)

    setup_s = measure_setup(workdir)
    inputs = {"bulk": None, "census": None}
    if args.workload == "estimate-bulk":
        inputs["bulk"] = gen.generate(args.seed, os.path.join(WORK, "inputs", "bulk"), gen.BULK)
    if args.trace:
        inputs["census"] = gen.generate(args.seed, os.path.join(WORK, "inputs", "census"), gen.CENSUS)
    inputs_path = os.path.join(workdir, "inputs.json")
    with open(inputs_path, "w", encoding="utf-8") as fh:
        json.dump(inputs, fh)

    wl = {
        "cli-cold": lambda: CliCold(workdir, args.seed),
        "estimate-bulk": lambda: EstimateBulk(workdir, args.seed, inputs["bulk"]),
        "risk-sweep": lambda: RiskSweep(workdir, args.seed),
        "approx-sweep": lambda: ApproxSweep(workdir, args.seed),
    }[args.workload]()

    if args.trace:
        rounds, metrics, report = traced_run(wl, workdir, inputs_path)
    else:
        rounds = wl.measure(args.seconds)
        metrics = {
            "setup_s": (setup_s, "s"),
            "batch_s": (statistics.median(r["wall"] for r in rounds), "s"),
            "peak_rss_mb": (wl.peak_rss(rounds), "MB"),
        }

    ops = [op for r in rounds for op in r["ops"]]
    failed = [op for op in ops if op["problems"]]
    for op in failed[:10]:
        label = " ".join(op["argv"][:3]) if "argv" in op else json.dumps(op["op"])
        print(f"FAILED {label}: {'; '.join(op['problems'])}")
    # the corrupted copies are made from outputs that passed, so only a clean run is self-tested
    missed = wl.selftest(rounds[0]) if not failed else []
    for what in missed:
        print(f"SELFTEST: the checks accepted a corrupted result ({what})")

    print(f"workload {args.workload} seed {args.seed} rounds {len(rounds)} ops {len(ops)}")
    if not args.trace:
        for name, (value, unit) in {**wl.workload_metrics(rounds), "setup_s": metrics["setup_s"],
                                    "peak_rss_mb": metrics["peak_rss_mb"]}.items():
            print(f"metric {name} = {value:.6g} {unit}")
    else:
        for name, (value, unit) in metrics.items():
            print(f"layer {name} = {value:.6g} {unit} ({report['source'][name]})")
        print(f"tracing overhead {report['overhead_s']:+.4f} s on a {report['untraced_round_s']:.3f} s round")
    result = {
        "correct": not missed,
        "attempted": len(ops),
        "failed": len(failed),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if not failed and not missed else 1


if __name__ == "__main__":
    sys.exit(main())
