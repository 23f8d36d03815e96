"""The operations of each workload, as functions of the workload seed.

cli-cold, estimate-bulk and risk-sweep are lists of CLI argument vectors,
each run in a fresh interpreter.  approx-sweep is a list of library calls
run in one process after one import.  The seed fixes the order of the
fixed command lists, the sample streams of the sweep and the generated
estimate inputs.
"""

from __future__ import annotations

import os
import random

RISK_GRID = "1000,2000,5000,10000"
RISK_REPS = 1000  # the CLI default, stated so the rep count is explicit
RISK_ESTIMATORS = ("plugin", "composite")


def cli_cold(workdir: str, seed: int) -> list[list[str]]:
    cmds = [
        ["approx", "--phi", "shannon", "--L", "8", "--interval", "0,0.1"],
        ["approx", "--phi", "power:0.5", "--L", "16", "--interval", "0,1"],
        ["check-speed", "--phi", "shannon", "--ell", "2"],
        ["lower-bound", "--phi", "shannon", "--k", "100", "--n", "1000"],
        ["lower-bound", "--phi", "power:0.5", "--k", "1000", "--n", "1000",
         "--construction", "composite", "--gap", "1e-6"],
        ["priors", "--phi", "shannon", "--L", "10", "--interval", "0,0.5",
         "--out", os.path.join(workdir, "priors.csv")],
    ]
    random.Random(seed).shuffle(cmds)
    return [c + ["--seed", str(seed)] for c in cmds]


def estimate_bulk(inputs: dict, seed: int) -> list[list[str]]:
    """(a) zipf histogram with shannon and p^0.5, (b) raw samples, (c) their histogram."""
    runs = [
        ("shannon", inputs["zipf_hist"]),
        ("power:0.5", inputs["zipf_hist"]),
        ("shannon", inputs["samples"]),
        ("shannon", inputs["samples_hist"]),
    ]
    k = inputs["sizes"]["k"]
    return [
        ["estimate", "--phi", phi, "--input", path, "--preset", "tuned",
         "--k", str(k), "--seed", str(seed)]
        for phi, path in runs
    ]


def risk_sweep(workdir: str, seed: int) -> list[list[str]]:
    """The same sweep at --jobs 1 and --jobs 2; the two CSVs must be identical."""
    return [
        ["risk-sweep", "--family", "uniform", "--phi", "shannon", "--k-rule", "n",
         "--n-grid", RISK_GRID, "--estimators", ",".join(RISK_ESTIMATORS),
         "--reps", str(RISK_REPS), "--jobs", str(jobs),
         "--out", os.path.join(workdir, f"sweep_jobs{jobs}.csv"), "--seed", str(seed)]
        for jobs in (1, 2)
    ]


APPROX_LAMBDAS = (0.01, 0.1, 1.0)
APPROX_PHIS = ("shannon", "power:0.5")


def approx_sweep(seed: int) -> list[dict]:
    ops = [
        {"kind": "remez", "phi": phi, "L": L, "lam": lam}
        for phi in APPROX_PHIS
        for L in range(2, 41, 2)
        for lam in APPROX_LAMBDAS
    ]
    ops += [
        {"kind": "pair", "phi": phi, "L": L, "interval": [0.0, 0.5]}
        for phi in APPROX_PHIS
        for L in range(2, 15, 2)
    ]
    ops += [
        {"kind": "tilted", "phi": "shannon", "L": L, "gamma": 0.01, "eta": 0.1}
        for L in (2, 4, 6, 8)
    ]
    random.Random(seed).shuffle(ops)
    return ops


def approx_census() -> list[dict]:
    """A few of approx-sweep's calls, for the census of the traced run."""
    return [
        {"kind": "remez", "phi": "shannon", "L": 4, "lam": 1.0},
        {"kind": "remez", "phi": "power:0.5", "L": 4, "lam": 1.0},
        {"kind": "pair", "phi": "shannon", "L": 4, "interval": [0.0, 0.5]},
        {"kind": "tilted", "phi": "shannon", "L": 2, "gamma": 0.01, "eta": 0.1},
    ]
