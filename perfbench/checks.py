"""Independent checks of the program's outputs.

Every check recomputes its reference with numpy, scipy or the standard
library, or tests a property the method must have; none compares with a
stored copy of an earlier output.  Each returns a list of problems, empty
when the output passes.
"""

from __future__ import annotations

import functools
import math

import numpy as np

EPS = np.finfo(float).eps


def shannon(x):
    x = np.asarray(x, dtype=np.longdouble)
    out = np.zeros_like(x)
    pos = x > 0
    out[pos] = -x[pos] * np.log(x[pos])
    return out


def sqrt(x):
    return np.sqrt(np.asarray(x, dtype=np.longdouble))


def neg_log(x):
    return -np.log(np.asarray(x, dtype=np.longdouble))


PHI = {"shannon": shannon, "power:0.5": sqrt}


def clustered_grid(lo: float, hi: float, points: int) -> np.ndarray:
    """Dense grid on [lo, hi], clustered quartically toward both ends."""
    u = 0.5 * (1.0 - np.cos(np.pi * np.linspace(0.0, 1.0, points)))
    v = 0.5 * (1.0 - np.cos(np.pi * u))
    return np.unique(np.concatenate([lo + (hi - lo) * u, lo + (hi - lo) * v]))


def _horner(coeffs, x):
    out = np.zeros_like(np.asarray(x, dtype=np.longdouble))
    for c in np.asarray(coeffs, dtype=np.longdouble)[::-1]:
        out = out * x + c
    return out


def alternation_tolerance(coeffs, sup_error: float, interval) -> float:
    """Tolerance for comparing a monomial residual with sup_error.

    The monomial coefficients are rounded to double precision; that
    rounding alone moves the polynomial by up to eps * sum |c_i| x^i.
    """
    x = max(abs(interval[0]), abs(interval[1]))
    spread = float(np.sum(np.abs(coeffs) * x ** np.arange(len(coeffs))))
    return 1e-3 * sup_error + 16.0 * EPS * spread


def check_alternation(f, coeffs, points, sup_error, interval) -> list[str]:
    """Chebyshev alternation certificate for a claimed best approximation.

    The residual of the reported coefficients must alternate in sign at
    the reported points with size sup_error there, and no point of a
    dense grid may exceed sup_error.  Both within alternation_tolerance.
    """
    out = []
    L = len(coeffs) - 1
    points = np.asarray(points, dtype=np.longdouble)
    if points.size != L + 2:
        return [f"{points.size} alternation points for degree {L}, expected {L + 2}"]
    tol = alternation_tolerance(coeffs, sup_error, interval)
    r = f(points) - _horner(coeffs, points)
    if np.any(np.sign(r[1:]) == np.sign(r[:-1])):
        out.append("residual does not alternate in sign at the reported points")
    worst = float(np.max(np.abs(np.abs(r) - sup_error)))
    if worst > tol:
        out.append(f"|residual| at the reference differs from sup_error by {worst:.3g} > {tol:.3g}")
    grid = clustered_grid(float(interval[0]), float(interval[1]), 20001).astype(np.longdouble)
    dense = float(np.max(np.abs(f(grid) - _horner(coeffs, grid))))
    if dense > sup_error + tol:
        out.append(f"dense-grid residual {dense:.6g} exceeds sup_error {sup_error:.6g} by more than {tol:.3g}")
    return out


@functools.lru_cache(maxsize=None)
def el_upper_bound(f, L: int, interval: tuple) -> float:
    """Independent upper bound on E_L(f, interval), from a discrete minimax LP.

    Solves min_c max_j |f(x_j) - sum_i c_i T_i(x_j)| on a clustered grid with
    scipy's HiGHS, then takes the resulting polynomial's largest error on a
    grid ten times denser.  Any polynomial's error bounds E_L from above;
    this one is within about 1e-5 relative of the best.
    """
    from scipy.optimize import linprog

    lo, hi = float(interval[0]), float(interval[1])
    x = clustered_grid(lo, hi, 1500)
    fx = np.asarray(f(x), dtype=float)
    scale = float(np.max(np.abs(fx))) or 1.0
    V = np.polynomial.chebyshev.chebvander(2.0 * (x - lo) / (hi - lo) - 1.0, L)
    ones = np.ones((x.size, 1))
    A = np.vstack([np.hstack([V, -ones]), np.hstack([-V, -ones])])
    b = np.concatenate([fx, -fx]) / scale
    cost = np.zeros(L + 2)
    cost[-1] = 1.0
    bounds = [(None, None)] * (L + 1) + [(0.0, None)]
    res = linprog(cost, A_ub=A, b_ub=b, bounds=bounds, method="highs",
                  options={"primal_feasibility_tolerance": 1e-10, "dual_feasibility_tolerance": 1e-10})
    if res.status != 0:
        raise RuntimeError(f"reference minimax LP failed: {res.message}")
    c = res.x[: L + 1] * scale
    xd = clustered_grid(lo, hi, 15001)
    fd = np.asarray(f(xd), dtype=float)
    pd = np.polynomial.chebyshev.chebval(2.0 * (xd - lo) / (hi - lo) - 1.0, c)
    return float(np.max(np.abs(fd - pd)))


def check_pair(f, support, w0, w1, gap, orders, el_upper, first_moment=None, scale=1.0) -> list[str]:
    """Moment-matched pair: weights, moments, gap and weak duality.

    For a tilted pair the gap bound is 2*scale*E_L with scale = gamma, and
    both first moments must equal first_moment.
    """
    out = []
    x = np.asarray(support, dtype=float)
    w0 = np.asarray(w0, dtype=float)
    w1 = np.asarray(w1, dtype=float)
    if min(w0.min(), w1.min()) < 0.0:
        out.append("negative weight")
    for w, nm in ((w0, "w0"), (w1, "w1")):
        s = math.fsum(w.tolist())
        if abs(s - 1.0) > 1e-8:
            out.append(f"{nm} sums to {s!r}")
    worst = max(
        abs(math.fsum((x**m * w0).tolist()) - math.fsum((x**m * w1).tolist()))
        for m in range(1, orders + 1)
    )
    if worst > 1e-8:
        out.append(f"moments 1..{orders} differ by up to {worst:.3g}")
    if first_moment is not None:
        for w, nm in ((w0, "w0"), (w1, "w1")):
            m1 = math.fsum((x * w).tolist())
            if abs(m1 - first_moment) > 1e-8:
                out.append(f"{nm} first moment {m1!r} != {first_moment!r}")
    fx = np.asarray(f(x), dtype=float)
    regap = math.fsum((fx * w0).tolist()) - math.fsum((fx * w1).tolist())
    if abs(regap - gap) > 1e-9 + 1e-7 * abs(gap):
        out.append(f"gap recomputed from the weights {regap!r} != reported {gap!r}")
    bound = 2.0 * scale * el_upper
    if gap > bound * (1.0 + 1e-6):
        out.append(f"weak duality violated: gap {gap!r} > 2 E_L = {bound!r}")
    if gap < 0.98 * bound:
        out.append(f"gap {gap!r} below 0.98 of 2 E_L = {bound!r}")
    return out


def read_pair_csv(text: str):
    lines = text.strip().splitlines()
    if not lines or lines[0] != "x,w0,w1":
        raise ValueError("priors CSV lacks the x,w0,w1 header")
    rows = np.array([[float(v) for v in ln.split(",")] for ln in lines[1:]])
    return rows[:, 0], rows[:, 1], rows[:, 2]


def check_speed_shannon_ell2(doc) -> list[str]:
    """|phi''(p)| = 1/p exactly, so W = 1, c = c' = 0 and the speed holds."""
    out = []
    if doc.get("holds") is not True:
        out.append("holds is not true")
    if abs(doc["W"] - 1.0) > 1e-9:
        out.append(f"W = {doc['W']!r}, expected 1")
    for key in ("c", "c_prime"):
        if abs(doc[key]) > 1e-9:
            out.append(f"{key} = {doc[key]!r}, expected 0")
    return out


def check_le_cam(doc, phi, k: int, n: int, p: float = 0.5, c: float = 1.0) -> list[str]:
    """Two-point bound 0.25 gap^2 exp(-n KL), P and Q built here."""
    q = p - c / math.sqrt(n)
    P = np.concatenate([[1.0 - p], np.full(k - 1, p / (k - 1))])
    Q = np.concatenate([[1.0 - q], np.full(k - 1, q / (k - 1))])
    gap = float(np.sum(phi(P)) - np.sum(phi(Q)))
    kl = float(np.sum(P * np.log(P / Q)))
    ref = 0.25 * gap * gap * math.exp(-n * kl)
    got = doc["bound_value"]
    if abs(got - ref) > 1e-9 * abs(ref):
        return [f"le-cam bound {got!r} != 0.25 gap^2 exp(-n KL) = {ref!r}"]
    return []


def check_composite_bound(doc) -> list[str]:
    """condition in {1, 2}; bound = main - total_correction; main = d^2/32 (7/8 - tv)."""
    out = []
    t = doc["terms"]
    d = doc["config"]["gap"]
    if doc["condition"] not in (1, 2):
        out.append(f"condition {doc['condition']!r} not in {{1, 2}}")
    if abs(doc["bound_value"] - (t["main"] - t["total_correction"])) > 1e-12 * max(1.0, abs(doc["bound_value"])):
        out.append("bound_value != main - total_correction")
    main = d * d / 32.0 * (7.0 / 8.0 - t["tv_term"])
    if abs(t["main"] - main) > 1e-12 * abs(main):
        out.append(f"main {t['main']!r} != d^2/32 (7/8 - tv_term) = {main!r}")
    return out


def plugin(counts: np.ndarray, n: int, phi) -> float:
    return math.fsum(np.asarray(phi(counts / n), dtype=float).tolist())


def check_estimate(doc, counts: np.ndarray, n: int, phi, theta: float) -> list[str]:
    """Composite estimate of the tuned preset against a plugin computed here."""
    out = []
    k = counts.size
    half = n / 2.0
    if doc["degree"] != math.floor(0.9 * math.log(half)):
        out.append(f"degree {doc['degree']} != floor(0.9 ln(n/2))")
    if abs(doc["threshold"] - math.log(half)) > 1e-12 * math.log(half):
        out.append(f"threshold {doc['threshold']!r} != ln(n/2)")
    bc = doc["branch_counts"]
    if bc["plugin"] + bc["poly"] != k:
        out.append(f"branch_counts sum to {bc['plugin'] + bc['poly']}, expected k = {k}")
    err = abs(doc["estimate"] - theta)
    plug_err = abs(plugin(counts, n, phi) - theta)
    if not err <= 0.5 * plug_err:
        out.append(f"composite error {err:.4g} above half the plugin error {plug_err:.4g}")
    return out


def theory_rate_alpha1(n: int, k: int) -> float:
    return k**2 / (n * math.log(n)) ** 2 + math.log(k) ** 2 / n


def check_sweep(csv_jobs1: bytes, csv_jobs2: bytes) -> list[str]:
    """Byte-identical across --jobs, closed-form theory column, composite wins at the top."""
    out = []
    if csv_jobs1 != csv_jobs2:
        out.append("--jobs 1 and --jobs 2 CSVs differ")
    lines = csv_jobs1.decode().strip().splitlines()
    head = lines[0].split(",")
    rows = [dict(zip(head, ln.split(","))) for ln in lines[1:]]
    if not rows:
        return out + ["sweep CSV has no rows"]
    for r in rows:
        n, k = int(r["n"]), int(r["k"])
        ref = theory_rate_alpha1(n, k)
        if abs(float(r["theory_rate"]) - ref) > 1e-12 * ref:
            out.append(f"theory_rate at n={n} is {r['theory_rate']}, closed form {ref!r}")
    top = max(int(r["n"]) for r in rows)
    mse = {r["estimator"]: float(r["mse"]) for r in rows if int(r["n"]) == top}
    if not mse.get("composite", math.inf) <= 0.5 * mse.get("plugin", -math.inf):
        out.append(f"at n={top} composite MSE {mse.get('composite')} is not at most half of plugin {mse.get('plugin')}")
    return out


def check_scale_identity(phi_name: str, e_by_lam: dict) -> list[str]:
    """E_L on [0, lam] = lam * E_L on [0, 1] (shannon), sqrt(lam) * ... (p^0.5)."""
    out = []
    base = e_by_lam[1.0]
    for lam, e in e_by_lam.items():
        factor = lam if phi_name == "shannon" else math.sqrt(lam)
        ref = factor * base
        if abs(e - ref) > 1e-8 * ref:
            out.append(f"E_L on [0, {lam:g}] = {e!r}, scale identity gives {ref!r}")
    return out
