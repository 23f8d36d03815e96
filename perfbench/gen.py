"""Seeded input generation for the estimate-bulk workload.

Every file is a pure function of the workload seed:

  zipf_hist.csv     histogram CSV, k = 1e6 symbols (every symbol listed,
                    zero counts included), counts ~ Multinomial(1e6, zipf(1))
  samples.txt       2e6 raw samples, one symbol per line, uniform on k = 1e6
  samples_hist.csv  histogram CSV of exactly the counts in samples.txt

plus the same three at census scale (k = 2000) for the traced run.  The
program only ever sees these files and CLI arguments, never the seed.

Regenerate by hand with:  python3 perfbench/gen.py --seed 7 [--out DIR]
"""

from __future__ import annotations

import argparse
import json
import os

import numpy as np

BULK = {"k": 1_000_000, "n_zipf": 1_000_000, "n_samples": 2_000_000}
CENSUS = {"k": 2_000, "n_zipf": 2_000, "n_samples": 4_000}


def zipf_p(k: int) -> np.ndarray:
    p = 1.0 / np.arange(1.0, k + 1.0)
    return p / p.sum()


def _write_hist(path: str, counts: np.ndarray) -> None:
    body = "\n".join(f"{i},{c}" for i, c in enumerate(counts.tolist()))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("symbol,count\n" + body + "\n")


def generate(seed: int, outdir: str, sizes: dict) -> dict:
    """Write the three inputs under outdir; return their paths and make-up.

    Skips the writing when outdir already holds the files for this seed
    and these sizes (the stamp file records both).
    """
    os.makedirs(outdir, exist_ok=True)
    stamp_path = os.path.join(outdir, "stamp.json")
    meta = {
        "seed": seed,
        "sizes": sizes,
        "zipf_hist": os.path.join(outdir, "zipf_hist.csv"),
        "samples": os.path.join(outdir, "samples.txt"),
        "samples_hist": os.path.join(outdir, "samples_hist.csv"),
        "zipf_counts": os.path.join(outdir, "zipf_counts.npy"),
        "samples_counts": os.path.join(outdir, "samples_counts.npy"),
    }
    try:
        with open(stamp_path, encoding="utf-8") as fh:
            if json.load(fh) == meta:
                return meta
    except (OSError, ValueError):
        pass
    k = sizes["k"]
    rng = np.random.default_rng(np.random.SeedSequence([seed, k, 1]))
    zipf_counts = rng.multinomial(sizes["n_zipf"], zipf_p(k))
    samples = rng.integers(0, k, size=sizes["n_samples"])
    samples_counts = np.bincount(samples, minlength=k)
    _write_hist(meta["zipf_hist"], zipf_counts)
    with open(meta["samples"], "w", encoding="utf-8") as fh:
        fh.write("\n".join(map(str, samples.tolist())) + "\n")
    _write_hist(meta["samples_hist"], samples_counts)
    np.save(meta["zipf_counts"], zipf_counts)
    np.save(meta["samples_counts"], samples_counts)
    with open(stamp_path, "w", encoding="utf-8") as fh:
        json.dump(meta, fh)
    return meta


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out", default=os.path.join(os.path.dirname(os.path.abspath(__file__)), "_work", "inputs"))
    args = ap.parse_args()
    for name, sizes in (("bulk", BULK), ("census", CENSUS)):
        meta = generate(args.seed, os.path.join(args.out, name), sizes)
        print(json.dumps(meta))


if __name__ == "__main__":
    main()
