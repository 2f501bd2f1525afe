"""The host reference: a fixed job that loads the host the way a verify does.

    python3 perfbench/hostref.py

A fresh interpreter imports numpy and scipy.linalg, the program's only
third-party imports, then runs small matrix exponentials and SVDs between
pure-Python arithmetic, the mix a verify spends its time in.  It runs no
orbitpencil code, so no change to the program can move it; the benchmark
times it next to every probe and divides the host's speed out of the gated
times (see ``run.py``).  It prints nothing and exits with code 0.
"""

import numpy as np
import scipy.linalg

rng = np.random.default_rng(0)
matrices = [rng.standard_normal((8, 8)) * 0.3 for _ in range(40)]
total = 0.0
for _ in range(60):
    for matrix in matrices:
        total += scipy.linalg.expm(matrix)[0, 0] + np.linalg.svd(matrix, compute_uv=False)[0]
        total += sum(i * 0.5 for i in range(300))
if not np.isfinite(total):
    raise SystemExit(1)
