"""Write ``tests/reference_residuals.json``, the reports that ``test_reference_residuals.py`` pins.

    PYTHONPATH=src OPENBLAS_NUM_THREADS=1 python tests/write_reference_residuals.py

The runs are the five shipped configs at seeds 0-2, so(4) isoclinic at 0-4,
so(5) with rotation angles [2, 1] at 0-2 and the su(3) basis as a custom
algebra at 0-2.  Per run the file holds the verdict, ``dims`` and each row's
residual as ``float.hex``, and it records the numpy version it was written
with.  A change that moves a report rewrites the file with this script, so
the diff shows which rows moved and by how much.  Before it writes, the
script prints each row's largest relative move against the file it
replaces, over all runs, and every run whose verdict or ``dims`` changed.
"""

import json
import pathlib

import numpy as np

from orbitpencil import families
from orbitpencil.workbench import config_from_dict, encode_complex_matrix, run_pipeline

ROOT = pathlib.Path(__file__).resolve().parent.parent
PATH = ROOT / "tests" / "reference_residuals.json"


def _su3_custom() -> dict:
    """The su(3) generators as a custom basis, seeded as configs/su3_projective_plane.json."""
    seed = families.diagonal_seed(families.su(3), [2, -1, -1])
    return {"algebra": {"custom": [encode_complex_matrix(m) for m in families.su_generators(3)],
                        "name": "su3-custom"},
            "seed_element": {"coeffs": seed.tolist()}, "samples": 10}


def runs() -> list[tuple[str, dict]]:
    """(label, JSON configuration) of every reference run, the seed inside the configuration."""
    configs = [(path.stem, json.loads(path.read_text()), 3) for path in sorted((ROOT / "configs").glob("*.json"))]
    configs += [
        ("so4_isoclinic", {"algebra": {"family": "so", "n": 4}, "seed_element": {"diag_spectrum": [1.0, 1.0]},
                           "samples": 8}, 5),
        ("so5", {"algebra": {"family": "so", "n": 5}, "seed_element": {"diag_spectrum": [2.0, 1.0]}}, 3),
        ("su3_custom", _su3_custom(), 3),
    ]
    return [(f"{label}@{seed}", dict(config, seed=seed)) for label, config, seeds in configs for seed in range(seeds)]


def record(report) -> dict:
    """What the reference keeps of one report."""
    return {"verdict": report.verdict, "dims": report.dims,
            "rows": {row.name: float.hex(row.residual) for row in report.checks + report.negative_controls}}


def _relative_move(old: float, new: float) -> float:
    """|new - old| relative to the larger of the two; 0 when they are equal, inf when one is not finite."""
    if old == new:
        return 0.0
    if not np.isfinite([old, new]).all():
        return float("inf")
    return abs(new - old) / max(abs(old), abs(new))


def print_moves(old: dict, new: dict) -> None:
    """Print each row's largest relative move from the runs ``old`` to ``new`` and every changed verdict or ``dims``."""
    largest = {}
    for label, got in new.items():
        ref = old.get(label)
        if ref is None:
            print(f"{label}: not in the previous file")
            continue
        if (got["verdict"], got["dims"]) != (ref["verdict"], ref["dims"]):
            print(f"{label}: verdict {ref['verdict']} -> {got['verdict']}, dims {ref['dims']} -> {got['dims']}")
        for row, value in got["rows"].items():
            if row in ref["rows"]:
                a, b = float.fromhex(ref["rows"][row]), float.fromhex(value)
                if row not in largest or _relative_move(a, b) > largest[row][0]:
                    largest[row] = (_relative_move(a, b), label, a, b)
    for row, (move, label, a, b) in largest.items():
        print(f"{row:38s} {move:9.2e}  {label}: {a:.3g} -> {b:.3g}")


def main() -> None:
    out = {"numpy": np.__version__,
           "runs": {label: record(run_pipeline(config_from_dict(config))) for label, config in runs()}}
    if PATH.exists():
        print_moves(json.loads(PATH.read_text(encoding="utf-8"))["runs"], out["runs"])
    PATH.write_text(json.dumps(out, indent=1) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()
