"""Write ``tests/reference_residuals.json``, the reports that ``test_reference_residuals.py`` pins.

    PYTHONPATH=src OPENBLAS_NUM_THREADS=1 python tests/write_reference_residuals.py

The runs are the five shipped configs at seeds 0-2, so(4) isoclinic at 0-4,
so(5) with rotation angles [2, 1] at 0-2 and the su(3) basis as a custom
algebra at 0-2.  Per run the file holds the verdict, ``dims`` and each row's
residual as ``float.hex``, and it records the numpy version it was written
with.  A change that moves a report rewrites the file with this script, so
the diff shows which rows moved and by how much.
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


def main() -> None:
    out = {"numpy": np.__version__,
           "runs": {label: record(run_pipeline(config_from_dict(config))) for label, config in runs()}}
    PATH.write_text(json.dumps(out, indent=1) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()
