"""Every reference run reports as ``reference_residuals.json`` records it (written by write_reference_residuals.py).

Verdicts, ``dims`` and row names must match exactly.  Residuals must match
bit for bit when numpy is the version that wrote the file and BLAS runs on
one thread; otherwise each row must only pass or fail against its bound as
the recorded residual does.
"""

import json
import os

import numpy as np
import pytest

from orbitpencil import workbench as wb
from write_reference_residuals import PATH, record, runs

REFERENCE = json.loads(PATH.read_text(encoding="utf-8"))
EXACT = REFERENCE["numpy"] == np.__version__ and os.environ.get("OPENBLAS_NUM_THREADS") == "1"
RUNS = runs()


def test_the_reference_covers_every_run():
    assert list(REFERENCE["runs"]) == [label for label, _ in RUNS]


@pytest.mark.parametrize("label,config", RUNS, ids=[label for label, _ in RUNS])
def test_report_matches_the_reference(label, config):
    ref = REFERENCE["runs"][label]
    report = wb.run_pipeline(wb.config_from_dict(config))
    got = record(report)
    assert (got["verdict"], got["dims"], list(got["rows"])) == (ref["verdict"], ref["dims"], list(ref["rows"]))
    if EXACT:
        assert got["rows"] == ref["rows"]
        return
    for row in report.checks + report.negative_controls:
        value = float.fromhex(ref["rows"][row.name])
        assert row.passed == (value <= row.tolerance if row.mode == "max" else value >= row.tolerance), row.name
