"""The counter-based generator behind every draw of a run.

Draw j of the stream (seed, stage, index) is the SplitMix64 finaliser of
key + (j + 1)·γ, so a row depends on its own counter alone.
"""

import json
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

from orbitpencil import seeding
from orbitpencil.cli import main as cli_main
from orbitpencil.seeding import normal_rows, uniform_rows, unit_rows

ROOT = pathlib.Path(__file__).resolve().parent.parent
ROW_FUNCTIONS = [
    lambda seed, stage, idx: uniform_rows(seed, stage, idx, 7, 0.1),
    lambda seed, stage, idx: normal_rows(seed, stage, idx, 7),
    lambda seed, stage, idx: unit_rows(seed, stage, idx, 7),
]


def test_splitmix64_known_answer():
    # the reference SplitMix64 sequence from state 0
    draws = seeding.splitmix64(np.zeros(1, dtype=np.uint64), 3)[0]
    assert [int(d) for d in draws] == [0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4, 0x06C45D188009454F]


@pytest.mark.parametrize("rows", ROW_FUNCTIONS)
def test_row_i_of_a_batch_is_the_one_row_call(rows):
    indices = [0, 1, 5, 17, 2 ** 40]
    batch = rows(3, "batch", indices)
    for i, index in enumerate(indices):
        assert np.array_equal(batch[i], rows(3, "batch", [index])[0])
    assert np.array_equal(rows(3, "batch", range(4)), rows(3, "batch", [0, 1, 2, 3]))


def test_uniform_draws_lie_in_the_half_open_box(monkeypatch):
    draws = uniform_rows(11, "box", range(2000), 9, 0.1)
    assert np.all(draws >= -0.1) and np.all(draws < 0.1)
    assert draws.min() < -0.099 and draws.max() > 0.099
    # the extreme words: all bits clear gives -scale, all bits set stays below scale
    for word, want in ((0, -0.1), ((1 << 64) - 1, 0.1 - 0.2 * 2.0 ** -53)):
        monkeypatch.setattr(seeding, "splitmix64", lambda keys, count, w=word: np.full((len(keys), count), w,
                                                                                       dtype=np.uint64))
        edge = uniform_rows(0, "box", [0], 1, 0.1)[0, 0]
        assert -0.1 <= edge < 0.1 and edge == pytest.approx(want, abs=1e-17)


def test_normal_and_unit_rows():
    normals = normal_rows(2, "moments", range(4000), 6)
    assert abs(normals.mean()) < 0.05 and abs(normals.std() - 1.0) < 0.05
    assert np.array_equal(normal_rows(2, "moments", range(5), 3), normals[:5, :3])  # a prefix
    units = unit_rows(2, "moments", range(50), 6)
    assert np.allclose(np.linalg.norm(units, axis=1), 1.0, rtol=0, atol=1e-15)


def test_a_zero_normal_draw_becomes_the_first_basis_vector(monkeypatch):
    monkeypatch.setattr(seeding, "normal_rows", lambda *args: np.zeros((2, 3)))
    assert np.array_equal(unit_rows(0, "zero", range(2), 3), [[1.0, 0.0, 0.0]] * 2)


def test_seeds_of_any_size_stay_distinct():
    seeds = [0, 1, 2 ** 64, 2 ** 64 + 1, 2 ** 70, 2 ** 128]
    rows = [uniform_rows(seed, "wide", [0], 4)[0].tobytes() for seed in seeds]
    assert len(set(rows)) == len(seeds)
    assert uniform_rows(1, "a", [0], 4).tobytes() != uniform_rows(1, "b", [0], 4).tobytes()
    with pytest.raises(ValueError):
        uniform_rows(-1, "wide", [0], 4)


def test_verify_at_a_seed_beyond_64_bits(tmp_path, capsys):
    out = tmp_path / "report.json"
    assert cli_main(["verify", "--config", str(ROOT / "configs" / "su2_sphere.json"),
                     "--seed", str(2 ** 70), "--out", str(out)]) == 0
    assert json.loads(out.read_text())["config"]["seed"] == 2 ** 70


def test_a_verify_never_imports_numpy_random(tmp_path):
    script = (
        "import sys\n"
        "from orbitpencil.cli import main\n"
        f"code = main(['verify', '--config', {str(ROOT / 'configs' / 'su2_sphere.json')!r},"
        f" '--out', {str(tmp_path / 'report.json')!r}])\n"
        "print(sorted(m for m in ('numpy.random', 'secrets', 'hashlib', 'logging', 'scipy') if m in sys.modules))\n"
        "sys.exit(code)\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "[]"
