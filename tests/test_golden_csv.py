"""The CSVs of three small runs, byte for byte as recorded in ``tests/golden/``.

The package promises its CSVs as printed, to 6 significant digits, on every host (``tests/test_blas_kernels.py``
shows they agree across BLAS kernels), so a refactor of training must leave these files as they are. The runs are
chosen to cross the paths a training step can take: at lr 0.1 the wrapped runs part from their plain partners (rows
go from 4 to 8) and every run is ok; at lr 0.2 both seeds' ``bce+all`` runs leave the stack at epoch 0, batch 1,
while the others go on; the grid's 4 cells per seed train to 4 distinct results. To re-record after a change that
is meant to move them, run ``PYTHONPATH=src python tests/test_golden_csv.py`` from the repository root and say why
in CHANGES.md.
"""

import sys
from pathlib import Path

import pytest

from segbench.cli import EXIT_OK, main

GOLDEN = Path(__file__).resolve().parent / "golden"
FLAGS = ["--width", "16", "--height", "16", "--n-images", "16", "--fg-fraction", "0.2", "--noise-sigma", "0.05",
         "--batch-size", "4", "--seeds", "2", "--data-seed", "3"]
COMPARE = ["compare", *FLAGS, "--epochs", "4", "--gamma", "0.5", "--losses", "dice,all,bce,bce+all"]
RUNS = {  # the CSV each run writes, and the _epochs.csv beside it where the command writes one
    "compare_lr0.1.csv": [*COMPARE, "--lr", "0.1"],
    "compare_lr0.2.csv": [*COMPARE, "--lr", "0.2"],
    "grid.csv": ["grid", *FLAGS, "--epochs", "6", "--lr", "0.05", "--gammas", "0.5", "--omegas", "6,14",
                 "--epsilons", "0.3,1.0"],
}


def _written(out_dir: Path, name: str) -> dict[str, bytes]:
    """Run ``name``'s command into ``out_dir``; the bytes of every file it wrote, by file name."""
    assert main([*RUNS[name], "--out", str(out_dir / name)]) == EXIT_OK
    return {p.name: p.read_bytes() for p in sorted(out_dir.iterdir())}


@pytest.mark.parametrize("name", sorted(RUNS))
def test_csv_bytes_equal_the_golden_files(tmp_path, name):
    got = _written(tmp_path, name)
    assert sorted(got) == sorted(p.name for p in GOLDEN.glob(f"{Path(name).stem}*.csv"))
    for file, data in got.items():
        assert data == (GOLDEN / file).read_bytes(), file


if __name__ == "__main__":  # re-record the golden files
    GOLDEN.mkdir(exist_ok=True)
    for name in RUNS:
        _written(GOLDEN, name)
    sys.exit(0)
