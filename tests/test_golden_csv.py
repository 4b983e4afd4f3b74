"""The CSVs of four small runs, byte for byte, and the lines they print to stderr, as recorded in ``tests/golden/``.

The package promises its CSVs as printed, to 6 significant digits, on every host (``tests/test_blas_kernels.py``
shows they agree across BLAS kernels), so a refactor of training must leave these files as they are. The runs are
chosen to cross the paths a training step can take: at lr 0.1 the wrapped runs part from their plain partners (rows
go from 4 to 8) and every run is ok; at lr 0.2 both seeds' ``bce+all`` runs leave the stack at epoch 0, batch 1,
while the others go on; the grid's 4 cells per seed train to 4 distinct results. The fourth run, at 5% foreground
with focal among its losses, predicts no foreground on some validation images, so it prints the metrics'
zero-denominator warnings. A run's stderr holds those warnings only, and their order is not promised (it depends on
``--jobs`` and on how the runs share a stack), so its lines are compared sorted: ``<run>.stderr`` holds them so. To
re-record after a change that is meant to move them, run ``PYTHONPATH=src python tests/test_golden_csv.py`` from the
repository root and say why in CHANGES.md.
"""

import logging
import math
import sys
from logging.handlers import BufferingHandler
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
    "compare_fg0.05.csv": ["compare", *FLAGS, "--fg-fraction", "0.05", "--epochs", "4", "--gamma", "0.5", "--lr",
                           "0.01", "--losses", "dice,all,bce,bce+all,focal"],
    "grid.csv": ["grid", *FLAGS, "--epochs", "6", "--lr", "0.05", "--gammas", "0.5", "--omegas", "6,14",
                 "--epsilons", "0.3,1.0"],
}


def _written(out_dir: Path, name: str) -> tuple[dict[str, bytes], list[str]]:
    """Run ``name``'s command into ``out_dir``; the bytes of every file it wrote, by file name, and the lines it
    printed to stderr, sorted: the messages of the warnings its loggers emitted."""
    logged, logger = BufferingHandler(math.inf), logging.getLogger("segbench")
    logger.addHandler(logged)
    try:
        assert main([*RUNS[name], "--out", str(out_dir / name)]) == EXIT_OK
    finally:
        logger.removeHandler(logged)
    files = {p.name: p.read_bytes() for p in sorted(out_dir.iterdir())}
    return files, sorted(r.getMessage() for r in logged.buffer if r.levelno >= logging.WARNING)


@pytest.mark.parametrize("name", sorted(RUNS))
def test_csv_bytes_equal_the_golden_files(tmp_path, name):
    got, stderr = _written(tmp_path, name)
    assert sorted(got) == sorted(p.name for p in GOLDEN.glob(f"{Path(name).stem}*.csv"))
    for file, data in got.items():
        assert data == (GOLDEN / file).read_bytes(), file
    assert stderr == (GOLDEN / f"{Path(name).stem}.stderr").read_text().splitlines()


if __name__ == "__main__":  # re-record the golden files
    GOLDEN.mkdir(exist_ok=True)
    for name in RUNS:
        _, stderr = _written(GOLDEN, name)
        (GOLDEN / f"{Path(name).stem}.stderr").write_text("".join(f"{line}\n" for line in stderr))
    sys.exit(0)
