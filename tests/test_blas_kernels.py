"""The CSVs as printed are the same under every BLAS kernel the host can run.

OpenBLAS picks a kernel per CPU, and the bits of a matrix product may depend on it (README), so the outputs that
cross hosts are the CSVs at 6 significant digits. ``OPENBLAS_CORETYPE`` forces a kernel for the process it is set
for; each kernel the host's CPU flags allow runs a small ``train``, ``compare`` and ``grid`` in its own process.
"""

import json
import os
import subprocess
import sys

import pytest

import segbench

# OpenBLAS core types, oldest first, and the /proc/cpuinfo flags each one's kernels need
CORETYPES = {
    "Prescott": {"pni"},
    "Sandybridge": {"avx"},
    "Haswell": {"avx2", "fma"},
    "Zen": {"avx2", "fma"},
    "SkylakeX": {"avx512f", "avx512bw", "avx512cd", "avx512dq", "avx512vl"},
}

FLAGS = ["--width", "16", "--height", "16", "--n-images", "12", "--fg-fraction", "0.2", "--noise-sigma", "0.05",
         "--epochs", "2", "--batch-size", "8", "--lr", "0.01", "--seed", "5", "--data-seed", "5"]
COMMANDS = {
    "train.csv": ["train", *FLAGS, "--loss", "tversky+all"],
    "compare.csv": ["compare", *FLAGS, "--seeds", "2",
                    "--losses", "jaccard,dice,tversky,focal,combo,focal-tversky,all"],
    "grid.csv": ["grid", *FLAGS, "--seeds", "2", "--omegas", "6,14", "--epsilons", "0.3,1.0"],
}
SCRIPT = (
    "import json, sys\n"
    "from segbench.cli import main\n"
    "out, commands = sys.argv[1], json.loads(sys.argv[2])\n"
    "for name, argv in commands.items():\n"
    "    assert main([*argv, '--out', f'{out}/{name}']) == 0, name\n"
)


def host_flags() -> set:
    try:
        with open("/proc/cpuinfo") as f:
            return next((set(line.split(":", 1)[1].split()) for line in f if line.startswith("flags")), set())
    except OSError:
        return set()


def test_csvs_are_byte_identical_across_kernels(tmp_path):
    kernels = [None] + [k for k, need in CORETYPES.items() if need <= host_flags()]  # None: the host's own pick
    if len(kernels) < 2:
        pytest.skip("no BLAS kernel to force on this host")
    src = os.path.dirname(os.path.dirname(segbench.__file__))
    outputs = {}
    for kernel in kernels:
        out = tmp_path / (kernel or "default")
        out.mkdir()
        env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_CORETYPE"}
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        if kernel:
            env["OPENBLAS_CORETYPE"] = kernel
        run = subprocess.run([sys.executable, "-c", SCRIPT, str(out), json.dumps(COMMANDS)], env=env,
                             capture_output=True, text=True, timeout=300)
        assert run.returncode == 0, run.stderr
        outputs[kernel] = {p.name: p.read_bytes() for p in sorted(out.iterdir())}
    default = outputs.pop(None)
    assert set(default) == {*COMMANDS, "compare_epochs.csv"}
    for kernel, files in outputs.items():
        for name, data in files.items():
            assert data == default[name], f"{name} under OPENBLAS_CORETYPE={kernel}"
