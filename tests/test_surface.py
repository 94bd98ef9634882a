"""The public surface: what the README documents, and what import loads."""

import importlib
import os
import re
import subprocess
import sys
from pathlib import Path

import diamondsim

README = Path(__file__).resolve().parents[1] / "README.md"


def entry_point_names():
    """(module, name) pairs from the README's "main entry points" bullets."""
    text = README.read_text(encoding="utf-8")
    section = text.split("The main entry points:", 1)[1].split("\n\n## ", 1)[0]
    bullets = [line for line in section.splitlines() if line.startswith("- ")]
    return [
        pair for line in bullets for pair in re.findall(r"`(\w+)\.(\w+)", line)
    ]


def test_readme_entry_points_resolve_in_their_modules():
    names = entry_point_names()
    assert len(names) >= 12
    for module_name, name in names:
        module = importlib.import_module(f"diamondsim.{module_name}")
        assert hasattr(module, name), f"README names {module_name}.{name}"


def test_every_exported_name_is_documented_in_the_readme():
    # The converse of the check above: each module's __all__ is what the
    # README documents, each name written as `module.name`.
    text = README.read_text(encoding="utf-8")
    documented = set(re.findall(r"`(\w+)\.(\w+)", text))
    missing = [
        f"{module}.{name}"
        for module in ("algebra", "atom", "cli", "dressed", "lindblad", "sweep")
        for name in importlib.import_module(f"diamondsim.{module}").__all__
        if (module, name) not in documented
    ]
    assert missing == []


def run_child(code, *args, **env):
    """Run code in a fresh interpreter that imports diamondsim from this tree."""
    src = Path(diamondsim.__file__).resolve().parents[1]
    env = dict(os.environ, **env, PYTHONPATH=os.pathsep.join(
        filter(None, [str(src), os.environ.get("PYTHONPATH")])
    ))
    done = subprocess.run(
        [sys.executable, "-c", code, *args], capture_output=True, text=True, env=env, timeout=60,
    )
    assert done.returncode == 0, done.stderr
    return done.stdout


def test_package_import_leaves_the_cli_unloaded():
    code = "import sys, diamondsim; print(sorted({'diamondsim.cli', 'argparse'} & set(sys.modules)))"
    assert run_child(code) == "[]\n"


# Eigendecompositions of seeded Hermitian matrices, and the dressed census
# of a degenerate preset with its CSV, written to the directory argv[1].
_EIGEN_CHILD = """
import sys
from pathlib import Path
import numpy as np
from diamondsim.algebra import herm_eigen
from diamondsim.cli import main

out = Path(sys.argv[1])
rng = np.random.default_rng(14)
with open(out / "eigen.bin", "wb") as blob:
    for n in (2, 3, 4, 16):
        for _ in range(100):
            raw = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            eig = herm_eigen(raw + raw.conj().T)
            blob.write(eig.eigenvalues.tobytes() + eig.eigenvectors.tobytes())
for name in ("fig6a", "fig10-right"):
    assert main(["dressed", "--preset", name, "--out", str(out / (name + ".csv"))]) == 0
assert "scipy" not in sys.modules, "scipy was imported"
"""


def test_eigensolver_bytes_do_not_depend_on_the_blas_thread_count(tmp_path):
    # herm_eigen runs LAPACK from numpy's own OpenBLAS: the same bytes on
    # one thread or two, and no scipy import, so import time and memory
    # stay those of numpy alone.
    runs = []
    for threads in ("1", "2"):
        out = tmp_path / threads
        out.mkdir()
        stdout = run_child(_EIGEN_CHILD, str(out), OPENBLAS_NUM_THREADS=threads)
        runs.append((stdout, {path.name: path.read_bytes() for path in out.iterdir()}))
    assert sorted(runs[0][1]) == ["eigen.bin", "fig10-right.csv", "fig6a.csv"]
    assert "total dark states" in runs[0][0]
    assert runs[0] == runs[1]
