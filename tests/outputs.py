"""The default command-line outputs as a manifest of sha256 prefixes.

Each entry runs one `diamondsim` command through `cli.main` in this process
and keeps its exit status and the first 16 hex digits of the sha256 of its
stdout, stderr and --out file (None when the command writes no file).  The
entries are sweep, steady, evolve and dressed on every preset, each with
--out; steady on a config with no decay (exit 2) and on ROADMAP item 11's
config, which exits 0 with a known-wrong pop_a, so its entry moves when that
item is fixed; and a 5000-character invalid subcommand and --preset, whose
error messages are cut.

outputs.json holds one manifest per platform key, the machine and numpy's
version, because the last bits of a result may differ across CPUs and BLAS
builds.  test_outputs.py compares the current key's manifest with the
computed one.  A change that moves outputs by design records the new
manifest of the current key with

    PYTHONPATH=src python tests/outputs.py

and the diff of outputs.json shows what moved.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import platform
import sys
import tempfile
from pathlib import Path

import numpy as np

from diamondsim.cli import PRESET_NAMES, main

MANIFEST = Path(__file__).with_name("outputs.json")

NO_DECAY = "[fields]\nomega_a1 = 1\n[decays]\ngamma1 = 0\ngamma2 = 0\ngamma3 = 0\ngamma4 = 0\n"

# ROADMAP item 11: a trace-replaced system with cond_1 about 6.6e16.
ILL_CONDITIONED = """\
[fields]
omega_a1 = 0.0
omega_a2 = 158467.24809764003
omega_c1 = 1.655734790110453
omega_c2 = 0.7135587905132285
delta_a1 = 314481019.55129457
delta_a2 = 1.2884984235912178e-08
delta_c1 = -314481033.5066331
delta_c2 = -13.955338544190752
closure_target = a1

[decays]
gamma1 = 6.4118579053609e-05
gamma2 = 291000.59199211665
gamma3 = 9.644322494461778e-09
gamma4 = 95888243.66952352
"""

CONFIGS = {"no-decay": NO_DECAY, "ill-conditioned": ILL_CONDITIONED}


def platform_key() -> str:
    """The key of this platform's manifest in outputs.json."""
    return f"{platform.machine()} numpy-{np.__version__}"


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


def _run(argv: list[str], out: Path | None) -> dict:
    if out is not None:  # a command that fails writes no file; hash none, not the last one
        out.unlink(missing_ok=True)
        argv = [*argv, "--out", str(out)]
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        status = main(argv)
    return {
        "status": status,
        "stdout": _digest(stdout.getvalue().encode()),
        "stderr": _digest(stderr.getvalue().encode()),
        "out": _digest(out.read_bytes()) if out is not None and out.exists() else None,
    }


def manifest() -> dict[str, dict]:
    """Every entry's exit status and digests, keyed by the command it runs."""
    with tempfile.TemporaryDirectory() as tmp:
        folder = Path(tmp)
        runs = {
            f"{command} --preset {name}": [command, "--preset", name]
            for command in ("sweep", "steady", "evolve", "dressed")
            for name in PRESET_NAMES
        }
        for name, text in CONFIGS.items():
            path = folder / f"{name}.cfg"
            path.write_text(text)
            runs[f"steady --config {name}"] = ["steady", "--config", str(path)]
        entries = {label: _run(argv, folder / "out.csv") for label, argv in runs.items()}
        long = "q" * 5000
        entries["5000-character subcommand"] = _run([long], None)
        entries["steady --preset of 5000 characters"] = _run(["steady", "--preset", long], None)
        return entries


if __name__ == "__main__":
    recorded = json.loads(MANIFEST.read_text()) if MANIFEST.exists() else {}
    recorded[platform_key()] = manifest()
    MANIFEST.write_text(json.dumps(recorded, indent=1, sort_keys=True) + "\n")
    sys.stdout.write(f"recorded {len(recorded[platform_key()])} entries under {platform_key()!r}\n")
