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


def test_package_import_leaves_the_cli_unloaded():
    src = Path(diamondsim.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(src), os.environ.get("PYTHONPATH")])
    ))
    code = "import sys, diamondsim; print(sorted({'diamondsim.cli', 'argparse'} & set(sys.modules)))"
    done = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=60,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout == "[]\n"
