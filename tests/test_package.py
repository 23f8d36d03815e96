"""Package-level checks that no single module's tests cover."""

import importlib
import os
import pkgutil
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

import minifunc
from minifunc.cli import build_parser

MODULES = sorted(m.name for m in pkgutil.iter_modules(minifunc.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    # __all__ is edited by hand whenever a public name goes
    module = importlib.import_module(f"minifunc.{name}")
    assert [n for n in module.__all__ if not hasattr(module, n)] == []
    namespace: dict = {}
    exec(f"from minifunc.{name} import *", namespace)
    assert set(module.__all__) <= set(namespace)


def test_readme_examples_run(tmp_path):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    # the Python blocks run in order, as one script, in a fresh interpreter
    script = "".join(re.findall(r"^```python\n(.*?)^```", readme, re.M | re.S))
    src = str(Path(minifunc.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-c", script], cwd=tmp_path, env=env, capture_output=True, text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    # every command of the Command line block parses
    block = re.search(r"^## Command line\n.*?^```\n(.*?)^```", readme, re.M | re.S).group(1)
    commands = [shlex.split(line) for line in block.replace("\\\n", " ").splitlines()
                if line.startswith("minifunc ")]
    assert len(commands) == 6
    for argv in commands:
        build_parser().parse_args(argv[1:])
