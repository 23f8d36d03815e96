"""Package-level checks that no single module's tests cover."""

import ast
import importlib
import importlib.util
import json
import os
import pkgutil
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

import minifunc
from minifunc.cli import build_parser, main

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


# The benchmark under perfbench/ drives the package by name: its child
# process reads module attributes, and its workloads are CLI argument
# vectors.  These tests read perfbench/ and edit nothing there, so a change
# that drops a name or an option the benchmark needs fails here.
PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _perfbench_module(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _host_reads():
    """(module, attribute) for every minifunc name perfbench/host.py reads:
    each name it imports from minifunc, and each attribute it reads off an
    imported minifunc module."""
    tree = ast.parse((PERFBENCH / "host.py").read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "minifunc":
            imported.update(alias.asname or alias.name for alias in node.names)
    reads = {("minifunc", name) for name in imported}
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            if node.value.id in imported & set(MODULES):
                reads.add((f"minifunc.{node.value.id}", node.attr))
    return sorted(reads)


def test_benchmark_host_names_resolve():
    reads = _host_reads()
    assert ("minifunc.estimators", "composite_estimate") in reads
    assert ("minifunc.cli", "read_counts") in reads
    missing = [(m, a) for m, a in reads if not hasattr(importlib.import_module(m), a)]
    assert missing == []


@pytest.fixture(scope="module")
def bench_argvs(tmp_path_factory):
    """(cli-cold, estimate-bulk, risk-sweep) argument vectors at seed 7, the
    estimate-bulk inputs written at census scale."""
    workdir = str(tmp_path_factory.mktemp("perfbench"))
    workloads, gen = _perfbench_module("workloads"), _perfbench_module("gen")
    inputs = gen.generate(7, os.path.join(workdir, "inputs"), gen.CENSUS)
    return (workloads.cli_cold(workdir, 7), workloads.estimate_bulk(inputs, 7),
            workloads.risk_sweep(workdir, 7))


def test_benchmark_argvs_parse(bench_argvs):
    argvs = [argv for group in bench_argvs for argv in group]
    assert len(argvs) == 12
    for argv in argvs:
        build_parser().parse_args(argv)


def test_benchmark_cli_calls_exit_0(bench_argvs, capsys):
    cold, bulk, _ = bench_argvs
    for argv in cold + bulk:
        assert main(argv) == 0, (argv, capsys.readouterr().err)


def test_benchmark_cli_cold_outputs_pass_its_checks(bench_argvs, capsys, monkeypatch):
    # the checks perfbench/run.py applies to each cli-cold output: the
    # alternation certificate of both approx calls, and the check-speed,
    # le-cam, composite-bound and priors checks; run.py imports its
    # sibling modules by bare name
    monkeypatch.syspath_prepend(str(PERFBENCH))
    cold = _perfbench_module("run").CliCold(workdir=None, seed=7)
    for argv in bench_argvs[0]:
        assert main(argv) == 0, (argv, capsys.readouterr().err)
        op = {"argv": argv, "doc": json.loads(capsys.readouterr().out)}
        assert cold.check_op(op) == [], argv


def test_benchmark_risk_sweep_passes_its_check(bench_argvs, capsys):
    # the check perfbench/run.py applies to the risk-sweep pair: the
    # --jobs 1 and --jobs 2 CSVs are identical, the theory column is the
    # closed form and the composite's MSE at the top of the grid is at most
    # half the plugin's
    checks = _perfbench_module("checks")
    csvs = []
    for argv in bench_argvs[2]:
        assert main(argv) == 0, (argv, capsys.readouterr().err)
        csvs.append(Path(argv[argv.index("--out") + 1]).read_bytes())
    assert checks.check_sweep(*csvs) == []
