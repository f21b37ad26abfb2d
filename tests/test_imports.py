"""Package-surface smoke test.

Regression test for the bug this layer originally shipped with: the
``repro.gpu`` docstring advertised modules that did not exist, so
``import repro.gpu`` raised ``ModuleNotFoundError``.  Every public name
each package exports must import and resolve.
"""

import importlib
import os
import subprocess
import sys

import pytest

PACKAGES = [
    "repro",
    "repro.crypto",
    "repro.dpf",
    "repro.gpu",
    "repro.exec",
    "repro.pir",
    "repro.serve",
    "repro.obs",
    "repro.baselines",
]


def test_setup_py_declares_every_package():
    """setup.py's explicit package list must cover this smoke list."""
    import ast
    import pathlib

    setup_py = pathlib.Path(__file__).resolve().parent.parent / "setup.py"
    tree = ast.parse(setup_py.read_text())
    declared = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.keyword) and node.arg == "packages":
            declared = set(ast.literal_eval(node.value))
    assert declared, "setup.py must declare packages explicitly"
    assert set(PACKAGES) <= declared


@pytest.mark.parametrize("package", PACKAGES)
def test_package_imports(package):
    importlib.import_module(package)


@pytest.mark.parametrize("package", PACKAGES)
def test_every_exported_name_resolves(package):
    module = importlib.import_module(package)
    assert module.__all__, f"{package} exports nothing"
    assert len(set(module.__all__)) == len(module.__all__)
    for name in module.__all__:
        assert getattr(module, name) is not None


def test_the_package_loads_no_process_pool():
    """Serving is in-process: a fresh interpreter that imports the stack
    has not loaded ``multiprocessing``."""
    probe = ("import sys, repro, repro.pir, repro.serve, repro.exec; "
             "print('multiprocessing' in sys.modules)")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    run = subprocess.run([sys.executable, "-c", probe], env=env,
                         capture_output=True, text=True)
    assert (run.returncode, run.stdout.strip()) == (0, "False"), run.stderr


def test_the_serving_package_ships_no_test_tools():
    """Fault injection lives in ``tests.strategies`` and the benchmark
    is the one load generator: a fresh ``import repro.serve`` loads no
    ``chaos`` or ``load`` module, and the package exports neither, nor
    the loop's deleted config objects."""
    probe = ("import sys, repro.serve; print(sorted(m for m in sys.modules "
             "if m in ('repro.serve.chaos', 'repro.serve.load')))")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    run = subprocess.run([sys.executable, "-c", probe], env=env,
                         capture_output=True, text=True)
    assert (run.returncode, run.stdout.strip()) == (0, "[]"), run.stderr
    import repro.serve

    gone = {
        "FlakyBackend",
        "FaultPlan",
        "BackendFault",
        "generate_load",
        "LoadReport",
        "SloConfig",
        "AdmissionConfig",
    }
    assert not gone & (set(repro.serve.__all__) | set(vars(repro.serve)))


_AES_ON_FIRST_USE = """
import numpy as np
import repro
from repro.crypto import aes
from repro.pir import PirClient, PirServer

def round_trip(prf_name):
    rows = 1 << 12
    rng = np.random.default_rng(12)
    table = rng.integers(0, 1 << 64, size=rows, dtype=np.uint64)
    client = PirClient(rows, prf_name, rng=np.random.default_rng(13))
    indices = [0, 1, rows - 1, int(rng.integers(rows))]
    (batch,) = client.query_many(indices, len(indices))
    replies = [PirServer(table, prf_name=prf_name).handle(batch.requests[p]) for p in (0, 1)]
    return bool(np.array_equal(client.reconstruct(batch, *replies), table[indices]))

exact = round_trip("siphash")
built = aes._round_tables.cache_info()
print(exact, built.currsize)
exact = round_trip("aes128")
built = aes._round_tables.cache_info()
print(exact, built.currsize, built.misses)
"""


def test_aes_tables_are_built_on_first_use():
    """A process that serves SipHash never builds AES's 768 KiB round
    tables: a fresh ``import repro`` plus a SipHash round trip leaves the
    builder empty, and a following aes128 round trip builds them once
    and answers bit-exact."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    run = subprocess.run([sys.executable, "-c", _AES_ON_FIRST_USE], env=env,
                         capture_output=True, text=True)
    assert run.returncode == 0, run.stderr
    assert run.stdout.split("\n")[:2] == ["True 0", "True 1 1"], run.stdout
