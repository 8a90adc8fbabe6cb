"""Tracer coverage: every alias of a wrapped function is patched, and the
traced figure workloads make exactly the seed commit's calls.

Run from the root of a checkout:
    python3 -m pytest -q benchmarks/test_tracer.py
"""

import importlib
import shutil
import sys
import tempfile
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import multiqf  # noqa: E402
from multiqf import bounds, cli, gains, mcsim, noise  # noqa: E402

import tracer as tr  # noqa: E402
import workloads  # noqa: E402


def _package():
    return [m for n, m in sys.modules.items() if n == "multiqf" or n.startswith("multiqf.")]


def _originals() -> dict:
    return {
        id(fn): f"{layer}.{name}"
        for layer in tr.LAYERS
        for name, fn in tr.public_functions(importlib.import_module(f"multiqf.{layer}")).items()
    }


@pytest.fixture
def traced():
    tracer = tr.Tracer()
    tracer.install()
    try:
        yield tracer
    finally:
        tracer.uninstall()


@pytest.fixture
def out_dir():
    scratch = BENCH.parent / ".bench_tmp"
    scratch.mkdir(exist_ok=True)
    path = Path(tempfile.mkdtemp(prefix="test-", dir=scratch))
    yield path
    shutil.rmtree(path)
    if not any(scratch.iterdir()):
        scratch.rmdir()


def test_named_spans_list_public_functions():
    for span, names in tr.SPANS.items():
        module = importlib.import_module(f"multiqf.{span.split('.')[0]}")
        assert set(names) <= set(tr.public_functions(module)), span


def test_install_patches_every_alias_and_uninstall_restores():
    originals = _originals()
    before = {(m.__name__, n): v for m in _package() for n, v in vars(m).items()}
    tracer = tr.Tracer()
    tracer.install()
    try:
        left = [f"{m.__name__}.{n} -> {originals[id(v)]}"
                for m in _package() for n, v in vars(m).items() if id(v) in originals]
        assert left == []
        # `from .x import y` aliases share the wrapper of the defining module ...
        assert cli.realize_batch is noise.realize_batch
        assert cli.batch_gain_set is gains.batch_gain_set
        assert cli.algorithm_two_user is bounds.algorithm_two_user
        assert cli.bound_last_detector is bounds.bound_last_detector
        assert mcsim.bound_first_detectors is bounds.bound_first_detectors
        assert multiqf.qubit_cost is bounds.qubit_cost
        # ... and module-global lookups inside a module reach it too.
        for fn in (bounds.binomial_inv_cdf, bounds.qubit_cost, gains.gain_set,
                   noise.realize_circuit, cli.write_csv):
            assert id(fn.__wrapped__) in originals
    finally:
        tracer.uninstall()
    after = {(m.__name__, n): v for m in _package() for n, v in vars(m).items()}
    assert after == before


@pytest.mark.parametrize(
    "workload, expected",
    [
        ("two-user-figure", {"bounds.algorithm_two_user": 402,
                             "bounds.binomial_inv_cdf": 13468,
                             "bounds.qubit_cost": 1608}),
        ("advantage-figure", {"noise.realize_batch": 10,
                              "gains.gain_set": 5000,
                              "bounds.qubit_cost": 8500}),
    ],
)
def test_seed_call_counts(workload, expected, traced, out_dir):
    for argv in workloads.commands(workload, out_dir, 0):
        assert cli.main(argv) == 0
    assert {name: traced.calls[name] for name in expected} == expected
    summary = traced.summary()
    spans = summary["spans"]
    if workload == "two-user-figure":
        assert spans["bounds.two_user"]["calls"] == 402
        assert spans["bounds.inv_cdf"]["calls"] == 13468
    else:
        assert spans["noise.realize"]["calls"] == 10
        assert spans["gains.batch"]["calls"] == 10
        assert spans["noise.realize"]["counters"]["realizations"] == 5000
        assert spans["noise.realize"]["counters"]["blocks"] == traced.calls["noise.noisy_block"]
    assert spans["bounds.qubit_cost"]["calls"] == expected["bounds.qubit_cost"]
