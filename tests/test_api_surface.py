"""API-surface tests: exports, docstrings, and module hygiene."""

import importlib
import inspect

import pytest

import repro

MODULES = [
    "repro",
    "repro.common.bits",
    "repro.common.log",
    "repro.common.params",
    "repro.common.rng",
    "repro.common.stats",
    "repro.common.telemetry",
    "repro.isa.instructions",
    "repro.trace.behaviors",
    "repro.trace.cfg",
    "repro.trace.fbmeta",
    "repro.trace.oracle",
    "repro.trace.reader",
    "repro.trace.workloads",
    "repro.memory.cache",
    "repro.memory.hierarchy",
    "repro.memory.mshr",
    "repro.memory.tlb",
    "repro.branch.btb",
    "repro.branch.btb2l",
    "repro.branch.gshare",
    "repro.branch.history",
    "repro.branch.ittage",
    "repro.branch.loop",
    "repro.branch.perceptron",
    "repro.branch.ras",
    "repro.branch.tage",
    "repro.frontend.bpu",
    "repro.frontend.fetch",
    "repro.frontend.ftq",
    "repro.prefetch.base",
    "repro.prefetch.djolt",
    "repro.prefetch.eip",
    "repro.prefetch.fnl_mma",
    "repro.prefetch.next_line",
    "repro.prefetch.profile_guided",
    "repro.prefetch.rdip",
    "repro.prefetch.sn4l_dis_btb",
    "repro.core.backend",
    "repro.core.metrics",
    "repro.core.simulator",
    "repro.experiments.analysis",
    "repro.experiments.cache",
    "repro.experiments.configs",
    "repro.experiments.figures",
    "repro.experiments.report",
    "repro.experiments.runner",
    "repro.experiments.viz",
    "repro.cli",
]


@pytest.mark.parametrize("name", MODULES)
def test_module_importable_and_documented(name):
    module = importlib.import_module(name)
    assert module.__doc__, f"{name} lacks a module docstring"


@pytest.mark.parametrize("name", MODULES)
def test_public_classes_and_functions_documented(name):
    module = importlib.import_module(name)
    for attr_name, attr in vars(module).items():
        if attr_name.startswith("_"):
            continue
        if inspect.getmodule(attr) is not module:
            continue  # re-exports documented at their home
        if inspect.isclass(attr) or inspect.isfunction(attr):
            assert attr.__doc__, f"{name}.{attr_name} lacks a docstring"


class TestTopLevelExports:
    def test_all_resolves(self):
        for name in repro.__all__:
            assert hasattr(repro, name), name

    def test_version(self):
        assert repro.__version__

    def test_quickstart_symbols(self):
        # The README quickstart must keep working.
        from repro import SimParams, simulate  # noqa: F401

        params = SimParams()
        assert params.frontend.ftq_entries == 24
