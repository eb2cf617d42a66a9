"""Public API surface checks: every exported name resolves."""

import importlib

import pytest

PACKAGES = [
    "repro",
    "repro.isa",
    "repro.machine",
    "repro.lang",
    "repro.compiler",
    "repro.schedule",
    "repro.model",
    "repro.workloads",
    "repro.experiments",
    "repro.analysis",
]


@pytest.mark.parametrize("package", PACKAGES)
def test_all_names_resolve(package):
    module = importlib.import_module(package)
    assert hasattr(module, "__all__"), package
    for name in module.__all__:
        assert hasattr(module, name), f"{package}.{name}"


@pytest.mark.parametrize("package", PACKAGES)
def test_all_sorted_and_unique(package):
    module = importlib.import_module(package)
    names = list(module.__all__)
    assert len(names) == len(set(names)), package


def test_top_level_analyze_kernel():
    import repro

    analysis = repro.analyze_kernel("lfk12", measure=False)
    assert analysis.spec.number == 12


def test_a_name_is_any_workload_and_a_number_a_case_study_kernel():
    import repro
    from repro.workloads import run_kernel

    assert repro.analyze_kernel("daxpy", measure=False).spec.name == \
        "daxpy"
    assert run_kernel("heat1d").spec.name == "heat1d"
    assert run_kernel(12).spec.name == "lfk12"


def test_version_string():
    import repro

    major, *_ = repro.__version__.split(".")
    assert int(major) >= 1
