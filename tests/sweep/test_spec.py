"""Sweep grid expansion, keys, and dedup."""

import pytest

from repro.errors import ExperimentError
from repro.machine import DEFAULT_CONFIG
from repro.sweep import OPTION_VARIANTS, SweepSpec, SweepTask


class TestSweepTask:
    def test_key_is_stable_and_content_based(self):
        a = SweepTask("lfk1")
        b = SweepTask("lfk1", tags=(("variant", "whatever"),))
        assert a.key == b.key  # tags are labels, not content

    def test_key_distinguishes_options(self):
        a = SweepTask("lfk1", OPTION_VARIANTS["default"])
        b = SweepTask("lfk1", OPTION_VARIANTS["reuse"])
        assert a.key != b.key

    def test_key_distinguishes_config_size_and_mode(self):
        base = SweepTask("lfk1")
        assert base.key != SweepTask(
            "lfk1", config=DEFAULT_CONFIG.without_refresh()
        ).key
        assert base.key != SweepTask("lfk1", n=64).key
        assert base.key != SweepTask("lfk1", mode="bound").key

    def test_unknown_mode_rejected(self):
        with pytest.raises(ExperimentError):
            SweepTask("lfk1", mode="bogus")

    def test_label_and_tag(self):
        task = SweepTask(
            "lfk1", n=32,
            tags=(("variant", "reuse"), ("config", "base")),
        )
        assert task.label == "lfk1/n=32/reuse/base"
        assert task.tag("variant") == "reuse"
        assert task.tag("missing", "x") == "x"


class TestSweepSpec:
    def test_expansion_order_is_workload_major(self):
        spec = SweepSpec.build(
            ["lfk1", "lfk12"],
            variants={
                "default": OPTION_VARIANTS["default"],
                "reuse": OPTION_VARIANTS["reuse"],
            },
        )
        tasks = spec.expand()
        assert [t.workload for t in tasks] == [
            "lfk1", "lfk1", "lfk12", "lfk12"
        ]
        assert [t.tag("variant") for t in tasks[:2]] == [
            "default", "reuse"
        ]

    def test_duplicate_cells_dropped(self):
        spec = SweepSpec.build(
            ["lfk1"],
            variants={
                "a": OPTION_VARIANTS["default"],
                "b": OPTION_VARIANTS["default"],  # same content
            },
        )
        assert spec.grid_size == 2
        tasks = spec.expand()
        assert len(tasks) == 1
        assert tasks[0].tag("variant") == "a"

    def test_empty_grid_rejected(self):
        with pytest.raises(ExperimentError):
            SweepSpec.build([]).expand()
        with pytest.raises(ExperimentError):
            SweepSpec(workloads=("lfk1",), variants=()).expand()
