"""Sweep grid expansion, keys, and dedup."""

import json
import pickle
import sys
import threading
from pathlib import Path

import pytest

from repro.compiler import DEFAULT_OPTIONS
from repro.errors import ExperimentError
from repro.machine import DEFAULT_CONFIG, MachineConfig
from repro.sweep import OPTION_VARIANTS, SweepSpec, SweepTask
from repro.sweep.spec import digest
from repro.workloads import clear_caches

GOLDEN_KEYS = (
    Path(__file__).parents[1] / "service" / "data" / "golden_keys.json"
)


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


class TestKeyTextIsPerInstance:
    """Keys stay content keys whatever order instances are keyed in."""

    @pytest.fixture(scope="class")
    def golden(self):
        return json.loads(GOLDEN_KEYS.read_text(encoding="utf-8"))

    def test_copies_of_a_keyed_config_get_their_own_keys(self, golden):
        base = MachineConfig()
        assert SweepTask("lfk1", config=base).key == golden["tasks"]["c240"]
        contended = base.with_contention(1.5)
        assert SweepTask("lfk1", config=contended).key == \
            golden["tasks"]["c240/contention-1.5"]
        no_refresh = base.replace(refresh_enabled=False)
        assert SweepTask("lfk1", config=no_refresh).key == \
            golden["tasks"]["c240/no-refresh"]
        assert SweepTask("lfk1", config=base).key == golden["tasks"]["c240"]

    @pytest.mark.parametrize("read_first", [False, True])
    def test_pickled_task_keeps_its_key(self, golden, read_first):
        task = SweepTask("lfk1", config=MachineConfig().with_contention(1.5))
        if read_first:
            assert task.key == golden["tasks"]["c240/contention-1.5"]
        clone = pickle.loads(pickle.dumps(task))
        assert clone.key == golden["tasks"]["c240/contention-1.5"]
        assert clone.key == task.key

    def test_digest_survives_clear_caches(self):
        config = DEFAULT_CONFIG.without_bubbles()
        before = digest(config)
        clear_caches()
        assert digest(config) == before
        assert digest(DEFAULT_CONFIG.without_bubbles()) == before

    def test_threads_racing_on_one_instance_agree(self, golden):
        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            configs = [MachineConfig().with_contention(1.5)
                       for _ in range(50)]
            seen = []

            def key_all():
                keys = [SweepTask("lfk1", config=config).key
                        for config in configs]
                seen.extend(keys)

            threads = [threading.Thread(target=key_all) for _ in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
                assert not thread.is_alive()
        finally:
            sys.setswitchinterval(switch)
        assert len(seen) == 8 * len(configs)
        assert set(seen) == {golden["tasks"]["c240/contention-1.5"]}

    @pytest.mark.parametrize("first", ["2", "2.0"])
    def test_equal_values_with_distinct_json_stay_distinct(
        self, golden, first
    ):
        pair = {"2": MachineConfig().with_contention(2),
                "2.0": MachineConfig().with_contention(2.0)}
        assert pair["2"] == pair["2.0"]
        order = [first] + [label for label in pair if label != first]
        for label in order:
            assert digest(pair[label]) == golden["contention"][label]


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

    def test_each_cell_is_tuned_to_its_machine(self):
        short = DEFAULT_CONFIG.replace(max_vl=64)
        spec = SweepSpec.build(
            ["lfk1"], configs={"base": DEFAULT_CONFIG, "short": short},
        )
        base, tuned = spec.expand()
        assert base.options.vector_length == 128
        assert tuned.options.vector_length == 64
        assert tuned.key == SweepTask(
            "lfk1", DEFAULT_OPTIONS.replace(vector_length=64), short
        ).key

    def test_empty_grid_rejected(self):
        with pytest.raises(ExperimentError):
            SweepSpec.build([]).expand()
        with pytest.raises(ExperimentError):
            SweepSpec(workloads=("lfk1",), variants=()).expand()
