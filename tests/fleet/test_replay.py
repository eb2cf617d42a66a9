"""Traffic generator, recorded corpora, and the replay gate.

The recorded gate at the bottom mirrors
``tests/service/test_static_burst.py``: a corpus checked into
``tests/fleet/data/`` is replayed against a live 3-replica fleet at
``--jobs 1`` and ``--jobs 4``, and every body must be byte-identical
to the single-process offline oracle — and to each other.
"""

import json
import os

import pytest

from repro.errors import ExperimentError
from repro.fleet import (
    make_population,
    make_zipf_frames,
    load_burst,
    oracle_bodies,
    record_burst,
    replay_frames,
    verify_replay,
)
from repro.fleet.fabric import Fleet
from repro.service.client import offline_response
from repro.service.protocol import canonicalize

from ..service.test_protocol import NON_OBJECTS

DATA = os.path.join(os.path.dirname(__file__), "data",
                    "fleet_burst.ndjson")


class OfflineClient:
    """A serverless client: replay plumbing without sockets."""

    def request(self, kind, params):
        return offline_response(kind, params)

    def close(self):
        pass


class TestGenerator:
    def test_same_seed_same_frames(self):
        a = make_zipf_frames(200, seed=7)
        b = make_zipf_frames(200, seed=7)
        assert a == b
        assert make_zipf_frames(200, seed=8) != a

    def test_frames_are_independent_dicts(self):
        frames = make_zipf_frames(50, seed=3)
        frames[0]["params"]["kernel"] = "mutated"
        assert make_zipf_frames(50, seed=3)[0]["params"][
            "kernel"] != "mutated"

    def test_every_frame_canonicalizes(self):
        for frame in make_zipf_frames(100, seed=11,
                                      kinds=("advise", "bound")):
            request = canonicalize(frame["kind"],
                                   dict(frame["params"]))
            assert request.key

    def test_zipf_skew_concentrates_on_a_hot_head(self):
        frames = make_zipf_frames(400, seed=1993)
        counts = {}
        for frame in frames:
            key = canonicalize(frame["kind"],
                               dict(frame["params"])).key
            counts[key] = counts.get(key, 0) + 1
        ranked = sorted(counts.values(), reverse=True)
        # Far fewer distinct keys than frames, and the hottest key
        # alone beats the uniform share by a wide margin.
        assert len(ranked) < len(frames) // 2
        assert ranked[0] > 3 * (len(frames) / len(ranked))

    def test_population_crosses_kinds_kernels_variants(self):
        population = make_population(
            kinds=("advise",), kernels=("lfk1", "lfk2"),
            variants=("default", "reuse"),
        )
        assert len(population) == 4
        with pytest.raises(ExperimentError):
            make_population(kinds=(), kernels=("lfk1",))

    def test_count_is_validated(self):
        with pytest.raises(ExperimentError):
            make_zipf_frames(0, seed=1)


class TestRecordedCorpora:
    def test_record_load_roundtrip(self, tmp_path):
        frames = make_zipf_frames(30, seed=5,
                                  kinds=("advise", "bound"))
        path = str(tmp_path / "burst.ndjson")
        record_burst(path, frames)
        assert load_burst(path) == frames
        # Deterministic bytes: recording again is a no-op diff.
        with open(path, encoding="utf-8") as handle:
            first = handle.read()
        record_burst(path, frames)
        with open(path, encoding="utf-8") as handle:
            assert handle.read() == first

    def test_record_rejects_invalid_frames(self, tmp_path):
        path = str(tmp_path / "bad.ndjson")
        with pytest.raises(ExperimentError):
            record_burst(
                path, [{"kind": "no-such-kind", "params": {}}]
            )

    def test_load_rejects_malformed_lines(self, tmp_path):
        path = tmp_path / "torn.ndjson"
        path.write_text('{"kind": "advise", "params": {"kernel": '
                        '"lfk1"}}\n{not json\n')
        with pytest.raises(ExperimentError, match="malformed"):
            load_burst(str(path))

    def test_load_rejects_empty_and_kindless(self, tmp_path):
        empty = tmp_path / "empty.ndjson"
        empty.write_text("\n\n")
        with pytest.raises(ExperimentError, match="empty"):
            load_burst(str(empty))
        kindless = tmp_path / "kindless.ndjson"
        kindless.write_text('{"params": {}}\n')
        with pytest.raises(ExperimentError, match="'kind'"):
            load_burst(str(kindless))

    @pytest.mark.parametrize("params", NON_OBJECTS)
    def test_load_rejects_non_object_params_by_line(self, tmp_path,
                                                    params):
        path = tmp_path / "bad.ndjson"
        path.write_text(
            json.dumps({"kind": "advise", "params": {"kernel": "lfk1"}})
            + "\n" + json.dumps({"kind": "report", "params": params})
            + "\n"
        )
        with pytest.raises(ExperimentError,
                           match=r"bad\.ndjson:2: invalid frame: "
                                 r"'params' must be an object"):
            load_burst(str(path))

    def test_checked_in_corpus_is_loadable_and_skewed(self):
        frames = load_burst(DATA)
        assert len(frames) == 120
        kinds = {frame["kind"] for frame in frames}
        assert kinds == {"advise", "bound"}
        # Regenerates bit-identically from its seed.
        assert frames == make_zipf_frames(
            120, seed=1993, kinds=("advise", "bound")
        )


class TestReplayMachinery:
    def test_offline_replay_matches_oracle_at_any_jobs(self):
        frames = make_zipf_frames(40, seed=21)
        oracle = oracle_bodies(frames)
        serial = replay_frames(frames, OfflineClient, jobs=1)
        fanned = replay_frames(frames, OfflineClient, jobs=4)
        assert verify_replay(frames, serial, oracle) == []
        assert verify_replay(frames, fanned, oracle) == []
        assert serial.bodies == fanned.bodies
        assert serial.frames == fanned.frames == 40
        assert serial.throughput_rps > 0

    def test_jobs_validation_and_clamp(self):
        frames = make_zipf_frames(3, seed=1)
        with pytest.raises(ExperimentError):
            replay_frames(frames, OfflineClient, jobs=0)
        report = replay_frames(frames, OfflineClient, jobs=16)
        assert report.jobs == 3  # clamped to the frame count

    def test_transport_errors_are_recorded_not_raised(self):
        class DeadClient:
            def request(self, kind, params):
                raise ExperimentError("no route to fleet")

            def close(self):
                pass

        frames = make_zipf_frames(5, seed=2)
        report = replay_frames(frames, DeadClient, jobs=2)
        assert len(report.errors) == 5
        assert report.statuses == ["transport-error"] * 5
        mismatches = verify_replay(frames, report)
        assert len(mismatches) == 5

    def test_verify_catches_a_corrupted_body(self):
        frames = make_zipf_frames(10, seed=9)
        report = replay_frames(frames, OfflineClient, jobs=1)
        assert verify_replay(frames, report) == []
        tampered = json.loads(report.bodies[4])
        tampered["corrupted"] = True
        report.bodies[4] = json.dumps(tampered, sort_keys=True)
        mismatches = verify_replay(frames, report)
        assert [m["frame"] for m in mismatches] == [4]
        assert mismatches[0]["got"] != mismatches[0]["expected"]

    def test_verify_rejects_mismatched_oracle_length(self):
        frames = make_zipf_frames(4, seed=9)
        report = replay_frames(frames, OfflineClient, jobs=1)
        with pytest.raises(ExperimentError):
            verify_replay(frames, report, oracle=["only-one"])

    def test_oracle_computes_each_distinct_key_once(self):
        frames = [
            {"kind": "advise", "params": {"kernel": "lfk1"}},
            {"kind": "advise", "params": {"kernel": "lfk2"}},
            {"kind": "advise", "params": {"kernel": "lfk1"}},
        ]
        bodies = oracle_bodies(frames)
        assert bodies[0] == bodies[2]
        assert bodies[0] != bodies[1]


class TestRecordedGate:
    """The corpus gate: 1-vs-N replicas, 1-vs-N lanes, same bytes."""

    @pytest.fixture(scope="class")
    def frames(self):
        return load_burst(DATA)

    @pytest.fixture(scope="class")
    def oracle(self, frames):
        return oracle_bodies(frames)

    def test_recorded_burst_replays_byte_identically(
            self, tmp_path_factory, frames, oracle):
        root = tmp_path_factory.mktemp("fleet-gate")
        fleet = Fleet(str(root), 3, mode="thread").start()
        try:
            serial = replay_frames(frames, fleet.client, jobs=1)
            fanned = replay_frames(frames, fleet.client, jobs=4)
        finally:
            fleet.stop()
        assert serial.errors == []
        assert fanned.errors == []
        assert verify_replay(frames, serial, oracle) == []
        assert verify_replay(frames, fanned, oracle) == []
        assert serial.bodies == fanned.bodies
