"""The per-process request memo behind ``canonicalize``.

A repeated (kind, params) must return exactly what deriving it afresh
returns (kind, key, payload, deadline), derive it only once, keep
raising on malformed params, stay within ``REQUEST_MEMO_MAX`` entries
however many distinct requests arrive, hold up under concurrent
threads, and survive its payloads being served.
"""

from __future__ import annotations

import copy
import json
import pickle
import sys
import threading
from pathlib import Path

import pytest

from repro.service import protocol
from repro.service.jobs import execute_request
from repro.service.protocol import ProtocolError, canonicalize
from repro.workloads import clear_caches

from .test_golden_keys import TABLE, request_params
from .test_protocol import MALFORMED

DATA = Path(__file__).parent / "data"
BURSTS = (
    DATA / "advise_burst.ndjson",
    Path(__file__).parents[1] / "fleet" / "data" / "fleet_burst.ndjson",
)


def cases() -> list[tuple[str, dict]]:
    """Every golden-key request plus every frame of both bursts."""
    found = list(request_params().values())
    for path in BURSTS:
        for line in path.read_text(encoding="utf-8").splitlines():
            frame = json.loads(line)
            found.append((frame["kind"], frame["params"]))
    return found


def fields(request) -> tuple:
    return (request.kind, request.key, request.payload,
            json.dumps(request.payload, sort_keys=True),
            request.deadline_s)


@pytest.fixture(autouse=True)
def cold_memo():
    clear_caches()
    yield
    clear_caches()


def test_cold_warm_and_cleared_requests_agree():
    table = cases()
    cold = []
    for kind, params in table:
        clear_caches()
        cold.append(fields(canonicalize(kind, copy.deepcopy(params))))
    warm = [fields(canonicalize(kind, copy.deepcopy(params)))
            for kind, params in table]
    clear_caches()
    cleared = [fields(canonicalize(kind, copy.deepcopy(params)))
               for kind, params in table]
    assert cold == warm == cleared
    golden = json.loads(TABLE.read_text(encoding="utf-8"))["requests"]
    for label, (kind, params) in request_params().items():
        assert canonicalize(kind, params).key == golden[label], label


def test_a_repeated_request_is_derived_once(monkeypatch):
    derived = []
    options_to_dict = protocol.options_to_dict

    def counting(options):
        derived.append(options)
        return options_to_dict(options)

    monkeypatch.setattr(protocol, "options_to_dict", counting)
    first = canonicalize("bound", {"kernel": "lfk1", "variant": "reuse"})
    for _ in range(99):
        again = canonicalize("bound",
                             {"kernel": "lfk1", "variant": "reuse"})
        assert again is first
    assert len(derived) == 1
    upper = canonicalize("bound", {"kernel": "LFK1"})
    lower = canonicalize("bound", {"kernel": "lfk1"})
    assert len(derived) == 3
    assert upper.key == lower.key and upper is not lower
    assert len(protocol._REQUEST_MEMO) == 3


@pytest.mark.parametrize("kind,params", MALFORMED)
def test_malformed_params_raise_every_time(kind, params):
    for _ in range(2):
        with pytest.raises(ProtocolError):
            canonicalize(kind, params)
    assert len(protocol._REQUEST_MEMO) == 0


@pytest.mark.parametrize("kind,name", [("sweep", "kernels"),
                                       ("report", "experiments")])
def test_a_tuple_does_not_share_its_list_twins_entry(kind, name):
    """A tuple encodes like a list but does not validate like one."""
    value = "lfk1" if kind == "sweep" else "table1"
    canonicalize(kind, {name: [value]})
    with pytest.raises(ProtocolError):
        canonicalize(kind, {name: (value,)})


def test_params_that_json_cannot_encode_take_the_uncached_path():
    plain = canonicalize("run", {"kernel": "lfk2"})
    odd = canonicalize("run", {"kernel": "lfk2", "tags": {"a", "b"}})
    assert fields(odd) == fields(plain)
    assert len(protocol._REQUEST_MEMO) == 1


def test_the_memo_is_bounded():
    cap = protocol.REQUEST_MEMO_MAX
    table = [("lint", {"kernel": "lfk3", "tag": i}) for i in range(cap + 200)]
    expected = fields(protocol._derive_request("lint", {"kernel": "lfk3"}))
    for kind, params in table:
        assert fields(canonicalize(kind, params)) == expected
    assert len(protocol._REQUEST_MEMO) == cap
    # the oldest entries were evicted and are derived again correctly
    assert fields(canonicalize(*table[0])) == expected
    assert len(protocol._REQUEST_MEMO) == cap


def test_an_ignored_field_does_not_grow_an_entry():
    small = {"kernel": "lfk1", "variant": "reuse"}
    large = {**small, "note": "x" * 60_000}
    assert fields(canonicalize("analyze", large)) == \
        fields(canonicalize("analyze", small))
    memo = protocol._REQUEST_MEMO
    keys = [protocol._memo_key("analyze", p) for p in (small, large)]
    assert len(keys[0]) == len(keys[1])
    sizes = [len(pickle.dumps(memo.get(key))) for key in keys]
    assert sizes[1] <= sizes[0]


def test_concurrent_threads_get_the_uncached_answers():
    cap = protocol.REQUEST_MEMO_MAX
    table = [(kind, {"kernel": kernel, "tag": tag})
             for kind in ("bound", "advise", "lint")
             for kernel in ("lfk1", "lfk7", "lfk12", "daxpy")
             for tag in range(100)]
    assert len(table) > cap
    expected = [fields(protocol._derive_request(kind, params))
                for kind, params in table]
    errors = []

    def worker(offset):
        try:
            for index in range(len(table)):
                at = (index * 7 + offset * 131) % len(table)
                kind, params = table[at]
                got = fields(canonicalize(kind, dict(params)))
                if got != expected[at]:
                    errors.append((at, got))
        except Exception as exc:  # noqa: BLE001 - reported below
            errors.append(exc)

    threads = [threading.Thread(target=worker, args=(n,)) for n in range(8)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for thread in threads:
            thread.start()
        for _ in range(20):
            protocol._REQUEST_MEMO.clear()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []
    assert len(protocol._REQUEST_MEMO) <= cap


SERVED = [
    ("run", {"kernel": "lfk1", "variant": "reuse"}),
    ("bound", {"kernel": "lfk1", "variant": "reuse", "machine": "c3800like"}),
    ("mac", {"kernel": "lfk1", "n": 64}),
    ("ax", {"kernel": "lfk1", "variant": "reuse"}),
    ("lint", {"kernel": "lfk1", "min_severity": "warning"}),
    ("analyze", {"kernel": "lfk1", "variant": "reuse"}),
    ("advise", {"kernel": "lfk1", "variant": "reuse", "n": 64}),
    ("report", {"experiments": ["walkthrough"]}),
    ("sweep", {"kernels": ["lfk1"], "variants": ["default", "reuse"]}),
]


def test_serving_a_request_leaves_its_payload_unchanged(tmp_path):
    from repro.service import ServiceConfig, start_in_thread
    from repro.service.client import ServiceClient

    requests = [canonicalize(kind, params) for kind, params in SERVED]
    before = [copy.deepcopy(r.payload) for r in requests]
    for request in requests:
        assert execute_request(request.payload)["status"] == "ok"
    server = start_in_thread(ServiceConfig(
        socket_path=str(tmp_path / "memo.sock"), workers=1,
    ))
    try:
        with ServiceClient(server.endpoints[0]) as client:
            for _ in range(2):  # computed, then from the cache
                for kind, params in SERVED:
                    assert client.request(kind, params).ok, kind
    finally:
        server.stop()
    for (kind, params), request, payload in zip(SERVED, requests, before):
        assert canonicalize(kind, params) is request
        assert request.payload == payload, kind
