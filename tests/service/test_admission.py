"""Admission-control unit tests."""

import pytest

from repro.errors import ExperimentError
from repro.service.admission import RETRY_AFTER_S, AdmissionController


class TestAdmission:
    def test_admits_until_queue_limit(self):
        control = AdmissionController(queue_limit=2, client_limit=10)
        assert control.admit("c1", leader=True) is None
        assert control.admit("c1", leader=True) is None
        rejection = control.admit("c1", leader=True)
        assert rejection is not None
        assert "queue full" in rejection.reason
        assert control.in_flight == 2  # a refusal is not admitted

    def test_followers_do_not_consume_queue(self):
        control = AdmissionController(queue_limit=1, client_limit=10)
        assert control.admit("c1", leader=True) is None
        # Coalesced followers ride along for free.
        for _ in range(5):
            assert control.admit("c1", leader=False) is None
        assert control.queue_depth == 1

    def test_per_client_limit(self):
        control = AdmissionController(queue_limit=10, client_limit=2)
        assert control.admit("c1", leader=False) is None
        assert control.admit("c1", leader=False) is None
        rejection = control.admit("c1", leader=False)
        assert rejection is not None
        assert "client in-flight" in rejection.reason
        # Another client is unaffected.
        assert control.admit("c2", leader=False) is None

    def test_release_restores_capacity(self):
        control = AdmissionController(queue_limit=1, client_limit=1)
        assert control.admit("c1", leader=True) is None
        assert control.admit("c1", leader=True) is not None
        control.release("c1", leader=True)
        assert control.queue_depth == 0
        assert control.in_flight == 0
        assert control.admit("c1", leader=True) is None

    def test_retry_after_scales_with_overload(self):
        control = AdmissionController(queue_limit=1, client_limit=10)
        control.admit("c1", leader=True)
        first = control.admit("c2", leader=True)
        assert first.retry_after_s == pytest.approx(RETRY_AFTER_S)

    def test_bad_limits_rejected(self):
        with pytest.raises(ExperimentError):
            AdmissionController(queue_limit=0)
        with pytest.raises(ExperimentError):
            AdmissionController(client_limit=0)

    def test_release_is_safe_when_not_admitted(self):
        control = AdmissionController()
        control.release("ghost", leader=True)  # must not underflow
        assert control.queue_depth == 0
