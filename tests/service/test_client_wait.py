"""ServiceClient.wait's polling schedule, against a stubbed job() and
clock: no daemon, no real sleeps."""

from __future__ import annotations

import pytest

import repro.service.client as client_mod
from repro.errors import ServiceError
from repro.service.client import ServiceClient


class FakeTime:
    """Stands in for the ``time`` module: sleeping advances the clock."""

    def __init__(self) -> None:
        self.now = 0.0
        self.sleeps: list[float] = []

    def monotonic(self) -> float:
        return self.now

    def sleep(self, seconds: float) -> None:
        self.sleeps.append(seconds)
        self.now += seconds


@pytest.fixture()
def fake_time(monkeypatch):
    clock = FakeTime()
    monkeypatch.setattr(client_mod, "time", clock)
    return clock


def stub_client(monkeypatch, states):
    """A client whose job() answers ``states`` in turn, then the last
    one forever; returns it and the list of clock readings at each poll."""
    client = ServiceClient("http://127.0.0.1:9")
    polls: list[float] = []
    states = list(states)

    def job(job_id):
        assert job_id == 7
        polls.append(client_mod.time.monotonic())
        state = states.pop(0) if len(states) > 1 else states[0]
        return {"id": job_id, "state": state}

    monkeypatch.setattr(client, "job", job)
    return client, polls


def test_interval_doubles_from_5ms_to_a_200ms_cap(monkeypatch, fake_time):
    client, polls = stub_client(monkeypatch, ["queued"] + ["running"] * 8
                                + ["done"])
    assert client.wait(7)["state"] == "done"
    assert fake_time.sleeps == pytest.approx(
        [0.005, 0.01, 0.02, 0.04, 0.08, 0.16, 0.2, 0.2, 0.2]
    )
    assert len(polls) == 10 and polls[0] == 0.0


def test_finished_job_returns_without_sleeping(monkeypatch, fake_time):
    client, polls = stub_client(monkeypatch, ["failed"])
    assert client.wait(7)["state"] == "failed"
    assert fake_time.sleeps == [] and len(polls) == 1


def test_timeout_raises_after_a_last_poll_at_the_deadline(monkeypatch,
                                                          fake_time):
    client, polls = stub_client(monkeypatch, ["running"])
    with pytest.raises(ServiceError, match=r"job 7 still running after 1.0s"):
        client.wait(7, timeout=1.0)
    # 5+10+20+40+80+160+200+200+200 ms = 0.915 s, then the 85 ms left
    assert fake_time.sleeps == pytest.approx(
        [0.005, 0.01, 0.02, 0.04, 0.08, 0.16, 0.2, 0.2, 0.2, 0.085]
    )
    assert polls[-1] == pytest.approx(1.0)
    assert len(polls) == 11


def test_short_timeout_sleeps_only_what_is_left(monkeypatch, fake_time):
    client, polls = stub_client(monkeypatch, ["queued"])
    with pytest.raises(ServiceError, match="still queued after 0.012s"):
        client.wait(7, timeout=0.012)
    assert fake_time.sleeps == pytest.approx([0.005, 0.007])
    assert polls == pytest.approx([0.0, 0.005, 0.012])
