"""Shared fixtures for the tier-1 suite."""

from __future__ import annotations

from typing import Dict, List, Tuple

import pytest

#: The bit-identity flags behind each bench verdict.  Every other gate
#: in there is a wall-clock bound, which the CI bench jobs enforce.
IDENTITY_FLAGS = {
    "compression_gates_ok": (
        "all_parity_ok",
        "all_decode_parity_ok",
        "all_roundtrip_ok",
        "all_fused_parity_ok",
        "all_parse_parity_ok",
    ),
    "serving_gates_ok": (
        "all_identity_ok",
        "mixed_identity_ok",
        "readers_nonblocking_ok",
    ),
    "network_gates_ok": ("all_identity_ok",),
}


class GateVerdicts:
    """Every ``*_gates_ok(payload)`` verdict the ``repro bench`` CLI computed."""

    def __init__(self) -> None:
        self.calls: List[Tuple[str, Dict, Tuple[bool, List[str]]]] = []

    @property
    def payload(self) -> Dict:
        return self.calls[-1][1]

    @property
    def exit_code(self) -> int:
        """The exit code the last verdict implies."""
        ok, _failures = self.calls[-1][2]
        return 0 if ok else 1

    @property
    def identity_ok(self) -> bool:
        """True iff the last payload holds every bit-identity flag."""
        gate, payload, _verdict = self.calls[-1]
        return all(payload["summary"][flag] for flag in IDENTITY_FLAGS[gate])


@pytest.fixture
def bench_gates(monkeypatch) -> GateVerdicts:
    """Record the bench gate verdicts behind each CLI exit code.

    The throughput gates inside ``*_gates_ok`` measure wall-clock time,
    which a unit test must not depend on.  CLI tests therefore assert
    the exit code the recorded verdict implies, plus every bit-identity
    flag of the recorded payload; the CI bench jobs enforce the real
    speed bounds.
    """
    import repro.perf as perf

    verdicts = GateVerdicts()
    for name in IDENTITY_FLAGS:
        real = getattr(perf, name)

        def spy(payload, _name=name, _real=real):
            verdict = _real(payload)
            verdicts.calls.append((_name, payload, verdict))
            return verdict

        monkeypatch.setattr(perf, name, spy)
    return verdicts
