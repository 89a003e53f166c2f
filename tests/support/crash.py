"""Simulated crashes for the durability layer.

A :class:`KillSwitch` armed on one
:data:`~repro.service.durability.killpoints.KILL_POINTS` name is the
``kill=`` hook of a :class:`~repro.service.durability.DurabilityManager`: it
raises :class:`SimulatedCrash` the first time execution reaches the point,
which the caller treats as the process dying on the spot — it abandons every
open handle and recovers from the directory alone (``tests/test_oracle.py``).
"""

from __future__ import annotations

import threading

from repro.service.durability import KILL_POINTS


class SimulatedCrash(RuntimeError):
    """The simulated process death raised by an armed :class:`KillSwitch`.

    Deliberately *not* an ``OSError``: the durability code must never catch
    it — it unwinds through every layer like a real crash would, and only
    the test harness (standing in for init/systemd) is allowed to observe
    it.
    """

    def __init__(self, point: str) -> None:
        super().__init__(f"simulated crash at kill point {point!r}")
        self.point = point


class KillSwitch:
    """Raise :class:`SimulatedCrash` the first time ``point`` is hit.

    Thread-safe and single-shot: once fired it never fires again, so the
    recovery that follows can reuse the same hook (or none).
    """

    def __init__(self, point: str) -> None:
        if point not in KILL_POINTS:
            raise ValueError(
                f"unknown kill point {point!r}; known points: {KILL_POINTS}"
            )
        self.point = point
        self.fired = False
        self._lock = threading.Lock()

    def __call__(self, name: str) -> None:
        with self._lock:
            if self.fired or name != self.point:
                return
            self.fired = True
        raise SimulatedCrash(name)
