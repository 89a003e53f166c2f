"""Test-only harness: seeded disk faults and simulated crashes
(:mod:`support.disk`, :mod:`support.crash`), and the dict reference of
Algorithm 2 (:mod:`support.reference`)."""
