"""Test-only harness: seeded disk faults, simulated crashes and the
crash-recovery harness (:mod:`support.crash`, :mod:`support.disk`), and the
dict reference of Algorithm 2 (:mod:`support.reference`)."""
