"""Test-only harness: seeded disk faults and simulated crashes
(:mod:`support.disk`, :mod:`support.crash`), and the dict reference of
Algorithm 2 with the slot-ordered edge list it is checked slot for slot
against (:mod:`support.reference`)."""
