"""Preallocated, generation-stamped search state.

Every dict-based search in the seed implementation allocated fresh ``dist`` /
``parent`` / ``visited`` containers per query.  A :class:`SearchWorkspace`
replaces them with flat arrays sized to the vertex count that are allocated
once per (graph, thread) and *never cleared*: each search bumps a generation
counter, and a per-vertex stamp records which generation last wrote the slot.
A slot whose stamp differs from the current generation is logically
"uninitialized" (``dist = +inf``), so starting a new search is O(1) instead of
O(vertices touched).
"""

from __future__ import annotations


class SearchWorkspace:
    """Flat per-vertex state shared by the array-based search kernels.

    The arrays are plain Python lists (not numpy): the kernels index them one
    element at a time inside tight loops, where list indexing is several times
    faster than numpy scalar indexing.  Forward and backward variants exist so
    the bidirectional kernel can run both frontiers in one generation.
    """

    __slots__ = (
        "size",
        "generation",
        "dist",
        "parent",
        "stamp",
        "closed",
        "dist_b",
        "parent_b",
        "stamp_b",
        "closed_b",
    )

    def __init__(self, size: int) -> None:
        self.size = size
        self.generation = 0
        # Forward search state.
        self.dist: list[float] = [0.0] * size
        self.parent: list[int] = [-1] * size
        self.stamp: list[int] = [0] * size
        self.closed: list[int] = [0] * size
        # Backward search state (bidirectional kernel).
        self.dist_b: list[float] = [0.0] * size
        self.parent_b: list[int] = [-1] * size
        self.stamp_b: list[int] = [0] * size
        self.closed_b: list[int] = [0] * size

    def begin(self) -> int:
        """Start a new search and return its generation stamp."""
        self.generation += 1
        return self.generation
