"""Step 2: transferring routing preferences from T-edges to B-edges.

Graph-based transduction following Section V-B:

* every region edge (T-edge or B-edge) becomes a vertex of a similarity graph;
  the adjacency matrix ``M`` holds pairwise ``reSim`` values, thresholded by
  ``amr`` (values below the threshold are zeroed);
* the label matrix ``Y`` (one row per region edge, one column per feature of
  the :class:`~repro.preferences.features.FeatureCatalog`) is seeded with the
  T-edges' learned preferences; B-edge rows start at zero;
* the transferred labels ``Yhat`` minimize Eq. 2 and are obtained by solving
  Eq. 3, ``(S + mu1*L + mu2*I) Yhat = S Y``, for all feature columns together
  with conjugate gradients;
* each B-edge's transferred preference is decoded from its ``Yhat`` row
  (argmax over cost columns, argmax over road columns); rows whose cost
  probabilities are all ~zero yield a *null* preference — those B-edges later
  fall back to fastest paths.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from ..exceptions import TransferError
from .features import FeatureCatalog
from .model import PreferenceVector
from .solvers import conjugate_gradient

_BLOCK_ROWS = 256
"""Rows of the adjacency matrix computed at a time: the temporaries of a
block stay a few megabytes where whole-matrix ones would each be n x n."""


MU1 = 1.0
"""Weight of the Laplacian smoothing term in Eq. 2."""

MU2 = 0.01
"""Weight of the L2 regularization term in Eq. 2."""

NULL_THRESHOLD = 1e-6
"""Below this maximum cost-column probability a B-edge row is *null*."""


@dataclass(frozen=True)
class TransferConfig:
    """The transduction step's setting (the one Fig. 9 sweeps)."""

    amr: float = 0.7
    """Adjacency-matrix reduction threshold (Table III default)."""


@dataclass
class TransferResult:
    """Output of the transfer step."""

    preferences: list[PreferenceVector | None]
    """Transferred preference per input edge, aligned with the input order
    (T-edges keep their learned preference)."""
    y_hat: np.ndarray
    """The full label matrix after transduction (n_edges x n_features)."""
    null_rate: float
    """Fraction of B-edges that received no preference (the paper's N-rate)."""
    runtime_s: float
    solver_iterations: int = 0
    """Iterations of the one solve over all feature columns."""
    adjacency_density: float = 0.0
    diagnostics: dict[str, float] = field(default_factory=dict)


class PreferenceTransfer:
    """Graph-based transduction of routing preferences."""

    def __init__(self, catalog: FeatureCatalog | None = None, config: TransferConfig | None = None) -> None:
        self._catalog = catalog or FeatureCatalog()
        self._config = config or TransferConfig()

    # ------------------------------------------------------------------ #
    def build_adjacency(self, edges: Sequence) -> np.ndarray:
        """The thresholded similarity matrix ``M`` over region edges.

        The pairwise ``reSim`` values are computed with vectorized numpy
        operations: the distance-ratio component from the edges' centroid
        distances and the functionality-Jaccard component from a binary
        edge x road-type-pair incidence matrix.  The result is identical to
        calling :func:`region_edge_similarity` pairwise (tested), but scales
        to thousands of region edges: rows are computed a block at a time
        into the one n x n result, so no other buffer of that size exists.
        """
        n = len(edges)
        distances = np.array([max(0.0, float(e.centroid_distance_m)) for e in edges], dtype=float)

        # A binary incidence matrix over the vocabulary of road-type pairs
        # that actually occur, for the functionality Jaccard.
        vocabulary: dict[tuple, int] = {}
        for edge in edges:
            for pair in edge.functionality:
                vocabulary.setdefault(pair, len(vocabulary))
        incidence = np.zeros((n, len(vocabulary)), dtype=float)
        for i, edge in enumerate(edges):
            for pair in edge.functionality:
                incidence[i, vocabulary[pair]] = 1.0
        sizes = incidence.sum(axis=1)

        matrix = np.empty((n, n), dtype=float)
        for start in range(0, n, _BLOCK_ROWS):
            rows = slice(start, start + _BLOCK_ROWS)
            block = matrix[rows]
            with np.errstate(invalid="ignore"):
                # min / max of the two distances; 1 where both are zero (0 / 0).
                larger = np.maximum(distances[rows, None], distances)
                np.minimum(distances[rows, None], distances, out=block)
                block /= larger
                block[larger == 0.0] = 1.0
                # |F_i & F_j| / |F_i | F_j|; 0 where both are empty (0 / 0).
                shared = incidence[rows] @ incidence.T
                union = sizes[rows, None] + sizes - shared
                shared /= union
                shared[union == 0.0] = 0.0
            block += shared
            block[block < self._config.amr] = 0.0
        np.fill_diagonal(matrix, 0.0)
        return matrix

    def build_labels(
        self,
        edges: Sequence,
        labelled: Sequence[PreferenceVector | None],
    ) -> tuple[np.ndarray, np.ndarray]:
        """The seed label matrix ``Y`` and the selector diagonal ``S``."""
        n = len(edges)
        p = self._catalog.n_features
        y = np.zeros((n, p), dtype=float)
        s_diag = np.zeros(n, dtype=float)
        for i, preference in enumerate(labelled):
            if preference is None:
                continue
            y[i, :] = preference.to_row(self._catalog)
            s_diag[i] = 1.0
        return y, s_diag

    def transfer(
        self,
        edges: Sequence,
        labelled: Sequence[PreferenceVector | None],
    ) -> TransferResult:
        """Run the transduction.

        ``edges`` are region edges (anything exposing ``centroid_distance_m``
        and ``functionality``); ``labelled`` holds the known preference for
        T-edges and ``None`` for B-edges, aligned with ``edges``.
        """
        if len(edges) != len(labelled):
            raise TransferError(
                f"edges ({len(edges)}) and labels ({len(labelled)}) must align"
            )
        if not edges:
            return TransferResult(
                preferences=[], y_hat=np.zeros((0, self._catalog.n_features)),
                null_rate=0.0, runtime_s=0.0,
            )
        if not any(pref is not None for pref in labelled):
            raise TransferError("preference transfer needs at least one labelled T-edge")

        started = time.perf_counter()
        adjacency = self.build_adjacency(edges)
        y, s_diag = self.build_labels(edges, labelled)
        n = len(edges)
        # Symmetric with a zero diagonal: every linked pair is counted twice.
        linked_pairs = np.count_nonzero(adjacency) // 2

        # Eq. 3's matrix S + mu1 * (D - M) + mu2 * I, in the adjacency's buffer.
        degree = adjacency.sum(axis=1)
        system = adjacency
        system *= -MU1
        np.fill_diagonal(system, s_diag + MU1 * degree + MU2)
        solved = conjugate_gradient(system, s_diag[:, None] * y)
        if not solved.converged:
            raise TransferError(
                f"the conjugate-gradient solve of Eq. 3 over {n} region edges stopped "
                f"after {solved.iterations} iterations at residual {solved.residual_norm:.3g}"
            )
        y_hat = solved.x

        preferences: list[PreferenceVector | None] = []
        null_count = 0
        unlabelled_count = 0
        for i, known in enumerate(labelled):
            if known is not None:
                preferences.append(known)
                continue
            unlabelled_count += 1
            decoded = PreferenceVector.from_row(
                y_hat[i], self._catalog, slave_threshold=NULL_THRESHOLD
            )
            if decoded is None:
                null_count += 1
            preferences.append(decoded)

        possible_pairs = n * (n - 1) / 2.0
        density = linked_pairs / possible_pairs if possible_pairs else 0.0
        runtime = time.perf_counter() - started
        return TransferResult(
            preferences=preferences,
            y_hat=y_hat,
            null_rate=null_count / unlabelled_count if unlabelled_count else 0.0,
            runtime_s=runtime,
            solver_iterations=solved.iterations,
            adjacency_density=density,
            diagnostics={
                "n_edges": float(n),
                "n_labelled": float(sum(1 for p in labelled if p is not None)),
                "amr": self._config.amr,
                "converged": float(solved.converged),
                "residual_norm": solved.residual_norm,
            },
        )


def transfer_to_b_edges(
    region_graph,
    catalog: FeatureCatalog | None = None,
    config: TransferConfig | None = None,
) -> TransferResult:
    """Transfer preferences from a region graph's T-edges to its B-edges.

    T-edges must already carry learned preferences (Step 1); each B-edge gets
    its ``preference`` attribute set (possibly ``None`` for null rows).
    """
    transferrer = PreferenceTransfer(catalog=catalog, config=config)
    t_edges = [e for e in region_graph.t_edges() if e.preference is not None]
    b_edges = region_graph.b_edges()
    edges = t_edges + b_edges
    labelled: list[PreferenceVector | None] = [e.preference for e in t_edges] + [None] * len(b_edges)
    result = transferrer.transfer(edges, labelled)
    for edge, preference in zip(edges, result.preferences):
        if edge.is_b_edge:
            edge.preference = preference
            edge.preference_transferred = preference is not None
    return result


def evaluate_transfer_accuracy(
    edges: Sequence,
    true_preferences: Sequence[PreferenceVector],
    transferred: Sequence[PreferenceVector | None],
) -> float:
    """Mean Jaccard similarity between true and transferred preferences.

    Used by the Fig. 9 experiments, where a partition of T-edges is held out
    as ground truth and receives transferred preferences as if it were
    unlabelled.
    """
    if not true_preferences:
        return 0.0
    total = 0.0
    for truth, predicted in zip(true_preferences, transferred):
        total += truth.similarity(predicted)
    return total / len(true_preferences)
