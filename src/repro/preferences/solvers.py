"""The iterative linear-system solver used by preference transfer.

Equation 3 of the paper, ``(S + mu1*L + mu2*I) yhat = S y``, is a symmetric
positive-definite system (S is a 0/1 diagonal matrix, L a graph Laplacian, and
mu2 > 0 adds ridge regularization).  The paper solves it with iterative
approximation — the Jacobi method or conjugate gradients; this library uses
conjugate gradients, on plain numpy arrays so the whole pipeline remains
dependency-light.

The solver takes one right-hand side (a vector) or several (the columns of a
matrix) and iterates on all columns together, so each iteration reads the
system matrix once however many feature columns Eq. 3 carries.  A column has
converged when its residual norm is at most ``tol`` times the norm of its
right-hand side.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class SolverResult:
    """Solution (shaped like the right-hand side) plus convergence diagnostics."""

    x: np.ndarray
    iterations: int
    residual_norm: float
    """The largest residual norm over the columns."""
    converged: bool
    """Whether every column reached the tolerance."""


def conjugate_gradient(
    matrix: np.ndarray,
    rhs: np.ndarray,
    tol: float = 1e-10,
    max_iterations: int | None = None,
) -> SolverResult:
    """Conjugate-gradient solver for symmetric positive-definite systems.

    Preconditioned with the matrix's diagonal (positive, as that of every
    such matrix): Eq. 3's diagonal carries the similarity graph's degrees,
    which span two orders of magnitude, and scaling them out cuts the
    iterations four-fold.  Each column runs its own recurrence (its own step
    lengths), all in one matrix product per iteration; a column stops moving
    once it converges.
    """
    matrix = np.asarray(matrix, dtype=float)
    b = np.asarray(rhs, dtype=float).reshape(np.shape(rhs)[0], -1)
    max_iterations = max_iterations or max(100, 4 * b.shape[0])
    diagonal = np.diag(matrix)[:, None]
    bounds = (tol * np.linalg.norm(b, axis=0)) ** 2
    x = np.zeros_like(b)
    residual = b.copy()
    direction = residual / diagonal
    rz_old = np.einsum("ij,ij->j", residual, direction)
    rs = np.einsum("ij,ij->j", residual, residual)
    active = rs > bounds
    iterations = 0
    while iterations < max_iterations and active.any():
        iterations += 1
        matrix_direction = matrix @ direction
        denom = np.einsum("ij,ij->j", direction, matrix_direction)
        active &= np.abs(denom) >= 1e-30  # a column that breaks down stops where it is
        alpha = np.divide(rz_old, denom, out=np.zeros_like(denom), where=active)
        x += alpha * direction
        residual -= alpha * matrix_direction
        scaled = residual / diagonal
        rz_new = np.einsum("ij,ij->j", residual, scaled)
        beta = np.divide(rz_new, rz_old, out=np.zeros_like(denom), where=active)
        direction = scaled + beta * direction
        rz_old = rz_new
        rs = np.einsum("ij,ij->j", residual, residual)
        active &= rs > bounds
    residual_norms = np.sqrt(rs)
    return SolverResult(
        x=x.reshape(np.shape(rhs)),
        iterations=iterations,
        residual_norm=float(residual_norms.max(initial=0.0)),
        converged=bool((residual_norms <= np.sqrt(bounds)).all()),
    )
