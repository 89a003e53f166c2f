"""Iterative linear-system solvers used by preference transfer.

Equation 3 of the paper, ``(S + mu1*L + mu2*I) yhat = S y``, is a symmetric
positive-definite system (S is a 0/1 diagonal matrix, L a graph Laplacian, and
mu2 > 0 adds ridge regularization).  The paper solves it with iterative
approximation — the Jacobi method or conjugate gradients.  Both are
implemented here on top of plain numpy arrays so the whole pipeline remains
dependency-light; :func:`solve` picks conjugate gradients by default.

Every solver takes one right-hand side (a vector) or several (the columns of
a matrix) and iterates on all columns together, so each iteration reads the
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


def _columns(matrix: np.ndarray, rhs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    matrix = np.asarray(matrix, dtype=float)
    rhs = np.asarray(rhs, dtype=float)
    return matrix, rhs.reshape(rhs.shape[0], -1)


def _result(x: np.ndarray, rhs, iterations: int, residual_norms: np.ndarray, bounds) -> SolverResult:
    return SolverResult(
        x=x.reshape(np.shape(rhs)),
        iterations=iterations,
        residual_norm=float(residual_norms.max(initial=0.0)),
        converged=bool((residual_norms <= bounds).all()),
    )


def jacobi(
    matrix: np.ndarray,
    rhs: np.ndarray,
    tol: float = 1e-8,
    max_iterations: int = 2_000,
) -> SolverResult:
    """Jacobi iteration ``x_{k+1} = D^{-1} (b - R x_k) = x_k + D^{-1} (b - A x_k)``.

    Requires a non-zero diagonal; with the ridge term of Eq. 3 this always
    holds.  Converges for diagonally dominant systems; for safety the residual
    is tracked and each column's best iterate returned even without
    convergence.
    """
    matrix, b = _columns(matrix, rhs)
    diagonal = np.diag(matrix)[:, None]
    if np.any(np.abs(diagonal) < 1e-15):
        raise ValueError("Jacobi requires a non-zero diagonal")
    bounds = tol * np.linalg.norm(b, axis=0)
    x = np.zeros_like(b)
    residual = b.copy()
    best_x, best_norms = x, np.linalg.norm(residual, axis=0)
    iterations = 0
    while iterations < max_iterations and not (best_norms <= bounds).all():
        iterations += 1
        x = x + residual / diagonal
        residual = b - matrix @ x
        norms = np.linalg.norm(residual, axis=0)
        improved = norms < best_norms
        best_x = np.where(improved, x, best_x)
        best_norms = np.where(improved, norms, best_norms)
    return _result(best_x, rhs, iterations, best_norms, bounds)


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
    matrix, b = _columns(matrix, rhs)
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
    return _result(x, rhs, iterations, np.sqrt(rs), np.sqrt(bounds))


def solve(
    matrix: np.ndarray,
    rhs: np.ndarray,
    method: str = "cg",
    tol: float = 1e-10,
    max_iterations: int | None = None,
) -> SolverResult:
    """Solve ``matrix @ x = rhs`` with the chosen iterative method.

    ``method`` is ``"cg"`` (conjugate gradients, default), ``"jacobi"``, or
    ``"direct"`` (numpy's dense solver, used as a reference in tests).
    """
    if method == "cg":
        return conjugate_gradient(matrix, rhs, tol=tol, max_iterations=max_iterations)
    if method == "jacobi":
        return jacobi(matrix, rhs, tol=max(tol, 1e-8), max_iterations=max_iterations or 2_000)
    if method == "direct":
        matrix, b = _columns(matrix, rhs)
        x = np.linalg.solve(matrix, b)
        norms = np.linalg.norm(matrix @ x - b, axis=0)
        return _result(x, rhs, 1, norms, np.inf)
    raise ValueError(f"unknown solver method {method!r}; expected 'cg', 'jacobi', or 'direct'")
