"""Principal-eigenvalue oracle for small positive matrices, used by the tests.

Power iteration with a positive start vector converges to the Perron root of
any entrywise-positive matrix.  This is kept independent of the closed-form
consistency formulas so the two routes can be cross-checked against each
other in tests.
"""

from __future__ import annotations

import numpy as np

from triadaudit.core import DomainError, Triad

__all__ = ["dominant_eigenvalue", "matrix_rows", "saaty_ci_oracle"]


def matrix_rows(t: Triad) -> tuple[tuple[float, float, float], ...]:
    """The full 3x3 reciprocal matrix of ``t``, reciprocals computed on demand."""
    return (
        (1.0, t.t12, t.t13),
        (1.0 / t.t12, 1.0, t.t23),
        (1.0 / t.t13, 1.0 / t.t23, 1.0),
    )


def dominant_eigenvalue(rows, tol: float = 1e-12, max_iter: int = 20_000) -> float:
    """Perron eigenvalue of a positive square matrix by power iteration.

    Stops when the residual ||A v - lam v|| drops below tol * max(1, lam).
    Deterministic: the start vector is uniform, no randomness involved.
    """
    a = np.asarray(rows, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DomainError(f"matrix must be square, got shape {a.shape}")
    if not np.all(np.isfinite(a)) or np.any(a <= 0.0):
        raise DomainError("matrix entries must be finite and strictly positive")
    n = a.shape[0]
    v = np.full(n, 1.0 / n)
    lam = 0.0
    for _ in range(max_iter):
        w = a @ v
        lam = float(w @ v) / float(v @ v)
        v = w / np.linalg.norm(w)
        residual = float(np.linalg.norm(a @ v - lam * v))
        if residual <= tol * max(1.0, abs(lam)):
            break
    return lam


def saaty_ci_oracle(t: Triad, tol: float = 1e-12) -> float:
    """(lambda_max - 3) / 2 with lambda_max from power iteration on the 3x3 matrix."""
    lam = dominant_eigenvalue(matrix_rows(t), tol=tol)
    return (lam - 3.0) / 2.0
