"""Signed-weight opinion update of acceptance criterion 7.

The package does not accept signed graphs; these exercise the
antagonistic-influence bounds against the plain update.
"""

import numpy as np


def signed_opinion_step(x_row: np.ndarray, signed_weights: np.ndarray) -> np.ndarray:
    """Opinion update under signed weights normalized by absolute value.

    Row i of signed_weights holds the incoming weights of node i, each in
    [-1, 1], with absolute values summing to 1.
    """
    x_row = np.asarray(x_row, dtype=np.float64)
    w = np.asarray(signed_weights, dtype=np.float64)
    if w.ndim != 2 or w.shape[0] != w.shape[1] or w.shape[0] != x_row.size:
        raise ValueError(f"signed weight matrix shape {w.shape} does not match {x_row.size} opinions")
    if np.max(np.abs(w)) > 1.0 + 1e-12:
        raise ValueError("signed weights must lie in [-1, 1]")
    sums = np.abs(w).sum(axis=1)
    if np.max(np.abs(sums - 1.0)) > 1e-12:
        worst = int(np.argmax(np.abs(sums - 1.0)))
        raise ValueError(f"absolute incoming weights of node {worst} sum to {sums[worst]!r}, not 1")
    return w @ x_row


def random_signed_weights(n: int, rng: np.random.Generator, density: float = 0.6) -> np.ndarray:
    """Random dense-ish signed weight matrix satisfying the signed invariants."""
    w = np.where(rng.random((n, n)) < density, rng.uniform(-1.0, 1.0, (n, n)), 0.0)
    for i in range(n):
        if not np.any(w[i]):
            w[i, rng.integers(n)] = rng.uniform(0.1, 1.0) * (1 if rng.random() < 0.5 else -1)
        w[i] /= np.abs(w[i]).sum()
    return w
