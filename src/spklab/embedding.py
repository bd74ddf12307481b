"""Vector primitives shared by all modules.

Embeddings are plain 1-D float64 arrays. Zero-norm vectors are rejected
everywhere: a zero embedding indicates an upstream bug, so mapping it to a
neutral similarity would only hide the problem.
"""

import numpy as np

from spklab.errors import DomainError

# Norms below this are treated as zero.
ZERO_NORM_EPS = 1e-300


def _as_vector(a, name: str) -> np.ndarray:
    a = np.asarray(a, dtype=np.float64)
    if a.ndim != 1 or a.size == 0:
        raise DomainError(f"{name} must be a non-empty 1-D vector, got shape {a.shape}")
    return a


def cosine_similarity(a, b) -> float:
    """Cosine of the angle between two embeddings, clamped to [-1, 1].

    The clamp absorbs rounding so downstream arccos/margin arithmetic never
    sees 1 + eps. Raises DomainError on dimension mismatch or a zero-norm
    operand (the error names the offending side).
    """
    a = _as_vector(a, "a")
    b = _as_vector(b, "b")
    if a.shape != b.shape:
        raise DomainError(f"dimension mismatch: {a.shape[0]} vs {b.shape[0]}")
    na = np.linalg.norm(a)
    nb = np.linalg.norm(b)
    if na <= ZERO_NORM_EPS:
        raise DomainError("cosine_similarity: operand 'a' has zero norm")
    if nb <= ZERO_NORM_EPS:
        raise DomainError("cosine_similarity: operand 'b' has zero norm")
    return float(np.clip(np.dot(a, b) / (na * nb), -1.0, 1.0))


def mean_embedding(chunks) -> np.ndarray:
    """Component-wise arithmetic mean of a non-empty list of embeddings."""
    if len(chunks) == 0:
        raise DomainError("mean_embedding: empty chunk list")
    mat = np.asarray(chunks, dtype=np.float64)
    if mat.ndim != 2:
        raise DomainError("mean_embedding: chunks must share one dimension")
    return mat.mean(axis=0)


def normalize_rows(mat: np.ndarray, what: str = "embedding") -> tuple[np.ndarray, np.ndarray]:
    """Row-normalize a matrix; returns (unit rows, row norms).

    Raises DomainError naming `what` and the row if a row's norm is zero or
    not finite (a NaN or inf entry, or an overflow).
    """
    mat = np.asarray(mat, dtype=np.float64)
    with np.errstate(over="ignore"):
        norms = np.linalg.norm(mat, axis=1)
    if not np.all(np.isfinite(norms)):
        bad = int(np.argmax(~np.isfinite(norms)))
        raise DomainError(f"non-finite {what} norm at row {bad}")
    if np.any(norms <= ZERO_NORM_EPS):
        bad = int(np.argmin(norms))
        raise DomainError(f"zero-norm {what} at row {bad}")
    return mat / norms[:, None], norms


def stable_sigmoid(z: np.ndarray, out: np.ndarray | None = None,
                   den: np.ndarray | None = None) -> np.ndarray:
    """Overflow-safe logistic function: 1 / (1 + e^-z) for z >= 0 and
    e^z / (1 + e^z) below, with the exponent never positive.

    The numerator is max(e, z >= 0) with e = e^-|z| in [0, 1]: 1 where
    z >= 0, e below, and NaN for NaN, without a select over the sign
    pattern, whose branches mispredict. `out` may be `z` itself; `den`,
    another array of z's shape, takes the denominator."""
    z = np.asarray(z, dtype=np.float64)
    nonneg = z >= 0
    e = np.abs(z, out=np.empty_like(z) if out is None else out)
    np.negative(e, out=e)
    np.exp(e, out=e)
    den = np.add(e, 1.0, out=den)
    np.maximum(e, nonneg, out=e)
    e /= den
    return e
