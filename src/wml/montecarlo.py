"""Haar-random unitary sampling and statistical moment estimation.

Matrices are drawn by QR-factorizing complex Ginibre samples and fixing the
phase so the triangular factor has positive real diagonal, which makes the
distribution exactly Haar.  The generator is counter-based (Philox keyed by
the user seed and a fixed chunk index), so estimates are reproducible
bit-for-bit for a fixed (seed, n, samples) triple regardless of chunking
internals staying serial or parallel.
"""

from __future__ import annotations

import numpy as np

RNG_ALGORITHM = "philox4x64"
CHUNK = 10_000
UNITARITY_TOL = 1e-10


class UnitarySample:
    """One Haar sample; checked against the unitarity tolerance."""

    __slots__ = ("n", "matrix")

    def __init__(self, matrix):
        matrix = np.asarray(matrix, dtype=np.complex128)
        n = matrix.shape[0]
        defect = np.max(np.abs(matrix.conj().T @ matrix - np.eye(n)))
        if defect > UNITARITY_TOL:
            raise ValueError(f"unitarity defect {defect:.3g} over tolerance")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "matrix", matrix)

    def __setattr__(self, name, value):
        raise AttributeError("UnitarySample is immutable")


class Estimate:
    """Monte Carlo estimate with a conservative standard error."""

    __slots__ = ("mean", "stderr", "samples", "seed", "n", "rng", "unitarity_max")

    def __init__(self, mean, stderr, samples, seed, n, unitarity_max):
        object.__setattr__(self, "mean", complex(mean))
        object.__setattr__(self, "stderr", float(stderr))
        object.__setattr__(self, "samples", int(samples))
        object.__setattr__(self, "seed", int(seed))
        object.__setattr__(self, "n", int(n))
        object.__setattr__(self, "rng", RNG_ALGORITHM)
        object.__setattr__(self, "unitarity_max", float(unitarity_max))

    def __setattr__(self, name, value):
        raise AttributeError("Estimate is immutable")

    def to_json(self):
        return {
            "mean": [self.mean.real, self.mean.imag],
            "stderr": self.stderr,
            "samples": self.samples,
            "seed": self.seed,
            "n": self.n,
            "rng": self.rng,
            "unitarity_max": self.unitarity_max,
        }

    def __repr__(self):
        return (
            f"Estimate({self.mean:.6g} +- {self.stderr:.2g}, "
            f"samples={self.samples}, seed={self.seed})"
        )


def _chunk_rng(seed, chunk_index):
    return np.random.Generator(np.random.Philox(key=[seed, chunk_index]))


def _haar_batch(rng, count, n):
    """Batch of Haar unitaries: Ginibre, QR, diagonal phase correction."""
    z = rng.standard_normal((count, n, n)) + 1j * rng.standard_normal((count, n, n))
    z /= np.sqrt(2.0)
    q, r = np.linalg.qr(z)
    diag = np.einsum("bii->bi", r)
    phases = diag / np.abs(diag)
    return q * phases[:, None, :]


def sample_haar(n, rng_state):
    """One Haar unitary from a numpy Generator (or an integer seed)."""
    if isinstance(rng_state, (int, np.integer)):
        rng_state = _chunk_rng(int(rng_state), 0)
    return UnitarySample(_haar_batch(rng_state, 1, n)[0])


def _evaluate_word_batch(word, unitaries):
    """w(U_1..U_r) for a batch: product of the per-letter matrices."""
    count = unitaries[1].shape[0] if unitaries else 0
    n = unitaries[1].shape[1]
    out = np.broadcast_to(np.eye(n, dtype=np.complex128), (count, n, n)).copy()
    for a in word.letters:
        m = unitaries[abs(a)]
        out = out @ (m if a > 0 else m.conj().transpose(0, 2, 1))
    return out


def estimate_moment(w, exponents, n, samples, seed):
    """Sample mean and stderr of prod_i tr(w(U)^{m_i}) over Haar tuples.

    Deterministic for fixed (seed, n, samples); the per-chunk generators are
    keyed by (seed, chunk index) and combined in fixed order.
    """
    exponents = tuple(int(m) for m in exponents)
    if any(m == 0 for m in exponents):
        raise ValueError("trace exponents must be nonzero")
    if n < 1 or samples < 1:
        raise ValueError(f"need n >= 1 and samples >= 1, got n={n}, "
                         f"samples={samples}")
    total = 0
    sum_value = 0.0 + 0.0j
    sum_sq_re = 0.0
    sum_sq_im = 0.0
    unitarity_max = 0.0
    chunk_index = 0
    max_power = max((abs(m) for m in exponents), default=1)
    while total < samples:
        count = min(CHUNK, samples - total)
        rng = _chunk_rng(seed, chunk_index)
        unitaries = {
            g: _haar_batch(rng, count, n) for g in range(1, w.rank + 1)
        }
        for g in range(1, w.rank + 1):
            u = unitaries[g]
            defect = np.max(
                np.abs(u.conj().transpose(0, 2, 1) @ u - np.eye(n))
            )
            unitarity_max = max(unitarity_max, float(defect))
            if defect > UNITARITY_TOL:
                raise RuntimeError(f"unitarity defect {defect:.3g} in chunk "
                                 f"{chunk_index}")
        base = _evaluate_word_batch(w, unitaries)
        powers = {1: base}
        for k in range(2, max_power + 1):
            powers[k] = powers[k - 1] @ base
        values = np.ones(count, dtype=np.complex128)
        for m in exponents:
            mat = powers[abs(m)]
            if m < 0:
                mat = mat.conj().transpose(0, 2, 1)
            values *= np.einsum("bii->b", mat)
        sum_value += values.sum()
        sum_sq_re += float(np.sum(values.real ** 2))
        sum_sq_im += float(np.sum(values.imag ** 2))
        total += count
        chunk_index += 1
    mean = sum_value / samples
    var_re = max(0.0, sum_sq_re / samples - mean.real ** 2)
    var_im = max(0.0, sum_sq_im / samples - mean.imag ** 2)
    stderr = float(np.sqrt((var_re + var_im) / samples))
    return Estimate(mean, stderr, samples, seed, n, unitarity_max)
