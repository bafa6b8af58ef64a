"""Haar-random unitary sampling and statistical moment estimation.

Matrices are drawn by QR-factorizing complex Ginibre samples and fixing the
phase so the triangular factor has positive real diagonal, which makes the
distribution exactly Haar.  The generator is counter-based (Philox keyed by
the user seed and the chunk index), so an estimate is reproducible
bit-for-bit for a fixed (seed, n, samples) triple.  Samples come in chunks
of ``CHUNK`` tuples.  A chunk's normals come in a fixed order: for each
generator, all real parts, then all imaginary parts.  No segment is held
whole.  The chunk's generator first runs once through the first 2r - 1 of
those 2r segments, drawing into one batch-sized buffer, and a side
generator is started at each segment's first state; this second draw is
the price of the bound below.  Each batch then draws its slice of every
segment from that segment's generator, and of the last segment from the
chunk's generator, which gives the same bits as whole draws.  The rest
runs per batch too: Ginibre, QR, phase fix, unitarity check, word product,
and one running power, traced at each |m| of the exponents; each treats
every matrix alone.  The traces are multiplied, and the values summed,
over the whole chunk, so the batch size changes no bit.  A batch holds at
most ``BATCH`` 16^2 matrix entries, but at least one matrix, for every n:
256 matrices at n = 4, 16 at n = 16, one from n = 64 up.  So memory is
O(r n^2 batch + d CHUNK), d being the number of distinct |m|, for every n
and every exponent list, and a batch's dozen or so complex work arrays
(64 KB each at n = 16) stay in cache.

numpy is imported inside the functions that sample, so importing the
package (and running every command but ``wml moment --mc``) does not load
it.
"""

from __future__ import annotations

from .errors import Immutable
from .words import check_power_length

RNG_ALGORITHM = "philox4x64"
CHUNK = 10_000
BATCH = 16
UNITARITY_TOL = 1e-10


class UnitarySample(Immutable):
    """One Haar sample; checked against the unitarity tolerance."""

    __slots__ = ("n", "matrix")

    def __init__(self, matrix):
        import numpy as np

        matrix = np.asarray(matrix, dtype=np.complex128)
        if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
            raise ValueError(f"a unitary sample is a square matrix, got "
                             f"shape {matrix.shape}")
        if matrix.size == 0:
            raise ValueError("need n >= 1, got an empty matrix")
        defect = _unitarity_defect(matrix)
        # a NaN defect compares false with everything
        if not defect <= UNITARITY_TOL:
            raise ValueError(f"unitarity defect {defect:.3g} over tolerance")
        object.__setattr__(self, "n", matrix.shape[0])
        object.__setattr__(self, "matrix", matrix)


class Estimate(Immutable):
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
    """The generator of one chunk.  The key is an unsigned 64-bit array: a
    list holding a seed of 2^63 or more would become float64 in numpy."""
    import numpy as np

    if not 0 <= seed < 2 ** 64:
        raise ValueError(f"seed must be in [0, 2^64), got {seed}")
    return np.random.Generator(np.random.Philox(
        key=np.array([seed, chunk_index], dtype=np.uint64)))


def _unitarity_defect(u):
    """max |u^H u - I| over the last two axes of one matrix or a batch,
    NaN if an entry is NaN.  1 is subtracted on the diagonal only."""
    import numpy as np

    gram = np.swapaxes(u.conj(), -1, -2) @ u
    diagonal = np.arange(u.shape[-1])
    gram[..., diagonal, diagonal] -= 1
    return float(np.max(np.abs(gram)))


def _haar_from_normals(real, imag):
    """Haar unitaries from Ginibre normals: QR, then the phases of R's
    diagonal moved into Q."""
    import numpy as np

    z = np.empty(real.shape, dtype=np.complex128)
    z.real = real
    z.imag = imag
    z /= np.sqrt(2.0)
    q, r = np.linalg.qr(z)
    diag = np.einsum("bii->bi", r)
    q *= (diag / np.abs(diag))[:, None, :]
    return q


def _haar_batch(rng, count, n):
    """Batch of Haar unitaries: Ginibre (real parts first), QR, phase fix."""
    shape = (count, n, n)
    return _haar_from_normals(rng.standard_normal(shape),
                              rng.standard_normal(shape))


def sample_haar(n, rng_state):
    """One Haar unitary from a numpy Generator (or an integer seed)."""
    import numpy as np

    if n < 1:
        raise ValueError(f"need n >= 1, got n={n}")
    if isinstance(rng_state, (int, np.integer)):
        rng_state = _chunk_rng(int(rng_state), 0)
    return UnitarySample(_haar_batch(rng_state, 1, n)[0])


def _evaluate_word_batch(word, unitaries, count, n):
    """w(U_1..U_r) for a batch of ``count`` tuples of n x n unitaries: the
    per-letter matrices multiplied left to right, starting from the first
    letter's.  Each generator's adjoint is made at most once.  The empty
    word gives the identity batch, also at rank 0, where ``unitaries`` is
    empty."""
    import numpy as np

    adjoints = {}

    def letter(a):
        if a > 0:
            return unitaries[a]
        if a not in adjoints:
            adjoints[a] = unitaries[-a].conj().transpose(0, 2, 1)
        return adjoints[a]

    if not word.letters:
        return np.broadcast_to(np.eye(n, dtype=np.complex128),
                               (count, n, n)).copy()
    out = letter(word.letters[0])
    for a in word.letters[1:]:
        out = out @ letter(a)
    return out


def _chunk_moments(values):
    """(count, mean, M2) of a real sample, M2 being the sum of squared
    deviations from the mean."""
    mean = float(values.mean())
    return len(values), mean, float(((values - mean) ** 2).sum())


def _merge_moments(a, b):
    """Merge two (count, mean, M2) summaries (Chan, Golub and LeVeque,
    1979), which stays accurate where E[X^2] - E[X]^2 would cancel."""
    n_a, mean_a, m2_a = a
    n_b, mean_b, m2_b = b
    n = n_a + n_b
    delta = mean_b - mean_a
    return (n, mean_a + delta * n_b / n,
            m2_a + m2_b + delta * delta * n_a * n_b / n)


def estimate_moment(w, exponents, n, samples, seed):
    """Sample mean and stderr of prod_i tr(w(U)^{m_i}) over Haar tuples.

    Deterministic for fixed (seed, n, samples); the per-chunk generators are
    keyed by (seed, chunk index) and combined in fixed order.  The
    variance of the real and imaginary parts is merged from per-chunk
    (count, mean, M2) summaries.  Like :func:`wml.weingarten.moment`,
    refuses a power w^m of more than ``MAX_WORD_LENGTH`` letters with a
    ``ValueError``, since a batch takes max|m| - 1 products.
    """
    import numpy as np

    exponents = tuple(int(m) for m in exponents)
    if any(m == 0 for m in exponents):
        raise ValueError("trace exponents must be nonzero")
    check_power_length(w, exponents)
    if n < 1 or samples < 1:
        raise ValueError(f"need n >= 1 and samples >= 1, got n={n}, "
                         f"samples={samples}")
    total = 0
    sum_value = 0.0 + 0.0j
    moments_re = moments_im = (0, 0.0, 0.0)
    unitarity_max = 0.0
    chunk_index = 0
    while total < samples:
        count = min(CHUNK, samples - total)
        values, defect = _chunk_values(w, exponents, n, count, seed,
                                       chunk_index)
        unitarity_max = max(unitarity_max, defect)  # never NaN
        sum_value += values.sum()
        moments_re = _merge_moments(moments_re, _chunk_moments(values.real))
        moments_im = _merge_moments(moments_im, _chunk_moments(values.imag))
        total += count
        chunk_index += 1
    mean = sum_value / samples
    variance = (moments_re[2] + moments_im[2]) / samples
    stderr = float(np.sqrt(variance / samples))
    return Estimate(mean, stderr, samples, seed, n, unitarity_max)


def _batch_size(n):
    """Matrices per batch: at most ``BATCH`` 16^2 matrix entries, but at
    least one matrix, for every n."""
    return max(1, BATCH * 16 ** 2 // n ** 2)


def _batch_traces(w, traces, start, n, generators, real, imag, chunk_index):
    """Write one batch's traces tr(w(U)^k) into ``traces[k]``, one
    chunk-long array per distinct |m|, from ``start`` on; return the
    batch's largest unitarity defect.  One running power steps k up to
    the largest |m|, so a batch holds O(r n^2 batch).  U_g is made from
    the normals that generators 2g - 1 and 2g draw into the batch-long
    scratch arrays ``real`` and ``imag``.  The batch's matrices are
    released on return, before the next batch draws."""
    import numpy as np

    size = len(real)
    unitaries = {g: _haar_from_normals(
        generators[2 * g - 2].standard_normal(out=real),
        generators[2 * g - 1].standard_normal(out=imag))
        for g in range(1, w.rank + 1)}
    batch_defect = 0.0
    for u in unitaries.values():
        defect = _unitarity_defect(u)
        # a NaN defect compares false with everything
        if not defect <= UNITARITY_TOL:
            raise RuntimeError(f"unitarity defect {defect:.3g} in chunk "
                               f"{chunk_index}")
        batch_defect = max(batch_defect, defect)
    base = power = _evaluate_word_batch(w, unitaries, size, n)
    for k in range(1, max(traces, default=0) + 1):
        if k > 1:
            power = power @ base
        if k in traces:
            traces[k][start:start + size] = np.einsum("bii->b", power)
    return batch_defect


def _chunk_values(w, exponents, n, count, seed, chunk_index):
    """The ``count`` sampled values prod_i tr(w(U)^{m_i}) of one chunk and
    the chunk's largest unitarity defect.  The chunk's generator runs once
    through the segments real_1, imag_1, ..., real_r, all but the last,
    and a side generator starts at each one's first state.  Each batch
    then draws its slice of a segment from that segment's generator and
    its slice of the last segment from the chunk's generator, so the
    normals keep their fixed order and no segment is held whole.  Each
    batch writes its traces into one chunk-long array per distinct |m|,
    so memory is O(r n^2 batch + d CHUNK) for d distinct |m|, and the
    traces are multiplied over the whole chunk in the order of the
    exponents, a negative m's conjugated (to the bit the adjoint's trace:
    the same diagonal in the same order, and negation is exact).  numpy's
    complex product can round an element differently by its place in the
    array: the last sample of 257, multiplied alone, lost the imaginary
    part 8.5e-18 it has in the whole chunk."""
    import numpy as np

    batch = min(count, _batch_size(n))
    real, imag = np.empty((2, batch, n, n))
    rng = _chunk_rng(seed, chunk_index)
    generators = []
    for _ in range(2 * w.rank - 1):
        side = _chunk_rng(seed, chunk_index)
        side.bit_generator.state = rng.bit_generator.state
        generators.append(side)
        for start in range(0, count, batch):
            rng.standard_normal(out=real[:min(batch, count - start)])
    generators.append(rng)
    traces = {abs(m): np.empty(count, dtype=np.complex128)
              for m in exponents}
    chunk_defect = 0.0
    for start in range(0, count, batch):
        size = min(batch, count - start)
        chunk_defect = max(chunk_defect, _batch_traces(
            w, traces, start, n, generators, real[:size], imag[:size],
            chunk_index))
    values = np.ones(count, dtype=np.complex128)
    for m in exponents:
        values *= traces[m] if m > 0 else np.conj(traces[-m])
    return values, chunk_defect
