import tracemalloc
from functools import reduce

import numpy as np
import pytest

from wml.montecarlo import (
    BATCH,
    CHUNK,
    MAX_MATRIX_SIZE,
    UNITARITY_TOL,
    Estimate,
    UnitarySample,
    _chunk_moments,
    _chunk_rng,
    _evaluate_word_batch,
    _haar_batch,
    _merge_moments,
    _batch_size,
    estimate_moment,
    sample_haar,
)
import wml.montecarlo
from wml.weingarten import moment
from wml.words import Word, parse


class TestSampling:
    def test_unitarity(self):
        for n in (1, 3, 8):
            u = sample_haar(n, seed_or_rng(n))
            defect = np.max(np.abs(u.matrix.conj().T @ u.matrix - np.eye(n)))
            assert defect <= UNITARITY_TOL

    def test_n1_uniform_phase(self):
        rng = np.random.Generator(np.random.Philox(key=[5, 0]))
        phases = [sample_haar(1, rng).matrix[0, 0] for _ in range(2000)]
        assert np.allclose(np.abs(phases), 1.0, atol=1e-12)
        # mean of a uniform phase is 0
        assert abs(np.mean(phases)) < 0.1

    def test_reproducible(self):
        a = sample_haar(4, 123).matrix
        b = sample_haar(4, 123).matrix
        assert np.array_equal(a, b)

    def test_rejects_non_unitary(self):
        with pytest.raises(ValueError):
            UnitarySample(np.ones((3, 3)))

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_rejects_nan_and_inf(self, value):
        # a NaN defect compared false with the tolerance, so a NaN matrix
        # was accepted
        for matrix in (np.full((2, 2), value), np.diag([1.0, value])):
            with pytest.raises(ValueError, match="unitarity defect"), \
                    np.errstate(invalid="ignore"):
                UnitarySample(matrix)

    @pytest.mark.parametrize("n", [0, -1])
    def test_sample_haar_rejects_n_below_1(self, n):
        # n = 0 failed inside numpy's reduction, n = -1 inside its shape check
        with pytest.raises(ValueError, match="need n >= 1"):
            sample_haar(n, 1)

    def test_sample_haar_rejects_n_past_the_bound(self, monkeypatch):
        # n = 100000 asked numpy for a 149 GiB batch
        def no_draw(*args):
            raise AssertionError("drew")

        monkeypatch.setattr(wml.montecarlo, "_haar_batch", no_draw)
        for n in (MAX_MATRIX_SIZE + 1, 100_000):
            with pytest.raises(ValueError, match=f"^need n <= 1024, got "
                               f"n={n}$"):
                sample_haar(n, 1)

    def test_rejects_empty_matrix(self):
        with pytest.raises(ValueError, match="need n >= 1"):
            UnitarySample(np.zeros((0, 0)))

    @pytest.mark.parametrize("shape", [(3, 2), (3,), (2, 2, 2)])
    def test_rejects_non_square(self, shape):
        # a 3 x 2 isometry has u^H u = I but is no unitary
        matrix = np.eye(*shape) if len(shape) == 2 else np.ones(shape)
        with pytest.raises(ValueError, match="square"):
            UnitarySample(matrix)


def seed_or_rng(n):
    return 1000 + n


class TestEstimates:
    def test_trace_mean_zero(self):
        # E[tr U] = 0: the word x is unbalanced
        est = estimate_moment(parse("x", 1), (1,), n=6, samples=20000, seed=7)
        assert abs(est.mean) <= max(4 * est.stderr, 1e-12)

    def test_ds_variance_one(self):
        # E|tr U|^2 = 1
        est = estimate_moment(parse("x", 1), (1, -1), n=6, samples=20000, seed=11)
        assert abs(est.mean - 1.0) <= 4 * est.stderr

    def test_commutator_frobenius(self):
        w = parse("[x,y]", 2)
        exact = moment(w, (1,)).evaluate(10)
        est = estimate_moment(w, (1,), n=10, samples=20000, seed=3)
        assert abs(est.mean - complex(exact)) <= 4 * est.stderr

    def test_unbalanced_near_zero(self):
        est = estimate_moment(parse("x^2 y^2", 2), (1,), n=8, samples=20000, seed=5)
        assert abs(est.mean) <= 4 * est.stderr

    def test_bit_reproducibility(self):
        w = parse("[x,y]", 2)
        a = estimate_moment(w, (1, -1), n=4, samples=4000, seed=9)
        b = estimate_moment(w, (1, -1), n=4, samples=4000, seed=9)
        assert a.mean == b.mean and a.stderr == b.stderr

    def test_seed_changes_estimate(self):
        w = parse("[x,y]", 2)
        a = estimate_moment(w, (1,), n=4, samples=2000, seed=1)
        b = estimate_moment(w, (1,), n=4, samples=2000, seed=2)
        assert a.mean != b.mean

    def test_seeds_from_2_63_keep_apart(self):
        # a list key holding 2^63 or more became float64, which merged
        # neighbouring seeds into one stream
        w = parse("[x,y]", 2)
        a = estimate_moment(w, (1,), n=2, samples=10, seed=2 ** 63)
        b = estimate_moment(w, (1,), n=2, samples=10, seed=2 ** 63 + 1)
        assert a.mean != b.mean

    @pytest.mark.parametrize("seed", [2 ** 64, -1], ids=["2^64", "-1"])
    def test_rejects_seed_outside_64_bits(self, seed):
        with pytest.raises(ValueError, match="seed"):
            estimate_moment(parse("x", 1), (1,), n=2, samples=10, seed=seed)

    @pytest.mark.parametrize("seed", [0, 7, 2 ** 31 - 1, 2 ** 63 - 1])
    def test_seed_below_2_63_keeps_its_stream(self, seed):
        got = _chunk_rng(seed, 3).standard_normal(8)
        expected = np.random.Generator(
            np.random.Philox(key=[seed, 3])).standard_normal(8)
        assert np.array_equal(got, expected)

    def test_identity_at_rank_zero(self):
        # no generator, so no unitaries are drawn: tr(1) = n exactly
        est = estimate_moment(Word((), 0), (1,), n=3, samples=5, seed=1)
        assert (est.mean, est.stderr) == (3, 0)

    def test_chunking_consistency(self):
        # estimates depend on (seed, samples) but the chunk layout is fixed,
        # so crossing a chunk boundary must still be deterministic
        w = parse("x", 1)
        a = estimate_moment(w, (1, -1), n=3, samples=10001, seed=4)
        b = estimate_moment(w, (1, -1), n=3, samples=10001, seed=4)
        assert a.mean == b.mean

    def test_negative_exponent_powers(self):
        w = parse("x", 1)
        exact = moment(w, (2, -2)).evaluate(6)
        est = estimate_moment(w, (2, -2), n=6, samples=20000, seed=13)
        assert abs(est.mean - complex(exact)) <= 4 * est.stderr

    def test_rejects_empty_sample_and_matrix_size(self):
        w = parse("[x,y]", 2)
        for n, samples in [(4, 0), (4, -5), (0, 100), (-1, 100)]:
            with pytest.raises(ValueError):
                estimate_moment(w, (1,), n=n, samples=samples, seed=1)

    def test_rejects_matrix_size_past_the_bound(self, monkeypatch):
        # the check comes before any draw
        def no_draw(*args):
            raise AssertionError("drew")

        monkeypatch.setattr(wml.montecarlo, "_chunk_values", no_draw)
        w = parse("[x,y]", 2)
        for n in (MAX_MATRIX_SIZE + 1, 100_000):
            with pytest.raises(ValueError, match=f"^need n <= 1024, got "
                               f"n={n}$"):
                estimate_moment(w, (1,), n=n, samples=1, seed=1)

    def test_matrix_size_bound_is_inclusive(self, monkeypatch):
        monkeypatch.setattr(wml.montecarlo, "MAX_MATRIX_SIZE", 3)
        w = parse("[x,y]", 2)
        assert estimate_moment(w, (1,), n=3, samples=2, seed=1).n == 3
        assert sample_haar(3, 1).n == 3
        for sample in (lambda: estimate_moment(w, (1,), n=4, samples=2,
                                               seed=1),
                       lambda: sample_haar(4, 1)):
            with pytest.raises(ValueError, match="^need n <= 3, got n=4$"):
                sample()

    @pytest.mark.parametrize("text, exponents", [
        ("x", (1_000_001,)), ("[x,y]", (1, -250_001)), ("x^2", (500_001,))])
    def test_rejects_a_power_past_the_word_length_bound(self, text,
                                                        exponents):
        # the exact moment refuses the same powers: a batch would take
        # max|m| - 1 products
        w = parse(text, 2)
        for compute in (moment, lambda w, exponents: estimate_moment(
                w, exponents, n=1, samples=1, seed=1)):
            with pytest.raises(ValueError, match="^word power longer than "
                               "1000000 letters$"):
                compute(w, exponents)

    def test_power_bound_counts_letters_times_exponent(self, monkeypatch):
        monkeypatch.setattr("wml.words.MAX_WORD_LENGTH", 8)
        w = parse("[x,y]", 2)
        estimate_moment(w, (2, -2), n=2, samples=3, seed=1)
        with pytest.raises(ValueError, match="longer than 8 letters"):
            estimate_moment(w, (1, -3), n=2, samples=3, seed=1)

    def test_sampling_defect_is_not_an_input_error(self, monkeypatch):
        # a sampled matrix off the unitary group is a numerical fault, which
        # the command line reports as internal, not as invalid input
        monkeypatch.setattr("wml.montecarlo.UNITARITY_TOL", -1.0)
        with pytest.raises(RuntimeError):
            estimate_moment(parse("x", 1), (1,), n=2, samples=10, seed=1)

    def test_nan_batch_is_a_sampling_fault(self, monkeypatch):
        # a NaN unitarity defect must raise, not pass the check and vanish
        # from unitarity_max, whose max keeps the value it had before
        haar = wml.montecarlo._haar_from_normals
        monkeypatch.setattr("wml.montecarlo._haar_from_normals",
                            lambda *normals: haar(*normals) * np.nan)
        with pytest.raises(RuntimeError, match="unitarity defect nan"):
            estimate_moment(parse("[x,y]", 2), (1,), n=2, samples=10, seed=1)

    def test_memory_does_not_grow_with_chunk(self):
        # no segment of normals is held whole, so a chunk of CHUNK samples
        # outgrows one batch only by its chunk-long arrays: the traces, one
        # per exponent, and the values (complex, 16 bytes a sample)
        w, exponents = parse("[x,y]", 2), (1, -1)
        estimate_moment(w, exponents, n=16, samples=10, seed=1)
        peaks = []
        for samples in (BATCH, CHUNK):
            tracemalloc.start()
            try:
                estimate_moment(w, exponents, n=16, samples=samples, seed=1)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        chunk_arrays = (len(exponents) + 1) * CHUNK * 16
        assert peaks[1] - peaks[0] <= chunk_arrays, (peaks, chunk_arrays)

    def test_memory_does_not_grow_with_the_exponent(self):
        # a batch keeps one running power, and a chunk one trace array per
        # distinct |m|, so tr(w^200) outgrows tr(w) by at most one
        # chunk-long complex array (16 bytes a sample)
        w, samples = parse("[x,y]", 2), 2000
        peaks = []
        for exponents in ((1,), (200,)):
            estimate_moment(w, exponents, n=16, samples=10, seed=1)
            tracemalloc.start()
            try:
                estimate_moment(w, exponents, n=16, samples=samples, seed=1)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] - peaks[0] <= samples * 16, peaks

    def test_one_batch_rule_for_every_n(self):
        # a batch holds at most BATCH 16^2 matrix entries, but at least one
        # matrix, for every n, so up to n = 64 a batch of work matrices is
        # no larger than at n = 16, and the peak at n = 64 stays under the
        # n = 16 allowance of test_memory_holds_one_chunk_of_draws
        assert [_batch_size(n) for n in (1, 4, 8, 16, 17, 32, 64, 65, 300)] \
            == [4096, 256, 64, 16, 14, 4, 1, 1, 1]
        for n in range(1, 301):
            batch = _batch_size(n)
            assert batch >= 1, n
            assert batch * n ** 2 <= BATCH * 16 ** 2 or batch == 1, n
        rank, n = 2, 64
        w = parse("[x,y]", rank)
        samples = 2 * _batch_size(n) + 1
        estimate_moment(w, (1,), n=n, samples=2, seed=1)
        tracemalloc.start()
        try:
            estimate_moment(w, (1,), n=n, samples=samples, seed=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        allowance = (8 + 2 * rank) * BATCH * 16 ** 2 * 16
        assert peak < allowance, (peak, allowance)

    def test_memory_at_n_8_under_the_n_16_allowance(self):
        # a batch at n = 8 holds as many entries as one at n = 16, so a
        # whole chunk at n = 8, its chunk-long trace and value arrays
        # included, stays under the n = 16 allowance of
        # test_memory_holds_one_chunk_of_draws
        rank = 2
        w = parse("[x,y]", rank)
        estimate_moment(w, (1,), n=8, samples=2, seed=1)
        tracemalloc.start()
        try:
            estimate_moment(w, (1,), n=8, samples=CHUNK, seed=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        allowance = (8 + 2 * rank) * BATCH * 16 ** 2 * 16
        assert peak < allowance, (peak, allowance)

    def test_memory_holds_one_chunk_of_draws(self):
        # a chunk's normals, 2 r CHUNK n^2 float64s in 2 r segments, are the
        # one large buffer, and the last segment is drawn one batch at a
        # time, so at most 2 r - 1 segments are held; the allowance is
        # 8 + 2 r batches of complex n x n work matrices (1 MB each at
        # n = 16): QR and its workspace, the unitaries, adjoints, products
        for text, rank in [("x", 1), ("[x,y]", 2), ("[[x,y],z]", 3)]:
            w = parse(text, rank)
            estimate_moment(w, (1,), n=16, samples=10, seed=1)
            draws = 2 * rank * CHUNK * 16 ** 2 * 8
            allowance = (8 + 2 * rank) * BATCH * 16 ** 2 * 16
            tracemalloc.start()
            try:
                estimate_moment(w, (1,), n=16, samples=10_000, seed=1)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            bound = (2 * rank - 1) / (2 * rank) * draws + allowance
            assert peak < bound, (text, peak, draws, bound)

    def test_json(self):
        est = estimate_moment(parse("x", 1), (1, -1), n=2, samples=500, seed=1)
        data = est.to_json()
        assert data["samples"] == 500 and data["rng"] == "philox4x64"
        assert data["unitarity_max"] <= UNITARITY_TOL

    def test_specialization_window(self):
        # the symbolic value matches the estimate at every matrix size from
        # the validity bound up to the bound plus three
        w = parse("[x,y]", 2)
        f = moment(w, (1, -1))
        for n in range(f.n_min, f.n_min + 4):
            exact = complex(f.evaluate(n))
            est = estimate_moment(w, (1, -1), n=n, samples=30_000,
                                  seed=600 + n)
            assert abs(est.mean - exact) <= 4 * est.stderr, n


def _whole_chunk_estimate(w, exponents, n, samples, seed):
    """The estimator as it was before it ran per batch, kept whole as the
    reference: each chunk draws its Philox normals, then takes QR, the
    phase fix, the unitarity check, the word product, the powers and the
    traces over the whole chunk at once."""
    sum_value = 0.0 + 0.0j
    moments = {"re": (0, 0.0, 0.0), "im": (0, 0.0, 0.0)}
    unitarity_max = 0.0
    max_power = max(abs(m) for m in exponents)
    for chunk_index, total in enumerate(range(0, samples, CHUNK)):
        count = min(CHUNK, samples - total)
        rng = np.random.Generator(np.random.Philox(
            key=np.array([seed, chunk_index], dtype=np.uint64)))
        unitaries = {}
        for g in range(1, w.rank + 1):
            z = (rng.standard_normal((count, n, n))
                 + 1j * rng.standard_normal((count, n, n)))
            z /= np.sqrt(2.0)
            q, r = np.linalg.qr(z)
            diag = np.einsum("bii->bi", r)
            unitaries[g] = q * (diag / np.abs(diag))[:, None, :]
        for u in unitaries.values():
            defect = np.max(np.abs(u.conj().transpose(0, 2, 1) @ u - np.eye(n)))
            unitarity_max = max(unitarity_max, float(defect))
        letters = [unitaries[abs(a)] if a > 0
                   else unitaries[abs(a)].conj().transpose(0, 2, 1)
                   for a in w.letters]
        base = (reduce(np.matmul, letters) if letters else
                np.broadcast_to(np.eye(n, dtype=np.complex128),
                                (count, n, n)).copy())
        powers = [None, base]
        for _ in range(2, max_power + 1):
            powers.append(powers[-1] @ base)
        values = np.ones(count, dtype=np.complex128)
        for m in exponents:
            mat = powers[abs(m)]
            if m < 0:
                mat = mat.conj().transpose(0, 2, 1)
            values *= np.einsum("bii->b", mat)
        sum_value += values.sum()
        for part, real in (("re", values.real), ("im", values.imag)):
            mean = float(real.mean())
            chunk = (count, mean, float(((real - mean) ** 2).sum()))
            moments[part] = _merge_moments(moments[part], chunk)
    variance = (moments["re"][2] + moments["im"][2]) / samples
    return Estimate(sum_value / samples, float(np.sqrt(variance / samples)),
                    samples, seed, n, unitarity_max).to_json()


# Cases on either side of a batch and of a chunk (CHUNK), so that a change
# to the Philox stream, the draw order or the order of any sum or product
# shows: word text, rank, exponents, n, samples, seed.  A batch is
# _batch_size(n) matrices: 16 at n = 16, so 255, 256 and 257 samples end
# inside, on and just past a batch edge there, and 2 _batch_size(n) + 1
# samples at n = 8 and n = 16 cross two batch edges.  At CHUNK + 257
# samples the per-batch draws of the last generator cross a chunk edge.
# A batch is 4096 matrices at n = 1, 1024 at n = 2, 455 at n = 3, 7 at
# n = 24, 2 at n = 40 and one at n = 300.
S = 2 ** 63 + 1
CASES = [
    ("x", 1, (1,), 1, 255, 0),
    ("x", 1, (2, -2), 1, 20_000, S),
    ("x", 1, (-1, 1, 1), 3, 10_001, 0),
    ("[x,y]", 2, (1,), 16, 256, 0),
    ("[x,y]", 2, (1,), 16, 1, S),
    ("x", 1, (2, -2), 3, 257, 0),
    ("[x,y]", 2, (2, -2), 16, 257, 0),
    ("[x,y]", 2, (-1, 1, 1), 3, 10_001, 0),
    ("[x,y]", 2, (2, -2), 3, 10_000, S),
    ("[x,y]", 2, (-1, 1, 1), 16, 257, S),
    ("[x,y]", 2, (1,), 16, 10_001, 0),
    ("x^2 y^-3 x y", 2, (1,), 3, 20_000, 0),
    ("[[x,y],z]", 3, (1,), 16, 255, 0),
    ("[[x,y],z]", 3, (2, -2), 3, 10_001, S),
    ("[[x,y],z]", 3, (-1, 1, 1), 1, 1, 0),
    ("x", 1, (1, -1), 3, CHUNK + 257, S),
    ("[[x,y],z]", 3, (1,), 2, CHUNK + 257, 0),
    ("[x,y]", 2, (1, -1), 40, 300, S),
    ("[[x,y],z]", 3, (2, -1), 24, 2 * 113 + 1, 0),
    ("[x,y]", 2, (1, -1), 300, 3, S),
    ("[x,y]", 2, (1, -1), 8, 2 * _batch_size(8) + 1, S),
    ("[[x,y],z]", 3, (2, -1), 16, 2 * _batch_size(16) + 1, 0),
    ("[x,y]", 2, (1, 1, -1), 16, 2 * _batch_size(16) + 1, S),
    ("[x,y]", 2, (-3,), 4, 2 * _batch_size(4) + 1, 0),
    ("[x,y^2]", 2, (2, -1, -1, 3), 5, 257, S),
    ("[x,y]", 2, (40,), 8, 2 * _batch_size(8) + 1, 0),
]


def _case_id(case):
    text, rank, exponents, n, samples, seed = case
    return (f"{text or 'e'}-r{rank}-{'_'.join(map(str, exponents))}-n{n}"
            f"-{samples}-{'S' if seed else 0}")


class TestPinnedEstimates:
    @pytest.mark.parametrize("case", CASES, ids=_case_id)
    def test_same_bits_as_whole_chunks(self, case):
        # compared on the running machine: the last bits of QR and of the
        # matrix products depend on the BLAS kernels, the layout does not
        text, rank, exponents, n, samples, seed = case
        w = parse(text, rank)
        got = estimate_moment(w, exponents, n, samples, seed).to_json()
        assert got == _whole_chunk_estimate(w, exponents, n, samples, seed)

    @pytest.mark.parametrize("text, rank, exponents, n", [
        ("[x,y]", 2, (1, 1, -1), 16),
        ("[x,y^2]", 2, (2, -1, -1, 3), 5),
        ("[[x,y],z]", 3, (-3, 1, -2), 4),
    ])
    def test_negated_exponents_conjugate_the_mean(self, text, rank,
                                                  exponents, n):
        # tr(W^-m) is the conjugate of tr(W^m) for unitary W, and both are
        # taken from the same diagonal in the same order, so negating T
        # conjugates every value bit for bit
        w = parse(text, rank)
        got = estimate_moment(w, tuple(-m for m in exponents), n, 300, 5)
        ref = estimate_moment(w, exponents, n, 300, 5)
        assert got.mean.real == ref.mean.real
        assert got.mean.imag == -ref.mean.imag
        assert (got.stderr, got.unitarity_max) == (ref.stderr,
                                                  ref.unitarity_max)

    @pytest.mark.parametrize("exponents, n, samples, seed, mean", [
        ((1,), 3, 1, 0, 3.0),
        ((2, -2), 16, 257, S, 256.0),
        ((-1, 1, 1), 1, 10_001, 0, 1.0),
    ])
    def test_rank_zero_literals(self, exponents, n, samples, seed, mean):
        # no generator is drawn, so no floating-point kernel touches these
        got = estimate_moment(Word((), 0), exponents, n, samples, seed)
        assert got.to_json() == {
            "mean": [mean, 0.0], "stderr": 0.0, "samples": samples,
            "seed": seed, "n": n, "rng": "philox4x64", "unitarity_max": 0.0,
        }


class TestWordProduct:
    @pytest.mark.parametrize("text", ["[x,y]", "[x,y^2]", "x^2 y^-3 x y",
                                      "X", "xX"])
    def test_left_to_right_product(self, text):
        rng = _chunk_rng(11, 0)
        unitaries = {g: _haar_batch(rng, 5, 4) for g in (1, 2)}
        w = parse(text, 2)
        got = _evaluate_word_batch(w, unitaries, 5, 4)
        assert got.shape == (5, 4, 4)
        for b in range(5):
            expected = np.eye(4, dtype=np.complex128)
            for a in w.letters:
                m = unitaries[abs(a)][b]
                expected = expected @ (m if a > 0 else m.conj().T)
            assert np.allclose(got[b], expected, rtol=0, atol=1e-12)
        # starting from the first letter rather than the identity batch
        # changes no bit: multiplying by the identity is exact
        identity_start = np.broadcast_to(np.eye(4, dtype=np.complex128),
                                         (5, 4, 4)).copy()
        for a in w.letters:
            m = unitaries[abs(a)]
            identity_start = identity_start @ (
                m if a > 0 else m.conj().transpose(0, 2, 1))
        assert np.array_equal(got, identity_start)


class TestVarianceMerge:
    def test_large_mean_small_spread(self):
        # 1e8 + 1e-3 N(0,1): E[X^2] - E[X]^2 loses every digit of the
        # variance 1e-6 to cancellation, the chunk merge keeps it
        rng = np.random.default_rng(17)
        chunks = [1e8 + 1e-3 * rng.standard_normal(size)
                  for size in (10_000, 10_000, 7_000, 1, 2_500)]
        values = np.concatenate(chunks)
        count, mean, m2 = reduce(_merge_moments, map(_chunk_moments, chunks),
                                 (0, 0.0, 0.0))
        reference = float(np.var(values))
        assert count == len(values)
        assert mean == pytest.approx(float(np.mean(values)), rel=1e-15)
        assert m2 / count == pytest.approx(reference, rel=1e-6)
        naive = float(np.sum(values ** 2)) / count - float(np.mean(values)) ** 2
        assert abs(naive - reference) > 0.5 * reference

