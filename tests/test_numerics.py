import itertools

import numpy as np
import pytest

from mimosel.numerics import (
    BasisConstructionError,
    OpLedger,
    gram_schmidt_extend,
    subset_count,
)
from mimosel import seeding
from mimosel.seeding import _splitmix64, derive_seed, stream


def orthonormality_defect(matrix: np.ndarray) -> tuple[float, float]:
    """Return (max off-diagonal |inner product|, max |column norm - 1|)."""
    gram = matrix.conj().T @ matrix
    off = gram - np.diag(np.diag(gram))
    max_cross = float(np.max(np.abs(off))) if matrix.shape[1] > 1 else 0.0
    max_norm_err = float(np.max(np.abs(np.sqrt(np.diag(gram).real) - 1.0)))
    return max_cross, max_norm_err


class TestGramSchmidt:
    def test_2d_complement_unique_up_to_phase(self):
        basis = gram_schmidt_extend([1, 0], stream(11), OpLedger())
        second = basis[:, 1]
        assert abs(second[0]) <= 1e-12
        assert abs(abs(second[1]) - 1.0) <= 1e-12

    def test_orthonormality_dim4(self):
        seed = np.zeros(4, dtype=complex)
        seed[0] = 1.0
        basis = gram_schmidt_extend(seed, stream(5), OpLedger())
        gram = basis.conj().T @ basis
        assert np.max(np.abs(gram - np.eye(4))) <= 1e-10

    def test_deterministic_given_stream(self):
        seed = np.zeros(3, dtype=complex)
        seed[1] = 1.0
        a = gram_schmidt_extend(seed, stream(99, 0), OpLedger())
        b = gram_schmidt_extend(seed, stream(99, 0), OpLedger())
        assert np.array_equal(a, b)

    @pytest.mark.parametrize("m", [2, 4, 8, 16])
    def test_orthonormality_random_seeds(self, m):
        rng = np.random.default_rng(m)
        for trial in range(50):
            v = rng.standard_normal(m) + 1j * rng.standard_normal(m)
            v /= np.linalg.norm(v)
            basis = gram_schmidt_extend(v, stream(m, trial), OpLedger())
            cross, norm_err = orthonormality_defect(basis)
            assert cross <= 1e-10
            assert norm_err <= 1e-10

    def test_non_unit_seed_rejected(self):
        with pytest.raises(ValueError, match="unit norm"):
            gram_schmidt_extend([1.0, 1.0], stream(1), OpLedger())

    def test_ledger_counts(self):
        # With no redraws the construction costs exactly m^3 MACs and
        # m*(m-1) divisions (normalization of the m-1 appended columns).
        for m in (2, 4, 8):
            seed = np.zeros(m, dtype=complex)
            seed[0] = 1.0
            led = OpLedger()
            gram_schmidt_extend(seed, stream(m), led)
            assert led.complex_macs == m**3
            assert led.divisions == m * (m - 1)

    def test_broken_rng_detected(self):
        class ZeroRng:
            def standard_normal(self, n):
                return np.zeros(n)

        with pytest.raises(BasisConstructionError):
            gram_schmidt_extend([1.0, 0.0], ZeroRng(), OpLedger())


class TestSubsetCount:
    def test_large_pool_anchors(self):
        assert subset_count(50, 4) - subset_count(50, 3) == 230300
        assert subset_count(100, 8) - subset_count(100, 7) == 186087894300

    def test_small_example(self):
        assert subset_count(4, 2) == 10

    @pytest.mark.parametrize("u,k", [(5, 3), (8, 8), (12, 4), (15, 6)])
    def test_matches_enumeration(self, u, k):
        enumerated = sum(
            1
            for size in range(1, k + 1)
            for _ in itertools.combinations(range(u), size)
        )
        assert subset_count(u, k) == enumerated

    def test_rejects_bad_k(self):
        with pytest.raises(ValueError):
            subset_count(4, 0)
        with pytest.raises(ValueError):
            subset_count(4, 5)


class TestOpLedger:
    def test_additive_across_calls(self):
        led = OpLedger()
        gram_schmidt_extend([1, 0], stream(1), led)  # 2 + (2*2 + 2) MACs
        gram_schmidt_extend([1, 0, 0], stream(2), led)  # 3 + (2*3 + 3) + (4*3 + 3) MACs
        assert led.complex_macs == 8 + 27


class TestSeeding:
    def test_splitmix_is_64_bit(self):
        for x in (0, 1, 2**63, 2**64 - 1):
            assert 0 <= _splitmix64(x) < 2**64

    def test_derive_distinguishes_parts(self):
        assert derive_seed(1, 2, 3) != derive_seed(1, 2, 4)
        assert derive_seed(1, 2, 3) != derive_seed(1, 3, 2)
        assert derive_seed(1) != derive_seed(1, 0)

    def test_stream_reproducible(self):
        a = stream(42, 7).standard_normal(5)
        b = stream(42, 7).standard_normal(5)
        assert np.array_equal(a, b)


# The seeds of 0, 1 and 2 words (SeedSequence splits a seed into uint32
# words) and the edges between them.
EDGE_SEEDS = [*range(50), 2**32 - 1, 2**32, 2**64 - 1]
# Trial seeds whose basis keys 0..999 the port is checked on.
KEY_SEEDS = (0, 1234, 2**64 - 1)


class TestStackedNormals:
    """``seeding._seeded`` and ``_stacked_normals`` copy numpy's seeding of ``default_rng``.

    It ports the ``SeedSequence`` hash constants and the PCG64 set-seed
    step, so a numpy that changes either must fail here, by name.
    """

    NUMPY = f"the default_rng seeding port no longer matches numpy {np.__version__}"

    def test_vectorised_seeds_equal_derive_seed(self):
        got = seeding._stream_seeds(KEY_SEEDS, range(1000)).tolist()
        want = [[derive_seed(rng_seed, l) for l in range(1000)] for rng_seed in KEY_SEEDS]
        assert got == want, self.NUMPY

    def test_states_and_draws_equal_default_rng(self):
        seeds = np.concatenate(
            [
                seeding._stream_seeds(KEY_SEEDS, range(1000)).ravel(),
                np.array(EDGE_SEEDS, dtype=np.uint64),
            ]
        )
        assert seeds.size >= 3000
        # ``_seeded`` is the one path that sets the port's states: the
        # chunk's channel and ``random`` draws and the bases all take it.
        mismatched = []
        for seed, ported in zip(seeds.tolist(), seeding._seeded(seeding._pcg64_states(seeds))):
            want = np.random.default_rng(seed)
            if ported.bit_generator.state != want.bit_generator.state or not np.array_equal(
                ported.standard_normal(3), want.standard_normal(3)
            ):
                mismatched.append(seed)
        assert mismatched == [], f"{self.NUMPY}: seeds {mismatched[:5]}"

    def test_each_stream_starts_without_the_last_ones_half_word(self):
        # ``_seeded`` sets every stream through one state dict. A stream that
        # ends on a buffered 32-bit half-word, as ``Generator.choice`` in
        # ``_random_trials`` leaves one, must not hand it to the next.
        seeds = [*EDGE_SEEDS[:6], 2**32, 2**64 - 1]
        for seed, ported in zip(seeds, seeding._seeded(seeding._pcg64_states(seeds))):
            want = np.random.default_rng(seed)
            assert ported.bit_generator.state == want.bit_generator.state, self.NUMPY
            picks = ported.choice(20, size=3, replace=False)
            assert np.array_equal(picks, want.choice(20, size=3, replace=False))
            assert ported.bit_generator.state["has_uint32"] == 1
            assert np.array_equal(ported.standard_normal(3), want.standard_normal(3))
            assert ported.bit_generator.state["has_uint32"] == 1

    @pytest.mark.parametrize("m", [2, 3, 8, 16])
    def test_block_equals_stacked_streams(self, m):
        # As in ``_ss_us_trials``: the trials' streams are hashed at once,
        # and blocks of B bases take their slices of the states in turn.
        shape = (m - 1, 2, m)
        for rng_seeds in ([31 + m], [31 + m, 2**64 - 1, 0]):
            states = seeding._pcg64_states(seeding._stream_seeds(rng_seeds, range(1097)))
            for start in (0, 997):
                indices = range(start, start + 100)
                want = np.stack(
                    [
                        [stream(rng_seed, l).standard_normal(shape) for l in indices]
                        for rng_seed in rng_seeds
                    ]
                )
                for size in (1, 2, 3, 8, 10, 34, 100):
                    blocks = [
                        states[..., s : min(s + size, indices.stop)]
                        for s in range(start, indices.stop, size)
                    ]
                    got = np.concatenate(
                        [seeding._stacked_normals(block, shape) for block in blocks], axis=1
                    )
                    assert got.tobytes() == want.tobytes(), f"{self.NUMPY} (B = {size})"
