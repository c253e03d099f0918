import math

import numpy as np
import pytest

from mimosel.channel import generate_iid_rayleigh
from mimosel.metrics import SingularSetError, sum_spectral_efficiency, zf_post_snr
from mimosel.numerics import OpLedger
from mimosel.seeding import stream
from test_zf_kernel import zf_sum_rate_batch


def projection_residual_snr(h_sel: np.ndarray, n0: float) -> np.ndarray:
    """Independent ZF post-SNR oracle: SNR_k = ||P_perp h_k||^2 / n0 with
    P_perp the projector onto the complement of the other columns' span."""
    m, k = h_sel.shape
    out = np.empty(k)
    for i in range(k):
        others = np.delete(h_sel, i, axis=1)
        if others.shape[1]:
            q, _ = np.linalg.qr(others)
            resid = h_sel[:, i] - q @ (q.conj().T @ h_sel[:, i])
        else:
            resid = h_sel[:, i]
        out[i] = np.linalg.norm(resid) ** 2 / n0
    return out


class TestZfPostSnr:
    def test_identity(self):
        snr = zf_post_snr(np.eye(2, dtype=complex), 1.0, OpLedger())
        assert snr == pytest.approx([1.0, 1.0], abs=1e-14)

    def test_orthogonal_columns_diagonal_gram(self):
        h = np.zeros((3, 2), dtype=complex)
        h[0, 0] = 2.0
        h[1, 1] = 0.5j
        snr = zf_post_snr(h, 0.25, OpLedger())
        assert snr == pytest.approx([16.0, 1.0], rel=1e-12)

    def test_two_by_two_hand_inverse(self):
        h = np.array([[1.0, 1 / math.sqrt(2)], [0.0, 1 / math.sqrt(2)]], dtype=complex)
        snr = zf_post_snr(h, 1.0, OpLedger())
        assert snr == pytest.approx([0.5, 0.5], rel=1e-12)

    def test_duplicate_columns_singular(self):
        h = np.ones((2, 2), dtype=complex)
        with pytest.raises(SingularSetError):
            zf_post_snr(h, 1.0, OpLedger())

    def test_near_parallel_columns_guarded(self):
        h = np.array([[1.0, 1.0], [0.0, 1e-9]], dtype=complex)
        with pytest.raises(SingularSetError):
            zf_post_snr(h, 1.0, OpLedger())

    def test_rejects_more_streams_than_antennas(self):
        with pytest.raises(ValueError):
            zf_post_snr(np.ones((2, 3), dtype=complex), 1.0, OpLedger())

    def test_rejects_nonpositive_noise(self):
        with pytest.raises(ValueError):
            zf_post_snr(np.eye(2, dtype=complex), 0.0, OpLedger())

    def test_matches_projection_residual_oracle(self):
        rng = np.random.default_rng(17)
        for _ in range(100):
            m = int(rng.integers(2, 9))
            k = int(rng.integers(1, min(m, 6) + 1))
            h = (rng.standard_normal((m, k)) + 1j * rng.standard_normal((m, k))) / np.sqrt(2)
            got = zf_post_snr(h, 0.5, OpLedger())
            want = projection_residual_snr(h, 0.5)
            assert np.max(np.abs(got - want) / want) <= 1e-8


class TestSumSpectralEfficiency:
    def test_single_stream_reduces_to_rate(self):
        h = generate_iid_rayleigh(4, 1, stream(3))
        got = sum_spectral_efficiency(h, 0.7, OpLedger())
        want = math.log2(1.0 + np.linalg.norm(h[:, 0]) ** 2 / 0.7)
        assert got == pytest.approx(want, rel=1e-12)

    def test_unit_column(self):
        assert sum_spectral_efficiency(
            np.array([[1.0], [0.0]], dtype=complex), 1.0, OpLedger()
        ) == pytest.approx(1.0, abs=1e-14)

    def test_identity_four_streams(self):
        assert sum_spectral_efficiency(
            np.eye(4, dtype=complex), 1.0, OpLedger()
        ) == pytest.approx(4.0, abs=1e-12)

    def test_hand_computed_pair(self):
        h = np.array([[1.0, 1 / math.sqrt(2)], [0.0, 1 / math.sqrt(2)]], dtype=complex)
        assert sum_spectral_efficiency(h, 1.0, OpLedger()) == pytest.approx(
            2 * math.log2(1.5), rel=1e-12
        )

    def test_orthogonal_set_equals_sum_of_single_rates(self):
        rng = np.random.default_rng(5)
        q, _ = np.linalg.qr(rng.standard_normal((6, 4)) + 1j * rng.standard_normal((6, 4)))
        h = q * np.array([2.0, 0.5, 1.5, 3.0])
        total = sum_spectral_efficiency(h, 0.3, OpLedger())
        singles = sum(math.log2(1.0 + np.linalg.norm(h[:, i]) ** 2 / 0.3) for i in range(4))
        assert abs(total - singles) <= 1e-10

    def test_adding_orthogonal_user_never_decreases(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            m = 6
            h = (rng.standard_normal((m, 3)) + 1j * rng.standard_normal((m, 3))) / np.sqrt(2)
            q, _ = np.linalg.qr(np.hstack([h, rng.standard_normal((m, 1)) + 0j]))
            extra = q[:, 3] * rng.uniform(0.1, 2.0)
            base = sum_spectral_efficiency(h, 1.0, OpLedger())
            grown = sum_spectral_efficiency(np.column_stack([h, extra]), 1.0, OpLedger())
            assert grown >= base - 1e-10

    def test_singular_set_propagates(self):
        h = np.ones((2, 2), dtype=complex)
        with pytest.raises(SingularSetError):
            sum_spectral_efficiency(h, 1.0, OpLedger())


class TestOverflowingColumn:
    """Column 2 has finite entries but a squared norm that overflows. Every
    public ZF metric, and the tests' batch reference of the kernel, rejects
    it with the error the selectors give, and without a RuntimeWarning,
    which the suite turns into an error."""

    MESSAGE = "^channel matrix contains a column whose norm overflows$"

    @staticmethod
    def channel():
        h = generate_iid_rayleigh(4, 6, stream(8))
        h[:, 2] *= 1e200
        assert np.isfinite(h).all()
        return h

    @pytest.mark.parametrize("columns", [[2], [2, 3]], ids=["K=1", "K=2"])
    def test_single_set_metrics_raise(self, columns):
        h_sel = self.channel()[:, columns]
        with pytest.raises(ValueError, match=self.MESSAGE):
            zf_post_snr(h_sel, 1e-3, OpLedger())
        with pytest.raises(ValueError, match=self.MESSAGE):
            sum_spectral_efficiency(h_sel, 1e-3, OpLedger())

    @pytest.mark.parametrize("sets", [[[2]], [[2, 3]], [[0, 1]]])
    def test_batch_checks_the_whole_channel(self, sets):
        # As the selectors do, the batch reference checks every column of
        # the channel, not only those its sets use.
        with pytest.raises(ValueError, match=self.MESSAGE):
            zf_sum_rate_batch(self.channel(), sets, 1e-3, OpLedger())
