import tracemalloc
import warnings

import numpy as np
import pytest

from conftest import ball_samples, overflowing_instance, random_dense_instance
from oracles import (EnergyKernel, dense_stack, eig_qip_gram_constant, eig_spectral_norm,
                     paper_qip_constant)

from bpg import (
    L1,
    Kernel,
    QipInstance,
    SmadCertificate,
    check_descent_lemma,
    qip_value,
    qip_gradient,
    smad,
)
from bpg.smad import check_symmetric, spectral_norm


class TestSpectralNorm:
    def test_diagonal(self):
        assert spectral_norm(np.diag([1.0, -3.0, 2.0])) == pytest.approx(3.0, rel=1e-10)

    def test_zero_matrix(self):
        assert spectral_norm(np.zeros((4, 4))) == 0.0

    def test_random_symmetric_matches_eigendecomposition(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            raw = rng.standard_normal((6, 6))
            A = 0.5 * (raw + raw.T)
            assert spectral_norm(A) == pytest.approx(eig_spectral_norm(A), rel=1e-8)

    def test_non_finite_rejected(self):
        A = np.eye(3)
        A[0, 0] = np.nan
        with pytest.raises(ValueError):
            spectral_norm(A)

    def test_non_square_rejected(self):
        for shape in [(2, 3), (3,), (2, 2, 3), (1, 2, 2, 2)]:
            with pytest.raises(ValueError, match="expected a square matrix or a stack of them"):
                spectral_norm(np.zeros(shape))

    def test_near_tied_spectrum_is_exact(self):
        # |lambda_1| and |lambda_2| differ by 1e-6 relative; an iterative
        # method that stops once its Rayleigh quotient settles falls short
        rng = np.random.default_rng(18)
        d = 16
        for _ in range(50):
            Q, _ = np.linalg.qr(rng.standard_normal((d, d)))
            spectrum = np.concatenate([[2.0, -2.0 * (1.0 - 1e-6)], rng.uniform(-1.0, 1.0, d - 2)])
            A = (Q * spectrum) @ Q.T
            A = 0.5 * (A + A.T)
            assert spectral_norm(A) == pytest.approx(2.0, rel=1e-12)

    def test_non_symmetric_rejected(self):
        for gap in (1.0, 5e-11):
            with pytest.raises(ValueError, match="not symmetric"):
                spectral_norm(np.array([[0.0, gap], [0.0, 0.0]]))

    @pytest.mark.parametrize("share", [0.5, 0.999, 1.001, 2.0])
    def test_stack_gap_is_the_full_difference(self, share):
        # the packed halves give the gap and bound of max |A - A^T| over the
        # whole stack, against 1e-10 max |A|, and the same outcome either side
        rng = np.random.default_rng(31)
        A = rng.standard_normal((3, 5, 5))
        A = A + np.swapaxes(A, 1, 2)
        A[-1, 1, 3] += share * 1e-10 * np.max(np.abs(A))
        gap, bound = np.max(np.abs(A - np.swapaxes(A, 1, 2))), 1e-10 * np.max(np.abs(A))
        if gap > bound:
            with pytest.raises(ValueError, match=f"= {gap:.3e} > {bound:.1e}"):
                check_symmetric(A)
        else:
            assert check_symmetric(A) is A
        assert (gap > bound) == (share > 1)

    def test_rounding_asymmetry_accepted_at_any_scale(self):
        A = np.array([[2.0, 1.0], [1.0 + 1e-15, -3.0]])
        for scale in (1e-12, 1.0, 1e12):
            assert spectral_norm(scale * A) == pytest.approx(scale * eig_spectral_norm(A), rel=1e-12)

    def test_stack_gives_per_matrix_norms(self):
        stack = np.stack([np.diag([1.0, -3.0, 2.0]), np.diag([0.5, 0.0, -0.25]), np.zeros((3, 3))])
        norms = spectral_norm(stack)
        assert norms.shape == (3,)
        np.testing.assert_allclose(norms, [3.0, 0.5, 0.0], rtol=1e-12)


def qip_certificate(matrices, b):
    return QipInstance(b=b, regularizer=L1(0.1), matrices=matrices).smad_certificate()


class TestQipSmadConstant:
    """The paper's constant, pinned on its oracle, and the certified L*.

    Random instances draw the matrix scale over five decades, so that either
    term of L* = max(3 lambda, beta) can be the larger.
    """

    def test_identity_single_measurement(self):
        assert paper_qip_constant([np.eye(2)], [1.0]) == pytest.approx(4.0)

    def test_identity_certificate(self):
        # max(3 * lambda_max(I^2), ||1 * I||) = max(3, 1)
        cert = qip_certificate([np.eye(2)], [1.0])
        assert cert.L == pytest.approx(3.0, rel=1e-12)
        assert cert.source == "qip-gram"

    def test_diagonal_zero_measurement(self):
        cert = qip_certificate([np.diag([2.0, 0.0])], [0.0])
        assert cert.L == pytest.approx(12.0)

    def test_random_matches_eigendecomposition_oracle(self):
        rng = np.random.default_rng(12)
        mats = []
        for _ in range(3):
            raw = rng.standard_normal((4, 4))
            mats.append(0.5 * (raw + raw.T))
        b = rng.standard_normal(3)
        expected = sum(
            3.0 * eig_spectral_norm(A) ** 2 + eig_spectral_norm(A) * abs(bi)
            for A, bi in zip(mats, b)
        )
        assert paper_qip_constant(mats, b) == pytest.approx(expected, rel=1e-8)

    def test_non_symmetric_rejected(self):
        for gap in (1.0, 5e-11):
            A = np.array([[0.0, gap], [0.0, 0.0]])
            with pytest.raises(ValueError, match="not symmetric"):
                qip_certificate([A], [0.0])

    def test_zero_matrices_rejected(self):
        for inst in (QipInstance(b=[1.0, -2.0], regularizer=L1(0.1), matrices=np.zeros((2, 3, 3))),
                     QipInstance(b=[1.0, -2.0], regularizer=L1(0.1), factors=np.zeros((2, 3)))):
            with pytest.raises(ValueError, match="instance has only zero measurement matrices"):
                inst.smad_certificate()

    def test_empty_list_rejected(self):
        with pytest.raises(ValueError):
            qip_certificate([], [])

    def test_scale_covariance(self):
        rng = np.random.default_rng(13)
        raw = rng.standard_normal((3, 3))
        A = 0.5 * (raw + raw.T)
        b = [0.7]
        c = 2.5
        nu = eig_spectral_norm(A)
        expected = 3.0 * c**2 * nu**2 + c * nu * 0.7
        assert paper_qip_constant([c * A], b) == pytest.approx(expected, rel=1e-10)

    def test_monotone_in_measurements(self):
        # with zero data L* = 3 lambda_max(sum A_i^2), which only grows as
        # measurements are added
        rng = np.random.default_rng(14)
        mats = []
        prev = 0.0
        for _ in range(5):
            raw = rng.standard_normal((3, 3))
            mats.append(0.5 * (raw + raw.T))
            L = qip_certificate(mats, np.zeros(len(mats))).L
            assert L >= prev
            prev = L

    def test_data_terms_can_cancel(self):
        # sum b_i A_i vanishes, so L* drops where the paper's constant doubles
        assert qip_certificate([np.eye(2)], [100.0]).L == pytest.approx(100.0, rel=1e-12)
        assert qip_certificate([np.eye(2)] * 2, [100.0, -100.0]).L == pytest.approx(6.0, rel=1e-12)
        assert paper_qip_constant([np.eye(2)] * 2, [100.0, -100.0]) == pytest.approx(206.0)

    def test_matches_gram_free_oracle(self):
        rng = np.random.default_rng(19)
        # m = 17 and 33 end in a partial block of the dense Gram product
        for m in [int(rng.integers(1, 13)) for _ in range(10)] + [17, 33]:
            d = int(rng.integers(2, 9))
            scale = 10.0 ** rng.uniform(-4, 1)
            dense = random_dense_instance(rng, d, m, scale=scale)
            rank_one = QipInstance(b=dense.b, regularizer=L1(0.1),
                                   factors=np.sqrt(scale) * rng.standard_normal((m, d)))
            for inst in (dense, rank_one):
                expected = eig_qip_gram_constant(dense_stack(inst), inst.b)
                assert inst.smad_certificate().L == pytest.approx(expected, rel=1e-10)

    def test_gram_peak_below_one_unpacked_stack(self):
        rng = np.random.default_rng(24)
        d, m = 32, 64
        inst = random_dense_instance(rng, d, m)
        tracemalloc.start()
        try:
            inst.smad_certificate()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < m * d * d * 8

    def test_not_above_paper_constant(self):
        rng = np.random.default_rng(23)
        for _ in range(20):
            d, m = int(rng.integers(2, 13)), int(rng.integers(1, 41))
            scale = 10.0 ** rng.uniform(-4, 1)
            dense = random_dense_instance(rng, d, m, scale=scale)
            rank_one = QipInstance(b=dense.b, regularizer=L1(0.1),
                                   factors=np.sqrt(scale) * rng.standard_normal((m, d)))
            for inst in (dense, rank_one):
                paper = paper_qip_constant(dense_stack(inst), inst.b)
                assert inst.smad_certificate().L <= paper * (1.0 + 1e-12)

    @pytest.mark.parametrize("action", ["error", "ignore"])
    @pytest.mark.parametrize("kind", ["dense", "rank-one"])
    def test_overflow_names_the_cause(self, kind, action):
        # the Gram product of entries 1e160 (or factors 1e80) leaves float64:
        # numpy warns, or eigvalsh fails to converge on the inf entries
        inst = overflowing_instance(kind)
        with warnings.catch_warnings():
            warnings.simplefilter(action, RuntimeWarning)
            with pytest.raises(ValueError, match="overflow float64 in the certificate"):
                inst.smad_certificate()


class TestSmadCertificate:
    def test_positive_L_required(self):
        with pytest.raises(ValueError):
            SmadCertificate(L=0.0, source="zero")
        with pytest.raises(ValueError):
            SmadCertificate(L=-1.0, source="negative")


class TestDescentLemma:
    def test_g_equals_h_passes_with_unit_constant(self):
        # D_g == D_h exactly, so every margin is ~0 from above
        k = Kernel.quartic(3)
        rng = np.random.default_rng(15)
        xs, ys = rng.standard_normal((50, 3)), rng.standard_normal((50, 3))
        report = check_descent_lemma(k.value, k.gradient, k, 1.0, xs, ys)
        assert report.passed
        assert report.n_violations == 0

    def test_qip_certificate_passes(self):
        rng = np.random.default_rng(16)
        inst = random_dense_instance(rng, d=6, m=8)
        cert = inst.smad_certificate()
        k = Kernel.quartic(6)
        xs = ball_samples(rng, 10_000, 6, 10.0)
        ys = ball_samples(rng, 10_000, 6, 10.0)
        report = check_descent_lemma(
            lambda x: qip_value(inst, x), lambda x: qip_gradient(inst, x),
            k, cert.L, xs, ys,
        )
        assert report.passed, f"{report.n_violations} violations, worst {report.worst_margin}"

    def test_shrunk_constant_fails(self):
        rng = np.random.default_rng(17)
        inst = random_dense_instance(rng, d=6, m=8)
        cert = inst.smad_certificate()
        k = Kernel.quartic(6)
        xs = ball_samples(rng, 10_000, 6, 10.0)
        ys = ball_samples(rng, 10_000, 6, 10.0)
        report = check_descent_lemma(
            lambda x: qip_value(inst, x), lambda x: qip_gradient(inst, x),
            k, cert.L / 1e4, xs, ys,
        )
        assert not report.passed
        assert report.n_violations >= 1

    def test_mismatched_samples_rejected(self):
        k = EnergyKernel()
        with pytest.raises(ValueError):
            check_descent_lemma(k.value, k.gradient, k, 1.0,
                                np.zeros((3, 2)), np.zeros((4, 2)))

    def test_empty_or_non_finite_samples_rejected(self):
        k = EnergyKernel()
        bad = np.zeros((3, 2))
        bad[1, 0] = np.nan
        for xs in (np.zeros((0, 2)), bad, np.full((3, 2), np.inf)):
            with pytest.raises(ValueError):
                check_descent_lemma(k.value, k.gradient, k, 1.0, xs, np.zeros_like(xs))

    def test_nan_margin_is_a_violation(self):
        # finite samples whose values overflow give NaN margins
        k = EnergyKernel()
        xs = np.full((2, 2), 1e200)
        report = check_descent_lemma(k.value, k.gradient, k, 1.0, xs, -xs)
        assert np.isnan(report.margins).all()
        assert not report.passed
        assert report.n_violations == 2

    def test_blocks_match_one_pass(self, monkeypatch):
        rng = np.random.default_rng(19)
        inst = random_dense_instance(rng, d=4, m=6)
        k = Kernel.quartic(4)
        L = inst.smad_certificate().L / 10.0  # some pairs violate
        xs, ys = ball_samples(rng, 50, 4, 10.0), ball_samples(rng, 50, 4, 10.0)
        seen = []

        def recorded(f):
            def call(x):
                seen.append(len(x))
                return f(x)
            return call

        g_value = recorded(lambda x: qip_value(inst, x))
        g_gradient = recorded(lambda x: qip_gradient(inst, x))
        monkeypatch.setattr(smad, "PAIR_BLOCK", 16)
        blocked = check_descent_lemma(g_value, g_gradient, k, L, xs, ys)
        assert max(seen) == 16 and sum(seen) == 3 * 50
        monkeypatch.setattr(smad, "PAIR_BLOCK", 50)
        whole = check_descent_lemma(g_value, g_gradient, k, L, xs, ys)
        assert seen[-3:] == [50] * 3
        np.testing.assert_allclose(blocked.margins, whole.margins, rtol=1e-12)
        assert 0 < blocked.n_violations == whole.n_violations
        assert blocked.worst_margin == pytest.approx(whole.worst_margin, rel=1e-12)

    def test_default_block_bounds_every_call(self):
        k = EnergyKernel()
        rng = np.random.default_rng(20)
        n = 2 * smad.PAIR_BLOCK + 7
        xs, ys = rng.standard_normal((n, 2)), rng.standard_normal((n, 2))
        seen = []

        def value(x):
            seen.append(len(x))
            return k.value(x)

        report = check_descent_lemma(value, k.gradient, k, 1.0, xs, ys)
        assert seen == [smad.PAIR_BLOCK] * 4 + [7] * 2
        assert report.margins.shape == (n,) and report.passed
