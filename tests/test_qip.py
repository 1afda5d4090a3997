import os
import re
import sys
import threading
import tracemalloc

import numpy as np
import pytest

from conftest import random_dense_instance
from oracles import (
    EnergyKernel,
    bisect_root,
    dense_stack,
    einsum_qip_gradient,
    einsum_qip_value,
    enum_prox_l0,
    enum_truncation_max,
    fd_gradient,
    grid_prox_l1,
    l0_prox_objective,
    l1_prox_objective,
)

import bpg.qip
from bpg import (
    BpgConfig,
    Kernel,
    L0Ball,
    L1,
    QipInstance,
    cubic_root_l0,
    cubic_root_l1,
    hard_threshold,
    make_problem,
    prox_l0,
    prox_l1,
    qip_gradient,
    qip_value,
    run_bpg,
    soft_threshold,
)
from bpg.qip import p_lambda, qip_oracle


def triple_loop_value(inst, x):
    total = 0.0
    for A, bi in zip(dense_stack(inst), inst.b):
        quad = 0.0
        for i in range(inst.d):
            for j in range(inst.d):
                quad += x[i] * A[i, j] * x[j]
        total += 0.25 * (quad - bi) ** 2
    return total


class TestInstance:
    def test_requires_one_storage_kind(self):
        with pytest.raises(ValueError):
            QipInstance(b=[1.0], regularizer=L1(0.1))

    def test_rejects_non_symmetric(self):
        # the tolerance scales with the largest |A|, so a tiny matrix whose
        # only entry is the gap is as asymmetric as a unit one
        for gap in (1.0, 5e-11):
            A = np.array([[0.0, gap], [0.0, 0.0]])
            with pytest.raises(ValueError, match="not symmetric"):
                QipInstance(b=[1.0], regularizer=L1(0.1), matrices=[A])

    def test_accepts_rounding_asymmetry_at_scale(self):
        # Q diag Q^T at scale 1e6 is symmetric only to rounding: its gap
        # reaches past an absolute 1e-10 but stays near 1e-16 of its largest entry
        rng = np.random.default_rng(27)
        gaps = []
        for _ in range(10):
            Q, _ = np.linalg.qr(rng.standard_normal((6, 6)))
            A = 1e6 * (Q * rng.uniform(-1.0, 1.0, 6)) @ Q.T
            gaps.append(np.max(np.abs(A - A.T)))
            assert gaps[-1] < 1e-14 * np.max(np.abs(A))
            inst = QipInstance(b=[1.0], regularizer=L1(0.1), matrices=[A])
            np.testing.assert_array_equal(inst.lower[0], A[np.tril_indices(6)])
        assert max(gaps) > 1e-10

    def test_packed_stack_is_the_only_copy(self):
        rng = np.random.default_rng(28)
        d, m = 64, 256
        inst = random_dense_instance(rng, d=d, m=m)
        n = d * (d + 1) // 2
        assert inst.lower.shape == (m, n) and inst.lower.flags.c_contiguous
        assert inst.lower.nbytes == m * n * 8
        held = [v for v in vars(inst).values() if isinstance(v, np.ndarray)]
        assert max(v.size for v in held) == m * n
        assert not hasattr(inst, "matrices")

    def test_matrices_build_peaks_near_twice_the_packed_rows(self):
        # bpg generate's path at the benchmark's dense size.  The symmetry
        # check holds the strictly lower and upper halves of the stack, just
        # under 2x the packed rows, and frees them before the rows are packed
        # and frozen in place; a full (m, d, d) temporary adds 2x, and a copy
        # of the packed rows 1x.
        rng = np.random.default_rng(30)
        d, m = 64, 256
        raw = rng.standard_normal((m, d, d))
        matrices = 0.5 * (raw + np.transpose(raw, (0, 2, 1)))
        b = rng.standard_normal(m)
        del raw
        tracemalloc.start()
        try:
            inst = QipInstance(b=b, regularizer=L1(0.1), matrices=matrices)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert inst.lower.flags.c_contiguous and not inst.lower.flags.writeable
        np.testing.assert_array_equal(inst.lower, matrices[:, *np.tril_indices(d)])
        assert peak <= 2.0 * inst.lower.nbytes

    @pytest.mark.parametrize("shape", [(3,), (2, 4), (2, 0), (2, 3, 3)])
    def test_lower_needs_triangular_rows(self, shape):
        with pytest.raises(ValueError, match="lower must have shape"):
            QipInstance(b=np.ones(2), regularizer=L1(0.1), lower=np.ones(shape))

    @pytest.mark.parametrize("data, message", [
        ({"b": np.ones(3), "factors": np.ones(3)}, r"factors must have shape \(m, d\), got \(3,\)"),
        ({"b": np.ones(2), "matrices": np.ones((2, 2, 3))},
         r"matrices must have shape \(m, d, d\), got \(2, 2, 3\)"),
        ({"b": np.ones(2), "matrices": np.eye(2)}, r"matrices must have shape \(m, d, d\), got \(2, 2\)"),
        ({"b": np.ones(2), "factors": np.ones((3, 2))}, r"b has shape \(2,\), expected \(3,\)"),
        ({"b": np.ones(2), "lower": np.ones((3, 3))}, r"b has shape \(2,\), expected \(3,\)"),
        ({"b": np.ones(1), "factors": np.zeros((1, 0))}, r"factors must have shape \(m, d\), got \(1, 0\)"),
    ], ids=["factors-1d", "matrices-not-square", "matrices-2d", "b-short-rank-one", "b-short-dense",
            "factors-no-columns"])
    def test_rejects_misshapen_data(self, data, message):
        with pytest.raises(ValueError, match=message):
            QipInstance(regularizer=L1(0.1), **data)

    def test_rejects_unknown_regularizer(self):
        with pytest.raises(TypeError, match="regularizer must be L1 or L0Ball, got str"):
            QipInstance(b=[1.0], regularizer="l1", matrices=[np.eye(2)])

    def test_lower_and_matrices_agree(self):
        rng = np.random.default_rng(29)
        full = random_dense_instance(rng, d=5, m=4)
        packed = QipInstance(b=full.b, regularizer=full.regularizer, lower=full.lower)
        assert packed.d == 5 and packed.m == 4
        np.testing.assert_array_equal(dense_stack(packed), dense_stack(full))
        with pytest.raises(ValueError, match="exactly one"):
            QipInstance(b=full.b, regularizer=full.regularizer, lower=full.lower,
                        matrices=dense_stack(full))

    @pytest.mark.parametrize("field", ["b", "matrices", "factors"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite(self, field, bad):
        data = {"b": np.ones(2), "matrices": np.stack([np.eye(2)] * 2)}
        if field == "factors":
            data = {"b": np.ones(2), "factors": np.ones((2, 2))}
        data[field].flat[-1] = bad
        with pytest.raises(ValueError, match=f"{field} must be finite"):
            QipInstance(regularizer=L1(0.1), **data)

    def test_rejects_bad_sparsity(self):
        with pytest.raises(ValueError):
            QipInstance(b=[1.0], regularizer=L0Ball(s=2), matrices=[np.eye(2)])
        for bad in (0, 2.0, np.inf, np.nan, True):
            with pytest.raises(ValueError, match="sparsity level"):
                L0Ball(s=bad)
        for bad in ("0.1", True, 10**400, 10**5000, -1, np.nan):
            with pytest.raises(ValueError, match="l1 weight"):
                L1(theta=bad)
        # an integer past Python's 4300-digit string limit is shown by its size
        with pytest.raises(ValueError, match=r"float64 range, got an integer of 16610 bits$"):
            L1(theta=10**5000)
        assert type(L0Ball(s=np.int64(2)).s) is int and type(L1(theta=np.float64(0.5)).theta) is float

    def test_rank_one_dense_agree(self):
        rng = np.random.default_rng(20)
        factors = rng.standard_normal((4, 3))
        b = rng.standard_normal(4)
        r1 = QipInstance(b=b, regularizer=L1(0.1), factors=factors)
        dense = QipInstance(b=b, regularizer=L1(0.1), matrices=dense_stack(r1))
        x = rng.standard_normal(3)
        assert qip_value(r1, x) == pytest.approx(qip_value(dense, x), rel=1e-12)
        np.testing.assert_allclose(qip_gradient(r1, x), qip_gradient(dense, x), rtol=1e-12)
        # both encodings certify the same L*
        assert r1.smad_certificate().L == pytest.approx(dense.smad_certificate().L, rel=1e-10)


class TestObjective:
    def test_exact_fit_gives_zero(self):
        inst = QipInstance(b=[1.0], regularizer=L1(0.1), matrices=[np.eye(2)])
        assert qip_value(inst, np.array([1.0, 0.0])) == 0.0

    def test_simple_value(self):
        inst = QipInstance(b=[0.0], regularizer=L1(0.1), matrices=[np.eye(2)])
        assert qip_value(inst, np.array([1.0, 1.0])) == pytest.approx(1.0)

    def test_value_matches_naive_triple_loop(self):
        rng = np.random.default_rng(21)
        inst = random_dense_instance(rng, d=4, m=6)
        x = rng.standard_normal(4)
        assert qip_value(inst, x) == pytest.approx(triple_loop_value(inst, x), rel=1e-12)

    def test_gradient_at_zero(self):
        rng = np.random.default_rng(22)
        inst = random_dense_instance(rng, d=3, m=4)
        np.testing.assert_array_equal(qip_gradient(inst, np.zeros(3)), np.zeros(3))

    def test_gradient_simple(self):
        inst = QipInstance(b=[0.0], regularizer=L1(0.1), matrices=[np.eye(2)])
        np.testing.assert_allclose(qip_gradient(inst, np.array([1.0, 0.0])), [1.0, 0.0])

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(23)
        inst = random_dense_instance(rng, d=5, m=8)
        for _ in range(5):
            x = rng.standard_normal(5)
            g = qip_gradient(inst, x)
            fd = fd_gradient(lambda u: qip_value(inst, u), x)
            np.testing.assert_allclose(g, fd, rtol=1e-6, atol=1e-7)

    def test_dimension_mismatch(self):
        inst = QipInstance(b=[0.0], regularizer=L1(0.1), matrices=[np.eye(2)])
        with pytest.raises(ValueError):
            qip_value(inst, np.zeros(3))


class TestBatchedOracle:
    @pytest.mark.parametrize("kind", ["dense", "rank-one"])
    @pytest.mark.parametrize("batch", [(6,), (2, 3)], ids=["n", "n1-n2"])
    def test_batch_matches_rows(self, kind, batch):
        rng = np.random.default_rng(26)
        d, m = 5, 7
        if kind == "dense":
            inst = random_dense_instance(rng, d=d, m=m)
        else:
            inst = QipInstance(b=rng.standard_normal(m), regularizer=L1(0.1),
                               factors=rng.standard_normal((m, d)))
        X = rng.standard_normal(batch + (d,))
        values, grads = qip_value(inst, X), qip_gradient(inst, X)
        assert values.shape == batch and grads.shape == batch + (d,)
        for idx in np.ndindex(*batch):
            x = X[idx]
            g = qip_gradient(inst, x)
            assert values[idx] == pytest.approx(qip_value(inst, x), rel=1e-12)
            np.testing.assert_allclose(grads[idx], g, rtol=1e-12, atol=1e-12 * np.abs(g).max())
        for idx in (np.zeros(len(batch), dtype=int), np.array(batch) - 1):
            x = X[tuple(idx)]
            assert values[tuple(idx)] == pytest.approx(triple_loop_value(inst, x), rel=1e-12)
            fd = fd_gradient(lambda u: qip_value(inst, u), x)
            np.testing.assert_allclose(grads[tuple(idx)], fd, rtol=1e-6, atol=1e-7)


class TestPackedOracle:
    """The packed dense oracle against full-stack einsum contractions."""

    @pytest.mark.parametrize("d", [1, 2, 5, 64])
    @pytest.mark.parametrize("batch", [(), (6,), (2, 3)], ids=["single", "n", "n1-n2"])
    def test_matches_full_stack_einsum(self, d, batch):
        rng = np.random.default_rng(30 + d)
        m = 2 * d + 1
        for scale in 10.0 ** np.arange(-2, 4):  # five decades
            raw = rng.standard_normal((m, d, d))
            matrices = scale * 0.5 * (raw + np.transpose(raw, (0, 2, 1)))
            b = scale * rng.standard_normal(m)
            inst = QipInstance(b=b, regularizer=L1(0.1), matrices=matrices)
            x = rng.standard_normal(batch + (d,))
            value, grad = qip_value(inst, x), qip_gradient(inst, x)
            assert np.shape(value) == batch and grad.shape == batch + (d,)
            np.testing.assert_allclose(value, einsum_qip_value(matrices, b, x), rtol=1e-12)
            expected = einsum_qip_gradient(matrices, b, x)
            err = np.linalg.norm(grad - expected, axis=-1)
            assert np.all(err <= 1e-12 * np.linalg.norm(expected, axis=-1))


def small_instance(kind, seed, regularizer=None):
    """A small dense or rank-one instance; the same seed gives the same data."""
    rng = np.random.default_rng(seed)
    regularizer = regularizer or L1(0.1)
    if kind == "dense":
        return random_dense_instance(rng, d=5, m=7, regularizer=regularizer)
    return QipInstance(b=rng.standard_normal(7), regularizer=regularizer,
                       factors=rng.standard_normal((7, 5)))


def matmul_oracle(inst, x):
    """g and grad g with every product through @; r . r is a stack of (1, m) @ (m, 1)."""
    if inst.factors is not None:
        ax = x @ inst.factors.T
        r = ax * ax - inst.b
        grad = (r * ax) @ inst.factors
    else:
        rows, cols = np.tril_indices(inst.d)
        r = (x[..., rows] * x[..., cols] * np.where(rows == cols, 1.0, 2.0)) @ inst.lower.T - inst.b
        unpack = np.empty((inst.d, inst.d), dtype=np.intp)  # packed index of entry (j, k)
        unpack[rows, cols] = unpack[cols, rows] = np.arange(rows.size)
        S = np.ascontiguousarray((r @ inst.lower)[..., unpack])
        grad = (S @ x[..., None])[..., 0]
    return 0.25 * (r[..., None, :] @ r[..., :, None])[..., 0, 0], grad


def caller_data_instance(kind, seed):
    """(instance, b, data): an instance built from writable arrays the caller keeps."""
    rng = np.random.default_rng(seed)
    b = rng.standard_normal(7)
    if kind == "dense":
        data = random_dense_instance(rng, d=5, m=7).lower.copy()
        return QipInstance(b=b, regularizer=L1(0.1), lower=data), b, data
    data = rng.standard_normal((7, 5))
    return QipInstance(b=b, regularizer=L1(0.1), factors=data), b, data


def fresh_oracle(inst, x):
    """Value and gradient at x from a new instance on the same data."""
    data = {"factors": inst.factors} if inst.factors is not None else {"lower": inst.lower}
    fresh = QipInstance(b=inst.b, regularizer=inst.regularizer, **data)
    return qip_value(fresh, x), qip_gradient(fresh, x)


def same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("kind", ["dense", "rank-one"])
class TestOracleMemo:
    """The fused oracle, and the read-only data it reads; nothing else is kept."""

    def test_fused_oracle_matches_value_and_gradient(self, kind):
        inst = small_instance(kind, 60)
        rng = np.random.default_rng(61)
        for batch in [(), (3,), (2, 3)]:
            x = rng.standard_normal(batch + (5,))
            value, grad = qip_oracle(inst, x)
            assert same_bits(value, qip_value(inst, x))
            assert same_bits(grad, qip_gradient(inst, x))
            # one rank-one point takes ndarray.dot, which must give the bits of @
            expected = matmul_oracle(inst, x)
            assert same_bits(value, expected[0]) and same_bits(grad, expected[1])

    def test_data_is_read_only(self, kind):
        inst, b, data = caller_data_instance(kind, 66)
        stored = inst.lower if kind == "dense" else inst.factors
        with pytest.raises(ValueError, match="read-only"):
            inst.b[0] = 1.0
        with pytest.raises(ValueError, match="read-only"):
            stored[0, 0] = 1.0
        # copies, not views; the caller's arrays stay writable
        assert not np.shares_memory(inst.b, b) and not np.shares_memory(stored, data)
        assert b.flags.writeable and data.flags.writeable

    def test_caller_edits_do_not_reach_the_instance(self, kind):
        inst, b, data = caller_data_instance(kind, 69)
        before = inst.b.copy()
        x, y = np.random.default_rng(70).standard_normal((2, 5))
        value, grad = qip_value(inst, x), qip_gradient(inst, x)
        expected = fresh_oracle(inst, y)
        b[0] += 5.0
        data[0] += 1.0
        assert same_bits(inst.b, before)
        # x was evaluated before the edits, y was not
        assert same_bits(qip_value(inst, x), value) and same_bits(qip_gradient(inst, x), grad)
        assert same_bits(qip_value(inst, y), expected[0])
        assert same_bits(qip_gradient(inst, y), expected[1])

    def test_read_only_views_of_caller_arrays_are_copied(self, kind):
        rng = np.random.default_rng(71)
        b = rng.standard_normal(7)
        data = (random_dense_instance(rng, d=5, m=7).lower.copy() if kind == "dense"
                else rng.standard_normal((7, 5)))
        views = b.view(), data.view()
        for view in views:
            view.flags.writeable = False
        key = "lower" if kind == "dense" else "factors"
        inst = QipInstance(b=views[0], regularizer=L1(0.1), **{key: views[1]})
        x = rng.standard_normal(5)
        value, grad = qip_value(inst, x), qip_gradient(inst, x)
        b[0] += 5.0
        data[0] += 1.0
        assert same_bits(qip_value(inst, x), value) and same_bits(qip_gradient(inst, x), grad)
        assert not np.shares_memory(inst.b, b) and not np.shares_memory(getattr(inst, key), data)

    def test_data_in_bytes_is_kept(self, kind):
        # an immutable bytes object, as a loaded file's arrays are: no copy
        inst = small_instance(kind, 72)
        key = "lower" if kind == "dense" else "factors"
        frozen = [np.frombuffer(a.tobytes()).reshape(a.shape) for a in (inst.b, getattr(inst, key))]
        kept = QipInstance(b=frozen[0], regularizer=inst.regularizer, **{key: frozen[1]})
        assert kept.b is frozen[0] and getattr(kept, key) is frozen[1]

    def test_one_residual_pass_per_iteration(self, kind, monkeypatch):
        reg = L1(0.1) if kind == "dense" else L0Ball(2)
        inst = small_instance(kind, 67, reg)
        prob = make_problem(inst, Kernel.quartic(5))
        misses = []
        residuals = bpg.qip._residuals

        def counted(inst, x):
            misses.append(x.shape)
            return residuals(inst, x)

        monkeypatch.setattr(bpg.qip, "_residuals", counted)
        x0 = np.random.default_rng(68).standard_normal(5)
        res = run_bpg(prob, BpgConfig(x0=x0, max_iters=20, tol_step=0.0))
        assert res.iterations == 20
        assert len(misses) == res.iterations + 1

    def test_threads_sharing_a_problem(self, kind):
        # bpg solve runs its starts one after another, but a library caller
        # may share one instance across its own threads, and the instance
        # keeps no state between calls: here on more threads than cores,
        # switching as often as possible, every run keeps the bits it has alone
        reg = L1(0.1) if kind == "dense" else L0Ball(2)
        prob = make_problem(small_instance(kind, 69, reg), Kernel.quartic(5))
        rng = np.random.default_rng(70)
        configs = [BpgConfig(x0=rng.standard_normal(5), max_iters=300, tol_step=0.0)
                   for _ in range(min((os.cpu_count() or 1) + 1, 16))]
        alone = [run_bpg(prob, c) for c in configs]
        results = [None] * len(configs)
        barrier = threading.Barrier(len(configs))

        def run(i):
            barrier.wait(timeout=60)
            results[i] = run_bpg(prob, configs[i])

        threads = [threading.Thread(target=run, args=(i,)) for i in range(len(configs))]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        for shared, single in zip(results, alone):
            assert same_bits(shared.x, single.x)
            for name in ("psi", "dh_gap", "step_norm", "witness_norm"):
                assert same_bits(shared.trace.column(name), single.trace.column(name))


class TestPLambda:
    def test_zero_point(self):
        rng = np.random.default_rng(24)
        inst = random_dense_instance(rng, d=3, m=4)
        k = Kernel.quartic(3)
        np.testing.assert_array_equal(p_lambda(inst, k, 0.5, np.zeros(3)), np.zeros(3))

    def test_simple(self):
        inst = QipInstance(b=[0.0], regularizer=L1(0.1), matrices=[np.eye(2)])
        k = Kernel.quartic(2)
        np.testing.assert_allclose(p_lambda(inst, k, 1.0, np.array([1.0, 0.0])), [-1.0, 0.0])

    def test_definition(self):
        rng = np.random.default_rng(25)
        inst = random_dense_instance(rng, d=4, m=5)
        k = Kernel.quartic(4)
        x = rng.standard_normal(4)
        lam = 0.3
        expected = lam * qip_gradient(inst, x) - k.gradient(x)
        np.testing.assert_allclose(p_lambda(inst, k, lam, x), expected, atol=1e-14)

    def test_nonpositive_step_rejected(self):
        inst = QipInstance(b=[0.0], regularizer=L1(0.1), matrices=[np.eye(2)])
        with pytest.raises(ValueError):
            p_lambda(inst, Kernel.quartic(2), 0.0, np.zeros(2))

    def test_bad_dimension_rejected(self):
        inst = QipInstance(b=[0.0], regularizer=L1(0.1), matrices=[np.eye(2)])
        with pytest.raises(ValueError, match=r"trailing dimension \(3,\), instance expects \(2,\)"):
            p_lambda(inst, Kernel.quartic(2), 1.0, [1.0, 0.0, 0.0])

    def test_not_exported_from_the_package(self):
        # p_lambda and smad.spectral_norm stay where the benchmark's tracer finds them
        assert not hasattr(bpg, "p_lambda") and not hasattr(bpg, "spectral_norm")
        assert callable(bpg.qip.p_lambda) and callable(bpg.smad.spectral_norm)


class TestThresholds:
    def test_soft_basic(self):
        np.testing.assert_allclose(
            soft_threshold(np.array([2.0, -1.0, 0.5]), 1.5), [0.5, 0.0, 0.0]
        )

    def test_soft_zero_tau_identity(self):
        y = np.array([1.0, -2.0, 0.0])
        np.testing.assert_array_equal(soft_threshold(y, 0.0), y)

    @pytest.mark.parametrize("bad", [-1.0, np.nan, True, "1"])
    def test_bad_threshold_rejected(self, bad):
        # a bool or a string is no number: True would threshold at 1
        message = ("threshold must be nonnegative" if isinstance(bad, float)
                   else f"threshold tau must be a real number in the float64 range, got {bad!r}")
        for shrink in (soft_threshold, prox_l1):
            with pytest.raises(ValueError, match=message):
                shrink(np.ones(3), bad)

    def test_numpy_scalar_threshold(self):
        y = np.array([2.0, -1.0, 0.5])
        np.testing.assert_array_equal(soft_threshold(y, np.float64(0.75)), soft_threshold(y, 0.75))
        np.testing.assert_array_equal(hard_threshold(y, np.int64(2)), hard_threshold(y, 2))

    def test_soft_matches_scalar_oracle(self):
        # per-coordinate minimization of tau|x| + (x - y)^2 / 2 by bisection
        # on the stationarity condition, equivalent to grid refinement
        rng = np.random.default_rng(26)
        for _ in range(20):
            y = rng.standard_normal(4) * 3.0
            tau = float(rng.random() * 2.0)
            out = soft_threshold(y, tau)
            for yi, oi in zip(y, out):
                grid = np.linspace(yi - 2 * tau - 1, yi + 2 * tau + 1, 20001)
                vals = tau * np.abs(grid) + 0.5 * (grid - yi) ** 2
                assert abs(grid[np.argmin(vals)] - oi) <= 1e-3

    def test_hard_basic(self):
        np.testing.assert_allclose(
            hard_threshold(np.array([3.0, -1.0, 2.0, 0.5]), 2), [3.0, 0.0, 2.0, 0.0]
        )

    def test_hard_full_identity(self):
        y = np.array([1.0, -2.0, 3.0])
        np.testing.assert_array_equal(hard_threshold(y, 3), y)

    def test_hard_tie_break_lowest_index(self):
        np.testing.assert_allclose(
            hard_threshold(np.array([1.0, -1.0, 1.0]), 2), [1.0, -1.0, 0.0]
        )

    def test_hard_out_of_range(self):
        for bad in (0, 4, 2.0, np.inf, np.nan, True):
            with pytest.raises(ValueError, match="sparsity level"):
                hard_threshold(np.ones(3), bad)

    def test_hard_needs_one_vector(self):
        for bad in (np.ones((2, 3)), 1.0):
            with pytest.raises(ValueError, match="hard_threshold expects a single vector"):
                hard_threshold(bad, 1)

    def test_hard_norm_matches_enumeration(self):
        # ||H_s(a)|| is the max of <a, z> over unit vectors with s nonzeros
        rng = np.random.default_rng(27)
        for _ in range(20):
            a = rng.standard_normal(4)
            value = np.linalg.norm(hard_threshold(a, 2))
            assert value == pytest.approx(enum_truncation_max(a, 2), rel=1e-12)


class TestCubics:
    def test_l1_exact_cases(self):
        assert cubic_root_l1(0.0) == pytest.approx(1.0, abs=1e-14)
        assert cubic_root_l1(4.0) == pytest.approx(0.5, abs=1e-14)

    def test_l1_matches_bisection(self):
        t = cubic_root_l1(2.0)
        oracle = bisect_root(lambda u: 2.0 * u**3 + u - 1.0, 0.0, 1.0)
        assert t == pytest.approx(oracle, abs=1e-12)

    def test_l0_exact_cases(self):
        assert cubic_root_l0(0.0) == pytest.approx(0.0, abs=1e-14)
        assert cubic_root_l0(2.0) == pytest.approx(1.0, abs=1e-14)
        assert cubic_root_l0(10.0) == pytest.approx(2.0, abs=1e-14)

    def test_residuals_across_magnitudes(self):
        a = 10.0 ** np.linspace(-8, 8, 200)
        t = cubic_root_l1(a)
        assert np.all(np.abs(a * t**3 + t - 1.0) <= 1e-12 * (1.0 + a))
        assert np.all((t > 0) & (t <= 1))
        eta = cubic_root_l0(a)
        assert np.all(np.abs(eta**3 + eta - a) <= 1e-12 * (1.0 + a))
        assert np.all(eta >= 0)

    def test_matches_bisection_at_every_magnitude(self):
        c = np.append(10.0 ** np.linspace(-300, 300, 2001), 1.7e308)
        eta = cubic_root_l0(c)
        # cbrt(c) + 1 bounds the root from above; c**(1/3) may fall below it
        oracle = np.array([bisect_root(lambda u: u**3 + u - ci, 0.0, min(ci, np.cbrt(ci) + 1.0))
                           for ci in c])
        assert np.max(np.abs(eta - oracle) / np.spacing(oracle)) <= 4.0
        a = c[:-1]
        t = cubic_root_l1(a)
        assert np.max(np.abs(a * t**3 + t - 1.0) / (1.0 + a)) <= 1e-15

    def test_monotonicity(self):
        a = np.sort(10.0 ** np.random.default_rng(28).uniform(-6, 6, 100))
        t = cubic_root_l1(a)
        assert np.all(np.diff(t) <= 0)
        eta = cubic_root_l0(a)
        assert np.all(np.diff(eta) >= 0)
        # every magnitude, and steps of a few ulp near 3.8e7, where a closed form
        # split into two regimes would join them
        a = np.sort(np.concatenate([np.geomspace(1e-300, 1.7e308, 20001),
                                    3.8e7 * (1.0 + np.arange(-2000, 2000) * 2.0 ** -50)]))
        assert np.all(np.diff(cubic_root_l1(a)) <= 0)
        assert np.all(np.diff(cubic_root_l0(a)) >= 0)

    def test_l1_and_l0_forms_agree(self):
        # t(a) * sqrt(a) is the root eta(sqrt(a)) of eta^3 + eta = sqrt(a)
        a = np.geomspace(1e-300, 1.7e308, 20001)
        eta = cubic_root_l0(np.sqrt(a))
        assert np.max(np.abs(cubic_root_l1(a) * np.sqrt(a) - eta) / np.spacing(eta)) <= 4.0

    def test_non_finite_rejected(self):
        for solve in (cubic_root_l1, cubic_root_l0):
            for bad in (np.nan, np.inf, -1.0):
                with pytest.raises(ValueError):
                    solve(bad)
                with pytest.raises(ValueError):
                    solve(np.array([1.0, bad]))
            # a scalar coefficient keeps the number rule: never a string, a bool or past float64
            for bad, shown in [("4", "'4'"), (True, "True"), (10**400, "an integer of 1329 bits")]:
                message = f"coefficient must be a real number in the float64 range, got {shown}"
                with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                    solve(bad)
            # numpy scalars and 0-d arrays give the float's root, bit for bit
            for good in (np.int64(4), np.array(4.0)):
                root = solve(good)
                assert type(root) is np.float64 and root == solve(4.0)

    @pytest.mark.parametrize("solve", [cubic_root_l1, cubic_root_l0])
    def test_scalar_and_batched_roots_identical(self, solve):
        rng = np.random.default_rng(31)
        coeffs = np.concatenate([10.0 ** np.linspace(-300, 300, 2001),
                                 rng.uniform(0.0, 10.0, 2000), [0.0, 5e-324, 1.7e308]])
        scalar = np.array([solve(float(c)) for c in coeffs])
        np.testing.assert_array_equal(scalar, solve(coeffs))


class TestProxL1:
    def test_small_driver_maps_to_zero(self):
        p = np.array([0.05, -0.08])
        np.testing.assert_array_equal(prox_l1(p, 0.1), np.zeros(2))

    def test_chained_cubic_example(self):
        out = prox_l1(np.array([-2.0, 0.0]), 0.0)
        np.testing.assert_allclose(out, [1.0, 0.0], atol=1e-12)

    def test_matches_grid_oracle(self):
        rng = np.random.default_rng(29)
        for _ in range(20):
            d = int(rng.integers(2, 4))
            p = rng.standard_normal(d) * 10.0 ** rng.uniform(-1, 1)
            lt = float(rng.random())
            out = prox_l1(p, lt)
            oracle = grid_prox_l1(p, lt)
            obj = l1_prox_objective(p, lt)
            assert np.linalg.norm(out - oracle) <= 1e-3
            assert obj(out[None])[0] <= obj(oracle[None])[0] + 1e-6

    def test_first_order_certificate(self):
        rng = np.random.default_rng(30)
        for _ in range(50):
            d = int(rng.integers(2, 6))
            p = rng.standard_normal(d) * 3.0
            lt = float(rng.random())
            x = prox_l1(p, lt)
            scale = 1.0 + np.sum(x * x)
            for i in range(d):
                if x[i] != 0.0:
                    gamma = np.sign(x[i])
                    assert abs(x[i] * scale + p[i] + lt * gamma) <= 1e-9
                else:
                    # need some gamma in [-1, 1]: equivalent to |p_i| <= lt
                    assert abs(p[i]) <= lt + 1e-9

    def test_odd_symmetry(self):
        rng = np.random.default_rng(31)
        p = rng.standard_normal(5)
        np.testing.assert_allclose(prox_l1(-p, 0.3), -prox_l1(p, 0.3), atol=1e-14)

    def test_radial_optimality_across_scales(self):
        # u = (grad h)^{-1}(-S(p)): ||u||^3 + ||u|| = ||S(p)||
        rng = np.random.default_rng(33)
        tau = 0.1
        for target in 10.0 ** np.linspace(-4, 4, 81):
            direction = rng.standard_normal(6)
            v = target * direction / np.linalg.norm(direction)
            p = v + tau * np.sign(v)  # soft-thresholds back to v
            nv = float(np.linalg.norm(soft_threshold(p, tau)))
            assert nv == pytest.approx(target, rel=1e-12)
            nu = float(np.linalg.norm(prox_l1(p, tau)))
            assert abs(nu**3 + nu - nv) <= 1e-13 * (1.0 + nv)


class TestProxL0:
    def test_zero_driver(self):
        np.testing.assert_array_equal(prox_l0(np.zeros(3), 1), np.zeros(3))

    @pytest.mark.parametrize("bad, message", [
        (True, "sparsity level s must be an integer >= 1, got True"),
        (2.0, "sparsity level s must be an integer >= 1, got 2.0"),
        (0, "sparsity level s must be an integer >= 1, got 0"),
        (3, "l0 sparsity level must satisfy 1 <= s < d, got s=3, d=3"),
    ], ids=["bool", "float", "zero", "equal-to-d"])
    def test_bad_sparsity_rejected(self, bad, message):
        # the rule of L0Ball and of an instance's s < d
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            prox_l0(np.ones(3), bad)

    def test_numpy_integer_sparsity(self):
        p = np.array([0.5, -2.0, 1.0])
        np.testing.assert_array_equal(prox_l0(p, np.int64(2)), prox_l0(p, 2))

    def test_hand_example_sign(self):
        out = prox_l0(np.array([0.0, -2.0, 0.0]), 1)
        np.testing.assert_allclose(out, [0.0, 1.0, 0.0], atol=1e-12)
        obj = l0_prox_objective(np.array([0.0, -2.0, 0.0]))
        assert obj(out[None])[0] == pytest.approx(-1.25, abs=1e-10)
        assert obj(np.array([[0.0, -1.0, 0.0]]))[0] == pytest.approx(2.75)

    def test_matches_support_enumeration_oracle(self):
        rng = np.random.default_rng(32)
        for _ in range(20):
            d = 3
            s = int(rng.integers(1, 3))
            p = rng.standard_normal(d) * 10.0 ** rng.uniform(-1, 1)
            out = prox_l0(p, s)
            oracle = enum_prox_l0(p, s)
            obj = l0_prox_objective(p)
            assert np.linalg.norm(out - oracle) <= 1e-3
            assert obj(out[None])[0] <= obj(oracle[None])[0] + 1e-6

    def test_sparsity_and_support(self):
        rng = np.random.default_rng(33)
        for _ in range(50):
            d = int(rng.integers(3, 8))
            s = int(rng.integers(1, d))
            p = rng.standard_normal(d)
            out = prox_l0(p, s)
            assert np.count_nonzero(out) <= s
            q = hard_threshold(p, s)
            if np.linalg.norm(q) > 0:
                np.testing.assert_array_equal(out != 0, q != 0)

    def test_odd_symmetry(self):
        rng = np.random.default_rng(34)
        p = rng.standard_normal(6)
        np.testing.assert_allclose(prox_l0(-p, 2), -prox_l0(p, 2), atol=1e-14)

    def test_out_of_range(self):
        for bad in (3, 2.0, np.nan):
            with pytest.raises(ValueError):
                prox_l0(np.ones(3), bad)


class TestMakeProblem:
    def test_l1_prox_matches_grid_oracle_through_problem(self):
        rng = np.random.default_rng(35)
        inst = random_dense_instance(rng, d=2, m=3, regularizer=L1(theta=0.1))
        k = Kernel.quartic(2)
        prob = make_problem(inst, k)
        lam = 0.9 / prob.smad.L
        x = rng.standard_normal(2)
        p = p_lambda(inst, k, lam, x)
        out = prob.prox_map(p, lam)
        oracle = grid_prox_l1(p, lam * 0.1)
        assert np.linalg.norm(out - oracle) <= 1e-3

    def test_l0_near_full_support_runs(self):
        rng = np.random.default_rng(36)
        inst = random_dense_instance(rng, d=4, m=5, regularizer=L0Ball(s=3))
        k = Kernel.quartic(4)
        prob = make_problem(inst, k)
        lam = 0.5 / prob.smad.L
        out = prob.prox_map(p_lambda(inst, k, lam, rng.standard_normal(4)), lam)
        assert np.count_nonzero(out) <= 3

    @pytest.mark.parametrize("kind", ["rank-one", "dense"])
    def test_builds_the_quartic_kernel(self, kind):
        rng = np.random.default_rng(41)
        if kind == "rank-one":
            inst = QipInstance(b=rng.standard_normal(8), regularizer=L0Ball(s=2),
                               factors=rng.standard_normal((8, 5)))
        else:
            inst = random_dense_instance(rng, d=5, m=8)
        built, passed = make_problem(inst), make_problem(inst, Kernel.quartic(5))
        assert built.kernel == passed.kernel == Kernel.quartic(5)
        assert built.smad == passed.smad
        config = BpgConfig(x0=hard_threshold(rng.standard_normal(5), 2),
                           lam=0.9 / built.smad.L, max_iters=50, tol_step=0.0)
        ours, theirs = run_bpg(built, config).trace, run_bpg(passed, config).trace
        assert len(ours) == 51
        for name in ours.COLUMNS[:-1]:  # all but the wall clock
            assert ours.column(name).tobytes() == theirs.column(name).tobytes()

    def test_energy_kernel_requires_override(self):
        rng = np.random.default_rng(37)
        inst = random_dense_instance(rng, d=3, m=4)
        with pytest.raises(ValueError, match=r"needs Kernel\.quartic\(3\)"):
            make_problem(inst, EnergyKernel())

    def test_dimension_mismatch(self):
        rng = np.random.default_rng(39)
        inst = random_dense_instance(rng, d=3, m=4)
        with pytest.raises(ValueError, match=r"needs Kernel\.quartic\(3\)"):
            make_problem(inst, Kernel.quartic(4))

    def test_f_value_bookkeeping(self):
        rng = np.random.default_rng(40)
        inst = random_dense_instance(rng, d=3, m=4, regularizer=L0Ball(s=1))
        prob = make_problem(inst, Kernel.quartic(3))
        assert prob.f_value(np.array([1.0, 0.0, 0.0])) == 0.0
        assert prob.f_value(np.array([1.0, 2.0, 0.0])) == np.inf
        assert prob.psi_lower_bound == 0.0
        inst = random_dense_instance(rng, d=3, m=4, regularizer=L1(theta=0.5))
        prob = make_problem(inst, Kernel.quartic(3))
        assert prob.f_value(np.array([1.0, -2.0, 0.0])) == 1.5
        assert prob.f_value(np.zeros(3)) == 0.0
