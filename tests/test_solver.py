import dataclasses

import numpy as np
import pytest

from conftest import random_dense_instance, random_regularizer
from oracles import EnergyKernel, grid_minimize, linalg_norm

from bpg import (
    BpgConfig,
    DecreaseViolationError,
    DivergenceError,
    IterateTrace,
    Kernel,
    L0Ball,
    L1,
    Problem,
    QipInstance,
    SmadCertificate,
    bpg_step,
    make_problem,
    min_gap_bound,
    p_lambda,
    run_bpg,
)
import bpg.qip
from bpg.solver import DIVERGENCE_NORM, _guard_iterate


def quadratic_problem(c):
    """f == 0, g = ||x - c||^2 / 2 with the energy kernel; prox is a gradient step."""
    c = np.asarray(c, dtype=float)
    return Problem(
        g_value=lambda x: 0.5 * np.sum((x - c) ** 2, axis=-1),
        g_gradient=lambda x: x - c,
        prox_map=lambda x, lam: x - lam * (x - c),
        f_value=lambda x: 0.0,
        kernel=EnergyKernel(),
        smad=SmadCertificate(L=1.0, source="D_g = D_h"),
        psi_lower_bound=0.0,
    )


class TestBpgStep:
    def test_gradient_step_special_case(self):
        prob = quadratic_problem([0.0, 0.0])
        out = bpg_step(prob, 0.5, np.array([2.0, 0.0])).x
        np.testing.assert_allclose(out, [1.0, 0.0])

    def test_stationary_point_is_fixed(self):
        c = np.array([1.5, -0.5])
        prob = quadratic_problem(c)
        np.testing.assert_allclose(bpg_step(prob, 0.5, c).x, c)

    def test_qip_l1_step_matches_grid_oracle(self):
        inst_matrices = np.array([np.diag([1.0, 2.0])])
        from bpg import QipInstance

        inst = QipInstance(b=[1.0], regularizer=L1(theta=0.1), matrices=inst_matrices)
        k = Kernel.quartic(2)
        prob = make_problem(inst, k)
        lam = 0.9 / prob.smad.L
        x = np.array([1.0, 1.0])
        out = bpg_step(prob, lam, x).x
        # independent minimization of the step model
        # lam*f(u) + lam*<grad g(x), u - x> + D_h(u, x) over a refined grid
        gx = prob.g_gradient(x)

        def model(u):
            u = np.atleast_2d(u)
            lin = (u - x) @ gx
            return lam * 0.1 * np.sum(np.abs(u), axis=1) + lam * lin + k.bregman(u, np.broadcast_to(x, u.shape))

        oracle, _ = grid_minimize(model, 2, radius=3.0, rounds=10, pts=41)
        assert np.linalg.norm(out - oracle) <= 1e-3

    def test_decrease_violation_detected(self):
        # lie about the adaptability constant and take a huge step
        rng = np.random.default_rng(50)
        inst = random_dense_instance(rng, d=4, m=6, regularizer=L1(theta=0.05))
        prob = make_problem(inst, Kernel.quartic(4))
        true_L = prob.smad.L
        lying = dataclasses.replace(prob, smad=SmadCertificate(L=true_L / 50.0, source="test"))
        config = BpgConfig(x0=5.0 * np.ones(4), lam=0.99 / lying.smad.L, max_iters=200)
        with pytest.raises(DecreaseViolationError):
            run_bpg(lying, config)

    @pytest.mark.parametrize("bad", [
        [np.nan, 0.0],
        [np.inf, 0.0],
        # finite, but the square sum overflows: numpy's dot warns, and the
        # warning is an error under this suite's filter
        [1e200, 1e200],
        [DIVERGENCE_NORM * (1.0 + 1e-12), 0.0],
    ], ids=["nan", "inf", "square-overflow", "past-guard"])
    def test_non_finite_prox_output(self, bad):
        bad = np.array(bad)
        with np.errstate(over="ignore"):
            assert not linalg_norm(bad) <= DIVERGENCE_NORM
        prob = quadratic_problem([0.0, 0.0])
        prob.prox_map = lambda x, lam: bad
        with pytest.raises(DivergenceError):
            bpg_step(prob, 0.5, np.array([1.0, 0.0]))

    def test_step_size_beyond_one_over_L_rejected(self):
        # lam*L = 1.5 makes the decrease check vacuous
        prob = quadratic_problem([0.0, 0.0])
        with pytest.raises(ValueError, match=r"lam\*L"):
            bpg_step(prob, 1.5, np.array([2.0, 0.0]))

    def test_lower_bound_enforced(self):
        # Psi(x+) = 0.5 is below the declared bound 1.0
        prob = quadratic_problem([0.0, 0.0])
        prob.psi_lower_bound = 1.0
        with pytest.raises(ValueError, match="lower bound"):
            bpg_step(prob, 0.5, np.array([2.0, 0.0]))


class TestRunBpg:
    def test_contraction_converges(self):
        c = np.array([2.0, -3.0])
        prob = quadratic_problem(c)
        res = run_bpg(prob, BpgConfig(x0=np.array([100.0, 50.0]), lam=0.5, max_iters=200,
                                      tol_step=1e-12))
        assert res.iterations <= 60
        np.testing.assert_allclose(res.x, c, atol=1e-10)
        assert res.reason == "step_tolerance"

    def test_max_iters_zero_is_clean(self):
        prob = quadratic_problem([0.0, 0.0])
        res = run_bpg(prob, BpgConfig(x0=np.ones(2), lam=0.5, max_iters=0))
        assert res.iterations == 0
        assert res.reason == "max_iters"
        assert res.summary()["final_witness_norm"] is None

    @pytest.mark.parametrize("field, value", [
        ("x0", np.array([1.0, np.nan])),
        ("max_iters", -1),
        ("max_iters", 1e3),
        ("max_iters", "10"),
        ("tol_step", np.nan),
        ("tol_residual", -1.0),
        ("x0", np.ones((2, 4))),
        ("x0", np.ones((1, 4))),
    ])
    def test_config_validation(self, field, value):
        fields = {"x0": np.ones(2), field: value}
        name = "starting point" if field == "x0" else field
        with pytest.raises(ValueError, match=name):
            BpgConfig(**fields)

    def test_step_size_validation(self):
        prob = quadratic_problem([0.0, 0.0])
        with pytest.raises(ValueError):
            run_bpg(prob, BpgConfig(x0=np.ones(2), lam=1.5, max_iters=10))
        with pytest.raises(ValueError):
            run_bpg(prob, BpgConfig(x0=np.ones(2), lam=-0.1, max_iters=10))

    def test_divergence_guard(self):
        d = 2
        prob = Problem(
            g_value=lambda x: -np.sum(x * x, axis=-1),
            g_gradient=lambda x: -2.0 * x,
            prox_map=lambda x, lam: 2.0 * x,
            f_value=lambda x: 0.0,
            kernel=EnergyKernel(),
            smad=SmadCertificate(L=1.0, source="test"),
            psi_lower_bound=-1e30,
        )
        with pytest.raises(DivergenceError):
            run_bpg(prob, BpgConfig(x0=np.ones(d), lam=0.5, max_iters=100))

    def test_square_sum_overflow_is_divergence(self):
        # under this suite's error filter for RuntimeWarning, numpy's dot
        # raises its overflow warning; the guard must still report divergence
        with pytest.raises(DivergenceError):
            _guard_iterate(np.full(8, 1e200))
        prob = quadratic_problem([0.0, 0.0])
        prob.prox_map = lambda x, lam: np.full(2, 1e200)
        with pytest.raises(DivergenceError):
            run_bpg(prob, BpgConfig(x0=np.ones(2), lam=0.5, max_iters=5))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_psi_after_a_step_is_a_decrease_violation(self, bad):
        # Psi(x0) = 2; the step halves x, and g is `bad` left of x[0] = 1.5
        prob = quadratic_problem([0.0, 0.0])
        g = prob.g_value
        prob.g_value = lambda x: bad if x[0] < 1.5 else g(x)
        with pytest.raises(DecreaseViolationError):
            run_bpg(prob, BpgConfig(x0=np.array([2.0, 0.0]), lam=0.5, max_iters=5))

    def test_nan_psi_at_start_rejected(self):
        prob = quadratic_problem([0.0, 0.0])
        prob.g_value = lambda x: np.nan
        prob.prox_map = lambda x, lam: 2.0 * x
        x0 = np.array([1.0, 0.0])
        with pytest.raises(ValueError, match=r"Psi\(x0\)=nan is NaN or below"):
            run_bpg(prob, BpgConfig(x0=x0, lam=0.5, max_iters=5))
        # a step from a NaN Psi(x) is checked, not skipped like an infeasible one
        with pytest.raises(DecreaseViolationError):
            bpg_step(prob, 0.5, x0)

    def test_random_qip_l1_guarantees(self):
        rng = np.random.default_rng(51)
        inst = random_dense_instance(rng, d=10, m=20, regularizer=L1(theta=0.1))
        prob = make_problem(inst, Kernel.quartic(10))
        lam = 0.99 / prob.smad.L
        config = BpgConfig(x0=rng.standard_normal(10), lam=lam, max_iters=100_000,
                           tol_step=1e-12, tol_residual=1e-6, keep_iterates=True)
        res = run_bpg(prob, config)
        trace = res.trace
        L = prob.smad.L
        psi = trace.psi

        # nonincreasing objective
        assert np.all(np.diff(psi) <= 1e-8 * (1.0 + np.abs(psi[:-1])))
        # per-step sufficient decrease
        decrease = lam * (psi[:-1] - psi[1:])
        required = (1.0 - lam * L) * trace.dh_gap[1:]
        assert np.all(decrease >= required - 1e-8 * (1.0 + np.abs(psi[:-1])))
        # summability bound on all partial sums
        partial = np.cumsum(trace.dh_gap[1:])
        budget = lam * (psi[0] - prob.psi_lower_bound) / (1.0 - lam * L)
        assert np.all(partial <= budget + 1e-8 * (1.0 + budget))
        # strong convexity step bound (sigma = 1)
        n = res.iterations
        best_sq = np.min(trace.step_norm[1:] ** 2)
        assert best_sq <= lam * (psi[0] - 0.0) / (n * (1.0 - lam * L)) + 1e-12
        # condition (C1) with explicit constant
        c1 = (1.0 / lam - L) * 0.5 * trace.step_norm[1:] ** 2
        assert np.all(psi[:-1] - psi[1:] >= c1 - 1e-8 * (1.0 + np.abs(psi[:-1])))
        # witness small at termination
        assert res.reason in ("step_tolerance", "residual_tolerance")
        assert res.final_witness_norm <= 1e-6

        # condition (C2): witness bounded by observed local Lipschitz modulus
        it = res.iterates
        steps = np.linalg.norm(np.diff(it, axis=0), axis=1)
        gdiff = np.array([np.linalg.norm(prob.g_gradient(it[i + 1]) - prob.g_gradient(it[i]))
                          for i in range(len(it) - 1)])
        hdiff = np.array([np.linalg.norm(prob.kernel.gradient(it[i + 1]) - prob.kernel.gradient(it[i]))
                          for i in range(len(it) - 1)])
        pos = steps > 0
        M = max(np.max(gdiff[pos] / steps[pos]), np.max(hdiff[pos] / steps[pos]))
        rho2 = M * (1.0 + 1.0 / lam)
        assert np.all(trace.witness_norm[1:] <= rho2 * trace.step_norm[1:] * (1.0 + 1e-9) + 1e-15)

    def test_call_budget(self, monkeypatch):
        # per iteration at most 3 oracle calls (g or grad g) and 4 grad h
        # calls; 2 oracle calls at the start
        rng = np.random.default_rng(56)
        inst = random_dense_instance(rng, d=4, m=6, regularizer=L1(theta=0.1))
        prob = make_problem(inst, Kernel.quartic(4))
        counts = {"oracle": 0, "grad_h": 0}

        def counted(fn, key):
            def wrapper(*args):
                counts[key] += 1
                return fn(*args)
            return wrapper

        monkeypatch.setattr(bpg.qip, "qip_value", counted(bpg.qip.qip_value, "oracle"))
        monkeypatch.setattr(bpg.qip, "qip_gradient", counted(bpg.qip.qip_gradient, "oracle"))
        monkeypatch.setattr(Kernel, "gradient", counted(Kernel.gradient, "grad_h"))
        res = run_bpg(prob, BpgConfig(x0=rng.standard_normal(4), max_iters=20, tol_step=0.0))
        iters = res.iterations
        assert iters == 20
        assert 0 < counts["oracle"] <= 3 * iters + 2
        assert 0 < counts["grad_h"] <= 4 * iters

    def test_trace_norms_match_linalg_norm(self):
        # rank-one d=8 l0: the phase-retrieval benchmark's shape
        rng = np.random.default_rng(57)
        factors = rng.standard_normal((16, 8))
        x_true = np.zeros(8)
        x_true[[1, 5]] = rng.standard_normal(2)
        inst = QipInstance(b=(factors @ x_true) ** 2, regularizer=L0Ball(2), factors=factors)
        prob = make_problem(inst, Kernel.quartic(8))
        lam = 0.99 / prob.smad.L
        res = run_bpg(prob, BpgConfig(x0=rng.standard_normal(8), lam=lam, max_iters=200,
                                      tol_step=0.0, keep_iterates=True))
        it, h = res.iterates, prob.kernel
        assert res.iterations == 200
        for k in range(1, len(it)):
            w = (prob.g_gradient(it[k]) - prob.g_gradient(it[k - 1])
                 + (h.gradient(it[k - 1]) - h.gradient(it[k])) / lam)
            assert res.trace.witness_norm[k] == linalg_norm(w)
            assert res.trace.step_norm[k] == linalg_norm(it[k] - it[k - 1])

    def test_witness_zero_implies_fixed_point(self):
        rng = np.random.default_rng(52)
        inst = random_dense_instance(rng, d=5, m=8, regularizer=L1(theta=0.2))
        prob = make_problem(inst, Kernel.quartic(5))
        lam = 0.9 / prob.smad.L
        res = run_bpg(prob, BpgConfig(x0=rng.standard_normal(5), lam=lam, max_iters=50_000,
                                      tol_step=1e-14))
        # near-zero witness at termination: another step barely moves
        x_again = bpg_step(prob, lam, res.x).x
        assert np.linalg.norm(x_again - res.x) <= 1e-8 * (1.0 + np.linalg.norm(res.x))


class TestSubgradientWitness:
    def test_fixed_point_gives_zero(self):
        prob = quadratic_problem([1.0, 2.0])
        x = np.array([1.0, 2.0])
        np.testing.assert_allclose(bpg_step(prob, 0.5, x).witness, [0.0, 0.0])

    def test_analytic_example(self):
        prob = quadratic_problem([0.0, 0.0])
        x0 = np.array([2.0, 0.0])
        step = bpg_step(prob, 0.5, x0)
        np.testing.assert_allclose(step.x, [1.0, 0.0])
        np.testing.assert_allclose(step.witness, [1.0, 0.0])
        np.testing.assert_allclose(step.witness, prob.g_gradient(step.x))  # grad Psi(x1)


class TestMinGapBound:
    def test_hand_computed_example(self):
        prob = quadratic_problem([0.0, 0.0])
        res = run_bpg(prob, BpgConfig(x0=np.array([1.0, 0.0]), lam=0.5, max_iters=1))
        observed, bound = min_gap_bound(res.trace, 0.5, 1.0, 0.0)
        assert observed == pytest.approx(0.125)
        assert bound == pytest.approx(0.5)
        assert observed <= bound

    def test_qip_after_many_iterations(self):
        rng = np.random.default_rng(53)
        inst = random_dense_instance(rng, d=6, m=10, regularizer=L1(theta=0.1))
        prob = make_problem(inst, Kernel.quartic(6))
        lam = 0.99 / prob.smad.L
        res = run_bpg(prob, BpgConfig(x0=rng.standard_normal(6), lam=lam,
                                      max_iters=1000, tol_step=0.0))
        n = res.iterations
        observed, bound = min_gap_bound(res.trace, lam, prob.smad.L, 0.0, n=n)
        assert observed <= bound

    def test_empty_trace_rejected(self):
        trace = IterateTrace()
        trace.append(0, 1.0, 0.0, 0.0, np.nan, 0.0)
        with pytest.raises(ValueError):
            min_gap_bound(trace, 0.5, 1.0, 0.0)


class TestTrace:
    def test_csv_export(self, tmp_path):
        prob = quadratic_problem([0.0, 0.0])
        res = run_bpg(prob, BpgConfig(x0=np.array([1.0, 0.0]), lam=0.5, max_iters=5))
        again = run_bpg(prob, BpgConfig(x0=np.array([1.0, 0.0]), lam=0.5, max_iters=5))
        paths = [tmp_path / "trace.csv", tmp_path / "again.csv"]
        res.trace.to_csv(paths[0])
        again.trace.to_csv(paths[1])
        lines = paths[0].read_text().strip().splitlines()
        assert lines[0] == "k,psi,dh_gap,step_norm,witness_norm"
        assert len(lines) == len(res.trace) + 1
        assert all(line.count(",") == 4 for line in lines)
        # no wall clock in the file, so identical runs write identical bytes;
        # the timings stay in memory
        assert paths[0].read_bytes() == paths[1].read_bytes()
        assert len(res.trace.elapsed_s) == len(res.trace)

    def test_summary(self):
        prob = quadratic_problem([1.0, 1.0])
        res = run_bpg(prob, BpgConfig(x0=np.zeros(2), lam=0.5, max_iters=100))
        summary = res.summary()
        assert summary["termination"] == "step_tolerance"
        assert set(summary) == {"termination", "iterations", "final_psi", "final_witness_norm"}


def test_monotone_decrease_on_many_random_instances():
    rng = np.random.default_rng(55)
    for _ in range(10):
        d = int(rng.integers(3, 8))
        m = int(rng.integers(4, 12))
        inst = random_dense_instance(rng, d, m, regularizer=random_regularizer(rng, d))
        prob = make_problem(inst, Kernel.quartic(d))
        x0 = rng.standard_normal(d)
        from bpg import hard_threshold, L0Ball

        if isinstance(inst.regularizer, L0Ball):
            x0 = hard_threshold(x0, inst.regularizer.s)
        res = run_bpg(prob, BpgConfig(x0=x0, lam=0.99 / prob.smad.L, max_iters=500))
        psi = res.trace.psi
        assert np.all(np.diff(psi) <= 1e-8 * (1.0 + np.abs(psi[:-1])))
