import dataclasses
import math

import numpy as np
import pytest

from conftest import random_dense_instance, random_regularizer
from oracles import EnergyKernel, grid_minimize, linalg_norm, p_lambda_iterates

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
    generate_instance,
    make_problem,
    min_gap_bound,
    qip_gradient,
    run_bpg,
)
import bpg.kernels
import bpg.qip
from bpg.solver import DIVERGENCE_NORM, _check_decrease, _guard_iterate, _norm


def quadratic_problem(c):
    """f == 0, g = ||x - c||^2 / 2 with the energy kernel; prox is a gradient step.

    Its prox input is p = lam (x - c) - x, so -p = x - lam (x - c).
    """
    c = np.asarray(c, dtype=float)
    return Problem(
        g_oracle=lambda x: (0.5 * np.sum((x - c) ** 2, axis=-1), x - c),
        prox_map=lambda p, lam: -p,
        f_value=lambda x: 0.0,
        kernel=EnergyKernel(),
        smad=SmadCertificate(L=1.0, source="D_g = D_h"),
        psi_lower_bound=0.0,
    )


def one_step(prob, lam, x):
    """One step x+ = T_lam(x) from x: a solve of one iteration."""
    return run_bpg(prob, BpgConfig(x0=x, lam=lam, max_iters=1, tol_step=0.0))


class TestBpgStep:
    """One BPG step x+ = T_lam(x), taken through run_bpg."""

    def test_gradient_step_special_case(self):
        prob = quadratic_problem([0.0, 0.0])
        out = one_step(prob, 0.5, np.array([2.0, 0.0])).x
        np.testing.assert_allclose(out, [1.0, 0.0])

    def test_stationary_point_is_fixed(self):
        c = np.array([1.5, -0.5])
        prob = quadratic_problem(c)
        np.testing.assert_allclose(one_step(prob, 0.5, c).x, c)

    def test_qip_l1_step_matches_grid_oracle(self):
        inst_matrices = np.array([np.diag([1.0, 2.0])])
        from bpg import QipInstance

        inst = QipInstance(b=[1.0], regularizer=L1(theta=0.1), matrices=inst_matrices)
        k = Kernel.quartic(2)
        prob = make_problem(inst, k)
        lam = 0.9 / prob.smad.L
        x = np.array([1.0, 1.0])
        out = one_step(prob, lam, x).x
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

    def test_decrease_slack_scales_with_the_step(self):
        # a slack of 1e-8 * (1 + |Psi(x)|), not scaled by lam, let Psi rise by
        # up to 1e-8 / lam per step: 9e-6 at the phase-retrieval lam = 0.99/860
        lam, L = 0.99 / 860.0, 860.0
        with pytest.raises(DecreaseViolationError):
            _check_decrease(lam, L, 1e-19, 5e-6, 0.0)
        _check_decrease(lam, L, 1e-19, 5e-9, 0.0)  # a rise within 1e-8 (1 + |Psi(x)|) passes

    @pytest.mark.parametrize("bad", [
        [np.nan, 0.0],
        [np.inf, 0.0],
        # finite, but the square sum overflows: run_bpg's floating-point
        # state makes the kernel's ||x||^2 an inf, which the guard refuses
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
            one_step(prob, 0.5, np.array([1.0, 0.0]))

    def test_step_size_beyond_one_over_L_rejected(self):
        # lam*L = 1.5 makes the decrease check vacuous
        prob = quadratic_problem([0.0, 0.0])
        with pytest.raises(ValueError, match=r"lam\*L"):
            one_step(prob, 1.5, np.array([2.0, 0.0]))

    def test_lower_bound_enforced(self):
        # Psi(x+) = 0.5 is below the declared bound 1.0
        prob = quadratic_problem([0.0, 0.0])
        prob.psi_lower_bound = 1.0
        with pytest.raises(ValueError, match=r"Psi\(x\+\)=.* lower bound"):
            one_step(prob, 0.5, np.array([2.0, 0.0]))


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
        ("max_iters", True),
        ("tol_step", True),
        ("tol_step", "1e-6"),
        ("tol_residual", True),
    ])
    def test_config_validation(self, field, value):
        fields = {"x0": np.ones(2), field: value}
        name = "starting point" if field == "x0" else field
        with pytest.raises(ValueError, match=name):
            BpgConfig(**fields)

    def test_numpy_scalars_are_counts_and_numbers(self):
        prob = quadratic_problem([0.0, 0.0])
        runs = [run_bpg(prob, BpgConfig(x0=np.ones(2), lam=lam, max_iters=iters, tol_step=tol,
                                        tol_residual=tol))
                for lam, iters, tol in [(np.float64(0.5), np.int64(5), np.float64(1e-3)), (0.5, 5, 1e-3)]]
        np.testing.assert_array_equal(runs[0].trace.psi, runs[1].trace.psi)
        assert runs[0].reason == runs[1].reason

    def test_step_size_validation(self):
        prob = quadratic_problem([0.0, 0.0])
        with pytest.raises(ValueError):
            run_bpg(prob, BpgConfig(x0=np.ones(2), lam=1.5, max_iters=10))
        with pytest.raises(ValueError):
            run_bpg(prob, BpgConfig(x0=np.ones(2), lam=-0.1, max_iters=10))
        # a step is a number: not a bool (1.0) nor a string that float() would parse
        for lam in (True, "0.0001"):
            message = f"^step size lam must be a real number in the float64 range, got {lam!r}$"
            with pytest.raises(ValueError, match=message):
                run_bpg(prob, BpgConfig(x0=np.ones(2), lam=lam, max_iters=10))

    def test_divergence_guard(self):
        d = 2
        prob = Problem(
            g_oracle=lambda x: (-np.sum(x * x, axis=-1), -2.0 * x),
            prox_map=lambda p, lam: -p,  # p = -2x at lam = 0.5: x+ = 2x
            f_value=lambda x: 0.0,
            kernel=EnergyKernel(),
            smad=SmadCertificate(L=1.0, source="test"),
            psi_lower_bound=-1e30,
        )
        with pytest.raises(DivergenceError):
            run_bpg(prob, BpgConfig(x0=np.ones(d), lam=0.5, max_iters=100))

    @pytest.mark.parametrize("scale", [1e13, 1e60, 1e100])
    def test_start_past_the_guard_is_divergence(self, scale):
        # the start meets the iterates' guard before any oracle call; at 1e60
        # and 1e100 its square sum overflows, which run_bpg's floating-point
        # state makes an inf, not a warning
        rng = np.random.default_rng(61)
        inst = random_dense_instance(rng, d=4, m=6, regularizer=L1(theta=0.1))
        prob = make_problem(inst)
        oracle = prob.g_oracle
        calls = []
        prob.g_oracle = lambda x: calls.append(x) or oracle(x)
        v = rng.standard_normal(4)
        with pytest.raises(DivergenceError, match=r"iterate norm .* exceeds 1e\+12"):
            run_bpg(prob, BpgConfig(x0=scale * v / linalg_norm(v)))
        assert calls == []

    def test_square_sum_overflow_is_divergence(self):
        # the guard reads the kernel's ||x||^2 under run_bpg's floating-point
        # state, in which the overflow of numpy's dot is an inf; it must
        # report divergence
        v = np.full(8, 1e200)
        with pytest.raises(DivergenceError), np.errstate(over="ignore"):
            _guard_iterate(v.dot(v))
        prob = quadratic_problem([0.0, 0.0])
        prob.prox_map = lambda x, lam: np.full(2, 1e200)
        with pytest.raises(DivergenceError):
            run_bpg(prob, BpgConfig(x0=np.ones(2), lam=0.5, max_iters=5))

    def test_norm_is_inf_where_the_square_sum_overflows(self):
        v = np.random.default_rng(58).standard_normal(8)
        assert _norm(v) == math.sqrt(v.dot(v))
        # under run_bpg's floating-point state the dot's overflow is an inf,
        # and so is the norm of a finite vector past about 1.3e154
        with np.errstate(over="ignore"):
            assert _norm(1e200 * v) == math.inf
            assert _norm(np.array([np.inf, 1.0])) == math.inf
            assert math.isnan(_norm(np.array([np.nan, 1e200])))
            assert math.isnan(_norm(np.array([np.nan, np.inf])))

    @pytest.mark.parametrize("norm", [1e3, 1e6])
    def test_overflowing_gradient_is_divergence(self, norm):
        # entries of about 1e150: g and grad g overflow at a start well within
        # the guard, so the driver that the prox would take is not finite
        rng = np.random.default_rng(5)
        prob = make_problem(random_dense_instance(rng, 16, 32, scale=1e150))
        v = rng.standard_normal(16)
        with pytest.raises(DivergenceError, match="driver .* is not finite"):
            run_bpg(prob, BpgConfig(x0=norm * v / linalg_norm(v), max_iters=5))

    def test_overflowing_witness_is_divergence(self):
        # grad g is finite at the start and inf after the first step
        prob = quadratic_problem([0.0, 0.0])
        g = prob.g_oracle
        prob.g_oracle = lambda x: (g(x)[0], g(x)[1] if x[0] > 1.5 else np.full(2, np.inf))
        with pytest.raises(DivergenceError, match="witness norm inf at iterate 1"):
            run_bpg(prob, BpgConfig(x0=np.array([2.0, 0.0]), lam=0.5, max_iters=5))

    def test_psi_that_stays_infinite_is_a_decrease_violation(self):
        # g is +inf everywhere, as where it overflows: Psi(x0) = +inf, and the
        # step onto a Psi that is still +inf is checked, not skipped
        prob = quadratic_problem([0.0, 0.0])
        g = prob.g_oracle
        prob.g_oracle = lambda x: (math.inf, g(x)[1])
        with pytest.raises(DecreaseViolationError, match=r"Psi stayed \+inf after a step"):
            one_step(prob, 0.5, np.array([2.0, 0.0]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_psi_after_a_step_is_a_decrease_violation(self, bad):
        # Psi(x0) = 2; the step halves x, and g is `bad` left of x[0] = 1.5
        prob = quadratic_problem([0.0, 0.0])
        g = prob.g_oracle
        prob.g_oracle = lambda x: (bad, g(x)[1]) if x[0] < 1.5 else g(x)
        with pytest.raises(DecreaseViolationError):
            run_bpg(prob, BpgConfig(x0=np.array([2.0, 0.0]), lam=0.5, max_iters=5))

    def test_nan_psi_at_start_rejected(self):
        prob = quadratic_problem([0.0, 0.0])
        g = prob.g_oracle
        prob.g_oracle = lambda x: (np.nan, g(x)[1])
        with pytest.raises(ValueError, match=r"Psi\(x0\)=nan is NaN or below"):
            run_bpg(prob, BpgConfig(x0=np.array([1.0, 0.0]), lam=0.5, max_iters=5))
        # a step from a NaN Psi(x) is checked, not skipped like an infeasible one
        with pytest.raises(DecreaseViolationError):
            _check_decrease(0.5, 1.0, np.nan, 0.5, 0.0)

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
        # per iteration 1 oracle call (g and grad g at x+), 1 kernel call and
        # 1 cubic solve (either form); at the start, 1 oracle call and 1
        # kernel call
        rng = np.random.default_rng(56)
        inst = random_dense_instance(rng, d=4, m=6, regularizer=L1(theta=0.1))
        prob = make_problem(inst, Kernel.quartic(4))
        counts = {"oracle": 0, "kernel": 0, "cubic": 0}

        def counted(fn, key):
            def wrapper(*args):
                counts[key] += 1
                return fn(*args)
            return wrapper

        for name in ("qip_oracle", "qip_value", "qip_gradient"):
            monkeypatch.setattr(bpg.qip, name, counted(getattr(bpg.qip, name), "oracle"))
        for name in ("value", "gradient", "bregman", "step_terms"):
            monkeypatch.setattr(Kernel, name, counted(getattr(Kernel, name), "kernel"))
        for name in ("cubic_root_l0", "cubic_root_l1"):
            monkeypatch.setattr(bpg.kernels, name, counted(getattr(bpg.kernels, name), "cubic"))
        res = run_bpg(prob, BpgConfig(x0=rng.standard_normal(4), max_iters=20, tol_step=0.0))
        iters = res.iterations
        assert iters == 20
        assert counts == {"oracle": iters + 1, "kernel": iters + 1, "cubic": iters}

    @pytest.mark.parametrize("kind", ["rank-one-l0", "dense-l1"])
    def test_iterates_match_reference_loop(self, kind):
        # the loop forms each prox input p from held gradients; the reference
        # forms it afresh from the gradients at x_k, and must get the same bits
        rng = np.random.default_rng(60)
        if kind == "rank-one-l0":
            factors = rng.standard_normal((16, 8))
            inst = QipInstance(b=(factors[:, :2] @ rng.standard_normal(2)) ** 2,
                               regularizer=L0Ball(2), factors=factors)
        else:
            inst = random_dense_instance(rng, d=8, m=16, regularizer=L1(theta=0.1))
        prob = make_problem(inst)
        lam, x0 = 0.99 / prob.smad.L, rng.standard_normal(inst.d)
        res = run_bpg(prob, BpgConfig(x0=x0, lam=lam, max_iters=200, tol_step=0.0,
                                      keep_iterates=True))
        assert res.iterations == 200
        ref = p_lambda_iterates(inst, lam, x0, 200)
        assert res.iterates.tobytes() == ref.tobytes()

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
        # the drivers p_k = lam grad g(x_k) - grad h(x_k), formed afresh
        p = [lam * qip_gradient(inst, x) - h.gradient(x) for x in it]
        eps = np.finfo(float).eps
        for k in range(1, len(it)):
            # the witness w is (p_k - p_{k-1}) / lam, and its norm is taken so
            assert res.trace.witness_norm[k] == linalg_norm(p[k] - p[k - 1]) / lam
            # and within rounding of the norm of w as defined
            grads = [prob.g_gradient(it[k]), prob.g_gradient(it[k - 1])]
            grads_h = [h.gradient(it[k]), h.gradient(it[k - 1])]
            w = grads[0] - grads[1] + (grads_h[1] - grads_h[0]) / lam
            scale = sum(map(linalg_norm, grads_h)) / lam + sum(map(linalg_norm, grads))
            assert abs(res.trace.witness_norm[k] - linalg_norm(w)) <= 4 * eps * scale
            assert res.trace.step_norm[k] == linalg_norm(it[k] - it[k - 1])
            # the loop's D_h takes ||x_{k-1}||^2 from the previous kernel call
            assert res.trace.dh_gap[k] == h.bregman(it[k], it[k - 1])

    def test_witness_zero_implies_fixed_point(self):
        rng = np.random.default_rng(52)
        inst = random_dense_instance(rng, d=5, m=8, regularizer=L1(theta=0.2))
        prob = make_problem(inst, Kernel.quartic(5))
        lam = 0.9 / prob.smad.L
        res = run_bpg(prob, BpgConfig(x0=rng.standard_normal(5), lam=lam, max_iters=50_000,
                                      tol_step=1e-14))
        # near-zero witness at termination: another step barely moves
        x_again = one_step(prob, lam, res.x).x
        assert np.linalg.norm(x_again - res.x) <= 1e-8 * (1.0 + np.linalg.norm(res.x))


class TestSubgradientWitness:
    def test_fixed_point_gives_zero(self):
        prob = quadratic_problem([1.0, 2.0])
        x = np.array([1.0, 2.0])
        assert one_step(prob, 0.5, x).trace.witness_norm[1] == 0.0

    def test_analytic_example(self):
        prob = quadratic_problem([0.0, 0.0])
        x0 = np.array([2.0, 0.0])
        step = one_step(prob, 0.5, x0)
        np.testing.assert_allclose(step.x, [1.0, 0.0])
        # the witness is grad Psi(x1) = x1, of norm 1
        assert step.trace.witness_norm[1] == pytest.approx(1.0)
        assert step.trace.witness_norm[1] == pytest.approx(linalg_norm(prob.g_gradient(step.x)))


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

    @pytest.mark.parametrize("scale", [2.0, 1.0, -0.99], ids=["past-one", "one", "negative"])
    def test_step_must_satisfy_the_step_rule(self, scale):
        # a step outside 0 < lam*L < 1 gives no bound: 2/L a false violation, 1/L a division
        # by zero, -0.99/L a negative bound, on the trace of a valid run
        _, inst, _ = generate_instance(d=6, m=12, s_true=2, noise=0.0, seed=4)
        prob = make_problem(inst)
        L = prob.smad.L
        res = run_bpg(prob, BpgConfig(x0=np.array([1.0, -1.0, 0.0, 0.0, 0.0, 0.0]), max_iters=50,
                                      tol_step=0.0))
        with pytest.raises(ValueError, match=r"0 < lam\*L < 1"):
            min_gap_bound(res.trace, scale / L, L, 0.0)
        observed, bound = min_gap_bound(res.trace, 0.99 / L, L, 0.0)
        assert 0 <= observed <= bound

    @pytest.mark.parametrize("n", [2.0, 0, 4, "2", True])
    def test_n_must_be_an_integer_in_range(self, n):
        prob = quadratic_problem([0.0, 0.0])
        res = run_bpg(prob, BpgConfig(x0=np.array([1.0, 0.0]), lam=0.5, max_iters=3, tol_step=0.0))
        with pytest.raises(ValueError, match=r"n must be an integer in \[1, 3\]"):
            min_gap_bound(res.trace, 0.5, 1.0, 0.0, n=n)
        assert min_gap_bound(res.trace, 0.5, 1.0, 0.0, n=np.int64(2)) == min_gap_bound(
            res.trace, 0.5, 1.0, 0.0, n=2)


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
