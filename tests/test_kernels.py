from fractions import Fraction

import numpy as np
import pytest

from oracles import (EnergyKernel, fraction_kernel_bregman, fraction_kernel_gradient,
                     fraction_kernel_value, matmul_kernel_gradient, matmul_kernel_value)

from bpg import Kernel
from bpg.kernels import _radial_step


def assert_same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes())


def bregman_from_definition(value, gradient, x, y):
    return value(x) - value(y) - np.dot(gradient(y), x - y)


def assert_near_exact(value, exact, ulps=4):
    """``value`` is within ``ulps`` relative ulp of the exact Fraction ``exact``."""
    assert abs(Fraction(float(value)) - exact) <= ulps * Fraction(np.finfo(float).eps) * abs(exact)


def assert_within_ulps(values, x, y, ulps=4):
    """Each D_h value is within ``ulps`` relative ulp of the exact D_h(x, y)."""
    for v, xi, yi in zip(np.atleast_1d(values), np.atleast_2d(x), np.atleast_2d(y)):
        assert_near_exact(v, fraction_kernel_bregman(xi, yi), ulps)


class TestValues:
    def test_quartic_value_at_zero(self):
        k = Kernel.quartic(3)
        assert k.value(np.zeros(3)) == 0.0

    def test_quartic_value_unit(self):
        k = Kernel.quartic(2)
        assert k.value(np.array([1.0, 0.0])) == pytest.approx(0.75)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            Kernel.quartic(3).value(np.array([1.0, 2.0]))
        with pytest.raises(ValueError):
            Kernel.quartic(2).gradient(np.zeros(4))


class TestGradients:
    def test_quartic_gradient_unit(self):
        g = Kernel.quartic(2).gradient(np.array([1.0, 0.0]))
        np.testing.assert_allclose(g, [2.0, 0.0])

    def test_quartic_gradient_matches_finite_differences(self):
        from oracles import fd_gradient

        k = Kernel.quartic(5)
        rng = np.random.default_rng(7)
        for _ in range(5):
            x = rng.standard_normal(5)
            g = k.gradient(x)
            fd = fd_gradient(k.value, x)
            np.testing.assert_allclose(g, fd, rtol=1e-6, atol=1e-8)

    def test_radial_step_inverts_gradient(self):
        # grad h(u) = -v for u = (grad h)^{-1}(-v), from ||v|| = 0 to 1e12
        k = Kernel.quartic(4)
        rng = np.random.default_rng(8)
        for scale in [0.0, *np.geomspace(1e-12, 1e12, 25)]:
            v = scale * rng.standard_normal(4)
            np.testing.assert_allclose(k.gradient(_radial_step(v)), -v, rtol=1e-13, atol=0)


class TestBregman:
    def test_zero_at_equal_points(self):
        k = Kernel.quartic(2)
        x = np.array([0.3, -1.2])
        assert k.bregman(x, x) == 0.0

    def test_quartic_from_origin_equals_value(self):
        k = Kernel.quartic(2)
        x = np.array([1.0, 0.0])
        assert k.bregman(x, np.zeros(2)) == pytest.approx(0.75)

    @pytest.mark.parametrize("make", [Kernel.quartic])
    def test_nonnegative_and_strongly_convex(self, make):
        rng = np.random.default_rng(2)
        for d in (2, 5, 10):
            k = make(d)
            for _ in range(50):
                x, y = rng.standard_normal(d), 3.0 * rng.standard_normal(d)
                dh = k.bregman(x, y)
                assert dh >= 0.5 * np.sum((x - y) ** 2) - 1e-12 * (1 + abs(dh))
                assert dh >= 0

    def test_zero_only_at_equal_points(self):
        k = Kernel.quartic(3)
        rng = np.random.default_rng(3)
        x = rng.standard_normal(3)
        y = x + 1e-3
        assert k.bregman(x, y) > 0

    def test_short_step_far_from_origin(self):
        # the definition form h(x) - h(y) - <grad h(y), x - y> cancels here
        # and reads 6.3e-9; the exact value is 5.0e-14
        k = Kernel.quartic(8)
        y = 100.0 * np.ones(8)
        x = y.copy()
        x[0] += 1e-9
        assert_within_ulps(k.bregman(x, y), x, y)

    def test_short_steps_within_ulps_of_exact(self):
        # ||y|| from 1e-3 to 1e3, ||x - y|| / ||y|| from 1e-12 to 1
        rng = np.random.default_rng(7)
        ys = rng.standard_normal((200, 8))
        ys *= np.geomspace(1e-3, 1e3, 200)[:, None] / np.linalg.norm(ys, axis=1, keepdims=True)
        steps = rng.standard_normal((200, 8))
        steps *= (rng.permutation(np.geomspace(1e-12, 1.0, 200))[:, None]
                  * np.linalg.norm(ys, axis=1, keepdims=True)
                  / np.linalg.norm(steps, axis=1, keepdims=True))
        xs = ys + steps
        dh = Kernel.quartic(8).bregman(xs, ys)
        assert np.all(dh > 0)
        assert_within_ulps(dh, xs, ys)

    @pytest.mark.parametrize("make", [Kernel.quartic])
    def test_three_point_identity(self, make):
        rng = np.random.default_rng(4)
        for d in (2, 5, 10):
            k = make(d)
            for _ in range(20):
                x, y, z = (rng.standard_normal(d) for _ in range(3))
                lhs = k.bregman(x, z) - k.bregman(x, y) - k.bregman(y, z)
                rhs = np.dot(k.gradient(y) - k.gradient(z), x - y)
                scale = 1.0 + abs(lhs) + abs(rhs)
                assert abs(lhs - rhs) <= 1e-10 * scale

    def test_linear_additivity(self):
        rng = np.random.default_rng(5)
        d = 4
        k1, k2 = EnergyKernel(), Kernel.quartic(d)
        for _ in range(20):
            a, b = rng.random(2) * 3.0
            x, y = rng.standard_normal(d), rng.standard_normal(d)
            combo_value = lambda u: a * k1.value(u) + b * k2.value(u)
            combo_grad = lambda u: a * k1.gradient(u) + b * k2.gradient(u)
            lhs = bregman_from_definition(combo_value, combo_grad, x, y)
            rhs = a * k1.bregman(x, y) + b * k2.bregman(x, y)
            assert abs(lhs - rhs) <= 1e-10 * (1.0 + abs(lhs) + abs(rhs))

    def test_batched_evaluation(self):
        k = Kernel.quartic(3)
        rng = np.random.default_rng(6)
        xs, ys = rng.standard_normal((8, 3)), rng.standard_normal((8, 3))
        batched = k.bregman(xs, ys)
        single = [k.bregman(x, y) for x, y in zip(xs, ys)]
        assert_same_bits(batched, single)

    def test_lists_and_bad_dimensions(self):
        # each method checks each point
        k = Kernel.quartic(2)
        assert_same_bits(k.bregman([1, -2], [0.5, 3]), k.bregman(np.array([1.0, -2.0]),
                                                                  np.array([0.5, 3.0])))
        for x, y in [(np.ones(3), np.ones(2)), (np.ones(2), np.ones(3))]:
            with pytest.raises(ValueError, match=r"trailing dimension \(3,\), kernel expects \(2,\)"):
                k.bregman(x, y)


def scaled_rows(d):
    """16 rows x from 1e-3 to 1e3 in norm, so that the quartic term ranges
    from negligible to dominant, and 16 rows y of norm about sqrt(d)."""
    rng = np.random.default_rng(d)
    scale = np.geomspace(1e-3, 1e3, 16)[:, None]
    return scale * rng.standard_normal((16, d)), rng.standard_normal((16, d))


@pytest.mark.parametrize("make", [Kernel.quartic])
@pytest.mark.parametrize("d", [3, 8, 64])
def test_matches_matmul_forms_bit_for_bit(make, d):
    # each square sum is one BLAS dot, which gives the bits of @ on a
    # (1, d) row and a (d, 1) column; every value is also within 4 ulp of
    # the exact one
    k = make(d)
    xs, ys = scaled_rows(d)
    for x, y in [*zip(xs, ys), (xs, ys)]:
        assert_same_bits(k.value(x), matmul_kernel_value(x))
        assert_same_bits(k.gradient(x), matmul_kernel_gradient(x))
        assert_within_ulps(k.bregman(x, y), x, y)
    for x in xs:
        assert_near_exact(k.value(x), fraction_kernel_value(x))
        for gi, exact in zip(k.gradient(x), fraction_kernel_gradient(x)):
            assert_near_exact(gi, exact)


@pytest.mark.parametrize("d", [3, 8, 64])
def test_step_terms_match_the_public_methods(d):
    # the solver's one kernel call per step, fed ||y||^2 from the previous
    # call as the loop feeds it, gives the bits of the public methods
    k = Kernel.quartic(d)
    xs, ys = scaled_rows(d)
    for x, y in [*zip(xs, ys), *zip(ys, xs)]:
        yy = k.step_terms(y, y, np.zeros(d), 0.0)[1]
        u = x - y
        grad, xx, uu, dh = k.step_terms(x, y, u, yy)
        assert_same_bits(grad, k.gradient(x))
        assert_same_bits(dh, k.bregman(x, y))
        assert_same_bits(0.25 * xx * xx + 0.5 * xx, k.value(x))
        assert_same_bits(uu, (u[None, :] @ u[:, None])[0, 0])


def test_kernel_is_immutable():
    k = Kernel.quartic(2)
    with pytest.raises(AttributeError):
        k.dimension = 3


@pytest.mark.parametrize("dimension", [2.5, "3", 0, True])
def test_bad_dimension_rejected(dimension):
    with pytest.raises(ValueError, match="dimension"):
        Kernel.quartic(dimension)
