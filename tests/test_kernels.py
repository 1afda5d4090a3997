import numpy as np
import pytest

from oracles import EnergyKernel, sum_kernel_bregman, sum_kernel_gradient, sum_kernel_value

from bpg import Kernel
from bpg.kernels import _radial_step


def assert_same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes())


def bregman_from_definition(value, gradient, x, y):
    return value(x) - value(y) - np.dot(gradient(y), x - y)


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
                assert dh >= -1e-12

    def test_zero_only_at_equal_points(self):
        k = Kernel.quartic(3)
        rng = np.random.default_rng(3)
        x = rng.standard_normal(3)
        y = x + 1e-3
        assert k.bregman(x, y) > 0

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


@pytest.mark.parametrize("make", [Kernel.quartic])
@pytest.mark.parametrize("d", [3, 8, 64])
def test_matches_np_sum_forms_bit_for_bit(make, d):
    k = make(d)
    rng = np.random.default_rng(d)
    # rows from 1e-3 to 1e3 in norm, so the quartic term ranges from
    # negligible to dominant
    scale = np.geomspace(1e-3, 1e3, 16)[:, None]
    xs, ys = scale * rng.standard_normal((16, d)), rng.standard_normal((16, d))
    for x, y in [*zip(xs, ys), (xs, ys)]:
        assert_same_bits(k.value(x), sum_kernel_value(x))
        assert_same_bits(k.gradient(x), sum_kernel_gradient(x))
        assert_same_bits(k.bregman(x, y), sum_kernel_bregman(x, y))


def test_kernel_is_immutable():
    k = Kernel.quartic(2)
    with pytest.raises(AttributeError):
        k.dimension = 3


@pytest.mark.parametrize("dimension", [2.5, "3", 0])
def test_bad_dimension_rejected(dimension):
    with pytest.raises(ValueError, match="dimension"):
        Kernel.quartic(dimension)
