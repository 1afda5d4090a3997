import numpy as np

from bpg import L0Ball, L1, QipInstance


def random_dense_instance(rng, d, m, regularizer=None, scale=1.0):
    raw = rng.standard_normal((m, d, d))
    matrices = scale * 0.5 * (raw + np.transpose(raw, (0, 2, 1)))
    b = rng.standard_normal(m)
    if regularizer is None:
        regularizer = L1(theta=0.1)
    return QipInstance(b=b, regularizer=regularizer, matrices=matrices)


def overflowing_instance(kind):
    """A d=16 instance whose certificate's Gram product overflows float64."""
    rng = np.random.default_rng(5)
    if kind == "rank-one":
        return QipInstance(b=np.ones(32), regularizer=L1(theta=0.1),
                           factors=1e80 * rng.standard_normal((32, 16)))
    return random_dense_instance(rng, 16, 32, scale=1e160)


def random_regularizer(rng, d):
    if rng.random() < 0.5:
        return L1(theta=float(10.0 ** rng.uniform(-2, 0)))
    return L0Ball(s=int(rng.integers(1, d)))


def ball_samples(rng, n, d, radius):
    u = rng.standard_normal((n, d))
    u /= np.linalg.norm(u, axis=1, keepdims=True)
    r = radius * rng.random(n) ** (1.0 / d)
    return u * r[:, None]
