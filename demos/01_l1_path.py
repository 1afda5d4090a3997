"""Solve an l1-regularized quadratic inverse problem and watch the guarantees.

Generates a small noisy instance, runs the Bregman proximal gradient method
from a few random starts with the certified step size, and prints the best
run's guarantees.
"""

import numpy as np

from bpg import BpgConfig, L1, make_problem, min_gap_bound, run_bpg
from bpg.cli import draw_starts
from bpg.instances import generate_instance


def main():
    _, inst, x_true = generate_instance(d=10, m=30, s_true=3, noise=0.01, seed=1,
                                        regularizer=L1(theta=0.1))
    prob = make_problem(inst)
    print(f"instance: d={inst.d}, m={inst.m}, certified L={prob.smad.L:.3e}")

    res = None
    for x0 in draw_starts(inst.d, 5, 2, inst.regularizer):
        config = BpgConfig(x0=x0, max_iters=5000, tol_step=1e-12)
        candidate = run_bpg(prob, config)
        if res is None or candidate.final_psi < res.final_psi:
            res = candidate
    print(f"stopped: {res.reason} after {res.iterations} iterations")
    print(f"final objective {res.final_psi:.6e}, witness norm {res.final_witness_norm:.3e}")

    lam = 0.99 / prob.smad.L  # default step used above
    for n in (10, 100, 1000):
        if n <= res.iterations:
            observed, bound = min_gap_bound(res.trace, lam, prob.smad.L, 0.0, n=n)
            print(f"min Bregman gap over first {n:>4} steps: "
                  f"{observed:.3e} <= bound {bound:.3e}")

    # measurements are invariant under x -> -x, so compare up to global sign
    err = min(np.linalg.norm(res.x - x_true),
              np.linalg.norm(res.x + x_true)) / np.linalg.norm(x_true)
    print(f"relative distance to planted signal (up to sign): {err:.3e}")


if __name__ == "__main__":
    main()
