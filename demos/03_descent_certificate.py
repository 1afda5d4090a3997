"""Empirically audit the smooth-adaptability certificate behind the step rule.

The solver's step size is justified by the inequality

    |g(x) - g(y) - <grad g(y), x - y>|  <=  L * D_h(x, y)

with the certified constant L* = max(3 lambda_max(sum_i A_i^2),
||sum_i b_i A_i||) computed from the measurement matrices.  This script
audits the pair (h, L*) that ``make_problem`` hands the solver, as ``bpg
check`` does: it samples many point pairs and confirms the inequality holds
with margin, then shows that shrinking L* breaks it -- the certificate is
tight in kind, not vacuous.
"""

import numpy as np

from bpg import check_descent_lemma, make_problem, qip_gradient, qip_value
from bpg.instances import generate_instance


def audit(inst, problem, L, n_pairs=20_000, radius=10.0, seed=0):
    rng = np.random.default_rng(seed)
    d = problem.kernel.dimension

    def ball(n):
        v = rng.standard_normal((n, d))
        v /= np.linalg.norm(v, axis=1, keepdims=True)
        return radius * rng.random((n, 1)) ** (1.0 / d) * v

    return check_descent_lemma(lambda x: qip_value(inst, x), lambda x: qip_gradient(inst, x),
                               problem.kernel, L, ball(n_pairs), ball(n_pairs))


def main():
    _, inst, _ = generate_instance(d=8, m=20, s_true=2, noise=0.1, seed=4,
                                   kind="dense-symmetric")
    problem = make_problem(inst)
    cert = problem.smad
    print(f"certified constant L* = {cert.L:.4e} ({cert.source})")

    report = audit(inst, problem, cert.L)
    print(f"certified L*: {report.n_violations} violations over 20000 pairs, "
          f"worst margin {report.worst_margin:.3e}")

    for shrink in (10.0, 1e3):
        bad = audit(inst, problem, cert.L / shrink)
        print(f"L* / {shrink:g}: {bad.n_violations} violations "
              f"(worst margin {bad.worst_margin:.3e})")


if __name__ == "__main__":
    main()
