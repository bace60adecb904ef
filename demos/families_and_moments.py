"""Build the bundled integer families and check their moments by simulation.

For each family the script prints edge and degree statistics, then compares
the exact mean and variance of the induced edge count X = e(H[V_p]) against
empirical moments from repeated vertex samples.
"""

import argparse

import numpy as np

from uppertail.bounds import exact_mean, exact_variance, moment_report
from uppertail.families import FamilySpec, build
from uppertail.hypergraph import delta_j, induced_edge_count, sample_vp
from uppertail.rng import stream_generator


def label(spec: FamilySpec) -> str:
    if spec.kind == "ap":
        return f"ap(n={spec.n}, k={spec.k})"
    if spec.kind == "ell_sum":
        return f"ell_sum(n={spec.n}, ell={spec.ell})"
    return f"schur(n={spec.n})"


def describe(spec: FamilySpec) -> None:
    h = build(spec)
    print(f"{label(spec):24s} edges={h.num_edges:4d}  "
          f"Delta_1={delta_j(h, 1):3d}  Delta_2={delta_j(h, 2):2d}")


def moment_check(spec: FamilySpec, p: float, draws: int, seed: int) -> None:
    h = build(spec)
    rng = stream_generator(seed, 0)
    xs = np.array([induced_edge_count(h, sample_vp(h, p, rng)) for _ in range(draws)])
    mu = exact_mean(h, p)
    var = exact_variance(h, p)
    report = moment_report(h, p)
    print(f"\n{label(spec)} at p={p}, {draws} samples")
    print(f"  mean      exact {mu:10.4f}   empirical {xs.mean():10.4f}")
    print(f"  variance  exact {var:10.4f}   empirical {xs.var(ddof=1):10.4f}")
    print(f"  clustered-scale lambda = {report.lam:.4f}")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--n", type=int, default=30)
    parser.add_argument("--p", type=float, default=0.3)
    parser.add_argument("--draws", type=int, default=4000)
    parser.add_argument("--seed", type=int, default=7)
    args = parser.parse_args()

    specs = [
        FamilySpec("ap", args.n, 3),
        FamilySpec("ap", args.n, 4),
        FamilySpec("schur", args.n),
        FamilySpec("ell_sum", args.n, ell=3),
    ]
    for spec in specs:
        describe(spec)
    for spec in (specs[0], specs[2]):
        moment_check(spec, args.p, args.draws, args.seed)


if __name__ == "__main__":
    main()
