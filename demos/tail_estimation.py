"""Compare the tail estimators on a single family instance.

Exhaustive enumeration is exact up to 26 vertices, so this instance gets a
ground-truth tail; one enumeration serves every threshold.  Plain Monte Carlo
brackets it with Wilson's interval at a nominal 99% two-sided level.  The
planted and conditioned estimators scale that interval by a factor that keeps
the estimated quantity below the truth, so their ci_low is a lower bound when
the interval covers; its one-sided coverage falls short near one or two hits
(8.3% on Schur(12) at 1 sample; ROADMAP item 1).  Their p_hat only estimates
a lower quantity; at small sample counts it can exceed the truth.
"""

import argparse

from uppertail.bounds import exact_mean
from uppertail.estimate import (
    conditioned_tail,
    edge_count_histogram,
    histogram_tail,
    mc_tail,
    planted_tail,
)
from uppertail.families import FamilySpec, build, interval_witness


def row(tag: str, est) -> str:
    return (f"  {tag:12s} p_hat={est.p_hat:12.6e}  "
            f"ci=[{est.ci_low:.6e}, {est.ci_high:.6e}]  samples={est.samples}")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--n", type=int, default=20)
    parser.add_argument("--p", type=float, default=0.3)
    parser.add_argument("--samples", type=int, default=200_000)
    parser.add_argument("--seed", type=int, default=11)
    args = parser.parse_args()

    spec = FamilySpec("ap", args.n, 3)
    h = build(spec)
    mu = exact_mean(h, args.p)
    print(f"ap(n={args.n}, k=3), p={args.p}: {h.num_edges} edges, mean {mu:.3f}")
    hist = edge_count_histogram(h)

    for t in (2.0, 5.0, 9.0):
        thr = mu + t
        exact = histogram_tail(hist, args.p, thr)
        mc = mc_tail(h, args.p, thr, args.samples, seed=args.seed)
        conditioned = conditioned_tail(h, args.p, thr, args.samples, seed=args.seed + 2)
        print(f"\nthreshold mu + {t} = {thr:.3f}")
        print(f"  {'exact':12s} p_hat={exact:12.6e}  from all {1 << h.n} subsets")
        print(row("mc", mc))
        lower = [("conditioned", conditioned)]
        witness = interval_witness(spec, thr)
        if witness is not None:
            planted = planted_tail(h, args.p, thr, args.samples,
                                   seed=args.seed + 1, forced=witness.subset)
            print(row("planted", planted))
            lower.append(("planted", planted))
        print(row("conditioned", conditioned))
        for name, est in lower:
            assert est.ci_low <= est.p_hat <= exact + 1e-12, f"{name} exceeded the exact tail"
        print("  lower-bound estimates stay below the exact tail; ci_low is the certified bound")


if __name__ == "__main__":
    main()
