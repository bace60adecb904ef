"""Walk through the dyadic degree-pruning cascade on one vertex sample.

A sampled vertex set usually induces a few high-degree vertices.  The cascade
removes greedy star matchings at geometrically decreasing radii r_j until the
remaining edges have maximum degree at most floor(r).  When the per-level
matching events all hold, the induced count is trapped by X <= X_r + t/2,
which the script verifies against the exact bounded-degree optimum.
"""

import argparse
import math

from uppertail.decompose import (
    CascadeParams,
    cascade_prune,
    check_cascade_event,
    greedy_star_matching,
    xr_or_lower,
)
from uppertail.families import FamilySpec, build
from uppertail.hypergraph import induced_edge_count, induced_edges, sample_vp
from uppertail.rng import stream_generator


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--n", type=int, default=36)
    parser.add_argument("--p", type=float, default=0.35)
    parser.add_argument("--t", type=float, default=16.0)
    parser.add_argument("--r", type=float, default=2.0)
    parser.add_argument("--seed", type=int, default=3)
    parser.add_argument("--tries", type=int, default=40)
    args = parser.parse_args()

    h = build(FamilySpec("ap", args.n, 3))
    params = CascadeParams(beta=1.0 / (32 * h.k), gamma=0.125,
                           r=args.r, t=args.t, p=args.p)
    print(f"ap(n={args.n}, k=3): {h.num_edges} edges")
    print(f"cascade: r={params.r}, t={params.t}, s={params.s:.3f}, "
          f"{params.level_count} dyadic levels")

    rng = stream_generator(args.seed, 0)
    for attempt in range(args.tries):
        s = sample_vp(h, args.p, rng)
        check = check_cascade_event(h, s, params)
        if check.verdict:
            break
    else:
        print("no sample satisfied the cascade event; raise --tries or lower --t")
        return

    x = induced_edge_count(h, s)
    print(f"\nsample {attempt}: |S|={len(s)}, induces {x} edges "
          f"(greedy M_r = {greedy_star_matching(h, s, params.r).size})")

    result = cascade_prune(h, induced_edges(h, s), params)
    print("\n  level   r_j     Delta1  matching  removed  kept")
    for lv in result.levels:
        print(f"  {lv.j:3d}  {lv.r_j:7.3f}  {lv.delta1_before:5d}  "
              f"{lv.matching_size:7d}  {lv.removed:6d}  {lv.kept:5d}")
    print(f"final edge set: {len(result.kept_edge_ids)} edges, "
          f"max degree <= floor(r) = {math.floor(params.r)}")

    xr, exact = xr_or_lower(h, s, params.r)
    kind = "exact" if exact else "lower bound"
    print(f"\ncascade event holds, so X <= X_r + t/2 must hold:")
    print(f"  X = {x}, X_r ({kind}) = {xr}, X_r + t/2 = {xr + args.t / 2:.1f}")
    if exact:
        assert x <= xr + args.t / 2, "sandwich violated"
        print("  verified against the exact bounded-degree optimum")
    else:
        print(f"  ({len(induced_edges(h, s))} induced edges exceed the exact "
              f"search budget; showing the pruning lower bound)")


if __name__ == "__main__":
    main()
