"""Upper-tail machinery for induced edge counts in random vertex subsets.

A k-uniform hypergraph H on {0, ..., n-1} is sampled by keeping each vertex
independently with probability p (or a uniform m-subset); X counts the edges
whose vertices all survive.  The package provides exact and Monte Carlo tail
estimators, closed-form tail exponents, bounded-degree decompositions with
star matchings, and disjoint-occurrence (BK) checks, plus integer families
(arithmetic progressions, Schur triples, x + y = l*z) to instantiate them.
"""

from .bounds import (
    BoundReport,
    MomentReport,
    binomial_point_lower,
    binomial_point_lower_refined,
    et_bound,
    exact_mean,
    exact_variance,
    exponent_ap,
    exponent_appp,
    exponent_apt,
    exponent_hg,
    hypergeom_conditional_mean,
    lb_cluster_bound,
    moment_report,
    paley_zygmund_lower,
    phi,
    theorem_c_bound,
)
from .decompose import (
    CascadeCheck,
    CascadeParams,
    CascadeResult,
    Star,
    StarMatching,
    cascade_prune,
    check_cascade_event,
    degree_prune,
    greedy_star_matching,
    mr_exact,
    xr_exact,
    xr_or_lower,
)
from .disjointness import (
    BKResult,
    EventTable,
    bk_check,
    box,
    degree_event,
    event_probability,
    mr_le_z_check,
    z_disjoint,
)
from .estimate import (
    SampleHistogram,
    TailEstimate,
    clean_config_histogram,
    conditioned_histogram,
    conditioned_tail,
    edge_count_histogram,
    exact_point_mass,
    exact_tail,
    histogram_point_mass,
    histogram_tail,
    mc_histogram,
    mc_tail,
    planted_histogram,
    planted_tail,
    wilson_interval,
)
from .families import (
    FamilySpec,
    Witness,
    build,
    build_ap,
    build_ell_sum,
    build_schur,
    greedy_witness,
    interval_witness,
)
from .hypergraph import (
    CapacityError,
    Hypergraph,
    VertexSet,
    codegrees,
    degree,
    delta_j,
    induced_edge_count,
    induced_edges,
    max_degree,
    sample_vm,
    sample_vp,
)

__version__ = "0.1.0"
