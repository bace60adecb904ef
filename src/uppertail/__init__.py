"""Upper-tail machinery for induced edge counts in random vertex subsets.

A k-uniform hypergraph H on {0, ..., n-1} is sampled by keeping each vertex
independently with probability p (or a uniform m-subset); X counts the edges
whose vertices all survive.  The package provides exact and Monte Carlo tail
estimators, closed-form tail exponents, bounded-degree decompositions with
star matchings, and disjoint-occurrence (BK) checks, plus integer families
(arithmetic progressions, Schur triples, x + y = l*z) to instantiate them.
"""
