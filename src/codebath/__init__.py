"""Numerical laboratory for planar-code memories coupled to continuous
gapless environments: lattice/decoder combinatorics, bath correlators,
one-loop impurity flow, and closed-form lifetime estimates, driven by a
deterministic sweep CLI."""

__version__ = "0.1.0"
