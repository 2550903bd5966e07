"""Weighted Ornstein-Uhlenbeck elliptic operators.

Numerical toolkit around the generator L u = Lap(u) - <grad(phi) + x, grad(u)>
for convex weights phi: proximal smoothing of weights, a finite-difference
solver for the resolvent problem lam u - L u = f, Monte Carlo estimators of
the semigroup and the resolvent, Galerkin truncation with mollification,
classical Wiener-space examples, and a harness that verifies the
dimension-free a priori bounds.
"""

__version__ = "0.1.0"
