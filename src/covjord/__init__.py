"""covjord: exact covariant bi-differential operator families on simple
real Jordan algebras, with symbolic certificates and numeric cross-checks.

Layers, bottom up:

  scalars      exact coefficient ring Q[s,t,lam,mu][tau,tau^-1], Gaussian rationals,
               exact linear algebra (rref, inverse, exact rational matrices)
  polynomials  sparse multivariate polynomials over it (or over bare rationals
               when parameter-free), exact division
  fischer      derivative pairing, dual polynomials of a Gram matrix, derivative
               spaces, orthogonal bases (Gram-Schmidt over Q), the product-rule
               expansion in the coordinate or a given pairing
  jordan       concrete simple real Jordan algebras + classification registry
  weyl         normal-ordered differential operators (constant-coefficient
               ones from their symbol), Fourier conjugation, restriction to
               the diagonal, the bracket chain
  detpower     det-power calculus: factorization identities, the main-identity
               family D, its Fourier conjugate E and the covariance family F,
               the graded cross-check route on the product-rule expansion
  conformal    quadric model, cocycles, infinitesimal action, covariance
  rpq          explicit quadratic-space operators and the bracket family
  quadpack     adaptive quadrature: QUADPACK's QAGS, float for float
  zeta         gamma factors, functional-equation matrices, numeric checks
               by quadrature (`zeta.quad`)
  suites       registry of seeded verification suites
  cli          the command-line runner

A module imports only from the modules listed above it.
"""

from .jordan import algebra_from_spec, registry_json, registry_rows

__version__ = "0.1.0"

__all__ = ["algebra_from_spec", "registry_rows", "registry_json", "__version__"]
