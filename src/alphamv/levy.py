"""Claim-size Levy measure: quadrature representation and exact sampling.

The measure nu(dz) of a compound Poisson claim process has total mass lambda
and a density proportional to the claim-size density.  Every integral
``int_0^inf g(z) nu(dz)`` used by the solver is evaluated as a fixed
Gauss-Legendre rule ``sum_i w_i g(z_i)`` whose weights already absorb lambda
and the density, so callers never see the distribution again.

For the truncated normal the quadrature support is clipped to
``[max(0, muZ - 8 sigmaZ), muZ + 8 sigmaZ]``; the neglected tail mass is below
1e-15 of lambda, far beneath the solver's root tolerance, so exponential
integrands remain exact to tolerance.  Its density is evaluated in closed
form, ``phi((z - muZ)/sigmaZ) / (sigmaZ P(N(muZ, sigmaZ^2) > 0))`` with the
normalizing probability from ``math.erfc``.  The Gauss-Legendre rule for each
node count is computed once and shared read-only.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
from numpy.polynomial.legendre import leggauss

from .config import ClaimModelSpec
from .errors import NumericalError, ValidationError

__all__ = ["ClaimMeasure", "build_measure"]

_SUPPORT_SIGMAS = 8.0
_SQRT_2PI = math.sqrt(2.0 * math.pi)


@dataclass(frozen=True)
class ClaimMeasure:
    """Quadrature view of the claim measure: nodes z_i > 0, weights w_i >= 0.

    ``sum_i w_i = lambda`` up to quadrature tolerance, and
    ``sum_i w_i z_i = lambda E[Z]``.  Immutable and shareable.
    """

    spec: ClaimModelSpec
    nodes: np.ndarray
    weights: np.ndarray

    def __post_init__(self) -> None:
        nodes = np.asarray(self.nodes, dtype=float).copy()
        weights = np.asarray(self.weights, dtype=float).copy()
        if np.any(nodes <= 0):
            raise ValidationError("nodes<=0", "all quadrature nodes must be strictly positive")
        if np.any(weights < 0):
            raise ValidationError("weights<0", "all quadrature weights must be nonnegative")
        nodes.flags.writeable = False
        weights.flags.writeable = False
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "weights", weights)

    def moment(self, k: int) -> float:
        """int z^k nu(dz); moment(0) is the total mass lambda."""
        return float(self.weights @ self.nodes ** k)


@functools.lru_cache(maxsize=16)
def _gauss_legendre(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights on [-1, 1] (read-only, cached)."""
    x, w = leggauss(n)
    x.flags.writeable = False
    w.flags.writeable = False
    return x, w


def build_measure(spec: ClaimModelSpec, quad_nodes: int) -> ClaimMeasure:
    """Build the Gauss-Legendre representation of the claim measure."""
    x, w = _gauss_legendre(quad_nodes)
    if spec.kind == "truncated-normal":
        lo = max(0.0, spec.muZ - _SUPPORT_SIGMAS * spec.sigmaZ)
        hi = spec.muZ + _SUPPORT_SIGMAS * spec.sigmaZ
        nodes = 0.5 * (hi - lo) * x + 0.5 * (hi + lo)
        scale = 0.5 * (hi - lo)
        # P(Z_untruncated > 0) = Phi(muZ / sigmaZ)
        trunc_const = 0.5 * math.erfc(-(spec.muZ / spec.sigmaZ) / math.sqrt(2.0))
        u = (nodes - spec.muZ) / spec.sigmaZ
        dens = np.exp(-u ** 2 / 2.0) / _SQRT_2PI / spec.sigmaZ / trunc_const
        weights = spec.lam * scale * w * dens
    else:
        z_grid, density = spec.z_grid, spec.density
        lo, hi = float(z_grid[0]), float(z_grid[-1])
        nodes = 0.5 * (hi - lo) * x + 0.5 * (hi + lo)
        scale = 0.5 * (hi - lo)
        dens = np.interp(nodes, z_grid, density)
        # normalize under the same rule so the total mass is lambda exactly
        total = scale * float(w @ dens)
        weights = spec.lam * scale * w * dens / total
    return ClaimMeasure(spec=spec, nodes=nodes, weights=weights)


def _normal_above_zero(mean: float, sd: float, n: int, rng: np.random.Generator) -> np.ndarray:
    """n draws of N(mean, sd^2) conditioned on (0, inf).

    For mean >= 0, plain rejection from the normal accepts at least half of
    the draws: the nonpositive ones are drawn again until none is left.  Below
    that the lower tail is sampled by Robert's exponential proposal
    (Statistics and Computing 5, 1995): in units of sd above the cut-off
    alpha = -mean/sd, ``x = alpha + Exp(lam)`` with ``lam = (alpha +
    sqrt(alpha^2 + 4))/2``, accepted with probability ``exp(-(x - lam)^2/2)``,
    which accepts at least 3/4 of the proposals.  Either way the first n
    draws are plain normals.
    """
    out = rng.normal(mean, sd, size=n)
    if mean >= 0:
        redo = np.flatnonzero(out <= 0)
        while redo.size:
            out[redo] = rng.normal(mean, sd, size=redo.size)
            redo = redo[out[redo] <= 0]
        return out
    alpha = -mean / sd
    lam = 0.5 * (alpha + math.sqrt(alpha * alpha + 4.0))
    pending = np.arange(n)
    while pending.size:
        x = alpha + rng.exponential(size=pending.size) / lam
        z = mean + sd * x
        ok = (rng.random(pending.size) <= np.exp(-0.5 * (x - lam) ** 2)) & (z > 0)
        out[pending[ok]] = z[ok]
        pending = pending[~ok]
    return out


def sample_truncated_sizes(spec: ClaimModelSpec, n: int, rng: np.random.Generator,
                           a: float = 0.0, b: float = 0.0) -> np.ndarray:
    """Draw n claim sizes exactly from the size law tilted by exp(a z + b z^2).

    ``a`` and ``b`` are scalars, one tilt for all n draws; the default is the
    untilted claim-size law.  Truncated normal: the tilt completes the
    square, so the draw is the normal with precision ``1/sigmaZ^2 - 2b`` and
    mean ``(muZ/sigmaZ^2 + a)/precision`` truncated to (0, inf);
    NumericalError when ``2b >= 1/sigmaZ^2`` (no such normal).  Tabulated
    densities: inverse transform on the tilted tabulated CDF.
    """
    if spec.kind == "truncated-normal":
        s2 = spec.sigmaZ ** 2
        shrink = 1.0 - 2.0 * b * s2   # precision times sigmaZ^2
        if shrink <= 0:
            raise NumericalError(
                f"claim-size tilt exp(a z + b z^2) with 2b >= 1/sigmaZ^2 = {1.0 / s2:g} "
                "is not integrable against the truncated normal")
        return _normal_above_zero((spec.muZ + a * s2) / shrink, spec.sigmaZ / shrink ** 0.5,
                                  n, rng)
    z = spec.z_grid
    expo = a * z + b * z * z
    dens = spec.density * np.exp(expo - expo.max())
    cdf = np.zeros(dens.shape)
    np.cumsum(0.5 * (dens[1:] + dens[:-1]) * np.diff(z), out=cdf[1:])
    cdf /= cdf[-1]
    return np.interp(rng.random(n), cdf, z)
