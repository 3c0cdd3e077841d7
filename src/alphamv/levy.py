"""Claim-size Levy measure: quadrature representation and exact sampling.

The measure nu(dz) of a compound Poisson claim process has total mass lambda
and a density proportional to the claim-size density.  Every integral
``int_0^inf g(z) nu(dz)`` used by the solver is evaluated as a fixed
Gauss-Legendre rule ``sum_i w_i g(z_i)`` whose weights already absorb lambda
and the density, so callers never see the distribution again.

This module owns the claim law's domain.  A table is integrated over its
grid, the truncated normal where its density is within ``e^{-32}`` of its
maximum on (0, inf): on ``[max(0, muZ - reach), muZ + reach]`` with ``reach
= sqrt((max(0, muZ) - muZ)^2 + 64 sigmaZ^2)``, which is ``muZ +- 8 sigmaZ``
for ``muZ >= 0``.  Both kinds normalise the density, taken relative to its
maximum, on the rule itself, so the mass is lambda by construction and the
tail left out is at most about ``e^{-32}`` of it.  The integrability rule,
the paper's Assumption 3.1 for the model's tilts, is :func:`tilt_limit`.
The Gauss-Legendre rule for each node count is computed once and shared
read-only.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
from numpy.polynomial.legendre import leggauss

from .config import ClaimModelSpec
from .errors import NumericalError, ValidationError

__all__ = ["ClaimMeasure", "build_measure", "tilt_limit"]

_TAIL_DECAY = 32.0     # the truncated normal's support ends at density e^{-32} of its peak


@dataclass(frozen=True)
class ClaimMeasure:
    """Quadrature view of the claim measure: nodes z_i > 0, weights w_i >= 0.

    ``sum_i w_i = lambda`` by construction, on the support of the module
    docstring, and ``sum_i w_i z_i = lambda E[Z]`` up to the tail left out.
    Its tilts must obey :func:`tilt_limit`.  Immutable and shareable.
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


def tilt_limit(spec: ClaimModelSpec) -> float:
    """Supremum of the b with ``exp(a z + b z^2)`` integrable against the size law, any a.

    ``1/(2 sigmaZ^2)`` for the truncated normal (inf where that overflows),
    and inf for a table, whose support is compact.
    """
    if spec.kind != "truncated-normal":
        return math.inf
    inv = 1.0 / spec.sigmaZ
    return 0.5 * inv * inv


def build_measure(spec: ClaimModelSpec, quad_nodes: int) -> ClaimMeasure:
    """The Gauss-Legendre representation of the claim measure (see the module docstring).

    ValidationError (tag ``density=0``) when the density is 0 at every node.
    """
    x, w = _gauss_legendre(quad_nodes)
    if spec.kind == "truncated-normal":
        peak, s = max(0.0, spec.muZ), spec.sigmaZ
        gap = peak - spec.muZ
        reach = math.hypot(gap, math.sqrt(2.0 * _TAIL_DECAY) * s)
        lo, hi = max(0.0, spec.muZ - reach), spec.muZ + reach
        nodes = 0.5 * (hi - lo) * x + 0.5 * (hi + lo)
        d = (nodes - peak) / s       # ((z - muZ)^2 - gap^2)/s^2 = d (d + 2 gap/s): no cancellation
        dens = np.exp(-0.5 * d * (d + 2.0 * gap / s))
    else:
        lo, hi = float(spec.z_grid[0]), float(spec.z_grid[-1])
        nodes = 0.5 * (hi - lo) * x + 0.5 * (hi + lo)
        dens = np.interp(nodes, spec.z_grid, spec.density / spec.density.max())
    total = float(w @ dens)
    if not total > 0:
        raise ValidationError("density=0", f"the claim-size density is 0 at all {quad_nodes} "
                              f"quadrature nodes on [{lo:g}, {hi:g}]")
    return ClaimMeasure(spec=spec, nodes=nodes, weights=spec.lam * (w * dens) / total)


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
    mean ``(muZ/sigmaZ^2 + a)/precision`` truncated to (0, inf).  Tabulated
    densities: inverse transform on the tilted tabulated CDF.
    NumericalError for a tilt that :func:`tilt_limit` rules out.
    """
    limit = tilt_limit(spec)
    if not b < limit:       # only a truncated normal has a finite limit
        raise NumericalError(
            f"claim-size tilt exp(a z + b z^2) with 2b >= 1/sigmaZ^2 = {2.0 * limit:g} "
            "is not integrable against the truncated normal")
    if spec.kind == "truncated-normal":
        s2 = spec.sigmaZ ** 2
        shrink = 1.0 - 2.0 * b * s2   # precision times sigmaZ^2
        return _normal_above_zero((spec.muZ + a * s2) / shrink, spec.sigmaZ / shrink ** 0.5,
                                  n, rng)
    z = spec.z_grid
    expo = a * z + b * z * z
    dens = spec.density * np.exp(expo - expo.max())
    cdf = np.zeros(dens.shape)
    np.cumsum(0.5 * (dens[1:] + dens[:-1]) * np.diff(z), out=cdf[1:])
    cdf /= cdf[-1]
    return np.interp(rng.random(n), cdf, z)
