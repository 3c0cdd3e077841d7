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

__all__ = ["ClaimMeasure", "build_measure", "integrate", "premium_rate"]

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


def integrate(measure: ClaimMeasure, g) -> float:
    """sum_i w_i g(z_i).  Linear in g, monotone for pointwise-ordered integrands.

    Raises NumericalError naming the first offending node if g is not finite
    there.
    """
    values = np.asarray(g(measure.nodes), dtype=float)
    if not np.all(np.isfinite(values)):
        bad = int(np.flatnonzero(~np.isfinite(values))[0])
        raise NumericalError(
            f"integrand not finite at node z={measure.nodes[bad]!r} (index {bad}): {values[bad]!r}"
        )
    return float(measure.weights @ values)


def premium_rate(measure: ClaimMeasure, theta: float) -> float:
    """(1 + theta) * int z nu(dz), the expected-value premium principle."""
    if theta <= 0:
        raise ValidationError("theta<=0", f"safety loading must satisfy theta > 0, got {theta}")
    return (1.0 + theta) * measure.moment(1)


def _normal_above_zero(mean, sd, n: int, rng: np.random.Generator) -> np.ndarray:
    """n draws of N(mean, sd^2) conditioned on (0, inf); mean, sd scalars or length n.

    Where mean >= 0, plain rejection from the normal accepts at least half of
    the draws.  Below that the lower tail is sampled by Robert's exponential
    proposal (Statistics and Computing 5, 1995): in units of sd above the
    cut-off alpha = -mean/sd, ``x = alpha + Exp(lam)`` with
    ``lam = (alpha + sqrt(alpha^2 + 4))/2``, accepted with probability
    ``exp(-(x - lam)^2/2)``, which accepts at least 3/4 of the proposals.
    """
    out = rng.normal(mean, sd, size=n)
    redo = out <= 0
    if not (np.any(mean < 0) or redo.any()):
        return out
    mean, sd = np.broadcast_to(mean, n), np.broadcast_to(sd, n)
    redo &= mean >= 0
    pending = np.flatnonzero(mean < 0)
    while pending.size:
        m, s = mean[pending], sd[pending]
        alpha = -m / s
        lam = 0.5 * (alpha + np.sqrt(alpha * alpha + 4.0))
        x = alpha + rng.exponential(size=pending.size) / lam
        z = m + s * x
        ok = (rng.random(pending.size) <= np.exp(-0.5 * (x - lam) ** 2)) & (z > 0)
        out[pending[ok]] = z[ok]
        pending = pending[~ok]
    while redo.any():
        idx = np.flatnonzero(redo)
        out[idx] = rng.normal(mean[idx], sd[idx])
        redo[idx] = out[idx] <= 0
    return out


def sample_truncated_sizes(spec: ClaimModelSpec, n: int, rng: np.random.Generator,
                           a=0.0, b=0.0) -> np.ndarray:
    """Draw n claim sizes exactly from the size law tilted by exp(a z + b z^2).

    ``a`` and ``b`` are scalars or length-n arrays (one tilt per draw); the
    default is the untilted claim-size law.  Truncated normal: the tilt
    completes the square, so the draw is the normal with precision
    ``1/sigmaZ^2 - 2b`` and mean ``(muZ/sigmaZ^2 + a)/precision`` truncated to
    (0, inf); NumericalError when ``2b >= 1/sigmaZ^2`` (no such normal).
    Tabulated densities: inverse transform on the tilted tabulated CDF.
    """
    if spec.kind == "truncated-normal":
        s2 = spec.sigmaZ ** 2
        shrink = 1.0 - 2.0 * b * s2   # precision times sigmaZ^2
        if np.any(shrink <= 0):
            raise NumericalError(
                f"claim-size tilt exp(a z + b z^2) with 2b >= 1/sigmaZ^2 = {1.0 / s2:g} "
                "is not integrable against the truncated normal")
        if n == 0:
            return np.empty(0)
        return _normal_above_zero((spec.muZ + a * s2) / shrink, spec.sigmaZ / shrink ** 0.5,
                                  n, rng)
    if n == 0:
        return np.empty(0)
    z = spec.z_grid
    a, b = np.broadcast_arrays(np.asarray(a, dtype=float), np.asarray(b, dtype=float))
    keys, row = np.unique(np.stack((a.ravel(), b.ravel())), axis=1, return_inverse=True)
    expo = keys[0][:, None] * z + keys[1][:, None] * z * z
    dens = spec.density * np.exp(expo - expo.max(axis=1, keepdims=True))
    cdf = np.zeros(dens.shape)
    np.cumsum(0.5 * (dens[:, 1:] + dens[:, :-1]) * np.diff(z), axis=1, out=cdf[:, 1:])
    cdf /= cdf[:, -1:]
    u = rng.random(n)
    if len(keys[0]) == 1:
        return np.interp(u, cdf[0], z)
    # one tilt per draw: invert each distinct tilt's CDF on its own draws
    row = row.ravel()
    order = np.argsort(row, kind="stable")
    out = np.empty(n)
    for k, idx in enumerate(np.split(order, np.searchsorted(row[order], np.arange(1, len(cdf))))):
        out[idx] = np.interp(u[idx], cdf[k], z)
    return out
