"""Claim-size Levy measure: quadrature representation and exact sampling.

The measure nu(dz) of a compound Poisson claim process has total mass lambda
and a density proportional to the claim-size density.  Every integral
``int_0^inf g(z) nu(dz)`` used by the solver is evaluated as a fixed
Gauss-Legendre rule ``lambda sum_i p_i g(z_i)`` whose probability weights
p_i absorb the density, so callers never see the distribution again.
:func:`build_claim_tables` builds many measures on one node count at once,
one checked, read-only table row each, and a :class:`ClaimMeasure` is a view
of a one-row table.

This module owns the claim law's domain.  A table is integrated over its
grid, the truncated normal where its density is within ``e^{-32}`` of its
maximum on (0, inf): on ``[max(0, muZ - reach), muZ + reach]`` with ``reach
= sqrt((max(0, muZ) - muZ)^2 + 64 sigmaZ^2)``, which is ``muZ +- 8 sigmaZ``
for ``muZ >= 0``.  Both kinds normalise the density, taken relative to its
maximum, on the rule itself, so the weights sum to 1 by construction and the
tail left out is at most about ``e^{-32}`` of it.  The integrability rule,
the paper's Assumption 3.1 for the model's tilts, is :func:`tilt_limit`.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np
from numpy.polynomial.legendre import leggauss

from .config import ClaimModelSpec
from .errors import NumericalError, ValidationError

__all__ = ["ClaimMeasure", "ClaimTables", "build_claim_tables", "build_measure", "tilt_limit"]

_TAIL_DECAY = 32.0     # the truncated normal's support ends at density e^{-32} of its peak


class ClaimTables(NamedTuple):
    """The claim measures of many lanes on one node count, one table row per lane.

    Row l is ``nu_l(dz) = lam sum_i probs[l, i] delta(z - nodes[l, i])`` with
    ``lam = specs[l].lam``.  Each row of ``probs`` sums to 1 and lambda is
    kept apart, so no weight rounds or underflows with lambda: the
    first-order condition, lambda times a lambda-free function, is solved
    on ``probs`` alone, and the integrals of the intercepts are taken on
    ``probs`` and scaled by lambda.
    """

    specs: tuple            # the claim records, one per row
    nodes: np.ndarray       # (rows, nodes)
    probs: np.ndarray       # (rows, nodes)

    def take(self, rows) -> "ClaimTables":
        """The rows selected by an index sequence, in that order."""
        rows = np.asarray(rows, dtype=int)
        return ClaimTables(tuple(self.specs[r] for r in rows.tolist()), self.nodes[rows],
                           self.probs[rows])


def _lane_dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-wise dot products of a (..., rows, nodes) table with a (rows, nodes, 1) one.

    A stack of vector products, so each row is the same BLAS dot as
    ``a[..., l, :] @ b[l, :, 0]``; only the shared Gauss-Legendre weights of
    :func:`build_claim_tables` are a one-row ``b``, broadcast over the rows.
    (A matrix-vector product sums in another order and moves the last bit.)
    """
    return (a[..., None, :] @ b)[..., 0, 0]


def _per_lane(rows: list, width: int):
    """Per-lane rows of ``width`` scalars, as ``width`` operands against (lanes, ...) tables.

    Each operand is a (lanes, 1) column, and for a single lane the scalar
    itself: a scalar takes numpy's fast path, while a one-element array
    broadcast against a table costs about a microsecond more per operation.
    """
    return rows[0] if len(rows) == 1 else np.array(rows).reshape(-1, width).T[:, :, None]


def _domain_errors(nodes: np.ndarray, probs: np.ndarray) -> list:
    """Per table row, the ValidationError of a row outside the measure's domain, else None."""
    return [ValidationError("nodes<=0", "all quadrature nodes must be strictly positive")
            if bad_node else
            ValidationError("weights<0", "all quadrature weights must be nonnegative")
            if bad_prob else None
            for bad_node, bad_prob in zip((nodes.min(axis=1) <= 0).tolist(),
                                          (probs.min(axis=1) < 0).tolist())]


def _read_only(*arrays: np.ndarray) -> tuple:
    for array in arrays:
        array.flags.writeable = False
    return arrays


@dataclass(frozen=True, init=False)
class ClaimMeasure:
    """One claim measure: a read-only view of its one-row :class:`ClaimTables`.

    Nodes z_i > 0 and probability weights p_i >= 0, checked once, when the
    row is built.  The quadrature weights ``w = lambda p`` sum to lambda up
    to rounding, and ``sum_i w_i z_i = lambda E[Z]`` up to the tail left out.
    Its tilts must obey :func:`tilt_limit`.  ``ClaimMeasure(spec, nodes,
    probs)`` copies the arrays into a new row and raises its ValidationError.
    """

    tables: ClaimTables
    spec = property(lambda self: self.tables.specs[0])
    nodes = property(lambda self: self.tables.nodes[0])
    probs = property(lambda self: self.tables.probs[0])
    weights = property(lambda self: self.spec.lam * self.probs)

    def __init__(self, spec: ClaimModelSpec, nodes, probs) -> None:
        nodes, probs = np.array(nodes, dtype=float)[None], np.array(probs, dtype=float)[None]
        error, = _domain_errors(nodes, probs)
        if error is not None:
            raise error
        object.__setattr__(self, "tables", ClaimTables((spec,), *_read_only(nodes, probs)))

    def moment(self, k: int) -> float:
        """int z^k nu(dz); moment(0) is the total mass lambda."""
        return float(self.weights @ self.nodes ** k)


@functools.lru_cache(maxsize=16)
def _gauss_legendre(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights on [-1, 1] (read-only, cached)."""
    return _read_only(*leggauss(n))


def tilt_limit(spec: ClaimModelSpec) -> float:
    """Supremum of the b with ``exp(a z + b z^2)`` integrable against the size law, any a.

    ``1/(2 sigmaZ^2)`` for the truncated normal (inf where that overflows),
    and inf for a table, whose support is compact.
    """
    if spec.kind != "truncated-normal":
        return math.inf
    inv = 1.0 / spec.sigmaZ
    return 0.5 * inv * inv


def _support(spec: ClaimModelSpec) -> tuple[float, ...]:
    """``(lo, hi, peak, gap, sigmaZ)``: the rule's interval, and a truncated normal's shape.

    ``peak = max(0, muZ)`` is where the density on (0, inf) has its maximum
    and ``gap = peak - muZ``; a table has NaN for the three shape values.
    """
    if spec.kind != "truncated-normal":
        return float(spec.z_grid[0]), float(spec.z_grid[-1]), math.nan, math.nan, math.nan
    peak, s = max(0.0, spec.muZ), spec.sigmaZ
    gap = peak - spec.muZ
    reach = math.hypot(gap, math.sqrt(2.0 * _TAIL_DECAY) * s)
    return max(0.0, spec.muZ - reach), spec.muZ + reach, peak, gap, s


def build_claim_tables(specs: Sequence[ClaimModelSpec], quad_nodes: int):
    """The Gauss-Legendre tables of every spec's claim measure (see the module docstring).

    One row per spec, every row on ``quad_nodes`` nodes, in one numpy pass
    over the rows (the tabulated densities are interpolated row by row).
    Returns ``(tables, errors)``, the arrays read-only: ``errors[l]`` is row
    l's ValidationError, else None; a failing row is not a measure.  Tag
    ``density=0`` when the density is 0 at every node, then ``nodes<=0`` or
    ``weights<0``.
    """
    x, w = _gauss_legendre(quad_nodes)
    supports = [_support(spec) for spec in specs]
    lo, hi, peak, gap, s = _per_lane(supports, 5)
    nodes = np.reshape(0.5 * (hi - lo) * x + 0.5 * (hi + lo), (len(specs), quad_nodes))
    d = (nodes - peak) / s          # NaN on the rows of tables
    # ((z - muZ)^2 - gap^2)/s^2 = d (d + 2 gap/s): no cancellation
    dens = np.exp(-0.5 * d * (d + 2.0 * gap / s))
    for row, spec in enumerate(specs):
        if spec.kind != "truncated-normal":
            dens[row] = np.interp(nodes[row], spec.z_grid, spec.density / spec.density.max())
    total = _lane_dot(dens, w[None, :, None])
    with np.errstate(divide="ignore", invalid="ignore"):
        probs = (w * dens) / total[:, None]
    errors = _domain_errors(nodes, probs)
    for row, mass in enumerate(total.tolist()):
        if not mass > 0:
            errors[row] = ValidationError(
                "density=0", f"the claim-size density is 0 at all {quad_nodes} quadrature "
                f"nodes on [{supports[row][0]:g}, {supports[row][1]:g}]")
    return ClaimTables(tuple(specs), *_read_only(nodes, probs)), errors


def build_measure(spec: ClaimModelSpec, quad_nodes: int) -> ClaimMeasure:
    """The claim measure of one spec: the view of :func:`build_claim_tables` with one row.

    Raises that row's ValidationError.
    """
    tables, (error,) = build_claim_tables([spec], quad_nodes)
    if error is not None:
        raise error
    measure = object.__new__(ClaimMeasure)     # the row is checked: no copy, no check
    object.__setattr__(measure, "tables", tables)
    return measure


# sizes per chunk: 8 bytes each plus malloc's header stay under glibc's 128 KiB
# mmap threshold, so a chunk reuses heap memory as _csvtext's blocks do
_CHUNK_SIZES = (128 * 1024 - 64) // 8


def _chunk_bounds(offsets: np.ndarray) -> list[int]:
    """Group indices that cut groups into chunks of whole groups of at most 16,376 draws.

    ``offsets`` is 0, then the running total of the groups' draws.  Chunk k
    is groups ``bounds[k]:bounds[k + 1]``; a group of more draws than one
    chunk holds is a chunk of its own.
    """
    bounds = [0]
    while bounds[-1] < offsets.size - 1:
        lo = bounds[-1]
        hi = int(np.searchsorted(offsets, offsets[lo] + _CHUNK_SIZES, side="right")) - 1
        bounds.append(max(lo + 1, hi))
    return bounds


def _normal_above_zero(mean: float, sd: float, lengths: list[int], rng: np.random.Generator):
    """Chunks of ``lengths[k]`` draws of N(mean, sd^2) conditioned on (0, inf), as ``(k, draws)``.

    Draw order, whatever the chunking: the first-round draws of all n =
    sum(lengths), chunk by chunk, then the redraw rounds, each over all the
    entries still pending, in index order; so the draws are those of one
    chunk of n, and numpy draws ``size=m`` then ``size=k`` as it draws
    ``size=m + k``.  For mean >= 0, plain rejection from the normal accepts
    at least half of the draws: the nonpositive ones are drawn again until
    none is left.  A chunk is yielded once it has none: at once if its first
    round is all positive, else held until the round that clears it.  Below
    that the lower tail is sampled by Robert's exponential proposal
    (Statistics and Computing 5, 1995): in units of sd above the cut-off
    alpha = -mean/sd, ``x = alpha + Exp(lam)`` with ``lam = (alpha +
    sqrt(alpha^2 + 4))/2``, accepted with probability ``exp(-(x - lam)^2/2)``,
    which accepts at least 3/4 of the proposals.  Its first round is n plain
    normals, all replaced, and each of its rounds draws the exponentials of
    all pending entries before their uniforms, so every chunk is held until
    the last round.
    """
    held = []
    for k, n in enumerate(lengths):
        out = rng.normal(mean, sd, size=n)
        if mean < 0:
            continue        # Robert's sampler replaces every first-round draw
        if out.size and out.min() <= 0:     # an all-positive round needs no index
            held.append((k, out, np.flatnonzero(out <= 0)))
        else:
            yield k, out
    while held:
        pending, held = held, []
        for k, out, redo in pending:
            out[redo] = rng.normal(mean, sd, size=redo.size)
            redo = redo[out[redo] <= 0]
            if redo.size:
                held.append((k, out, redo))
            else:
                yield k, out
    if mean >= 0:
        return
    alpha = -mean / sd
    lam = 0.5 * (alpha + math.sqrt(alpha * alpha + 4.0))
    out = np.empty(sum(lengths))
    pending = np.arange(out.size)
    while pending.size:
        x = alpha + rng.exponential(size=pending.size) / lam
        z = mean + sd * x
        ok = (rng.random(pending.size) <= np.exp(-0.5 * (x - lam) ** 2)) & (z > 0)
        out[pending[ok]] = z[ok]
        pending = pending[~ok]
    yield from enumerate(np.split(out, np.cumsum(lengths[:-1])))


def stream_truncated_sizes(spec: ClaimModelSpec, counts: np.ndarray, rng: np.random.Generator,
                           a: float = 0.0, b: float = 0.0):
    """Draw ``sum(counts)`` claim sizes in chunks of whole groups, ``counts[i]`` to group i.

    Yields ``(lo, hi, sizes)`` for groups ``lo:hi``, their sizes grouped in
    order, once per chunk of at most 16,376 sizes (a group of more is a chunk
    of its own), not always in chunk order; every draw comes from ``rng`` in
    the order of :func:`sample_truncated_sizes` of all the sizes at once, so
    the sizes are those of that call bit for bit.  The law, the tilt ``a,
    b`` and the NumericalError, raised before any draw, are those of
    :func:`sample_truncated_sizes`.
    """
    limit = tilt_limit(spec)
    if not b < limit:       # only a truncated normal has a finite limit
        raise NumericalError(
            f"claim-size tilt exp(a z + b z^2) with 2b >= 1/sigmaZ^2 = {2.0 * limit:g} "
            "is not integrable against the truncated normal")
    offsets = np.concatenate(([0], np.cumsum(counts)))
    bounds = _chunk_bounds(offsets)
    lengths = np.diff(offsets[bounds]).tolist()
    if spec.kind == "truncated-normal":
        s2 = spec.sigmaZ ** 2
        shrink = 1.0 - 2.0 * b * s2   # precision times sigmaZ^2
        chunks = _normal_above_zero((spec.muZ + a * s2) / shrink, spec.sigmaZ / shrink ** 0.5,
                                    lengths, rng)
    else:
        z = spec.z_grid
        expo = a * z + b * z * z
        dens = spec.density * np.exp(expo - expo.max())
        cdf = np.zeros(dens.shape)
        np.cumsum(0.5 * (dens[1:] + dens[:-1]) * np.diff(z), out=cdf[1:])
        cdf /= cdf[-1]
        chunks = ((k, np.interp(rng.random(n), cdf, z)) for k, n in enumerate(lengths))
    for k, sizes in chunks:
        yield bounds[k], bounds[k + 1], sizes


def sample_truncated_sizes(spec: ClaimModelSpec, n: int, rng: np.random.Generator,
                           a: float = 0.0, b: float = 0.0) -> np.ndarray:
    """Draw n claim sizes exactly from the size law tilted by exp(a z + b z^2).

    ``a`` and ``b`` are scalars, one tilt for all n draws; the default is the
    untilted claim-size law.  Truncated normal: the tilt completes the
    square, so the draw is the normal with precision ``1/sigmaZ^2 - 2b`` and
    mean ``(muZ/sigmaZ^2 + a)/precision`` truncated to (0, inf).  Tabulated
    densities: inverse transform on the tilted tabulated CDF.
    NumericalError for a tilt that :func:`tilt_limit` rules out.  The one
    group, hence one chunk, of :func:`stream_truncated_sizes`.
    """
    (_, _, sizes), = stream_truncated_sizes(spec, np.array([n]), rng, a, b)
    return sizes
