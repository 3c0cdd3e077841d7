"""Model parameters, claim-model description, numerics knobs, and config I/O.

Everything downstream (quadrature, solver, simulator, CLI) consumes the three
records defined here.  All invariants are enforced at construction time, so a
record that exists is guaranteed valid; nothing is re-checked at solve time.

The on-disk format is a flat ``key = value`` file, one pair per line, ``#``
comments allowed.  See ``MODEL_KEYS`` and ``NUMERICS_DEFAULTS`` for the exact
key set.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field, fields
from typing import Optional

import numpy as np

from .errors import ConfigError, ValidationError

__all__ = [
    "ModelParams",
    "ClaimModelSpec",
    "NumericsConfig",
    "load_config",
    "save_config",
    "MODEL_KEYS",
    "NUMERICS_DEFAULTS",
    "ALL_KEYS",
]

#: Optional numerics keys and their defaults.  The defaults resolve every
#: sensitivity sweep at desk scale in seconds.
NUMERICS_DEFAULTS = {
    "quad_nodes": 64,
    "time_steps": 1000,
    "root_tol": 1e-10,
    "exp_cap": 700.0,
    "mc_paths": 200000,
    "mc_dt": 1e-3,
    "seed": 42,
}

_INT_KEYS = ("quad_nodes", "time_steps", "mc_paths", "seed")


def _require_finite(tag: str, value: float) -> None:
    if not math.isfinite(value):
        raise ValidationError(f"nonfinite:{tag}", f"{tag} must be finite, got {value!r}")


def _require_positive(tag: str, value: float) -> float:
    """``value``; ValidationError unless it is finite and > 0."""
    _require_finite(tag, value)
    if value <= 0:
        raise ValidationError(f"{tag}<=0", f"{tag} must be > 0, got {value}")
    return value


def _float_field(record, name: str):
    """The field's value, stored as a Python float if it is a real number (numpy scalars too).

    The representability checks downstream then run in Python float
    arithmetic, which does not warn; other types keep their own errors.
    """
    value = getattr(record, name)
    if type(value) is not float and isinstance(value, numbers.Real):
        value = float(value)
        object.__setattr__(record, name, value)
    return value


def _require_integer(tag: str, value) -> int:
    """``value`` as an int; ValidationError unless it is finite and integral."""
    if type(value) is not int:
        _require_finite(tag, value)
        if value != int(value):
            raise ValidationError(f"noninteger:{tag}", f"{tag} must be an integer, got {value!r}")
        value = int(value)
    return value


@dataclass(frozen=True)
class ModelParams:
    """All market, insurance, ambiguity and horizon constants.

    Immutable after construction; safe to share across concurrent tasks.
    """

    r: float        # risk-free rate (per year)
    mu: float       # stock drift
    sigma2: float   # stock volatility
    rho: float      # correlation between surplus and stock Brownian drivers
    sigma1: float   # surplus diffusion volatility
    theta: float    # insurer safety loading
    eta: float      # reinsurer safety loading
    delta: float    # credit spread of the defaultable bond
    zeta: float     # loss rate at default (recovery is 1 - zeta)
    hP: float       # real-world default intensity
    gamma: float    # risk aversion
    alpha: float    # ambiguity attitude, weight on the worst-case measure
    beta1: float    # ambiguity level: insurance premium (diffusion 1)
    beta2: float    # ambiguity level: stock return (diffusion 2)
    beta3: float    # ambiguity level: insurance liability (jumps)
    T: float        # investment horizon (years)
    T1: float       # defaultable-bond maturity (years), T1 > T
    x0: float       # initial wealth

    def __post_init__(self) -> None:
        for name in _MODEL_FIELDS:
            _require_finite(name, _float_field(self, name))
        if self.r <= 0:
            raise ValidationError("r<=0", f"risk-free rate must satisfy r > 0, got r={self.r}")
        if self.sigma2 <= 0:
            raise ValidationError("sigma2<=0", f"stock volatility must satisfy sigma2 > 0, got {self.sigma2}")
        if self.sigma1 < 0:
            raise ValidationError("sigma1<0", f"surplus volatility must satisfy sigma1 >= 0, got {self.sigma1}")
        if self.gamma <= 0:
            raise ValidationError("gamma<=0", f"risk aversion must satisfy gamma > 0, got {self.gamma}")
        if not 0.0 <= self.zeta <= 1.0:
            raise ValidationError("zeta_range", f"loss rate must satisfy 0 <= zeta <= 1, got {self.zeta}")
        if not -1.0 <= self.rho <= 1.0:
            raise ValidationError("rho_range", f"correlation must satisfy -1 <= rho <= 1, got {self.rho}")
        if self.theta <= 0:
            raise ValidationError("theta<=0", f"insurer loading must satisfy theta > 0, got {self.theta}")
        if self.eta <= self.theta:
            raise ValidationError(
                "eta<=theta",
                f"reinsurer loading must satisfy eta > theta > 0, got eta={self.eta}, theta={self.theta}",
            )
        if not 0.5 <= self.alpha <= 1.0:
            raise ValidationError("alpha_range", f"ambiguity attitude must satisfy 1/2 <= alpha <= 1, got {self.alpha}")
        for name in ("beta1", "beta2", "beta3"):
            if getattr(self, name) <= 0:
                raise ValidationError(f"{name}<=0", f"ambiguity level must satisfy {name} > 0, got {getattr(self, name)}")
        if self.T <= 0:
            raise ValidationError("T<=0", f"horizon must satisfy T > 0, got {self.T}")
        if self.T >= self.T1:
            raise ValidationError("T>=T1", f"bond maturity must satisfy T < T1, got T={self.T}, T1={self.T1}")
        if self.hP < 0:
            raise ValidationError("hP<0", f"default intensity must satisfy hP >= 0, got {self.hP}")
        if self.delta < self.zeta * self.hP:
            raise ValidationError(
                "delta<zeta*hP",
                f"credit spread must satisfy delta >= zeta*hP (default risk premium 1/Delta >= 1), "
                f"got delta={self.delta} < zeta*hP={self.zeta * self.hP}",
            )

    @property
    def rho_hat(self) -> float:
        """sqrt(1 - rho^2), the orthogonal correlation component."""
        return math.sqrt(max(0.0, 1.0 - self.rho * self.rho))

    @property
    def alpha_hat(self) -> float:
        """1 - alpha, weight on the best-case measure."""
        return 1.0 - self.alpha

    @property
    def h_q(self) -> float:
        """Risk-neutral default intensity delta / zeta (inf for zeta = 0)."""
        if self.zeta == 0.0:
            return math.inf
        return self.delta / self.zeta

    @property
    def bond_excess_drift(self) -> float:
        """(1 - Delta)*delta = delta - zeta*hP, the bond's real-world excess drift."""
        return self.delta - self.zeta * self.hP

    def discount_to_horizon(self, t):
        """e^{r(T - t)}: value at horizon of one unit held at time t."""
        return np.exp(self.r * (self.T - np.asarray(t, dtype=float)))


_MODEL_FIELDS = tuple(f.name for f in fields(ModelParams))


@dataclass(frozen=True)
class ClaimModelSpec:
    """Description of the claim-size distribution and arrival intensity.

    ``kind`` is either ``"truncated-normal"`` (normal truncated to (0, inf),
    parameters ``muZ``/``sigmaZ``) or ``"tabulated-density"`` (density sampled
    on ``z_grid``; normalized internally).
    """

    lam: float
    muZ: Optional[float] = None
    sigmaZ: Optional[float] = None
    kind: str = "truncated-normal"
    z_grid: Optional[np.ndarray] = field(default=None, repr=False)
    density: Optional[np.ndarray] = field(default=None, repr=False)

    def __post_init__(self) -> None:
        _require_finite("lambda", _float_field(self, "lam"))
        if self.lam <= 0:
            raise ValidationError("lambda<=0", f"jump intensity must satisfy lambda > 0, got {self.lam}")
        if self.kind == "truncated-normal":
            if self.muZ is None or self.sigmaZ is None:
                raise ValidationError("claim_params_missing", "truncated-normal claims require muZ and sigmaZ")
            _require_finite("muZ", _float_field(self, "muZ"))
            _require_finite("sigmaZ", _float_field(self, "sigmaZ"))
            if self.sigmaZ <= 0:
                raise ValidationError("sigmaZ<=0", f"claim-size scale must satisfy sigmaZ > 0, got {self.sigmaZ}")
        elif self.kind == "tabulated-density":
            if self.z_grid is None or self.density is None:
                raise ValidationError("tabulated_missing", "tabulated-density claims require z_grid and density")
            z = np.asarray(self.z_grid, dtype=float)
            dens = np.asarray(self.density, dtype=float)
            if z.ndim != 1 or z.size < 4 or dens.shape != z.shape:
                raise ValidationError("tabulated_grid", "z_grid must be 1-d with >= 4 points and match density shape")
            if not (np.all(np.diff(z) > 0) and z[0] > 0):
                raise ValidationError("tabulated_grid", "z_grid must be strictly increasing and positive")
            if np.any(dens < 0) or not np.all(np.isfinite(dens)) or not np.any(dens > 0):
                raise ValidationError("tabulated_density<0", "density must be nonnegative, finite and not identically zero")
            z = z.copy(); z.flags.writeable = False
            dens = dens.copy(); dens.flags.writeable = False
            object.__setattr__(self, "z_grid", z)
            object.__setattr__(self, "density", dens)
        else:
            raise ValidationError("claim_kind", f"unknown claim model kind {self.kind!r}")


@dataclass(frozen=True)
class NumericsConfig:
    """Discretization and simulation controls."""

    quad_nodes: int = NUMERICS_DEFAULTS["quad_nodes"]
    time_steps: int = NUMERICS_DEFAULTS["time_steps"]
    root_tol: float = NUMERICS_DEFAULTS["root_tol"]
    exp_cap: float = NUMERICS_DEFAULTS["exp_cap"]
    mc_paths: int = NUMERICS_DEFAULTS["mc_paths"]
    mc_dt: float = NUMERICS_DEFAULTS["mc_dt"]
    seed: int = NUMERICS_DEFAULTS["seed"]

    def __post_init__(self) -> None:
        for name in _INT_KEYS:
            object.__setattr__(self, name, _require_integer(name, getattr(self, name)))
        for name in ("quad_nodes", "time_steps", "mc_paths"):
            if getattr(self, name) < 1:
                raise ValidationError(f"{name}<1", f"{name} must be >= 1, got {getattr(self, name)}")
        for name in ("root_tol", "exp_cap", "mc_dt"):
            _require_positive(name, _float_field(self, name))
        if self.seed < 0:
            raise ValidationError("seed<0", f"seed must be >= 0, got {self.seed}")


#: Every config key in file order: the index of its record in the
#: ``(params, claims, numerics)`` triple of :func:`load_config`, and the
#: field that holds it there.  The record's ``__post_init__`` owns the
#: field's domain.
_KEY_FIELDS = {
    **{name: (0, name) for name in _MODEL_FIELDS},
    "lambda": (1, "lam"), "muZ": (1, "muZ"), "sigmaZ": (1, "sigmaZ"),
    **{name: (2, name) for name in NUMERICS_DEFAULTS},
}

#: Required keys describing the market, insurance and preference model.
MODEL_KEYS = tuple(key for key in _KEY_FIELDS if key not in NUMERICS_DEFAULTS)

ALL_KEYS = tuple(_KEY_FIELDS)


def _parse_number(key: str, text: str) -> float:
    try:
        return float(text)
    except ValueError as exc:
        raise ConfigError(f"value for key {key!r} is not a decimal literal: {text!r}") from exc


def _coerce_int(key: str, value: float) -> int:
    # isfinite first: int() of inf or nan raises OverflowError / ValueError
    if not (math.isfinite(value) and value == int(value)):
        raise ConfigError(f"key {key!r} must be a finite integer, got {value!r}")
    return int(value)


def load_config(path) -> tuple[ModelParams, ClaimModelSpec, NumericsConfig]:
    """Load a flat key-value config file.

    Missing numerics keys take defaults; missing model keys are errors.

    Raises:
        ConfigError: malformed file, unknown/duplicate keys, missing model keys.
        ValidationError: any model invariant violated by the parsed values.
    """
    raw: dict[str, float] = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            stripped = line.split("#", 1)[0].strip()
            if not stripped:
                continue
            if "=" not in stripped:
                raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {line.rstrip()!r}")
            key, _, value = stripped.partition("=")
            key = key.strip()
            if key not in ALL_KEYS:
                raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
            if key in raw:
                raise ConfigError(f"{path}:{lineno}: duplicate key {key!r}")
            raw[key] = _parse_number(key, value.strip())

    missing = [k for k in MODEL_KEYS if k not in raw]
    if missing:
        raise ConfigError(f"{path}: missing required keys: {', '.join(missing)}")

    kwargs = ({}, {}, {})
    for key, value in raw.items():
        record, name = _KEY_FIELDS[key]
        kwargs[record][name] = _coerce_int(key, value) if key in _INT_KEYS else value
    return (ModelParams(**kwargs[0]), ClaimModelSpec(**kwargs[1]),
            NumericsConfig(**kwargs[2]))


def save_config(path, params: ModelParams, claims: ClaimModelSpec, numerics: NumericsConfig) -> None:
    """Write records back to the flat key-value format.

    Floats are written with ``repr`` so a save/load round trip reproduces every
    numeric field bit for bit.
    """
    if claims.kind != "truncated-normal":
        raise ConfigError("only truncated-normal claim models have a config-file representation")
    records = (params, claims, numerics)
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(f"{key} = {getattr(records[record], name)!r}\n"
                      for key, (record, name) in _KEY_FIELDS.items())


def _with_field(record, name: str, value):
    """A copy of the valid ``record`` with one field set, validated again.

    The copy takes the record's field dict and runs its class's
    ``__post_init__``, so it gets the coercions, checks, tags and messages
    of construction without the frozen ``__init__`` setting every field anew.
    """
    copy = object.__new__(type(record))
    copy.__dict__.update(record.__dict__)
    copy.__dict__[name] = value
    copy.__post_init__()
    return copy


def replace_param(params: ModelParams, claims: ClaimModelSpec, numerics: NumericsConfig,
                  key: str, value: float) -> tuple[ModelParams, ClaimModelSpec, NumericsConfig]:
    """Return copies of the three records with one config key overridden.

    Raises KeyError for unknown keys and ValidationError when the new value
    violates an invariant, with the tag and message that constructing the
    record with that value gives.
    """
    record, name = _KEY_FIELDS[key]
    records = [params, claims, numerics]
    records[record] = _with_field(records[record], name, value)
    return tuple(records)
