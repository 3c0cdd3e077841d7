"""Seeded input generator: config files and sweep specs for each workload.

``make_inputs(workload, seed, workdir, root, amv)`` writes the config files a
workload needs into ``workdir`` and returns plain item specs.  The same seed
writes the same files.  Draws that fail the program's own validation
(``load_config`` for configs, ``replace_param`` for every sweep point) are
redrawn here, before anything is timed, so the timed run sees only valid
inputs.

Problem sizes (time steps, quadrature nodes, path counts) are fixed per
workload; the seed varies only parameter values, sweep ranges and Monte Carlo
seeds.  That keeps the work of a pass the same from seed to seed, so timings
from different seeds are comparable.
"""

from __future__ import annotations

import random
from pathlib import Path

# (time_steps, quad_nodes) of the generated solve configs.
# Four smaller and four larger sizes sit around a block of eight at the base
# size (the base config plus seven draws), so the median item latency falls
# inside one size class, on the median of several draws, instead of on the
# border between two classes or on one draw.
SOLVE_SIZES = ((500, 32), (500, 64), (500, 128), (1000, 32),
               (1000, 64), (1000, 64), (1000, 64), (1000, 64),
               (1000, 64), (1000, 64), (1000, 64),
               (1000, 128), (2000, 32), (2000, 64), (2000, 128))

SWEEP_POINTS = 20
PI_Q_POINTS = 60
SWEEP_NUMERICS = {"time_steps": 250, "quad_nodes": 32}
# Seeded extra sweeps: (quantity, swept parameter, lowest and highest value a
# generated range may span, points).  The swept parameter is fixed per slot
# and the seed draws only the range, so a pass costs about the same for every
# seed.  A pass holds 19 sweeps, so the tail is the slowest one: the four
# cheap figure presets, ten pi_q0 sweeps with more points than those presets
# (ranks 5-14, where the median item latency falls, on the sixth of them),
# then three full-solve sweeps and the two full-solve presets.
PI_Q_SWEEPS = (("pi_q0", "alpha", 0.5, 1.0), ("pi_q0", "gamma", 0.2, 2.0),
               ("pi_q0", "beta3", 0.01, 1.0), ("pi_q0", "eta", 0.15, 0.6),
               ("pi_q0", "lambda", 0.5, 3.0), ("pi_q0", "muZ", 0.5, 2.0))
EXTRA_SWEEPS = tuple(s + (PI_Q_POINTS,) for s in PI_Q_SWEEPS + PI_Q_SWEEPS[:4]) + (
    ("pi_p0", "delta", 0.002, 0.05, SWEEP_POINTS), ("B0_0", "hP", 0.0005, 0.005, SWEEP_POINTS),
    ("B1_0", "gamma", 0.2, 2.0, SWEEP_POINTS),
)

# reduced Monte Carlo scale of `verify`: simulate does most of the work
VERIFY_NUMERICS = {"time_steps": 100, "quad_nodes": 32, "mc_dt": 0.02}
VERIFY_PATHS = {"base": 16000, "claim-heavy": 6000}
CLAIM_HEAVY = {"lambda": 20.0, "muZ": 0.05, "sigmaZ": 0.01, "beta3": 2.0}


def read_flat(path: Path) -> dict[str, str]:
    """``key = value`` lines of a config or preset file, comments dropped."""
    values = {}
    for line in path.read_text(encoding="utf-8").splitlines():
        body = line.split("#", 1)[0].strip()
        if body:
            key, _, value = body.partition("=")
            values[key.strip()] = value.strip()
    return values


class _ConfigWriter:
    """Writes validated configs derived from the base parameter set."""

    def __init__(self, root: Path, workdir: Path, amv):
        self.base = {k: float(v) for k, v in
                     read_flat(root / "demos" / "configs" / "base.cfg").items()}
        self.workdir = workdir
        self.amv = amv

    def write(self, name: str, overrides: dict) -> Path | None:
        """Write base + overrides; None if the program rejects the values."""
        values = {**self.base, **overrides}
        path = self.workdir / f"{name}.cfg"
        path.write_text("".join(f"{k} = {v!r}\n" for k, v in values.items()),
                        encoding="utf-8")
        try:
            self.amv.load_config(path)
        except (self.amv.ConfigError, self.amv.ValidationError):
            return None
        return path

    def draw(self, name: str, draw_overrides) -> Path:
        for _ in range(1000):
            path = self.write(name, draw_overrides())
            if path is not None:
                return path
        raise RuntimeError(f"no valid draw for {name} in 1000 attempts")


def _solve_specs(rng: random.Random, writer: _ConfigWriter) -> list[dict]:
    alphas = [0.5, 1.0, None] * 5          # None: uniform draw in (1/2, 1)
    rng.shuffle(alphas)
    specs = [{"name": "base", "config": writer.write("base", {}), "reference": True}]
    for i, (steps, nodes) in enumerate(SOLVE_SIZES):
        alpha = alphas[i]

        def draw(alpha=alpha, steps=steps, nodes=nodes):
            return {"gamma": rng.uniform(0.3, 2.0),
                    "alpha": rng.uniform(0.5, 1.0) if alpha is None else alpha,
                    "beta3": 10.0 ** rng.uniform(-4.0, 0.0),
                    "time_steps": steps, "quad_nodes": nodes}
        name = f"solve{i}-{steps}x{nodes}"
        specs.append({"name": name, "config": writer.draw(name, draw), "reference": False})
    return specs


def _sweep_range(rng: random.Random, lo: float, hi: float) -> tuple[float, float]:
    width = rng.uniform(0.4, 1.0) * (hi - lo)
    start = rng.uniform(lo, hi - width)
    return start, start + width


def _sweep_specs(rng: random.Random, writer: _ConfigWriter, root: Path) -> list[dict]:
    amv = writer.amv
    base_cfg = writer.write("base", {})
    specs = []
    for preset in sorted((root / "demos" / "presets").glob("*.preset")):
        p = read_flat(preset)
        specs.append({"name": preset.stem, "config": base_cfg, "param": p["param"],
                      "lo": p["from"], "hi": p["to"], "points": p["points"],
                      "quantity": p["quantity"],
                      "reference": f"{preset.stem}.csv"})
    extra_cfg = writer.write("sweep-extra", SWEEP_NUMERICS)
    records = amv.load_config(extra_cfg)
    for i, (quantity, param, lowest, highest, points) in enumerate(EXTRA_SWEEPS):
        for _ in range(1000):
            lo, hi = _sweep_range(rng, lowest, highest)
            spec = amv.SweepSpec.from_range(param, lo, hi, points, quantity)
            try:
                for value in spec.values:
                    amv.config.replace_param(*records, param, value)
            except amv.ValidationError:
                continue
            break
        else:
            raise RuntimeError(f"no valid {quantity} sweep over {param} in 1000 attempts")
        specs.append({"name": f"extra{i}-{quantity}-{param}", "config": extra_cfg,
                      "param": param, "lo": repr(lo), "hi": repr(hi),
                      "points": str(points), "quantity": quantity,
                      "reference": None})
    return specs


def _verify_specs(rng: random.Random, writer: _ConfigWriter) -> list[dict]:
    specs = []
    for name, extra in (("base", {}), ("claim-heavy", CLAIM_HEAVY)):
        overrides = {**extra, **VERIFY_NUMERICS, "mc_paths": VERIFY_PATHS[name],
                     "seed": rng.randrange(1, 2 ** 31)}
        path = writer.write(f"verify-{name}", overrides)
        if path is None:
            raise RuntimeError(f"verify config {name} is not valid")
        specs.append({"name": name, "config": path})
    return specs


def make_inputs(workload: str, seed: int, workdir: Path, root: Path, amv) -> list[dict]:
    rng = random.Random(f"{workload}:{seed}")
    writer = _ConfigWriter(root, workdir, amv)
    if workload == "solve":
        return _solve_specs(rng, writer)
    if workload == "sweep":
        return _sweep_specs(rng, writer, root)
    if workload == "verify":
        return _verify_specs(rng, writer)
    raise ValueError(f"unknown workload {workload!r}")
