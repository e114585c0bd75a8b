"""Parameter-process generators and market-data ingestion.

Three sources of parameter paths drive the studies:

* a two-state switching process with Gaussian noise (tracking experiments),
* a client risk process: a noisy base level that occasionally jumps to a
  fresh uniform draw, observed only every 30 days,
* daily price relatives for a basket of assets, either loaded from CSV or
  generated by a seeded geometric random walk stand-in.

Every generator is a pure function of (spec, seed), so replays are exact.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

RISK_FREE_DAILY_RELATIVE = 1.01 ** (1.0 / 360.0)  # 1% per 360 days, compounded daily


class DataError(ValueError):
    """Malformed or out-of-contract input data."""


# ---------------------------------------------------------------------------
# switching process
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SwitchingProcessSpec:
    """Parameter path alternating between two base states with additive noise.

    The path dwells ``dwell[0]`` rounds in state A, then ``dwell[1]`` rounds
    in state B, and repeats.  Noise is iid Gaussian with covariance
    ``noise_scale * I``; ``noise_clip`` (in standard deviations, None to
    disable) truncates draws so a parameter box can be declared ahead of a
    run when a study needs one.
    """

    state_a: tuple = (-100.0, 0.0, 30.0)
    state_b: tuple = (100.0, 20.0, -50.0)
    dwell: tuple = (4, 4)
    noise_scale: float = 10.0
    horizon: int = 200
    noise_clip: Optional[float] = None

    def __post_init__(self):
        if len(self.state_a) != len(self.state_b):
            raise ValueError("states must have equal dimension")
        if int(self.dwell[0]) < 1 or int(self.dwell[1]) < 1:
            raise ValueError(f"dwell lengths must be >= 1, got {self.dwell}")
        if self.noise_scale < 0:
            raise ValueError("noise_scale must be nonnegative")
        if int(self.horizon) < 1:
            raise ValueError("horizon must be >= 1")

    @property
    def dim(self) -> int:
        return len(self.state_a)


def switching_base(spec: SwitchingProcessSpec, t: int) -> np.ndarray:
    """Noise-free state at 1-based round t, by the dwell schedule."""
    if t < 1:
        raise ValueError(f"t must be >= 1, got {t}")
    d_a, d_b = int(spec.dwell[0]), int(spec.dwell[1])
    phase = (t - 1) % (d_a + d_b)
    state = spec.state_a if phase < d_a else spec.state_b
    return np.asarray(state, dtype=float)


def gen_switching(spec: SwitchingProcessSpec, seed) -> np.ndarray:
    """Full (T, dim) realization of the switching process for one seed."""
    rng = np.random.default_rng(seed)
    base = np.stack([switching_base(spec, t) for t in range(1, spec.horizon + 1)])
    if spec.noise_scale == 0.0:
        return base
    noise = rng.standard_normal(base.shape)
    if spec.noise_clip is not None:
        noise = np.clip(noise, -spec.noise_clip, spec.noise_clip)
    return base + np.sqrt(spec.noise_scale) * noise


def switching_declared_box(spec: SwitchingProcessSpec) -> tuple[np.ndarray, np.ndarray]:
    """A parameter box guaranteed to contain every draw when noise_clip is
    set (and exceeded with negligible probability otherwise, at 8 sigma)."""
    a = np.asarray(spec.state_a, dtype=float)
    b = np.asarray(spec.state_b, dtype=float)
    lo = np.minimum(a, b)
    hi = np.maximum(a, b)
    clip = spec.noise_clip if spec.noise_clip is not None else 8.0
    margin = np.sqrt(spec.noise_scale) * clip
    return lo - margin, hi + margin


# ---------------------------------------------------------------------------
# client risk process
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RiskProcessSpec:
    """Hidden risk-tolerance process observed every ``obs_every_days`` days.

    For the first ``warmup_days`` days the level is max(base + eps, 0); after
    that a latent state holds with probability ``stay_prob`` per day and
    otherwise redraws uniformly from {jump_low..jump_high}, and the level is
    max(state + eps, 0).  eps is Gaussian with variance ``noise_var``.
    """

    base: float = 4.0
    warmup_days: int = 240
    stay_prob: float = 0.9
    jump_low: int = 1
    jump_high: int = 20
    noise_var: float = 0.64
    obs_every_days: int = 30

    def __post_init__(self):
        if not (0.0 <= self.stay_prob <= 1.0):
            raise ValueError("stay_prob must lie in [0, 1]")
        if self.noise_var < 0:
            raise ValueError("noise_var must be nonnegative")
        if int(self.warmup_days) < 0 or int(self.obs_every_days) < 1:
            raise ValueError("bad warmup/observation cadence")
        if int(self.jump_low) > int(self.jump_high):
            raise ValueError("jump_low must not exceed jump_high")


def risk_state_chain(spec: RiskProcessSpec, n_days: int, seed) -> np.ndarray:
    """Latent daily states after warmup: hold or redraw, day by day."""
    rng = np.random.default_rng(seed)
    states = np.empty(n_days)
    b = float(spec.base)
    for d in range(n_days):
        states[d] = b
        if rng.random() >= spec.stay_prob:
            b = float(rng.integers(spec.jump_low, spec.jump_high + 1))
    return states


def _as_seedseq(seed) -> np.random.SeedSequence:
    if isinstance(seed, np.random.SeedSequence):
        return seed
    return np.random.SeedSequence(seed)


def gen_risk_daily(spec: RiskProcessSpec, horizon_days: int, seed) -> np.ndarray:
    """Daily risk levels lambda_d for d = 1..horizon_days."""
    if horizon_days < 1:
        raise ValueError("horizon_days must be >= 1")
    chain_seed, noise_seed = _as_seedseq(seed).spawn(2)
    warm = min(spec.warmup_days, horizon_days)
    levels = np.full(horizon_days, float(spec.base))
    n_chain = horizon_days - warm
    if n_chain > 0:
        levels[warm:] = risk_state_chain(spec, n_chain, chain_seed)
    noise_rng = np.random.default_rng(noise_seed)
    eps = noise_rng.standard_normal(horizon_days) * np.sqrt(spec.noise_var)
    return np.maximum(levels + eps, 0.0)


def gen_risk_path(spec: RiskProcessSpec, horizon_days: int, seed) -> np.ndarray:
    """Risk levels sampled at the observation marks (day 30, 60, ...)."""
    daily = gen_risk_daily(spec, horizon_days, seed)
    marks = np.arange(spec.obs_every_days, horizon_days + 1, spec.obs_every_days)
    return daily[marks - 1]


# ---------------------------------------------------------------------------
# market data
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MarketData:
    """Daily price relatives, one row per day, one column per asset."""

    relatives: np.ndarray
    names: tuple = field(default=())

    def __post_init__(self):
        rel = np.asarray(self.relatives, dtype=float)
        if rel.ndim != 2 or rel.size == 0:
            raise DataError("relatives must be a nonempty (days, assets) table")
        if not np.all(np.isfinite(rel)) or np.any(rel <= 0):
            bad = np.argwhere(~(np.isfinite(rel) & (rel > 0)))[0]
            raise DataError(
                f"nonpositive or non-finite price relative at "
                f"row {bad[0] + 1}, column {bad[1] + 1}"
            )
        object.__setattr__(self, "relatives", rel)
        names = tuple(self.names) if self.names else tuple(
            f"asset_{j + 1}" for j in range(rel.shape[1])
        )
        if len(names) != rel.shape[1]:
            raise DataError("asset name count does not match column count")
        object.__setattr__(self, "names", names)

    @property
    def n_days(self) -> int:
        return self.relatives.shape[0]

    @property
    def n_assets(self) -> int:
        return self.relatives.shape[1]


def append_risk_free(data: MarketData) -> MarketData:
    """Add a constant-return asset column named ``riskfree``."""
    col = np.full((data.n_days, 1), RISK_FREE_DAILY_RELATIVE)
    return MarketData(
        relatives=np.hstack([data.relatives, col]),
        names=data.names + ("riskfree",),
    )


def load_market_csv(path, risk_free: bool = False) -> MarketData:
    """Read a rectangular CSV of positive daily price relatives.

    An optional header row of asset names is detected by non-numeric cells.
    Errors name the offending row and column.
    """
    rows = []
    names: tuple = ()
    with open(path, newline="") as handle:
        reader = csv.reader(handle)
        raw = [row for row in reader if row and any(cell.strip() for cell in row)]
    if not raw:
        raise DataError(f"{path}: empty file")
    start = 0
    try:
        [float(cell) for cell in raw[0]]
    except ValueError:
        names = tuple(cell.strip() for cell in raw[0])
        start = 1
    width = None
    for r, row in enumerate(raw[start:], start=start + 1):
        if width is None:
            width = len(row)
        if len(row) != width:
            raise DataError(
                f"{path}: row {r} has {len(row)} cells, expected {width}"
            )
        vals = []
        for c, cell in enumerate(row, start=1):
            cell = cell.strip()
            if not cell:
                raise DataError(f"{path}: missing cell at row {r}, column {c}")
            try:
                vals.append(float(cell))
            except ValueError as exc:
                raise DataError(
                    f"{path}: unparsable cell at row {r}, column {c}: {cell!r}"
                ) from exc
        rows.append(vals)
    if not rows:
        raise DataError(f"{path}: no data rows")
    try:
        data = MarketData(relatives=np.array(rows, dtype=float), names=names)
    except DataError as exc:
        raise DataError(f"{path}: {exc}") from exc
    return append_risk_free(data) if risk_free else data


def synthetic_market(
    n_assets: int = 36,
    n_days: int = 5000,
    seed=0,
) -> MarketData:
    """Seeded geometric-random-walk stand-in for a historical dataset.

    Each asset gets its own drift, normal with mean and spread 3e-4, and
    volatility, uniform on [0.008, 0.025]; relatives are
    exp(drift + vol * z) with iid standard normal z, hence always positive.
    """
    rng = np.random.default_rng(seed)
    drift = rng.normal(3e-4, 3e-4, size=n_assets)
    vol = rng.uniform(0.008, 0.025, size=n_assets)
    z = rng.standard_normal((n_days, n_assets))
    relatives = np.exp(drift + vol * z)
    names = tuple(f"synth_{j + 1}" for j in range(n_assets))
    return MarketData(relatives=relatives, names=names)


MOMENT_RIDGE = 1e-6


def estimate_moments(
    data: MarketData, end_day: int, lookback_days: int
) -> tuple[np.ndarray, np.ndarray]:
    """Sample mean and ridged sample covariance of daily returns.

    Returns are relatives minus one over the window of ``lookback_days``
    rows ending at ``end_day`` (1-based, inclusive).  The covariance gets a
    1e-6 ridge so downstream solvers always see a positive definite matrix.
    """
    end_day = int(end_day)
    lookback_days = int(lookback_days)
    if lookback_days < 2:
        raise DataError("lookback_days must be >= 2 for a covariance")
    if end_day - lookback_days < 0:
        raise DataError(
            f"window of {lookback_days} days ending at day {end_day} "
            "starts before the data"
        )
    if end_day > data.n_days:
        raise DataError(
            f"end_day {end_day} exceeds the {data.n_days} available days"
        )
    window = data.relatives[end_day - lookback_days : end_day] - 1.0
    mu = window.mean(axis=0)
    sigma = np.cov(window, rowvar=False, ddof=1)
    sigma = np.atleast_2d(sigma)
    sigma = (sigma + sigma.T) / 2.0
    sigma[np.diag_indices_from(sigma)] += MOMENT_RIDGE
    return mu, sigma
