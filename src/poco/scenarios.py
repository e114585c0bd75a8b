"""Parameter-process generators and market-data ingestion.

Three sources of parameter paths drive the studies:

* a two-state switching process with Gaussian noise (tracking experiments),
* a client risk process: a noisy base level that occasionally jumps to a
  fresh uniform draw, observed only every 30 days,
* daily price relatives for a basket of assets, either loaded from CSV or
  generated by a seeded geometric random walk stand-in.

Every generator is a pure function of (spec, seed), so replays are exact.
The risk chain reads its random stream in bulk and walks only the switch
days, replaying numpy's PCG64 ``random()`` and scalar ``integers()`` rules
bit for bit; the tests keep the day-by-day loop as its reference.
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


def switching_base(spec: SwitchingProcessSpec, t) -> np.ndarray:
    """Noise-free state at 1-based round t by the dwell schedule, or one row
    per round of an array of them, as :func:`gen_switching` reads them."""
    t = np.asarray(t)
    if (t < 1).any():
        raise ValueError(f"t must be >= 1, got {t}")
    d_a, d_b = int(spec.dwell[0]), int(spec.dwell[1])
    in_b = (t - 1) % (d_a + d_b) >= d_a
    return np.array([spec.state_a, spec.state_b], dtype=float)[in_b.astype(int)]


def gen_switching(spec: SwitchingProcessSpec, seed) -> np.ndarray:
    """Full (T, dim) realization for one seed: every round's :func:`switching_base`, plus noise."""
    rng = np.random.default_rng(seed)
    base = switching_base(spec, np.arange(1, spec.horizon + 1))
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
        for name in ("jump_low", "jump_high"):
            bound = getattr(self, name)
            if not _is_int64(bound):
                raise ValueError(f"{name} must be an integer in the int64 range, got {bound!r}")
        if int(self.jump_low) > int(self.jump_high):
            raise ValueError("jump_low must not exceed jump_high")


def _is_int64(v) -> bool:
    try:
        return int(v) == v and -(2**63) <= int(v) < 2**63
    except (TypeError, ValueError, OverflowError):
        return False


def risk_state_chain(spec: RiskProcessSpec, n_days: int, seed) -> np.ndarray:
    """Latent daily states after warmup: hold or redraw, day by day.

    Bit for bit the loop that, each day, records the state, then draws
    ``rng.random()`` from ``np.random.default_rng(seed)`` and on a draw of
    at least ``stay_prob`` redraws the state as ``rng.integers(jump_low,
    jump_high + 1)``.  The stream is read in bulk instead: raw 64-bit words
    in blocks of ``2 * n_days``, the switch days found by one vectorized
    test of each word's ``random()`` value, ``(word >> 11) * 2**-53``, and a
    Python walk over the switch events only, which replays numpy's scalar
    ``integers`` rule for PCG64 (Lemire, "Fast random integer generation in
    an interval", ACM TOMACS 29(1), 2019).  A one-value range draws nothing.
    A range of at most 2**32 values maps 32-bit half-words by Lemire's
    multiply-shift with rejection; the generator buffers half-words, so a
    fresh word serves its low half and saves its high half for the next
    draw, even across the ``random()`` draws in between.  A wider range
    maps whole words by the 64-bit rule.  The states fill by one
    ``np.repeat``.  This couples the chain to numpy's ``Generator``
    internals; the tests keep the loop as its reference.
    """
    source = np.random.default_rng(seed).bit_generator
    stay, low = spec.stay_prob, int(spec.jump_low)
    width = int(spec.jump_high) - low + 1
    bits = 32 if width <= 2**32 else 64
    mask, threshold = (1 << bits) - 1, (1 << bits) % width
    raw, hits = np.empty(0, dtype=np.uint64), []  # the words read; the switch words among them

    def read():
        nonlocal raw
        block = source.random_raw(2 * n_days)
        hits.extend((np.flatnonzero((block >> 11) * 2.0**-53 >= stay) + len(raw)).tolist())
        raw = np.concatenate([raw, block])

    def word() -> int:
        nonlocal pos
        if pos == len(raw):
            read()
        pos += 1
        return int(raw[pos - 1])

    read()
    values, starts = [float(spec.base)], []  # each state and the day it starts
    day = pos = h = 0  # the next day, raw word and switch word to read
    half = None  # the buffered high half-word
    while True:
        while h < len(hits) and hits[h] < pos:
            h += 1
        if h == len(hits):
            if pos + n_days - day <= len(raw):
                break
            read()
            continue
        day += hits[h] - pos + 1
        if day > n_days:
            break
        pos = hits[h] + 1
        value = low
        if width > 1:
            while True:
                if bits == 64:
                    u = word()
                elif half is None:
                    u = word()
                    u, half = u & mask, u >> 32
                else:
                    u, half = half, None
                product = u * width
                if product & mask >= threshold:
                    break
            value += product >> bits
        starts.append(day)
        values.append(float(value))
    return np.repeat(values, np.diff([0, *starts, n_days]))


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


def _number(cell: str) -> Optional[float]:
    try:
        return float(cell)
    except ValueError:
        return None


def read_numeric_csv(path) -> tuple[np.ndarray, tuple, tuple]:
    """The cells of a rectangular CSV of finite numbers, as a (rows, columns)
    array, the names in its header row (empty when it has none) and the
    1-based file line of each data row.

    A first row none of whose cells parses as a number is a header; any
    other first row is data, so one that mixes numbers and text is refused
    at its first unparsable cell.  Blank lines are skipped.  A missing
    file, a ragged row (a header counts) and a missing, unparsable or
    non-finite cell raise ``DataError`` naming the path and, for a cell or
    a row, its 1-based row (line) and column.
    """
    try:
        with open(path, newline="") as handle:
            raw = [
                (r, row) for r, row in enumerate(csv.reader(handle), start=1)
                if any(cell.strip() for cell in row)
            ]
    except OSError as exc:
        raise DataError(f"{path}: cannot read: {exc.strerror or exc}") from exc
    header = [raw.pop(0)] if raw and all(_number(c) is None for c in raw[0][1]) else []
    if not raw:
        raise DataError(f"{path}: no data rows")
    width = len(raw[0][1])
    for r, row in header + raw:
        if len(row) != width:
            raise DataError(f"{path}: row {r} has {len(row)} cells, expected {width}")
    rows = []
    for r, row in raw:
        vals = []
        for c, cell in enumerate(row, start=1):
            cell = cell.strip()
            if not cell:
                raise DataError(f"{path}: missing cell at row {r}, column {c}")
            val = _number(cell)
            if val is None:
                raise DataError(f"{path}: unparsable cell at row {r}, column {c}: {cell!r}")
            if not np.isfinite(val):
                raise DataError(
                    f"{path}: non-finite cell at row {r}, column {c}: {cell!r}"
                )
            vals.append(val)
        rows.append(vals)
    names = tuple(cell.strip() for _, row in header for cell in row)
    return np.array(rows, dtype=float), names, tuple(r for r, _ in raw)


def load_market_csv(path, risk_free: bool = False) -> MarketData:
    """Read a rectangular CSV of positive daily price relatives, with an
    optional header row of asset names (see ``read_numeric_csv``).

    Errors name the offending row (file line) and column.
    """
    relatives, names, lines = read_numeric_csv(path)
    bad = np.argwhere(relatives <= 0)
    if bad.size:
        r, c = bad[0]
        raise DataError(
            f"{path}: nonpositive price relative at row {lines[r]}, "
            f"column {c + 1}: {float(relatives[r, c])!r}"
        )
    try:
        data = MarketData(relatives=relatives, names=names)
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
    data: MarketData, end_day, lookback_days: int
) -> tuple[np.ndarray, np.ndarray]:
    """Sample mean and ridged sample covariance of daily returns, over one
    window or a stack of windows sharing a lookback.

    Returns are relatives minus one over the window of ``lookback_days``
    rows ending at ``end_day`` (1-based, inclusive).  One end day gives mu
    (n,) and Sigma (n, n); an array of k end days, in any order, gives
    (k, n) and (k, n, n), whose row i equals the call at ``end_day[i]``
    alone bit for bit, and both equal ``np.cov(window, rowvar=False)``
    symmetrized.  The k windows are gathered into one (k, lookback, n)
    stack, averaged over its middle axis and multiplied by their own
    transposes in one ``matmul``.  The covariance gets a 1e-6 ridge so
    downstream solvers always see a positive definite matrix.  A window
    that leaves the data raises ``DataError`` naming the first offending
    end day.
    """
    ends = np.asarray(end_day, dtype=np.intp)
    days = ends.reshape(-1)
    lookback_days = int(lookback_days)
    if lookback_days < 2:
        raise DataError("lookback_days must be >= 2 for a covariance")
    early = days < lookback_days
    if early.any():
        raise DataError(
            f"window of {lookback_days} days ending at day {days[early][0]} "
            "starts before the data"
        )
    late = days > data.n_days
    if late.any():
        raise DataError(
            f"end_day {days[late][0]} exceeds the {data.n_days} available days"
        )
    windows = data.relatives[days[:, None] - lookback_days + np.arange(lookback_days)]
    windows -= 1.0
    mu = windows.mean(axis=1)
    # np.cov(window, rowvar=False, ddof=1) bit for bit, without its overhead
    windows -= mu[:, None, :]
    sigma = np.matmul(windows.transpose(0, 2, 1), windows)
    sigma *= 1.0 / (lookback_days - 1)
    sigma = np.add(sigma, sigma.transpose(0, 2, 1))
    sigma *= 0.5  # halving by a product is exact, as by a quotient
    n = sigma.shape[1]
    sigma.reshape(days.shape[0], n * n)[:, :: n + 1] += MOMENT_RIDGE  # the diagonals
    return (mu[0], sigma[0]) if ends.ndim == 0 else (mu, sigma)
