"""Config files: schema, defaults, validation, and result emission.

A run is described by a JSON object of four top-level keys and the schema
sections that its experiment holds: the ones some command taking its config
reads.  Every key is declared once in ``SCHEMA``, with its validator and its
default; ``EXPERIMENTS`` gives each experiment its sections and its few
departures from those defaults, and ``KINDS`` the keys each domain and
predictor kind holds.  The minimal config is just ``{"experiment": "exp1"}``
(or ``{}`` when the CLI command names the experiment).  Unknown keys are
rejected with a suggestion; a section the experiment does not hold, or a
key its kind does not, is refused.
``emit_results`` writes three files per run: ``curve.csv`` (t, mean_diff,
std_diff), ``summary.txt`` (human-readable accounting and bound checks) and
``manifest.json`` (the fully resolved config, the CLI's run flags merged in,
plus its hash and the seed, so --config manifest.json replays a run byte for byte).
"""

from __future__ import annotations

import copy
import difflib
import hashlib
import json
import math
import os
from typing import Any, Callable, NamedTuple, Optional

# per experiment, the schema sections its config holds and its departures
# from the SCHEMA defaults
SWITCHING = ("descent", "domain", "objective", "predictor", "scenario", "bounds")
EXPERIMENTS = {
    "exp1": (SWITCHING, {}),
    "exp2": (SWITCHING + ("smad",), {"scenario": {"dwell": [4, 6]}}),
    "exp3": (("exp3",), {"repetitions": 200, "horizon": 150}),  # 150 evaluation months
    "custom": (SWITCHING, {}),
}
# per section with a kind, the keys each kind holds
KINDS = {
    "domain": {"ball": ("kind", "center", "radius"), "simplex": ("kind", "projection_mode")},
    "predictor": {"var": ("kind", "order", "min_history", "indices"),
                  "persistence": ("kind", "indices")},
}
DEFAULT_SEED = 1729


class ConfigError(ValueError):
    """Configuration violates the schema or a run precondition."""


# ---------------------------------------------------------------------------
# validators
# ---------------------------------------------------------------------------

def _type_error(section: str, key: str, expected: str, got: Any) -> ConfigError:
    return ConfigError(
        f"config key {section}.{key} expects {expected}, got {got!r}"
    )


def _v_bool(section, key, val):
    if not isinstance(val, bool):
        raise _type_error(section, key, "a boolean", val)
    return val


def _v_int(minimum=None):
    def check(section, key, val):
        if isinstance(val, bool) or not isinstance(val, int):
            raise _type_error(section, key, "an integer", val)
        if minimum is not None and val < minimum:
            raise _type_error(section, key, f"an integer >= {minimum}", val)
        return val

    return check


def _is_number(val) -> bool:
    """A finite int or float.  ``json`` parses the NaN and Infinity
    literals and integers beyond the float range, so each is checked here."""
    if isinstance(val, bool) or not isinstance(val, (int, float)):
        return False
    try:
        return math.isfinite(val)
    except OverflowError:
        return False


def _v_num(minimum=None, strict=False):
    def check(section, key, val):
        if not _is_number(val):
            raise _type_error(section, key, "a finite number", val)
        val = float(val)
        if minimum is not None and (val <= minimum if strict else val < minimum):
            cmp = ">" if strict else ">="
            raise _type_error(section, key, f"a number {cmp} {minimum}", val)
        return val

    return check


def _v_fraction(strict=False):
    """A number in [0, 1], or in (0, 1) when ``strict``."""
    def check(section, key, val):
        val = _v_num()(section, key, val)
        if not (0.0 < val < 1.0 if strict else 0.0 <= val <= 1.0):
            interval = "(0, 1)" if strict else "[0, 1]"
            raise _type_error(section, key, f"a number in {interval}", val)
        return val

    return check


def _v_choice(*choices):
    def check(section, key, val):
        if val not in choices:
            raise _type_error(section, key, f"one of {choices}", val)
        return val

    return check


def _v_num_list(positive=False):
    def check(section, key, val):
        if not isinstance(val, list) or not all(_is_number(x) for x in val):
            raise _type_error(section, key, "a list of finite numbers", val)
        if positive and min(val, default=1.0) <= 0:
            raise _type_error(section, key, "a list of positive numbers", val)
        return [float(x) for x in val]

    return check


def _v_int_list(minimum=None):
    def check(section, key, val):
        if not isinstance(val, list) or not all(
            isinstance(x, int) and not isinstance(x, bool) for x in val
        ):
            raise _type_error(section, key, "a list of integers", val)
        if minimum is not None and any(x < minimum for x in val):
            raise _type_error(section, key, f"a list of integers >= {minimum}", val)
        return list(val)

    return check


def _v_opt(inner):
    def check(section, key, val):
        if val is None:
            return None
        return inner(section, key, val)

    return check


def _v_str(section, key, val):
    if not isinstance(val, str):
        raise _type_error(section, key, "a string", val)
    return val


def _v_gamma(section, key, val):
    if val == "auto":
        return "auto"
    return _v_num(0.0, strict=True)(section, key, val)


# ---------------------------------------------------------------------------
# schema: section -> key -> (validator, default)
# ---------------------------------------------------------------------------

class Key(NamedTuple):
    check: Callable
    default: Any


SCHEMA: dict[str, dict[str, Key]] = {
    "": {
        "experiment": Key(_v_choice(*EXPERIMENTS), "exp1"),
        "seed": Key(_v_int(0), DEFAULT_SEED),
        "repetitions": Key(_v_int(1), 50),
        "horizon": Key(_v_int(1), 200),
    },
    "descent": {
        "eta": Key(_v_num(0.0, strict=True), 1.0 / 200.0),
        "inner_steps": Key(_v_int(1), 1),
        "x1": Key(_v_num_list(), [0.0, 40.0]),
    },
    "domain": {
        "kind": Key(_v_choice("ball", "simplex"), "ball"),
        "center": Key(_v_num_list(), [0.0, 0.0]),
        "radius": Key(_v_num(0.0, strict=True), 50.0),
        "projection_mode": Key(_v_choice("exact", "renormalize"), "exact"),
    },
    "objective": {
        "weights": Key(_v_num_list(positive=True), [100.0, 1.0]),
    },
    "predictor": {
        "kind": Key(_v_choice("var", "persistence"), "var"),
        "order": Key(_v_int(1), 4),
        "min_history": Key(_v_opt(_v_int(1)), 10),
        "indices": Key(_v_opt(_v_int_list(0)), [0, 1]),
    },
    "scenario": {
        "state_a": Key(_v_num_list(), [-100.0, 0.0, 30.0]),
        "state_b": Key(_v_num_list(), [100.0, 20.0, -50.0]),
        "dwell": Key(_v_int_list(1), [4, 4]),
        "noise_scale": Key(_v_num(0.0), 10.0),
        "noise_clip": Key(_v_opt(_v_num(0.0, strict=True)), None),
    },
    "smad": {
        "beta": Key(_v_fraction(strict=True), 0.2),
        "gamma": Key(_v_gamma, 5e-7),
        "expert_orders": Key(_v_int_list(1), [1, 2, 3, 4, 5]),
        "first_activation": Key(_v_int(1), 10),
        "activation_every": Key(_v_int(1), 10),
        "activation_times": Key(_v_opt(_v_int_list(1)), None),
    },
    "exp3": {
        "csv_path": Key(_v_opt(_v_str), None),
        "risk_free": Key(_v_bool, True),
        "synth_assets": Key(_v_int(1), 36),
        "lookbacks": Key(_v_int_list(2), [15, 30, 45, 60, 75, 90]),
        "ar_orders": Key(_v_int_list(1), [1, 2, 3, 4, 5, 6]),
        "client_lookback": Key(_v_int(2), 50),
        "eta": Key(_v_num(0.0, strict=True), 0.1),
        "gamma": Key(_v_num(0.0, strict=True), 50.0),
        "observe_months": Key(_v_int(1), 10),
        "month_days": Key(_v_int(2), 30),
        "risk_base": Key(_v_num(0.0), 4.0),
        "risk_warmup_days": Key(_v_int(0), 240),
        "risk_stay_prob": Key(_v_fraction(), 0.9),
        "risk_noise_var": Key(_v_num(0.0), 0.64),
        "risk_jump_low": Key(_v_int(0), 1),
        "risk_jump_high": Key(_v_int(0), 20),
    },
    "bounds": {
        "runs": Key(_v_int(1), 100),
        "expert_runs": Key(_v_int(1), 50),
    },
}

# common wrong names worth a pointed suggestion
SYNONYMS = {
    "stepsize": "eta",
    "step_size": "eta",
    "lr": "eta",
    "t": "horizon",
    "reps": "repetitions",
    "n_reps": "repetitions",
    "sigma": "noise_scale",
    "learning_rate": "gamma",
}


def _suggest(key: str, known) -> str:
    if key.lower() in SYNONYMS and SYNONYMS[key.lower()] in known:
        return f'; did you mean "{SYNONYMS[key.lower()]}"?'
    close = difflib.get_close_matches(key, list(known), n=1, cutoff=0.6)
    if close:
        return f'; did you mean "{close[0]}"?'
    return ""


def _validate_into(base: dict, user: dict) -> dict:
    for key, val in user.items():
        if key in SCHEMA[""]:
            base[key] = SCHEMA[""][key].check("", key, val)
        elif key in SCHEMA:
            if key not in base:
                raise ConfigError(f"no {base['experiment']} run reads config section {key!r}; delete it")
            if not isinstance(val, dict):
                raise ConfigError(f"config section {key!r} must be an object")
            section_schema = SCHEMA[key]
            for sub, subval in val.items():
                if sub not in section_schema:
                    raise ConfigError(
                        f"unknown config key {key}.{sub}"
                        + _suggest(sub, section_schema.keys())
                    )
                base[key][sub] = section_schema[sub].check(key, sub, subval)
        else:
            raise ConfigError(f"unknown config key {key!r}" + _suggest(key, base))
    return base


def _cross_checks(cfg: dict) -> None:
    for sec, key in (("objective", "weights"), ("smad", "expert_orders"),
                     ("exp3", "lookbacks"), ("exp3", "ar_orders")):
        if sec in cfg and not cfg[sec][key]:
            raise ConfigError(f"{sec}.{key} is empty; it must list at least one entry")
    if "exp3" in cfg:
        if cfg["exp3"]["risk_jump_low"] > cfg["exp3"]["risk_jump_high"]:
            raise ConfigError("exp3.risk_jump_low must not exceed exp3.risk_jump_high")
        return
    if len(cfg["scenario"]["dwell"]) != 2:
        raise ConfigError("scenario.dwell must be a list of two integers")
    if len(cfg["scenario"]["state_a"]) != len(cfg["scenario"]["state_b"]):
        raise ConfigError("scenario.state_a and state_b must have equal length")
    n = len(cfg["objective"]["weights"])
    if len(cfg["scenario"]["state_a"]) != n + 1:
        raise ConfigError(
            "scenario.state_a and state_b must hold one target per objective "
            "weight plus an offset"
        )
    m, indices = n + 1, cfg["predictor"]["indices"]
    if indices is not None and not (indices and max(indices) < m):
        raise ConfigError(
            f"predictor.indices={indices} must name one or more of the {m} "
            "parameter components that scenario.state_a defines"
        )
    if len(cfg["descent"]["x1"]) != n:
        raise ConfigError("descent.x1 and objective.weights must agree on dimension")
    if cfg["domain"]["kind"] == "ball" and len(cfg["domain"]["center"]) != n:
        raise ConfigError("domain.center and objective.weights must agree on dimension")
    times = cfg["smad"]["activation_times"] if "smad" in cfg else None
    if times is not None and len(times) != len(cfg["smad"]["expert_orders"]):
        raise ConfigError("smad.activation_times must list one round per expert order")


def resolve_config(user: Optional[dict] = None, experiment: Optional[str] = None) -> dict:
    """Merge a user config over the experiment's defaults (the SCHEMA
    defaults of its sections with its departures applied), drop the keys
    that its kinds do not hold (``KINDS``), and validate."""
    user = dict(user or {})
    exp = experiment or user.get("experiment") or "exp1"
    if not isinstance(exp, str) or exp not in EXPERIMENTS:
        raise ConfigError(f"unknown experiment {exp!r}; expected one of {tuple(EXPERIMENTS)}")
    if experiment is not None and "experiment" in user and user["experiment"] != experiment:
        raise ConfigError(
            f"config names experiment {user['experiment']!r} but the command "
            f"runs {experiment!r}"
        )
    sections, departures = EXPERIMENTS[exp]
    cfg = {key: entry.default for key, entry in SCHEMA[""].items()}
    for section in sections:
        cfg[section] = {key: entry.default for key, entry in SCHEMA[section].items()}
    cfg["experiment"] = exp
    cfg = _validate_into(_validate_into(copy.deepcopy(cfg), departures), user)
    for section in [section for section in KINDS if section in cfg]:
        kind = cfg[section]["kind"]
        for key in [key for key in cfg[section] if key not in KINDS[section][kind]]:
            if key in user.get(section, {}):
                raise ConfigError(f"a {kind} {section} does not read {section}.{key}; delete it")
            del cfg[section][key]
    _cross_checks(cfg)
    return cfg


def read_config(path: str) -> dict:
    """The user config held in a JSON file, unresolved; a manifest yields
    the config it records."""
    try:
        with open(path) as handle:
            raw = json.load(handle)
    except FileNotFoundError as exc:
        raise ConfigError(f"config file not found: {path}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file {path} is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError(f"config file {path} must hold a JSON object")
    if "config" in raw and "config_sha256" in raw:
        raw = raw["config"]
        if not isinstance(raw, dict):
            raise ConfigError(f"manifest {path} holds a malformed config")
    return raw


def canonical_json(cfg: dict) -> str:
    return json.dumps(cfg, sort_keys=True, indent=2)


def config_hash(cfg: dict) -> str:
    return hashlib.sha256(canonical_json(cfg).encode()).hexdigest()


# ---------------------------------------------------------------------------
# result emission
# ---------------------------------------------------------------------------

def default_out_dir(flag_value: Optional[str]) -> str:
    return flag_value or os.environ.get("POCO_OUT") or "poco_out"


def emit_results(curve, summary_lines, out_dir: str, cfg: dict, version: str) -> dict:
    """Write curve.csv, summary.txt and manifest.json; returns the paths.

    Refuses to write anything for an empty curve, so a failed run leaves no
    partial files behind.
    """
    if curve is not None and curve.horizon == 0:
        raise ValueError("refusing to emit a zero-length curve")
    os.makedirs(out_dir, exist_ok=True)
    paths = {}
    if curve is not None:
        curve_path = os.path.join(out_dir, "curve.csv")
        with open(curve_path, "w", newline="") as handle:
            handle.write("t,mean_diff,std_diff\n")
            for t, mean, std in zip(curve.t, curve.mean_diff, curve.std_diff):
                handle.write(f"{int(t)},{float(mean)!r},{float(std)!r}\n")
        paths["curve"] = curve_path
    summary_path = os.path.join(out_dir, "summary.txt")
    with open(summary_path, "w") as handle:
        handle.write("\n".join(summary_lines) + "\n")
    paths["summary"] = summary_path
    manifest_path = os.path.join(out_dir, "manifest.json")
    manifest = {
        "config": cfg,
        "config_sha256": config_hash(cfg),
        "seed": cfg.get("seed"),
        "package_version": version,
    }
    with open(manifest_path, "w") as handle:
        json.dump(manifest, handle, indent=2, sort_keys=True)
        handle.write("\n")
    paths["manifest"] = manifest_path
    return paths
