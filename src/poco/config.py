"""Config files: schema, defaults, validation, and result emission.

A run is described by a flat JSON object with one section per module.  Every
key has a default baked in per experiment, so the minimal config is just
``{"experiment": "exp1"}`` (or even ``{}`` when the CLI command names the
experiment).  Unknown keys are rejected with a suggestion.  ``emit_results``
writes three files per run: ``curve.csv`` (t, mean_diff, std_diff),
``summary.txt`` (human-readable accounting and bound checks) and
``manifest.json`` (the fully resolved config plus its hash and the seed, so
a run can be replayed byte for byte by pointing --config at the manifest).
"""

from __future__ import annotations

import difflib
import hashlib
import json
import os
from typing import Any, Callable, Optional

from poco.experiments import DEFAULT_SEED

EXPERIMENTS = ("exp1", "exp2", "exp3", "custom")


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


def _v_num(minimum=None, strict=False):
    def check(section, key, val):
        if isinstance(val, bool) or not isinstance(val, (int, float)):
            raise _type_error(section, key, "a number", val)
        val = float(val)
        if minimum is not None and (val <= minimum if strict else val < minimum):
            cmp = ">" if strict else ">="
            raise _type_error(section, key, f"a number {cmp} {minimum}", val)
        return val

    return check


def _v_choice(*choices):
    def check(section, key, val):
        if val not in choices:
            raise _type_error(section, key, f"one of {choices}", val)
        return val

    return check


def _v_num_list(length=None):
    def check(section, key, val):
        if not isinstance(val, list) or not all(
            isinstance(x, (int, float)) and not isinstance(x, bool) for x in val
        ):
            raise _type_error(section, key, "a list of numbers", val)
        if length is not None and len(val) != length:
            raise _type_error(section, key, f"a list of {length} numbers", val)
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
# schema: section -> key -> validator
# ---------------------------------------------------------------------------

SCHEMA: dict[str, dict[str, Callable]] = {
    "": {
        "experiment": _v_choice(*EXPERIMENTS),
        "seed": _v_int(0),
        "repetitions": _v_int(1),
        "horizon": _v_int(1),
    },
    "descent": {
        "eta": _v_num(0.0, strict=True),
        "inner_steps": _v_int(1),
        "mode": _v_choice("standard", "predictive"),
        "x1": _v_num_list(),
    },
    "domain": {
        "kind": _v_choice("ball", "simplex"),
        "center": _v_num_list(),
        "radius": _v_num(0.0, strict=True),
        "dimension": _v_int(1),
        "projection_mode": _v_choice("exact", "renormalize"),
    },
    "objective": {
        "kind": _v_choice("quadratic_tracking"),
        "weights": _v_num_list(),
    },
    "predictor": {
        "kind": _v_choice("var", "persistence"),
        "order": _v_int(1),
        "refit_every": _v_opt(_v_int(1)),
        "min_history": _v_opt(_v_int(1)),
        "indices": _v_opt(_v_int_list(0)),
    },
    "scenario": {
        "kind": _v_choice("switching"),
        "state_a": _v_num_list(),
        "state_b": _v_num_list(),
        "dwell": _v_int_list(1),
        "noise_scale": _v_num(0.0),
        "noise_clip": _v_opt(_v_num(0.0, strict=True)),
    },
    "smad": {
        "beta": _v_num(0.0, strict=True),
        "gamma": _v_gamma,
        "expert_orders": _v_int_list(1),
        "first_activation": _v_int(1),
        "activation_every": _v_int(1),
        "activation_times": _v_opt(_v_int_list(1)),
    },
    "exp3": {
        "csv_path": _v_opt(_v_str),
        "risk_free": _v_bool,
        "synth_assets": _v_int(1),
        "synth_days": _v_int(1),
        "lookbacks": _v_int_list(2),
        "ar_orders": _v_int_list(1),
        "client_lookback": _v_int(2),
        "eta": _v_num(0.0, strict=True),
        "gamma": _v_num(0.0, strict=True),
        "beta": _v_num(0.0, strict=True),
        "observe_months": _v_int(1),
        "eval_months": _v_int(1),
        "month_days": _v_int(1),
        "risk_base": _v_num(0.0),
        "risk_warmup_days": _v_int(0),
        "risk_stay_prob": _v_num(0.0),
        "risk_noise_var": _v_num(0.0),
        "risk_jump_low": _v_int(0),
        "risk_jump_high": _v_int(0),
    },
    "bounds": {
        "check": _v_bool,
        "runs": _v_int(1),
        "expert_runs": _v_int(1),
        "inner_steps": _v_int(1),
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


def default_config(experiment: str) -> dict:
    """Fully populated config for one experiment, matching the study specs."""
    if experiment not in EXPERIMENTS:
        raise ConfigError(f"unknown experiment {experiment!r}; expected one of {EXPERIMENTS}")
    cfg = {
        "experiment": experiment,
        "seed": DEFAULT_SEED,
        "repetitions": 50,
        "horizon": 200,
        "descent": {
            "eta": 1.0 / 200.0,
            "inner_steps": 1,
            "mode": "predictive",
            "x1": [0.0, 40.0],
        },
        "domain": {
            "kind": "ball",
            "center": [0.0, 0.0],
            "radius": 50.0,
            "dimension": 2,
            "projection_mode": "exact",
        },
        "objective": {
            "kind": "quadratic_tracking",
            "weights": [100.0, 1.0],
        },
        "predictor": {
            "kind": "var",
            "order": 4,
            "refit_every": 1,
            "min_history": 10,
            "indices": [0, 1],
        },
        "scenario": {
            "kind": "switching",
            "state_a": [-100.0, 0.0, 30.0],
            "state_b": [100.0, 20.0, -50.0],
            "dwell": [4, 4],
            "noise_scale": 10.0,
            "noise_clip": None,
        },
        "smad": {
            "beta": 0.2,
            "gamma": 5e-7,
            "expert_orders": [1, 2, 3, 4, 5],
            "first_activation": 10,
            "activation_every": 10,
            "activation_times": None,
        },
        "exp3": {
            "csv_path": None,
            "risk_free": True,
            "synth_assets": 36,
            "synth_days": 5000,
            "lookbacks": [15, 30, 45, 60, 75, 90],
            "ar_orders": [1, 2, 3, 4, 5, 6],
            "client_lookback": 50,
            "eta": 0.1,
            "gamma": 50.0,
            "beta": 0.2,
            "observe_months": 10,
            "eval_months": 150,
            "month_days": 30,
            "risk_base": 4.0,
            "risk_warmup_days": 240,
            "risk_stay_prob": 0.9,
            "risk_noise_var": 0.64,
            "risk_jump_low": 1,
            "risk_jump_high": 20,
        },
        "bounds": {
            "check": True,
            "runs": 100,
            "expert_runs": 50,
            "inner_steps": 1,
        },
    }
    if experiment == "exp2":
        cfg["scenario"]["dwell"] = [4, 6]
    if experiment == "exp3":
        cfg["repetitions"] = 200
        cfg["horizon"] = cfg["exp3"]["eval_months"]
        cfg["bounds"]["check"] = False
    return cfg


def _validate_into(base: dict, user: dict) -> dict:
    top_known = set(SCHEMA[""].keys()) | {s for s in SCHEMA if s}
    for key, val in user.items():
        if key in SCHEMA[""]:
            base[key] = SCHEMA[""][key]("", key, val)
        elif key in SCHEMA:
            if not isinstance(val, dict):
                raise ConfigError(f"config section {key!r} must be an object")
            section_schema = SCHEMA[key]
            for sub, subval in val.items():
                if sub not in section_schema:
                    raise ConfigError(
                        f"unknown config key {key}.{sub}"
                        + _suggest(sub, section_schema.keys())
                    )
                base[key][sub] = section_schema[sub](key, sub, subval)
        else:
            raise ConfigError(f"unknown config key {key!r}" + _suggest(key, top_known))
    return base


def _cross_checks(cfg: dict) -> None:
    if cfg["bounds"]["check"] and cfg["objective"]["kind"] == "quadratic_tracking":
        big_l = 2.0 * max(cfg["objective"]["weights"])
        eta = cfg["descent"]["eta"]
        if eta > 1.0 / big_l * (1 + 1e-12):
            raise ConfigError(
                f"descent.eta={eta} violates the step-size condition "
                f"eta <= 1/L = {1.0 / big_l} required by the regret-bound "
                "checks; lower eta or set bounds.check = false"
            )
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
    if len(cfg["descent"]["x1"]) != n:
        raise ConfigError("descent.x1 and objective.weights must agree on dimension")
    if cfg["domain"]["kind"] == "ball" and len(cfg["domain"]["center"]) != n:
        raise ConfigError("domain.center and objective.weights must agree on dimension")
    if cfg["domain"]["kind"] == "simplex" and cfg["domain"]["dimension"] != n:
        raise ConfigError("domain.dimension and objective.weights must agree")
    smad = cfg["smad"]
    if smad["activation_times"] is not None and len(smad["activation_times"]) != len(
        smad["expert_orders"]
    ):
        raise ConfigError(
            "smad.activation_times must list one round per expert order"
        )
    exp3 = cfg["exp3"]
    if exp3["risk_jump_low"] > exp3["risk_jump_high"]:
        raise ConfigError("exp3.risk_jump_low must not exceed exp3.risk_jump_high")


def resolve_config(user: Optional[dict] = None, experiment: Optional[str] = None) -> dict:
    """Merge a user config over the experiment defaults and validate."""
    user = dict(user or {})
    exp = experiment or user.get("experiment") or "exp1"
    if not isinstance(exp, str) or exp not in EXPERIMENTS:
        raise ConfigError(f"unknown experiment {exp!r}; expected one of {EXPERIMENTS}")
    if experiment is not None and "experiment" in user and user["experiment"] != experiment:
        raise ConfigError(
            f"config names experiment {user['experiment']!r} but the command "
            f"runs {experiment!r}"
        )
    base = default_config(exp)
    cfg = _validate_into(base, user)
    cfg["experiment"] = exp
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


def parse_config(path: str, experiment: Optional[str] = None) -> dict:
    """Load and resolve a config file; manifests are accepted as configs."""
    return resolve_config(read_config(path), experiment=experiment)


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
