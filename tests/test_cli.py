import json
import math
import os
from typing import NamedTuple

import numpy as np
import pytest

from poco.cli import EXIT_CHECK_FAILED, EXIT_CONFIG, EXIT_DATA, EXIT_OK, main
from poco.config import (
    ConfigError,
    config_hash,
    default_out_dir,
    emit_results,
    read_config,
    resolve_config,
    EXPERIMENTS,
    KINDS,
    SCHEMA,
)
from poco.scenarios import synthetic_market

from helpers import yule_walker_reference


class TestConfigResolution:
    def test_minimal_config_gets_defaults(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"seed": 7}))
        cfg = resolve_config(read_config(str(path)), experiment="exp1")
        assert cfg["seed"] == 7
        assert cfg["descent"]["eta"] == pytest.approx(1.0 / 200.0)
        assert cfg["domain"]["radius"] == 50.0
        assert cfg["predictor"]["order"] == 4
        assert cfg["scenario"]["dwell"] == [4, 4]
        assert cfg["repetitions"] == 50

    def test_exp2_and_exp3_defaults(self):
        assert resolve_config({}, "exp2")["scenario"]["dwell"] == [4, 6]
        cfg3 = resolve_config({}, "exp3")
        assert cfg3["repetitions"] == 200
        assert cfg3["exp3"]["gamma"] == 50.0
        assert cfg3["exp3"]["lookbacks"] == [15, 30, 45, 60, 75, 90]

    def test_unknown_key_suggests_eta(self):
        with pytest.raises(ConfigError, match='did you mean "eta"'):
            resolve_config({"descent": {"stepsize": 0.1}}, "exp1")

    def test_unknown_close_key_suggests(self):
        with pytest.raises(ConfigError, match='did you mean "radius"'):
            resolve_config({"domain": {"radiuss": 2.0}}, "exp1")

    def test_unknown_section_rejected(self):
        with pytest.raises(ConfigError, match="unknown config key"):
            resolve_config({"optimizer": {}}, "exp1")

    def test_suggestions_name_only_what_the_experiment_holds(self):
        # smad is a key of exp2 configs, so an exp1 config gets no pointer to it
        with pytest.raises(ConfigError, match=r"^unknown config key 'smadd'$"):
            resolve_config({"smadd": {}}, "exp1")
        with pytest.raises(ConfigError, match='did you mean "smad"'):
            resolve_config({"smadd": {}}, "exp2")

    def test_removed_bounds_inner_steps_rejected(self):
        # check-bounds always runs k = 1, 2, 3; the key was never read
        with pytest.raises(ConfigError, match="unknown config key bounds.inner_steps"):
            resolve_config({"bounds": {"inner_steps": 1}}, "exp1")

    @pytest.mark.parametrize(
        "section,key,value",
        [("objective", "kind", "quadratic_tracking"), ("scenario", "kind", "switching"),
         ("domain", "dimension", 2), ("descent", "mode", "standard"),
         ("predictor", "refit_every", 1)],
    )
    def test_removed_unread_keys_rejected(self, section, key, value):
        # one-value choices, a dimension the objective weights already fix,
        # the descent mode a persistence predictor now expresses, and a
        # refit cadence whose only configured value was every round
        with pytest.raises(ConfigError, match=f"unknown config key {section}.{key}"):
            resolve_config({section: {key: value}}, "exp1")

    def test_type_errors_name_key_and_expectation(self):
        with pytest.raises(ConfigError, match="descent.eta expects a number > 0"):
            resolve_config({"descent": {"eta": -1.0}}, "exp1")
        with pytest.raises(ConfigError, match="repetitions expects an integer"):
            resolve_config({"repetitions": "many"}, "exp1")

    def test_step_size_precondition_guard(self):
        # the config knows no family's curvature, so a step above 1/L
        # resolves; the ledgers skip their bound checks, and check-bounds
        # refuses it
        cfg = resolve_config({"descent": {"eta": 0.01}}, "exp1")
        assert cfg["descent"]["eta"] == 0.01

    def test_resolved_defaults_hold_only_their_kinds_keys(self):
        # a ball domain holds no projection_mode; a var predictor every key
        counts = {exp: sum(len(v) if isinstance(v, dict) else 1 for v in
                           resolve_config({}, exp).values()) for exp in EXPERIMENTS}
        assert counts == {"exp1": 22, "exp2": 28, "exp3": 20, "custom": 22}
        cfg = resolve_config({"domain": {"kind": "simplex"}, "predictor": {"kind": "persistence"},
                              "descent": {"x1": [0.5, 0.5]}}, "exp1")
        assert cfg["domain"] == {"kind": "simplex", "projection_mode": "exact"}
        assert cfg["predictor"] == {"kind": "persistence", "indices": [0, 1]}

    def test_experiment_mismatch_detected(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"experiment": "exp2"}))
        with pytest.raises(ConfigError, match="exp2"):
            resolve_config(read_config(str(path)), experiment="exp1")

    def test_missing_file(self):
        with pytest.raises(ConfigError, match="not found"):
            read_config("/nonexistent/cfg.json")

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{nope")
        with pytest.raises(ConfigError, match="JSON"):
            read_config(str(path))

    def test_round_trip_through_manifest(self, tmp_path):
        cfg = resolve_config({"seed": 11, "horizon": 60}, "exp1")
        manifest = {
            "config": cfg,
            "config_sha256": config_hash(cfg),
            "seed": cfg["seed"],
        }
        path = tmp_path / "manifest.json"
        path.write_text(json.dumps(manifest))
        again = resolve_config(read_config(str(path)))
        assert again == cfg

    def test_out_dir_resolution(self, monkeypatch):
        monkeypatch.delenv("POCO_OUT", raising=False)
        assert default_out_dir("explicit") == "explicit"
        assert default_out_dir(None) == "poco_out"
        monkeypatch.setenv("POCO_OUT", "/tmp/envdir")
        assert default_out_dir(None) == "/tmp/envdir"
        assert default_out_dir("flag") == "flag"


class TestEmission:
    def test_zero_length_curve_refused(self, tmp_path):
        from poco.experiments import CurveResult

        empty = CurveResult(
            t=np.empty(0), mean_diff=np.empty(0), std_diff=np.empty(0),
            n_reps=0, diffs=np.empty((0, 0)),
        )
        cfg = resolve_config({}, "exp1")
        out = tmp_path / "out"
        with pytest.raises(ValueError, match="zero-length"):
            emit_results(empty, ["x"], str(out), cfg, "0.0")
        assert not out.exists()

    def test_files_written(self, tmp_path):
        from poco.experiments import CurveResult

        curve = CurveResult(
            t=np.array([1, 2]), mean_diff=np.array([0.0, -1.5]),
            std_diff=np.array([0.0, 0.5]), n_reps=2, diffs=np.zeros((2, 2)),
        )
        cfg = resolve_config({}, "exp1")
        paths = emit_results(curve, ["line one"], str(tmp_path / "o"), cfg, "0.0")
        body = open(paths["curve"]).read()
        assert body == "t,mean_diff,std_diff\n1,0.0,0.0\n2,-1.5,0.5\n"
        manifest = json.load(open(paths["manifest"]))
        assert manifest["config_sha256"] == config_hash(cfg)
        assert manifest["seed"] == cfg["seed"]


class TestCommands:
    def fast_cfg(self, tmp_path, extra=None):
        cfg = {"repetitions": 2, "horizon": 40}
        cfg.update(extra or {})
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        return str(path)

    @pytest.mark.parametrize(
        "argv, extra",
        [
            pytest.param(["run-exp1"], {}, id="run-exp1"),
            pytest.param(["run-exp2"], {"horizon": 60}, id="run-exp2"),
            pytest.param(["run-exp3"], {"horizon": 12}, id="run-exp3"),
            pytest.param(["run-custom"], {}, id="run-custom"),
            pytest.param(
                ["check-bounds", "--runs", "2", "--expert-runs", "1"],
                {"experiment": "exp2"}, id="check-bounds",
            ),
        ],
    )
    def test_writes_outputs_and_replays(self, tmp_path, argv, extra):
        """The manifest, passed back alone to the same command, reproduces
        every file the run wrote byte for byte."""
        cfg = self.fast_cfg(tmp_path, extra)
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main([*argv, "--config", cfg, "--out", str(out1), "--quiet"]) == EXIT_OK
        assert main([
            argv[0], "--config", str(out1 / "manifest.json"), "--out", str(out2), "--quiet",
        ]) == EXIT_OK
        written = sorted(path.name for path in out1.iterdir())
        assert written == sorted(path.name for path in out2.iterdir())
        curve = [] if argv[0] == "check-bounds" else ["curve.csv"]
        assert written == sorted(["summary.txt", "manifest.json", *curve])
        for name in written:
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), name

    def test_exp2_runs(self, tmp_path):
        cfg = self.fast_cfg(tmp_path, {"horizon": 60})
        out = str(tmp_path / "o2")
        assert main(["run-exp2", "--config", cfg, "--out", out, "--quiet"]) == EXIT_OK
        assert os.path.exists(os.path.join(out, "summary.txt"))

    def test_exp3_runs_small(self, tmp_path):
        # the horizon is study 3's number of evaluation months
        cfg = self.fast_cfg(tmp_path, {"horizon": 12})
        out = str(tmp_path / "o3")
        assert main(["run-exp3", "--config", cfg, "--out", out, "--quiet"]) == EXIT_OK
        lines = open(os.path.join(out, "summary.txt")).read()
        assert "synthetic stand-in" in lines and " eval_months=12 " in lines
        assert len(open(os.path.join(out, "curve.csv")).read().splitlines()) == 1 + 12
        assert json.load(open(os.path.join(out, "manifest.json")))["config"]["horizon"] == 12

    def test_run_custom(self, tmp_path):
        cfg = self.fast_cfg(tmp_path, {"predictor": {"kind": "persistence"}})
        out = str(tmp_path / "oc")
        assert main(["run-custom", "--config", cfg, "--out", out, "--quiet"]) == EXIT_OK
        body = open(os.path.join(out, "curve.csv")).read().strip().splitlines()
        # identical arms: every difference is exactly zero
        assert all(line.split(",")[1] == "0.0" for line in body[1:])

    def test_exp2_gamma_auto_and_schedule(self, tmp_path):
        cfg = self.fast_cfg(
            tmp_path,
            {
                "horizon": 50,
                "smad": {"gamma": "auto", "activation_times": [8, 12, 20, 30, 40]},
            },
        )
        out = str(tmp_path / "oa")
        assert main(["run-exp2", "--config", cfg, "--out", out, "--quiet"]) == EXIT_OK
        header = open(os.path.join(out, "summary.txt")).read().splitlines()[0]
        assert "gamma=1.29" in header  # tuned from the declared loss range

    def test_scenario_states_must_match_the_objective(self):
        with pytest.raises(ConfigError, match="one target per objective weight"):
            resolve_config(
                {"scenario": {"state_a": [1.0, 2.0], "state_b": [3.0, 4.0]}}, "exp1"
            )

    def test_activation_times_must_pair_with_orders(self):
        with pytest.raises(ConfigError, match="one round per expert"):
            resolve_config({"smad": {"activation_times": [10, 20]}}, "exp2")

    def test_check_bounds_small(self, tmp_path):
        out = str(tmp_path / "cb")
        code = main([
            "check-bounds", "--runs", "2", "--expert-runs", "2",
            "--out", out, "--quiet",
        ])
        assert code == EXIT_OK
        text = open(os.path.join(out, "summary.txt")).read()
        assert "all bounds hold" in text
        assert "2/2" in text

    def test_check_bounds_reports_the_files_it_wrote(self, tmp_path, capsys):
        out = tmp_path / "cb"
        argv = ["check-bounds", "--runs", "1", "--expert-runs", "1", "--out", str(out)]
        assert main(argv) == EXIT_OK
        captured = capsys.readouterr()
        assert captured.out.splitlines()[-1] == (
            f"wrote {out / 'summary.txt'}, {out / 'manifest.json'}"
        )
        assert captured.err == ""

    @pytest.mark.parametrize("experiment", ["exp3"])
    def test_check_bounds_refuses_another_experiment(self, tmp_path, capsys, experiment):
        cfg = {"experiment": experiment}
        code, out = _run(tmp_path, "check-bounds", "other", cfg, "--runs", "1", "--expert-runs", "1")
        assert code == EXIT_CONFIG and not out.exists()
        message = f"check-bounds takes an exp1, exp2 or custom config, not {experiment!r}"
        assert message in capsys.readouterr().err

    def test_check_bounds_takes_a_custom_config(self, tmp_path):
        # a custom config is study 1 under other labels, so its bounds match exp1's
        flags = ("--runs", "1", "--expert-runs", "1")
        code, custom = _run(tmp_path, "check-bounds", "custom", {"experiment": "custom"}, *flags)
        assert code == EXIT_OK
        code, exp1 = _run(tmp_path, "check-bounds", "exp1", {"experiment": "exp1"}, *flags)
        assert code == EXIT_OK
        assert (custom / "summary.txt").read_bytes() == (exp1 / "summary.txt").read_bytes()

    def test_config_error_exit_code(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"descent": {"stepsize": 0.1}}))
        assert main(["run-exp1", "--config", str(bad), "--quiet"]) == EXIT_CONFIG

    def test_data_error_exit_code(self, tmp_path):
        csv = tmp_path / "neg.csv"
        csv.write_text("1.0,1.0\n-1.0,1.0\n")
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"exp3": {"csv_path": str(csv)}}))
        assert main([
            "run-exp3", "--config", str(cfg), "--out", str(tmp_path / "x"), "--quiet",
        ]) == EXIT_DATA

    def test_project_ball(self, capsys):
        assert main([
            "project", "--kind", "ball", "--radius", "50",
            "--center", "0,0", "--vector", "100,0",
        ]) == EXIT_OK
        assert capsys.readouterr().out.strip() == "50.0,0.0"

    def test_project_simplex_renormalize(self, capsys):
        assert main([
            "project", "--kind", "simplex", "--mode", "renormalize",
            "--vector=-1,1,1",
        ]) == EXIT_OK
        assert capsys.readouterr().out.strip() == "0.0,0.5,0.5"

    @pytest.mark.parametrize(
        "argv, flag",
        [
            (["--kind", "simplex", "--radius", "5", "--vector=-1,1,1"], "--radius"),
            (["--kind", "simplex", "--center", "9,9", "--vector=-1,1,1"], "--center"),
            (["--kind", "ball", "--mode", "renormalize", "--vector", "3,4"], "--mode"),
        ],
        ids=["simplex-radius", "simplex-center", "ball-mode"],
    )
    def test_project_refuses_a_flag_its_set_does_not_read(self, capsys, argv, flag):
        # a ball has no projection mode, and a simplex no center or radius
        assert main(["project", *argv]) == EXIT_CONFIG
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"config error: --kind {argv[1]} does not read {flag}\n"

    @pytest.mark.parametrize(
        "argv",
        [
            ["project", "--kind", "ball", "--radius", "-1", "--vector", "1,2"],
            # an empty vector gives the simplex no dimension and the ball no center
            ["project", "--kind", "simplex", "--vector="],
            ["project", "--kind", "ball", "--vector="],
            ["fit-ar", "--csv", "unread.csv", "--order", "0"],
        ],
        ids=["ball-radius", "simplex-dimension", "ball-empty-vector", "fit-ar-order"],
    )
    def test_bad_utility_argument_is_a_config_error(self, capsys, argv):
        assert main(argv) == EXIT_CONFIG
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("config error: ")

    @pytest.mark.parametrize(
        "argv",
        [
            ["check-bounds", "--reps", "2"],
            ["project", "--kind", "simplex", "--dimension", "2", "--vector", "1,2"],
            ["check-bounds", "--experiment", "exp2"],
        ],
        ids=["check-bounds-reps", "project-dimension", "check-bounds-experiment"],
    )
    def test_removed_flag_is_a_usage_error(self, capsys, argv):
        # check-bounds counts its runs with --runs and --expert-runs and takes
        # its base from the config's experiment key, and the simplex takes
        # its dimension from the vector
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2  # argparse's usage error
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_fit_ar_output(self, tmp_path, capsys):
        rng = np.random.default_rng(0)
        series = rng.normal(size=(60, 1)).cumsum(axis=0)
        path = tmp_path / "series.csv"
        path.write_text("\n".join(str(float(v)) for v in series[:, 0]))
        assert main(["fit-ar", "--csv", str(path), "--order", "2"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "phi[1]:" in out and "phi[2]:" in out and "mean:" in out

    def test_fit_ar_output_matches_two_pass_reference(self, tmp_path, capsys):
        # the printed fit is the one-pass kernel's; it agrees with the
        # two-pass autocovariance fit to within 1e-12 of the largest entry
        rng = np.random.default_rng(21)
        series = 20.0 + rng.normal(size=(80, 2)).cumsum(axis=0)
        path = tmp_path / "series.csv"
        path.write_text("\n".join(f"{float(a)!r},{float(b)!r}" for a, b in series))
        assert main(["fit-ar", "--csv", str(path), "--order", "2"]) == EXIT_OK
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "series: 80 observations, dimension 2"
        rows = [line.split(": ") for line in lines[1:]]
        assert [key for key, _ in rows] == ["mean", "phi[1]", "phi[1]", "phi[2]", "phi[2]"]
        values = np.array([[float(v) for v in text.split(",")] for _, text in rows])
        want = yule_walker_reference(series, 2)
        for got, ref in ((values[0], want.mean), (values[1:].reshape(2, 2, 2), want.phis)):
            assert np.abs(got - ref).max() <= 1e-12 * np.abs(ref).max()

    def test_seed_override_changes_results(self, tmp_path):
        cfg = self.fast_cfg(tmp_path)
        out1 = str(tmp_path / "s1")
        out2 = str(tmp_path / "s2")
        main(["run-exp1", "--config", cfg, "--out", out1, "--seed", "1", "--quiet"])
        main(["run-exp1", "--config", cfg, "--out", out2, "--seed", "2", "--quiet"])
        a = open(os.path.join(out1, "curve.csv")).read()
        b = open(os.path.join(out2, "curve.csv")).read()
        assert a != b


def _write_config(tmp_path, name, cfg):
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(cfg))
    return str(path)


def _run(tmp_path, command, name, cfg, *flags):
    """Run one study command quietly; returns (exit code, output dir)."""
    out = tmp_path / name
    code = main([
        command, "--config", _write_config(tmp_path, name, cfg),
        "--out", str(out), "--quiet", *flags,
    ])
    return code, out


class TestOverridesValidated:
    @pytest.mark.parametrize(
        "argv",
        [
            ["run-exp1", "--reps", "0"],
            ["run-exp1", "--seed", "-5"],
            ["run-exp3", "--reps", "0"],
            ["run-custom", "--reps", "0"],
            ["check-bounds", "--runs", "0"],
            ["check-bounds", "--expert-runs", "0"],
        ],
    )
    def test_bad_override_is_a_config_error(self, tmp_path, capsys, argv):
        out = tmp_path / "o"
        assert main([*argv, "--out", str(out), "--quiet"]) == EXIT_CONFIG
        assert not out.exists()
        assert "config error" in capsys.readouterr().err

    def test_overrides_are_recorded_in_the_manifest(self, tmp_path):
        code, out = _run(tmp_path, "run-exp1", "o", {"horizon": 20}, "--reps", "2", "--seed", "3")
        assert code == EXIT_OK
        manifest = json.load(open(out / "manifest.json"))
        assert manifest["seed"] == 3 and manifest["config"]["repetitions"] == 2
        # check-bounds' flags override the config file's bounds section, key by key
        cfg = {"horizon": 20, "bounds": {"runs": 7, "expert_runs": 1}}
        code, out = _run(tmp_path, "check-bounds", "cb", cfg, "--runs", "2", "--seed", "3")
        assert code == EXIT_OK
        manifest = json.load(open(out / "manifest.json"))
        assert manifest["seed"] == 3
        assert manifest["config"]["bounds"] == {"runs": 2, "expert_runs": 1}

    def test_bounds_section_that_is_not_an_object_is_a_config_error(self, tmp_path, capsys):
        code, out = _run(tmp_path, "check-bounds", "o", {"bounds": 5}, "--runs", "2")
        assert code == EXIT_CONFIG and not out.exists()
        assert "config section 'bounds' must be an object" in capsys.readouterr().err


MOVED_STATES = {"state_a": [-60.0, 5.0, 30.0], "state_b": [60.0, 25.0, -50.0]}
COMMANDS = ("run-exp1", "run-custom", "run-exp2", "run-exp3", "check-bounds")
STUDY_1 = ("run-exp1", "run-custom")
RUNS = (*STUDY_1, "run-exp2")  # the study commands on the switching process
SWITCHING = (*RUNS, "check-bounds")
SIMPLEX_START = {"descent.x1": [0.5, 0.5]}
MARKET_CSV = "<market.csv>"  # a short historical market, written once per module

# every command with each experiment whose config it takes, and the small run
# every case changes; config keys are dotted
SMALL_BOUNDS = {"horizon": 30, "bounds.runs": 1, "bounds.expert_runs": 1}
BASES = {
    "exp1": ("run-exp1", "exp1", {"repetitions": 2, "horizon": 30}),
    "custom": ("run-custom", "custom", {"repetitions": 2, "horizon": 30}),
    "exp2": ("run-exp2", "exp2", {"repetitions": 2, "horizon": 30}),
    "exp3": ("run-exp3", "exp3", {"repetitions": 2, "horizon": 6}),
    "bounds": ("check-bounds", "exp1", SMALL_BOUNDS),
    "bounds-exp2": ("check-bounds", "exp2", {"experiment": "exp2", **SMALL_BOUNDS}),
    "bounds-custom": ("check-bounds", "custom", {"experiment": "custom", **SMALL_BOUNDS}),
}
# check-bounds reads the same keys whatever its base, so it is changed key by
# key on one
READ_BASES = ("exp1", "custom", "exp2", "exp3", "bounds")
REFUSED = (EXIT_CONFIG, None, None)  # a config error writes nothing


class Row(NamedTuple):
    alternate: object  # a valid value other than the one in every base run
    reads: tuple  # the commands that read the key; the others ignore it
    context: dict = {}  # config both runs of a read case share
    refused_by: tuple = ()  # the reading commands that refuse the alternate


# every SCHEMA key under each command: a read key alone changes its outputs
# (curve.csv and summary.txt) or is refused; an unread key in the config
# leaves them byte-identical, and one outside it is refused, as is one that
# the kind of its section does not hold (KINDS)
KEY_TABLE = {
    # a run command names the experiment, so another one is refused
    # (run-custom's case names exp1); check-bounds takes the defaults of exp2
    "experiment": Row("custom", COMMANDS, refused_by=(*RUNS, "run-exp3")),
    "seed": Row(3, COMMANDS),
    "repetitions": Row(3, (*RUNS, "run-exp3")),  # check-bounds counts bounds.runs
    "horizon": Row(5, COMMANDS),  # study 3's evaluation months
    "descent.eta": Row(0.004, SWITCHING),
    "descent.inner_steps": Row(2, RUNS),  # check-bounds runs k = 1, 2, 3
    "descent.x1": Row([0.0, 20.0], SWITCHING),
    "domain.kind": Row("simplex", SWITCHING, SIMPLEX_START),
    "domain.center": Row([0.0, 5.0], SWITCHING),
    "domain.radius": Row(45.0, SWITCHING),
    # only a simplex holds it, and no regret bound holds under it
    "domain.projection_mode": Row(
        "renormalize", SWITCHING, {"domain.kind": "simplex", **SIMPLEX_START},
        refused_by=("check-bounds",),
    ),
    "objective.weights": Row([50.0, 1.0], SWITCHING),
    # study 2's experts are the AR orders of smad.expert_orders
    "predictor.kind": Row("persistence", (*STUDY_1, "check-bounds")),
    "predictor.order": Row(2, (*STUDY_1, "check-bounds")),
    "predictor.min_history": Row(20, (*STUDY_1, "check-bounds")),
    "predictor.indices": Row([0], SWITCHING),
    "scenario.state_a": Row(MOVED_STATES["state_a"], SWITCHING),
    "scenario.state_b": Row(MOVED_STATES["state_b"], SWITCHING),
    "scenario.dwell": Row([3, 5], SWITCHING),
    "scenario.noise_scale": Row(5.0, SWITCHING),
    "scenario.noise_clip": Row(0.5, SWITCHING),
    # the expert-pool bound study uses its own beta and tuned gamma
    "smad.beta": Row(0.5, ("run-exp2",)),
    "smad.gamma": Row("auto", ("run-exp2",)),
    # the first expert, joining at round 10, changes order
    "smad.expert_orders": Row([2, 2, 3, 4, 5], ("run-exp2",)),
    "smad.first_activation": Row(5, ("run-exp2",)),
    "smad.activation_every": Row(5, ("run-exp2",)),
    "smad.activation_times": Row([5, 10, 15, 20, 25], ("run-exp2",)),
    "exp3.csv_path": Row(MARKET_CSV, ("run-exp3",)),
    "exp3.risk_free": Row(False, ("run-exp3",)),
    "exp3.synth_assets": Row(4, ("run-exp3",)),
    "exp3.lookbacks": Row([20, 40], ("run-exp3",)),
    "exp3.ar_orders": Row([1, 2], ("run-exp3",)),
    "exp3.client_lookback": Row(40, ("run-exp3",)),
    "exp3.eta": Row(0.05, ("run-exp3",)),
    "exp3.gamma": Row(10.0, ("run-exp3",)),
    "exp3.observe_months": Row(12, ("run-exp3",)),
    "exp3.month_days": Row(20, ("run-exp3",)),
    "exp3.risk_base": Row(8.0, ("run-exp3",)),
    "exp3.risk_warmup_days": Row(120, ("run-exp3",)),
    "exp3.risk_stay_prob": Row(0.5, ("run-exp3",)),
    "exp3.risk_noise_var": Row(0.1, ("run-exp3",)),
    "exp3.risk_jump_low": Row(5, ("run-exp3",)),
    "exp3.risk_jump_high": Row(10, ("run-exp3",)),
    "bounds.runs": Row(2, ("check-bounds",)),
    "bounds.expert_runs": Row(2, ("check-bounds",)),
}


def _held(experiment: str) -> list:
    """The dotted keys a config of ``experiment`` holds at the default kinds."""
    sections, held = ("", *EXPERIMENTS[experiment][0]), []
    for key in KEY_TABLE:
        section, _, name = key.rpartition(".")
        kinds = KINDS.get(section)
        if section in sections and (not kinds or name in kinds[SCHEMA[section]["kind"].default]):
            held.append(key)
    return held


def _unread(base: str) -> tuple:
    """The keys the base's command does not read: those its config holds,
    and those it does not."""
    command, experiment, _ = BASES[base]
    unread = [key for key in KEY_TABLE if command not in KEY_TABLE[key].reads]
    held = _held(experiment)
    return [key for key in unread if key in held], [key for key in unread if key not in held]


def _read_cases() -> list:
    """(base, key) for every key a base's command reads, named by the key's
    bare name unless another key the command reads shares it."""
    cases = []
    for base in READ_BASES:
        command = BASES[base][0]
        reads = [key for key, row in KEY_TABLE.items() if command in row.reads]
        names = [key.rpartition(".")[2] for key in reads]
        cases += [
            pytest.param(base, key, id=f"{base}-{key if names.count(name) > 1 else name}")
            for key, name in zip(reads, names)
        ]
    return cases


def _unread_cases() -> list:
    """(base, keys): each key a base's command ignores alone, named by its
    dotted name, then those its config holds all together, but for the
    ones that a kind set among them does not hold."""
    cases = []
    for base in BASES:
        held, other = _unread(base)
        cases += [pytest.param(base, (key,), id=f"{base}-{key}") for key in held + other]
        # the kind each section gets when its kind key is among them
        kinds = {
            key.rpartition(".")[0]: KEY_TABLE[key].alternate for key in held if key.endswith(".kind")
        }
        together = []
        for key in held:
            section, _, name = key.rpartition(".")
            if section not in kinds or name in KINDS[section][kinds[section]]:
                together.append(key)
        if together:
            cases.append(pytest.param(base, tuple(together), id=f"{base}-all-together"))
    return cases


def _kind_cases() -> list:
    """(base, section, kind, key): each key that a kind does not hold, under
    run-exp1 and check-bounds."""
    return [
        pytest.param(base, section, kind, key, id=f"{base}-{kind}-{key}")
        for base in ("exp1", "bounds")
        for section, kinds in KINDS.items()
        for kind, held in kinds.items()
        for key in SCHEMA[section] if key not in held
    ]


def _config(base: str, changes: dict) -> dict:
    """The base's config with dotted-key ``changes`` applied."""
    cfg = {}
    for key, value in {**BASES[base][2], **changes}.items():
        section, _, name = key.rpartition(".")
        (cfg.setdefault(section, {}) if section else cfg)[name] = value
    return cfg


@pytest.fixture(scope="module")
def study_outputs(tmp_path_factory):
    """``outputs(command, cfg)``: the exit code and the curve.csv and
    summary.txt bytes (None when absent) of one quiet run.  check-bounds'
    summary.txt prints how tight each bound was over its runs, so it moves
    with what they played.  A config that has run already is not run again."""
    root = tmp_path_factory.mktemp("keys")
    market = root / "market.csv"
    days = synthetic_market(n_assets=3, n_days=480, seed=5).relatives
    market.write_text("".join(",".join(repr(float(x)) for x in row) + "\n" for row in days))
    runs = {}

    def outputs(command: str, cfg: dict) -> tuple:
        text = json.dumps(cfg, sort_keys=True).replace(MARKET_CSV, str(market))
        if (command, text) not in runs:
            path, out = root / f"cfg{len(runs)}.json", root / f"out{len(runs)}"
            path.write_text(text)
            code = main([command, "--config", str(path), "--out", str(out), "--quiet"])
            files = (out / name for name in ("curve.csv", "summary.txt"))
            runs[command, text] = (code, *(f.read_bytes() if f.exists() else None for f in files))
        return runs[command, text]

    return outputs


class TestBadCsvIsADataError:
    """fit-ar and run-exp3 read CSVs through one reader; a bad cell or a
    missing file exits 3, naming the path and the cell's row and column."""

    def _exit_code(self, tmp_path, command, path):
        if command == "fit-ar":
            return main(["fit-ar", "--csv", str(path), "--order", "1"])
        cfg = {"repetitions": 1, "horizon": 2, "exp3": {"csv_path": str(path)}}
        return _run(tmp_path, "run-exp3", "o", cfg)[0]

    @pytest.mark.parametrize("command", ["fit-ar", "run-exp3"])
    @pytest.mark.parametrize("bad", ["inf", "-inf", "nan"])
    def test_non_finite_cell(self, tmp_path, capsys, command, bad):
        path = tmp_path / "bad.csv"
        path.write_text(f"a,b\n1.0,1.0\n1.0,{bad}\n1.0,1.0\n")
        assert self._exit_code(tmp_path, command, path) == EXIT_DATA
        err = capsys.readouterr().err
        assert err.startswith("data error: ")
        assert f"{path}: non-finite cell at row 3, column 2" in err

    @pytest.mark.parametrize("command", ["fit-ar", "run-exp3"])
    def test_missing_file(self, tmp_path, capsys, command):
        path = tmp_path / "absent.csv"
        assert self._exit_code(tmp_path, command, path) == EXIT_DATA
        err = capsys.readouterr().err
        assert err.startswith("data error: ") and str(path) in err

    def test_fit_ar_series_too_short_for_the_order(self, tmp_path, capsys):
        path = tmp_path / "short.csv"
        path.write_text("a,b\n1.0,2.0\n1.5,2.5\n")
        assert main(["fit-ar", "--csv", str(path), "--order", "2"]) == EXIT_DATA
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"data error: {path}: ")
        assert "needs at least 5 observations, have 2" in captured.err


class TestConfigReachesTheRun:
    def test_table_covers_the_schema(self):
        keys = {
            f"{sec}.{key}" if sec else key for sec, section in SCHEMA.items() for key in section
        }
        assert set(KEY_TABLE) == keys

    def test_configs_hold_only_what_their_commands_read(self):
        # some command taking a config reads each key it holds, and each
        # command ignores only a few
        held = {(exp, key) for _, exp, _ in BASES.values() for key in _held(exp)}
        read = {
            (exp, key) for command, exp, _ in BASES.values() for key in _held(exp)
            if command in KEY_TABLE[key].reads
        }
        assert held == read
        counts = {base: len(_unread(base)[0]) for base in BASES}
        assert counts == {
            "exp1": 2, "custom": 2, "exp2": 5, "exp3": 0,
            "bounds": 2, "bounds-exp2": 8, "bounds-custom": 2,
        }

    @pytest.mark.parametrize("base,key", _read_cases())
    def test_key_changes_the_curve(self, study_outputs, base, key):
        """The key alone changes the outputs, or is refused."""
        command, _, _ = BASES[base]
        row = KEY_TABLE[key]
        alternate = row.alternate
        if key == "experiment":
            alternate = {"run-custom": "exp1", "check-bounds": "exp2"}.get(command, alternate)
        reference = study_outputs(command, _config(base, row.context))
        changed = study_outputs(command, _config(base, {**row.context, key: alternate}))
        assert reference[0] == EXIT_OK
        if command in row.refused_by:
            assert changed == REFUSED
        else:
            assert changed[0] == EXIT_OK and changed != reference

    @pytest.mark.parametrize("base,keys", _unread_cases())
    def test_unread_key_leaves_the_outputs(self, study_outputs, base, keys):
        """A key the config holds leaves the outputs byte-identical; one in a
        section it does not hold is refused."""
        command, experiment, _ = BASES[base]
        reference = study_outputs(command, _config(base, {}))
        changes = {key: KEY_TABLE[key].alternate for key in keys}
        changed = study_outputs(command, _config(base, changes))
        assert reference[0] == EXIT_OK
        if set(keys) <= set(_held(experiment)):
            assert changed == reference
        else:
            assert changed == REFUSED

    @pytest.mark.parametrize("base", ["exp1", "custom", "bounds"])
    def test_persistence_indices_reach_only_the_expert_study(self, study_outputs, base):
        # a persistence predictor models every coordinate, so study 1 ignores
        # predictor.indices; check-bounds' expert-pool study gives them to its AR expert
        command, persistence = BASES[base][0], {"predictor.kind": "persistence"}
        reference = study_outputs(command, _config(base, persistence))
        changed = study_outputs(command, _config(base, {**persistence, "predictor.indices": [0]}))
        assert reference[0] == changed[0] == EXIT_OK
        assert (changed == reference) == (command != "check-bounds")

    @pytest.mark.parametrize("base,section,kind,key", _kind_cases())
    def test_key_its_kind_does_not_hold_is_refused(self, tmp_path, capsys, base, section, kind, key):
        # a ball reads no projection mode, a simplex no center or radius, and
        # a persistence predictor no AR order or history
        dotted = f"{section}.{key}"
        changes = {f"{section}.kind": kind, dotted: KEY_TABLE[dotted].alternate}
        code, out = _run(tmp_path, BASES[base][0], "kind", _config(base, changes))
        assert code == EXIT_CONFIG and not out.exists()
        message = f"a {kind} {section} does not read {dotted}; delete it"
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize(
        "experiment,section",
        [pytest.param(exp, sec, id=f"{exp}-{sec}") for exp, (sections, _) in EXPERIMENTS.items()
         for sec in SCHEMA if sec and sec not in sections],
    )
    def test_section_not_held_is_refused(self, tmp_path, capsys, experiment, section):
        # even an empty one: a config holds exactly its experiment's sections
        code, out = _run(tmp_path, f"run-{experiment}", "other", {section: {}})
        assert code == EXIT_CONFIG and not out.exists()
        message = f"no {experiment} run reads config section {section!r}; delete it"
        assert message in capsys.readouterr().err

    def test_gamma_auto_sized_from_the_scenario_the_run_draws(self, tmp_path, monkeypatch):
        import poco.experiments as experiments
        from poco.domains import EuclideanBall
        from poco.objectives import QuadraticTracking
        from poco.scenarios import switching_declared_box
        from poco.regret import suggested_gamma

        drawn = []
        real = experiments.gen_switching

        def capture(proc, seed):
            drawn.append(proc)
            return real(proc, seed)

        monkeypatch.setattr(experiments, "gen_switching", capture)
        cfg = {
            "repetitions": 1,
            "horizon": 50,
            "smad": {"gamma": "auto"},
            "scenario": {**MOVED_STATES, "noise_clip": 3.0},
        }
        code, out = _run(tmp_path, "run-exp2", "auto", cfg)
        assert code == EXIT_OK
        family = QuadraticTracking((100.0, 1.0))
        cset = EuclideanBall(center=np.zeros(2), radius=50.0)
        d_range = family.derive_constants(cset, switching_declared_box(drawn[0])).D
        header = (out / "summary.txt").read_text().splitlines()[0]
        assert f"gamma={suggested_gamma(d_range, 50)} " in header

    @pytest.mark.parametrize("command", ["run-exp1", "run-custom", "run-exp2"])
    def test_repetition_note_only_with_ledgers(self, tmp_path, command):
        # every switching study reports repetition 1's ledgers, whatever its
        # step size, so the note is always there
        for eta in (0.005, 0.01):
            cfg = {"repetitions": 1, "horizon": 40, "descent": {"eta": eta}}
            code, out = _run(tmp_path, command, f"eta-{eta}", cfg)
            assert code == EXIT_OK
            text = (out / "summary.txt").read_text()
            assert "regret decomposition below is for repetition 1" in text

    def test_pool_that_never_activates_gets_a_ledger(self, tmp_path):
        # the pool is empty for the whole run, so its aggregate is plain
        # descent and its ledger box holds the observations alone
        cfg = {"repetitions": 2, "smad": {"first_activation": 300}}
        code, out = _run(tmp_path, "run-exp2", "late", cfg)
        assert code == EXIT_OK
        ogd, smad = (out / "summary.txt").read_text().split("[ogd]")[1].split("[smad]")
        ogd, smad = ogd.splitlines(), smad.splitlines()
        for key in ("Reg_D", "P* (path length)", "||x1 - x1*||", "constants"):
            assert [l for l in ogd if l.startswith(key)] == [l for l in smad if l.startswith(key)]
        assert "P^theta          nan" in smad
        reason = "no expert joined the pool; the fixed-pool bound does not apply"
        assert f"bound check skipped: {reason}" in smad

    def test_day_one_pool_is_checked_against_the_fixed_pool_bound(self, tmp_path):
        cfg = {"repetitions": 1, "horizon": 60, "smad": {"activation_times": [1, 1, 1, 1, 1]}}
        code, out = _run(tmp_path, "run-exp2", "day-one", cfg)
        assert code == EXIT_OK
        smad = (out / "summary.txt").read_text().split("[smad]")[1].splitlines()
        assert any(l.startswith("regret bound") and l.endswith("[PASS]") for l in smad)
        assert any(l.startswith("aggregation gap") and l.endswith("[PASS]") for l in smad)
        assert not any("bound check skipped" in l for l in smad)

    @pytest.mark.parametrize("command", ["run-exp1", "run-exp2"])
    def test_bounds_check_false_lifts_the_step_size_guard(self, tmp_path, command):
        # a step above 1/L runs, and every ledger skips its bound check and
        # gives no verdict: the descent arms for that step, run-exp2's
        # mid-run pool for the reason it gives first
        cfg = {"repetitions": 1, "horizon": 40, "descent": {"eta": 0.01}}
        code, out = _run(tmp_path, command, "big-eta", cfg)
        assert code == EXIT_OK
        lines = (out / "summary.txt").read_text().splitlines()
        skips = [line for line in lines if line.startswith("bound check skipped: ")]
        assert len(skips) == 2 == sum(line.startswith("Reg_D") for line in lines)
        step = ("bound check skipped: eta=0.01 exceeds 1/L=0.005; the contraction "
                "argument behind the bound needs eta <= 1/L")
        assert skips[0] == step and (skips[1] == step) == (command == "run-exp1")
        assert not any(line.endswith(("[PASS]", "[FAIL]")) for line in lines)

    def test_run_custom_is_run_exp1_under_other_labels(self, tmp_path):
        # min_history below 2*order+1 is raised to it by both commands
        cfg = {
            "repetitions": 2,
            "horizon": 60,
            "predictor": {"order": 3, "min_history": 4},
            "scenario": MOVED_STATES,
        }
        code1, out1 = _run(tmp_path, "run-exp1", "exp1", cfg)
        code2, out2 = _run(tmp_path, "run-custom", "custom", cfg)
        assert code1 == code2 == EXIT_OK
        assert (out1 / "curve.csv").read_bytes() == (out2 / "curve.csv").read_bytes()
        exp1_text = (out1 / "summary.txt").read_text()
        custom_text = (out2 / "summary.txt").read_text()
        assert "[predictive]" in exp1_text and "[method]" in custom_text
        assert exp1_text.split("[ogd]")[1].replace("[predictive]", "") == (
            custom_text.split("[baseline]")[1].replace("[method]", "")
        )

    @pytest.mark.parametrize(
        "command,cfg",
        [("run-custom", {"domain": {"kind": "simplex"}}),
         ("run-exp1", {"descent": {"x1": [0.0, 60.0]}}),
         ("check-bounds", {"descent": {"x1": [0.0, 60.0]}})],
        ids=["custom-simplex-default-x1", "exp1-x1-outside-ball", "check-bounds"],
    )
    def test_x1_outside_the_domain_is_a_config_error(self, tmp_path, capsys, command, cfg):
        flags = ("--runs", "1", "--expert-runs", "1") if command == "check-bounds" else ()
        code, out = _run(tmp_path, command, "x1", {"repetitions": 1, **cfg}, *flags)
        assert code == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("config error: descent.x1=")
        assert "outside the" in err and not out.exists()

    @pytest.mark.parametrize(
        "command,cfg,message",
        [("run-exp2", {"smad": {"beta": 1.5}}, "smad.beta expects a number in (0, 1)"),
         ("run-exp3", {"exp3": {"risk_stay_prob": -0.1}},
          "exp3.risk_stay_prob expects a number in [0, 1]"),
         ("run-exp3", {"exp3": {"risk_stay_prob": 1.5}},
          "exp3.risk_stay_prob expects a number in [0, 1]"),
         # month 1's client window would hold one day, too few for a covariance
         ("run-exp3", {"exp3": {"month_days": 1}}, "exp3.month_days expects an integer >= 2"),
         ("run-exp1", {"objective": {"weights": [-100.0, 1.0]}},
          "objective.weights expects a list of positive numbers"),
         ("check-bounds", {"objective": {"weights": [-100.0, 1.0]}},
          "objective.weights expects a list of positive numbers")],
        ids=["smad.beta", "exp3.stay-neg", "exp3.risk_stay_prob",
             "exp3.month_days", "weights", "cb-weights"],
    )
    def test_out_of_range_fraction_is_a_config_error(
        self, tmp_path, capsys, command, cfg, message
    ):
        code, out = _run(tmp_path, command, "range", {"repetitions": 1, **cfg})
        assert code == EXIT_CONFIG
        assert message in capsys.readouterr().err and not out.exists()

    @pytest.mark.parametrize(
        "command,section,key",
        [("run-exp2", "smad", "expert_orders"),
         ("run-exp3", "exp3", "lookbacks"),
         ("run-exp3", "exp3", "ar_orders"),
         ("run-exp1", "objective", "weights"),
         ("check-bounds", "objective", "weights")],
        ids=["smad.expert_orders", "exp3.lookbacks", "exp3.ar_orders",
             "objective.weights", "cb-objective.weights"],
    )
    def test_empty_expert_list_is_a_config_error(self, tmp_path, capsys, command, section, key):
        cfg = {"repetitions": 1, "horizon": 20, section: {key: []}}
        code, out = _run(tmp_path, command, "no-experts", cfg)
        assert code == EXIT_CONFIG
        assert f"{section}.{key} is empty" in capsys.readouterr().err and not out.exists()

    @pytest.mark.parametrize(
        "command,cfg,key",
        [("run-exp1", {"descent": {"eta": math.nan}}, "descent.eta"),
         ("run-exp2", {"smad": {"gamma": math.inf}}, "smad.gamma"),
         ("run-exp1", {"scenario": {"state_a": [-100, 0, math.inf]}}, "scenario.state_a"),
         ("run-exp1", {"descent": {"eta": 10**400}}, "descent.eta")],
        ids=["nan-eta", "infinite-gamma", "infinite-state", "eta-beyond-float-range"],
    )
    def test_non_finite_number_is_a_config_error(self, tmp_path, capsys, command, cfg, key):
        # json writes and reads the NaN and Infinity literals and integers of
        # any size
        code, out = _run(tmp_path, command, "finite", {"repetitions": 1, **cfg})
        assert code == EXIT_CONFIG
        assert f"config key {key} expects a " in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "command,indices",
        [("run-exp1", [5]), ("run-exp2", [5]), ("run-custom", [5]), ("check-bounds", [5]),
         ("run-exp1", []), ("check-bounds", [])],
        ids=["run-exp1", "run-exp2", "run-custom", "check-bounds",
             "run-exp1-empty", "check-bounds-empty"],
    )
    def test_indices_beyond_the_parameter_are_a_config_error(
        self, tmp_path, capsys, command, indices
    ):
        # an empty list models no component at all
        flags = ("--runs", "1", "--expert-runs", "1") if command == "check-bounds" else ()
        cfg = {"repetitions": 1, "predictor": {"indices": indices}}
        code, out = _run(tmp_path, command, "indices", cfg, *flags)
        assert code == EXIT_CONFIG
        assert f"predictor.indices={indices}" in capsys.readouterr().err and not out.exists()

    def test_check_bounds_on_a_renormalizing_simplex_is_a_config_error(
        self, tmp_path, capsys, monkeypatch
    ):
        import poco.experiments as experiments

        def no_run(*args, **kwargs):
            raise AssertionError("a bound-study run was played")

        # the studies refuse the domain themselves, before any run
        monkeypatch.setattr(experiments, "run_predictive_ogd", no_run)
        monkeypatch.setattr(experiments, "run_smad", no_run)
        cfg = {
            "domain": {"kind": "simplex", "projection_mode": "renormalize"},
            "descent": {"x1": [0.5, 0.5]},
        }
        code, out = _run(tmp_path, "check-bounds", "renorm", cfg,
                         "--runs", "1", "--expert-runs", "1")
        assert code == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("config error: domain.projection_mode='renormalize'")
        assert "not nonexpansive" in err and not out.exists()

    def test_check_bounds_on_a_step_above_one_over_l_is_a_config_error(
        self, tmp_path, capsys, monkeypatch
    ):
        import poco.experiments as experiments

        def no_run(*args, **kwargs):
            raise AssertionError("a bound-study run was played")

        # the config does not refuse a step above 1/L, which the study runs
        # build skipping ledgers for, so the studies refuse it before any run
        monkeypatch.setattr(experiments, "run_predictive_ogd", no_run)
        monkeypatch.setattr(experiments, "run_smad", no_run)
        cfg = {"descent": {"eta": 0.1}}
        code, out = _run(tmp_path, "check-bounds", "eta", cfg, "--runs", "1", "--expert-runs", "1")
        assert code == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("config error: descent.eta=0.1 violates the step-size condition")
        assert "1/L = 0.005" in err and not out.exists()

    def test_check_bounds_fails_on_a_hedge_violation_alone(self, tmp_path, monkeypatch):
        import dataclasses

        import poco.experiments as experiments
        from poco.experiments import BoundStudyResult

        # a real ledger whose verdicts say: regret bound held, aggregation did not
        study = experiments.run_predictive_bound_study(resolve_config({"horizon": 10}), 1)
        ledger = study.records[0]
        rec = dataclasses.replace(
            ledger, reg_d=1.0, bound=2.0, bound_holds=True,
            hedge_gap=3.0, hedge_bound=2.0, hedge_holds=False,
        )

        def violated(cfg, n_runs):
            return BoundStudyResult(records=[rec], label="expert-pool regret bound")

        monkeypatch.setattr(experiments, "run_expert_bound_study", violated)
        code = main([
            "check-bounds", "--runs", "1", "--expert-runs", "1",
            "--out", str(tmp_path / "cb"), "--quiet",
        ])
        assert code == EXIT_CHECK_FAILED
        text = (tmp_path / "cb" / "summary.txt").read_text()
        assert "RESULT: BOUND VIOLATION" in text

    def test_check_bounds_studies_share_the_config_scenario(self, tmp_path, monkeypatch):
        import poco.experiments as experiments

        dwells = set()
        real = experiments.gen_switching

        def capture(proc, seed):
            dwells.add(proc.dwell)
            return real(proc, seed)

        monkeypatch.setattr(experiments, "gen_switching", capture)
        code, _ = _run(
            tmp_path, "check-bounds", "cb", {"experiment": "exp2"}, "--runs", "1", "--expert-runs", "1"
        )
        assert code == EXIT_OK
        assert dwells == {(4, 6)}
