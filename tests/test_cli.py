import json
import os

import numpy as np
import pytest

from poco.cli import EXIT_CONFIG, EXIT_DATA, EXIT_OK, main
from poco.config import (
    ConfigError,
    config_hash,
    default_out_dir,
    emit_results,
    parse_config,
    resolve_config,
)


class TestConfigResolution:
    def test_minimal_config_gets_defaults(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"seed": 7}))
        cfg = parse_config(str(path), experiment="exp1")
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

    def test_removed_bounds_inner_steps_rejected(self):
        # check-bounds always runs k = 1, 2, 3; the key was never read
        with pytest.raises(ConfigError, match="unknown config key bounds.inner_steps"):
            resolve_config({"bounds": {"inner_steps": 1}}, "exp1")

    def test_type_errors_name_key_and_expectation(self):
        with pytest.raises(ConfigError, match="descent.eta expects a number > 0"):
            resolve_config({"descent": {"eta": -1.0}}, "exp1")
        with pytest.raises(ConfigError, match="repetitions expects an integer"):
            resolve_config({"repetitions": "many"}, "exp1")

    def test_step_size_precondition_guard(self):
        with pytest.raises(ConfigError, match="eta <= 1/L"):
            resolve_config({"descent": {"eta": 0.01}}, "exp1")
        # disabling bound checks lifts the guard
        cfg = resolve_config(
            {"descent": {"eta": 0.01}, "bounds": {"check": False}}, "exp1"
        )
        assert cfg["descent"]["eta"] == 0.01

    def test_experiment_mismatch_detected(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"experiment": "exp2"}))
        with pytest.raises(ConfigError, match="exp2"):
            parse_config(str(path), experiment="exp1")

    def test_missing_file(self):
        with pytest.raises(ConfigError, match="not found"):
            parse_config("/nonexistent/cfg.json")

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{nope")
        with pytest.raises(ConfigError, match="JSON"):
            parse_config(str(path))

    def test_round_trip_through_manifest(self, tmp_path):
        cfg = resolve_config({"seed": 11, "horizon": 60}, "exp1")
        manifest = {
            "config": cfg,
            "config_sha256": config_hash(cfg),
            "seed": cfg["seed"],
        }
        path = tmp_path / "manifest.json"
        path.write_text(json.dumps(manifest))
        again = parse_config(str(path))
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

    def test_exp1_writes_outputs_and_replays(self, tmp_path, capsys):
        cfg = self.fast_cfg(tmp_path)
        out1 = str(tmp_path / "a")
        out2 = str(tmp_path / "b")
        assert main(["run-exp1", "--config", cfg, "--out", out1, "--quiet"]) == EXIT_OK
        assert main([
            "run-exp1", "--config", os.path.join(out1, "manifest.json"),
            "--out", out2, "--quiet",
        ]) == EXIT_OK
        a = open(os.path.join(out1, "curve.csv"), "rb").read()
        b = open(os.path.join(out2, "curve.csv"), "rb").read()
        assert a == b

    def test_exp2_runs(self, tmp_path):
        cfg = self.fast_cfg(tmp_path, {"horizon": 60})
        out = str(tmp_path / "o2")
        assert main(["run-exp2", "--config", cfg, "--out", out, "--quiet"]) == EXIT_OK
        assert os.path.exists(os.path.join(out, "summary.txt"))

    def test_exp3_runs_small(self, tmp_path):
        cfg = self.fast_cfg(tmp_path, {"exp3": {"eval_months": 12}})
        out = str(tmp_path / "o3")
        assert main(["run-exp3", "--config", cfg, "--out", out, "--quiet"]) == EXIT_OK
        lines = open(os.path.join(out, "summary.txt")).read()
        assert "synthetic stand-in" in lines

    def test_run_custom(self, tmp_path):
        cfg = self.fast_cfg(tmp_path, {"descent": {"mode": "standard"}})
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

    def test_fit_ar_output(self, tmp_path, capsys):
        rng = np.random.default_rng(0)
        series = rng.normal(size=(60, 1)).cumsum(axis=0)
        path = tmp_path / "series.csv"
        path.write_text("\n".join(str(float(v)) for v in series[:, 0]))
        assert main(["fit-ar", "--csv", str(path), "--order", "2"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "phi[1]:" in out and "phi[2]:" in out and "mean:" in out

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


MOVED_STATES = {"state_a": [-60.0, 5.0, 30.0], "state_b": [60.0, 25.0, -50.0]}
SIMPLEX_START = {"descent": {"x1": [0.5, 0.5]}}

# (command, config change, the config it is compared with)
DROPPED_KEY_CASES = [
    pytest.param("run-exp1", {"scenario": MOVED_STATES}, {}, id="exp1-states"),
    pytest.param("run-exp1", {"scenario": {"noise_clip": 0.5}}, {}, id="exp1-noise_clip"),
    pytest.param("run-exp1", {"domain": {"center": [0.0, 5.0]}}, {}, id="exp1-center"),
    pytest.param(
        "run-exp1", {"domain": {"kind": "simplex"}, **SIMPLEX_START}, SIMPLEX_START,
        id="exp1-simplex",
    ),
    pytest.param("run-exp1", {"predictor": {"kind": "persistence"}}, {}, id="exp1-persistence"),
    pytest.param("run-exp1", {"predictor": {"indices": [0]}}, {}, id="exp1-indices"),
    pytest.param("run-exp2", {"scenario": MOVED_STATES}, {}, id="exp2-states"),
    pytest.param("run-exp2", {"scenario": {"noise_clip": 0.5}}, {}, id="exp2-noise_clip"),
    pytest.param("run-exp2", {"domain": {"center": [0.0, 5.0]}}, {}, id="exp2-center"),
    pytest.param("run-exp2", {"predictor": {"indices": [0]}}, {}, id="exp2-indices"),
]


class TestConfigReachesTheRun:
    @pytest.mark.parametrize("command,change,reference", DROPPED_KEY_CASES)
    def test_key_changes_the_curve(self, tmp_path, command, change, reference):
        base = {"repetitions": 2, "horizon": 60}
        curves = []
        for name, extra in (("reference", reference), ("changed", change)):
            code, out = _run(tmp_path, command, name, {**base, **extra})
            assert code == EXIT_OK
            curves.append((out / "curve.csv").read_bytes())
        assert curves[0] != curves[1]

    def test_gamma_auto_sized_from_the_scenario_the_run_draws(self, tmp_path, monkeypatch):
        import poco.experiments as experiments
        from poco.domains import EuclideanBall
        from poco.objectives import QuadraticTracking
        from poco.scenarios import switching_declared_box
        from poco.smad import suggested_gamma

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

    def test_bounds_check_false_drops_the_ledgers(self, tmp_path):
        sections = {}
        for check in (True, False):
            cfg = {"repetitions": 2, "horizon": 40, "bounds": {"check": check}}
            code, out = _run(tmp_path, "run-exp1", f"check-{check}", cfg)
            assert code == EXIT_OK
            text = (out / "summary.txt").read_text()
            sections[check] = [s for s in ("[ogd]", "[predictive]") if s in text]
        assert sections == {True: ["[ogd]", "[predictive]"], False: []}

    @pytest.mark.parametrize("command", ["run-exp1", "run-custom", "run-exp2"])
    def test_repetition_note_only_with_ledgers(self, tmp_path, command):
        notes = {}
        for check, eta in ((True, 0.005), (False, 0.01)):
            cfg = {
                "repetitions": 1, "horizon": 40,
                "descent": {"eta": eta}, "bounds": {"check": check},
            }
            code, out = _run(tmp_path, command, f"check-{check}", cfg)
            assert code == EXIT_OK
            text = (out / "summary.txt").read_text()
            notes[check] = "regret decomposition below is for repetition 1" in text
        assert notes == {True: True, False: False}

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
        assert any("experts joined mid-run" in line for line in smad)

    @pytest.mark.parametrize("command", ["run-exp1", "run-exp2"])
    def test_bounds_check_false_lifts_the_step_size_guard(self, tmp_path, command):
        # the config guard allows eta > 1/L only with bound checks off, so
        # the run must then build no regret ledger (it would refuse that eta)
        cfg = {"repetitions": 1, "horizon": 40, "descent": {"eta": 0.01}, "bounds": {"check": False}}
        code, out = _run(tmp_path, command, "big-eta", cfg)
        assert code == EXIT_OK
        assert "Reg_D" not in (out / "summary.txt").read_text()

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

    def test_check_bounds_studies_share_the_config_scenario(self, tmp_path, monkeypatch):
        import poco.experiments as experiments

        dwells = set()
        real = experiments.gen_switching

        def capture(proc, seed):
            dwells.add(proc.dwell)
            return real(proc, seed)

        monkeypatch.setattr(experiments, "gen_switching", capture)
        code = main([
            "check-bounds", "--experiment", "exp2", "--runs", "1", "--expert-runs", "1",
            "--out", str(tmp_path / "cb"), "--quiet",
        ])
        assert code == EXIT_OK
        assert dwells == {(4, 6)}
