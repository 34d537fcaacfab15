"""Bench-harness tests: CSV runs, slope fitting, self-checks, CLI."""
import dataclasses
import json
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qal.bench as bench
import qal.checks as checks
import qal.engine as engine
from qal.bench import (
    BenchConfig,
    fit_loglog_slope,
    load_bench_config,
    mean_samples_by_epsilon,
    run_bench,
)
from qal.checks import verify
from qal.cli import main
from qal.learner import learn
from qal.problem import MAX_LOSS_ENTRIES, ValidationError, random_instance

from conftest import json_values, mutate_json


def small_config(repo_root, **overrides):
    base = dict(
        epsilons=(0.1, 0.05),
        deltas=(0.1,),
        trials=3,
        base_seed=11,
        methods=("quantum", "classical"),
        engine="analytic",
        instance_path=str(repo_root / "instances" / "demo2.json"),
    )
    base.update(overrides)
    return BenchConfig(**base)


class TestFitLoglogSlope:
    def test_exact_inverse_law(self):
        assert fit_loglog_slope([(0.1, 100), (0.05, 200), (0.025, 400)]) == pytest.approx(-1.0)

    def test_exact_inverse_square_law(self):
        assert fit_loglog_slope([(0.1, 100), (0.05, 400), (0.025, 1600)]) == pytest.approx(-2.0)

    def test_too_few_points_rejected(self):
        with pytest.raises(ValueError, match="3 points"):
            fit_loglog_slope([(0.1, 100), (0.05, 200)])

    def test_degenerate_grid_rejected(self):
        with pytest.raises(ValueError, match="degenerate"):
            fit_loglog_slope([(0.1, 100), (0.1, 200), (0.1, 400)])

    def test_nonpositive_coordinates_rejected(self):
        with pytest.raises(ValueError, match="positive"):
            fit_loglog_slope([(0.1, 100), (0.05, 0), (0.025, 400)])


class TestRunBench:
    def test_row_cardinality(self, repo_root, tmp_path):
        config = small_config(repo_root, epsilons=(0.1, 0.08, 0.06, 0.05), trials=5)
        rows = run_bench(config, tmp_path / "out.csv")
        assert len(rows) == 2 * 4 * 1 * 5
        lines = (tmp_path / "out.csv").read_text().splitlines()
        assert len(lines) == 1 + len(rows)
        assert lines[0] == "instance_id,method,epsilon,delta,trial,samples_used,success,risk_gap,reason"

    def test_byte_identical_reruns(self, repo_root, tmp_path):
        config = small_config(repo_root)
        run_bench(config, tmp_path / "a.csv")
        run_bench(config, tmp_path / "b.csv")
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()

    def test_success_recomputable_from_row(self, repo_root, tmp_path):
        config = small_config(repo_root)
        for row in run_bench(config, tmp_path / "out.csv"):
            assert row.success == int(row.risk_gap <= row.epsilon)

    def test_quantum_counts_follow_the_schedules(self, repo_root, tmp_path):
        # Deterministic oracle: |H| * R(delta/|H|) * (2^(m+1) - 1) with m
        # from the worst-case accuracy scan at epsilon/(2*bound).
        config = small_config(repo_root, epsilons=(0.1, 0.05), trials=2)
        rows = run_bench(config, tmp_path / "out.csv")
        for row in rows:
            if row.method != "quantum":
                continue
            m = 1
            while math.pi / 2**m + math.pi**2 / 4**m > row.epsilon / 2:
                m += 1
            reps = 2 * math.ceil(2.6 * math.log(4 / row.delta)) + 1
            assert row.samples_used == 4 * reps * (2 ** (m + 1) - 1)

    def test_capacity_errors_become_failed_rows(self, repo_root, tmp_path, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a cell over the qubit cap ran the learner")

        # The cell is decided once from the schedule; no trial runs the learner.
        monkeypatch.setattr(bench, "learn", refuse)
        config = small_config(repo_root, epsilons=(1e-8,), methods=("quantum",), trials=2)
        rows = run_bench(config, tmp_path / "out.csv")
        assert len(rows) == 2
        for row in rows:
            assert row.success == 0
            assert row.samples_used == 0
            assert "phase bits" in row.reason
        reason = "accuracy 5e-09 needs more than 21 phase bits (worst-case error at m=21 is 1.498e-06)"
        assert (tmp_path / "out.csv").read_text().splitlines()[1:] == [
            f"demo2,quantum,1e-08,0.10000000000000001,{trial},0,0,nan,{reason}" for trial in range(2)
        ]

    def test_random_instance_config(self, tmp_path):
        config = BenchConfig(
            epsilons=(0.1,),
            deltas=(0.1,),
            trials=2,
            base_seed=3,
            methods=("classical",),
            random_spec={"seed": 5, "x_size": 3, "y_size": 2, "h_size": 4},
        )
        rows = run_bench(config, tmp_path / "out.csv")
        assert all(r.instance_id == "random-5" for r in rows)

    def test_config_requires_exactly_one_source(self):
        with pytest.raises(ValidationError, match="exactly one"):
            BenchConfig(epsilons=(0.1,), deltas=(0.1,), trials=1, base_seed=0)

    def test_config_validates_grids_and_methods(self, repo_root):
        with pytest.raises(ValidationError, match="grids"):
            small_config(repo_root, epsilons=())
        with pytest.raises(ValidationError, match="methods"):
            small_config(repo_root, methods=("annealer",))

    @pytest.mark.parametrize(
        "path, overrides",
        [
            ("base_seed", {"base_seed": 1.5}),
            ("trials", {"trials": 2.0}),
            ("instance_path", {"instance_path": 5}),
            ("trials", {"trials": "3"}),
            ("epsilons[0]", {"epsilons": ("0.1",)}),
            ("trials", {"trials": True}),
            ("methods", {"methods": 5}),
            ("deltas[0]", {"deltas": np.array([[0.1, 0.2]])}),
        ],
        ids=[
            "half-seed", "float-trials", "int-path", "string-trials", "string-epsilon", "bool-trials", "int-methods",
            "2d-deltas",
        ],
    )
    def test_config_checks_its_types(self, repo_root, path, overrides):
        # A config built directly used to pass these to run_bench, which died
        # with a bare TypeError at the first trial or ran True as one trial.
        with pytest.raises(ValidationError, match=rf"^{re.escape(path)}: expected "):
            small_config(repo_root, **overrides)

    def test_load_config_round_trip(self, repo_root, tmp_path):
        path = tmp_path / "config.json"
        path.write_text(
            json.dumps(
                {
                    "instance": str(repo_root / "instances" / "demo2.json"),
                    "epsilons": [0.1],
                    "deltas": [0.1],
                    "trials": 2,
                    "base_seed": 4,
                }
            )
        )
        config = load_bench_config(path)
        assert config.trials == 2
        assert config.methods == ("quantum", "classical")

    def test_mean_samples_aggregation(self, repo_root, tmp_path):
        config = small_config(repo_root)
        rows = run_bench(config, tmp_path / "out.csv")
        points = mean_samples_by_epsilon(rows, "classical")
        assert [p[0] for p in points] == [0.05, 0.1]
        assert all(p[1] > 0 for p in points)


def demo2_config(repo_root, **overrides):
    config = {
        "instance": str(repo_root / "instances" / "demo2.json"),
        "epsilons": [0.1],
        "deltas": [0.1],
        "trials": 1,
        "base_seed": 0,
    }
    config.update(overrides)
    return config


class TestConfigValidation:
    # Each config used to fail only at run time: a KeyError with exit 1, or
    # a bad cell after the good cells before it had run, with no CSV written.
    @pytest.mark.parametrize(
        "overrides,field",
        [
            ({"instance": None, "random": {"seed": 1}}, r"random\.x_size"),
            ({"instance": None, "random": {"seed": 1, "x_size": "3", "y_size": 2, "h_size": 2}}, r"random\.x_size"),
            ({"instance": None, "random": {"seed": -1, "x_size": 3, "y_size": 2, "h_size": 2}}, r"random\.seed"),
            ({"instance": None, "random": {"seed": 1, "x_size": 3, "y_size": 2, "h_size": 2, "loss": "x"}}, r"random\.loss"),
            ({"epsilons": [0.1, 2.0]}, r"epsilons\[1\]"),
            ({"epsilons": [0.0]}, r"epsilons\[0\]"),
            ({"deltas": [0.1, 1.0]}, r"deltas\[1\]"),
            ({"engine": "tensor"}, "engine"),
            ({"trials": "2"}, "trials"),
            # 2e12 loss entries: a MemoryError traceback allocating 7 TiB.
            ({"instance": None, "random": {"seed": 1, "x_size": 10**6, "y_size": 10**6, "h_size": 2}}, r"^random: "),
            # A misspelt key used to be ignored, running the defaults.
            ({"engien": "statevector"}, r"^engien: unknown field"),
            ({"trials": 0}, r"^trials: must be >= 1, got 0$"),
            ({"base_seed": -1}, r"^base_seed: must be >= 0, got -1$"),
            ({"epsilons": [10**400]}, r"^epsilons\[0\]: 10{59} is too large for a float$"),
        ],
    )
    def test_bad_config_rejected_before_any_cell(self, repo_root, tmp_path, capsys, overrides, field):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(demo2_config(repo_root, **overrides)))
        with pytest.raises(ValidationError, match=field):
            load_bench_config(path)
        out = tmp_path / "out.csv"
        assert main(["bench", "--config", str(path), "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert not out.exists()

    @pytest.mark.parametrize(
        "change, key",
        [
            ({"x_size": 0}, ".x_size"),
            ({"y_size": "3"}, ".y_size"),
            ({"h_size": True}, ".h_size"),
            ({"x_size": 10**6, "y_size": 10**6}, ""),
            ({"loss_kind": "table"}, ".loss_kind"),
            ({"seed": -1}, ".seed"),
            ({"seed": True}, ".seed"),
            ({"seed": "1"}, ".seed"),
        ],
        ids=["zero-size", "string-size", "bool-size", "over-cap", "table-kind", "negative-seed", "bool-seed",
             "string-seed"],
    )
    def test_random_rules_have_one_owner(self, repo_root, tmp_path, change, key):
        # The rules were stated twice: a direct call took True as size 1,
        # raised a bare TypeError for "3", and named no key. It also took
        # seed True as 1 and left a negative or string seed to numpy.
        spec = {"seed": 1, "x_size": 3, "y_size": 2, "h_size": 2, **change}
        with pytest.raises(ValidationError, match=rf"^random_instance{re.escape(key)}: ") as direct:
            random_instance(**spec)
        path = tmp_path / "config.json"
        path.write_text(json.dumps(demo2_config(repo_root, instance=None, random=spec)))
        with pytest.raises(ValidationError, match=rf"^random{re.escape(key)}: ") as config:
            load_bench_config(path)
        assert str(direct.value).removeprefix("random_instance") == str(config.value).removeprefix("random")

    def test_null_optional_keys_read_as_absent(self, repo_root, tmp_path):
        # A null "methods" or "engine" used to be rejected as a wrong type.
        path, plain = tmp_path / "config.json", tmp_path / "plain.json"
        path.write_text(json.dumps(demo2_config(repo_root, methods=None, engine=None, random=None)))
        plain.write_text(json.dumps(demo2_config(repo_root)))
        config = load_bench_config(path)
        assert config == load_bench_config(plain)
        assert (config.methods, config.engine) == (bench.METHODS, "analytic")
        spec = {"seed": 5, "x_size": 3, "y_size": 2, "h_size": 4}
        path.write_text(json.dumps(demo2_config(repo_root, instance=None, random={**spec, "loss_kind": None})))
        config = load_bench_config(path)
        assert config.random_spec == spec
        assert bench.resolve_instance(config)[1] == random_instance(**spec) == random_instance(**spec, loss_kind=None)

    def test_random_spec_checked_on_construction(self):
        with pytest.raises(ValidationError, match=r"random\.h_size"):
            BenchConfig(
                epsilons=(0.1,),
                deltas=(0.1,),
                trials=1,
                base_seed=0,
                random_spec={"seed": 1, "x_size": 2, "y_size": 2, "h_size": 0},
            )

    def test_random_spec_at_loss_matrix_cap_accepted(self):
        spec = {"seed": 1, "x_size": 64, "y_size": 64, "h_size": MAX_LOSS_ENTRIES // (64 * 64)}
        BenchConfig(epsilons=(0.1,), deltas=(0.1,), trials=1, base_seed=0, random_spec=spec)

    @settings(max_examples=200, deadline=None)
    @given(data=st.data(), value=json_values)
    def test_any_json_value_anywhere_loads_or_is_rejected(self, repo_root, tmp_path_factory, data, value):
        obj = json.loads((repo_root / "configs" / "separation.json").read_text())
        if data.draw(st.booleans()):
            del obj["instance"]
            obj["random"] = {"seed": 1, "x_size": 2, "y_size": 2, "h_size": 2}
        path = tmp_path_factory.mktemp("fuzz") / "config.json"
        path.write_text(json.dumps(mutate_json(data, obj, value)))
        try:
            config = load_bench_config(path)
        except ValidationError:
            return
        assert all(0.0 < e < 1.0 for e in config.epsilons) and config.engine in ("analytic", "statevector")

    def test_top_level_list_rejected(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text("[0.1, 0.05]")
        with pytest.raises(ValidationError, match="expected object"):
            load_bench_config(path)


class TestCellChecks:
    # Each grid used to run its first cells, then stop at the bad one with
    # no CSV written: a ValueError (exit 2) or an OverflowError (exit 1).
    @pytest.mark.parametrize(
        "bound,epsilons,methods",
        [
            (0.5, [0.1, 0.6], ["quantum", "classical"]),  # classical needs epsilon < bound
            (0.2, [0.1, 0.5], ["quantum"]),  # quantum needs epsilon/2 < bound
        ],
    )
    def test_epsilon_beyond_loss_bound_rejected_before_any_cell(
        self, repo_root, tmp_path, capsys, bound, epsilons, methods
    ):
        obj = json.loads((repo_root / "instances" / "demo2.json").read_text())
        obj["loss"] = {
            "kind": "table",
            "bound": bound,
            "table": {h["id"]: [[0.0, bound], [bound, 0.0]] for h in obj["hypotheses"]},
        }
        (tmp_path / "inst.json").write_text(json.dumps(obj))
        config = demo2_config(repo_root, instance=str(tmp_path / "inst.json"), epsilons=epsilons, methods=methods)
        self.assert_rejected(tmp_path, capsys, config)

    def test_hoeffding_count_beyond_int64_rejected_before_any_cell(self, repo_root, tmp_path, capsys):
        config = demo2_config(repo_root, instance=str(repo_root / "instances" / "separation.json"), epsilons=[0.1, 1e-9])
        self.assert_rejected(tmp_path, capsys, config)

    def test_delta_without_repetition_count_rejected_before_any_cell(self, repo_root, tmp_path, capsys):
        # delta/|H| = 2.5e-321 has 1/delta = inf: the grid wrote its CSV
        # header, then died with an OverflowError traceback and exit 1.
        config = demo2_config(repo_root, deltas=[0.1, 1e-320], methods=["quantum"])
        self.assert_rejected(tmp_path, capsys, config, field="deltas[1]")

    def test_bad_delta_not_hidden_behind_capacity(self, repo_root, tmp_path, capsys):
        # epsilon 1e-8 alone is over the qubit cap and writes reason rows;
        # with delta/|H| = 2.5e-321 the grid must still be rejected at delta.
        config = demo2_config(repo_root, epsilons=[1e-8], deltas=[1e-320], methods=["quantum"])
        self.assert_rejected(tmp_path, capsys, config, field="deltas[0]")

    @staticmethod
    def assert_rejected(tmp_path, capsys, config, field="epsilons[1]"):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        out = tmp_path / "out.csv"
        with pytest.raises(ValidationError, match=re.escape(field)):
            run_bench(load_bench_config(path), out)
        assert not out.exists()
        assert main(["bench", "--config", str(path), "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith(f"error: {field}")
        assert not out.exists()


class TestVerify:
    def test_default_checks_pass(self):
        results = verify(quick=True)
        for r in results:
            assert r.passed, f"{r.name}: {r.observed} (required {r.required})"

    def test_fault_injection_breaks_interval_mass(self, monkeypatch):
        def sign_flipped(block):
            # Overall sign error: flips the unmarked branch instead of the
            # marked one, shifting every eigenphase by a half turn.
            block[..., 0::2] *= -1.0

        monkeypatch.setattr(engine, "_apply_projector_reflection", sign_flipped)
        results = {r.name: r for r in verify(quick=True)}
        assert not results["ae-interval-mass"].passed

    @pytest.mark.parametrize(
        "corrupt",
        [
            lambda r: dataclasses.replace(r, chosen_id=r.ids[int(np.argmax(r.batch.mu_hat))]),
            lambda r: dataclasses.replace(r, batch=dataclasses.replace(r.batch, mu_hat=r.batch.mu_hat + 1.0)),
        ],
        ids=["estimate-argmax-choice", "no-run-meets-the-premise"],
    )
    def test_corrupted_learn_fails_argmin_transfer(self, monkeypatch, corrupt):
        monkeypatch.setattr(checks, "learn", lambda *args, **kwargs: corrupt(learn(*args, **kwargs)))
        results = {r.name: r for r in verify(quick=True)}
        assert not results["argmin-transfer"].passed
        assert [r.name for r in results.values() if not r.passed] == ["argmin-transfer"]


class TestCli:
    def test_estimate_outputs_json(self, repo_root, capsys):
        code = main(
            [
                "estimate",
                "--instance", str(repo_root / "instances" / "demo2.json"),
                "--hypothesis", "identity",
                "--epsilon", "0.1",
                "--delta", "0.1",
                "--seed", "3",
            ]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert abs(payload["mu_hat"] - 0.3) <= 0.1
        assert payload["repetitions"] == 13

    def test_learn_quantum_and_classical(self, repo_root, capsys):
        for method in ("quantum", "classical"):
            code = main(
                [
                    "learn",
                    "--instance", str(repo_root / "instances" / "demo2.json"),
                    "--epsilon", "0.1",
                    "--delta", "0.1",
                    "--seed", "5",
                    "--method", method,
                ]
            )
            assert code == 0
            payload = json.loads(capsys.readouterr().out)
            assert payload["method"] == method
            assert payload["chosen_id"] in {"identity", "flip", "const0", "const1"}

    def test_classical_count_beyond_int64_is_usage_error(self, repo_root, capsys):
        code = main(
            [
                "learn",
                "--instance", str(repo_root / "instances" / "separation.json"),
                "--epsilon", "1e-9",
                "--delta", "0.05",
                "--seed", "1",
                "--method", "classical",
            ]
        )
        assert code == 2
        assert "int64" in capsys.readouterr().err

    @pytest.mark.parametrize("delta", [1e-320, 1e-308])
    def test_classical_delta_too_small_names_delta(self, repo_root, tmp_path, capsys, delta):
        # 2|H|/delta overflows: both paths used to blame epsilon.
        instance = str(repo_root / "instances" / "demo2.json")
        config = {
            "instance": instance, "epsilons": [0.1], "deltas": [delta], "trials": 1, "base_seed": 0,
            "methods": ["classical"],
        }
        path = tmp_path / "c.json"
        path.write_text(json.dumps(config))
        assert main(["bench", "--config", str(path), "--out", str(tmp_path / "r.csv")]) == 2
        assert capsys.readouterr().err.startswith(f"error: deltas[0]: classical cell rejected: delta={delta}")
        learn = ["learn", "--instance", instance, "--epsilon", "0.1", "--delta", str(delta), "--seed", "1"]
        assert main([*learn, "--method", "classical"]) == 2
        assert capsys.readouterr().err.startswith(f"error: delta={delta}")

    def test_bench_writes_csv(self, repo_root, tmp_path, capsys):
        config = {
            "instance": str(repo_root / "instances" / "demo2.json"),
            "epsilons": [0.1, 0.05, 0.025],
            "deltas": [0.1],
            "trials": 2,
            "base_seed": 0,
            "methods": ["classical"],
        }
        config_path = tmp_path / "c.json"
        config_path.write_text(json.dumps(config))
        out_path = tmp_path / "r.csv"
        code = main(["bench", "--config", str(config_path), "--out", str(out_path)])
        assert code == 0
        assert out_path.exists()
        payload = json.loads(capsys.readouterr().out)
        assert payload["rows"] == 6
        assert -2.3 <= payload["classical_loglog_slope"] <= -1.7

    def test_bench_separation_config_matches_golden_csv(self, repo_root, tmp_path, capsys, monkeypatch):
        # The documented separation experiment: same bytes as the golden
        # file, and slopes inside acceptance check A5's bounds.
        monkeypatch.chdir(repo_root)
        out = tmp_path / "separation.csv"
        assert main(["bench", "--config", "configs/separation.json", "--out", str(out)]) == 0
        assert out.read_bytes() == (repo_root / "tests" / "golden" / "separation.csv").read_bytes()
        payload = json.loads(capsys.readouterr().out)
        assert -1.25 <= payload["quantum_loglog_slope"] <= -0.85
        assert -2.3 <= payload["classical_loglog_slope"] <= -1.7

    def test_subnormal_delta_is_usage_error(self, repo_root, capsys):
        for command in (["estimate", "--hypothesis", "identity"], ["learn"]):
            code = main(
                [
                    *command,
                    "--instance", str(repo_root / "instances" / "demo2.json"),
                    "--epsilon", "0.05",
                    "--delta", "1e-320",
                    "--seed", "1",
                ]
            )
            assert code == 2
            assert "finite 1/delta" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "epsilon, delta, message",
        [
            ("0.1", "1e-308", "delta=1e-308 gives delta/|H| = 2.499999999999997e-309 at |H|=4: delta must lie in (0, 1) "
             "with a finite 1/delta, got 2.499999999999997e-309"),
            ("1e-8", "0.1", "epsilon=1e-08 gives epsilon/2 = 5e-09: accuracy 5e-09 needs more than 21 phase bits "
             "(worst-case error at m=21 is 1.498e-06)"),
        ],
    )
    def test_quantum_learn_rejection_names_the_value_passed(self, repo_root, capsys, epsilon, delta, message):
        # The schedule sees the per-hypothesis share; learn adds the value the caller passed.
        argv = ["learn", "--instance", str(repo_root / "instances" / "demo2.json"), "--epsilon", epsilon,
                "--delta", delta, "--seed", "1"]
        assert main(argv) == 2
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_out_path_that_is_a_directory_fails_before_any_cell(self, repo_root, tmp_path, capsys, monkeypatch):
        def never(*args, **kwargs):
            raise AssertionError("a cell ran")

        monkeypatch.setattr(bench, "learn", never)
        monkeypatch.setattr(bench, "erm_learn", never)
        config_path = tmp_path / "c.json"
        config_path.write_text(json.dumps(demo2_config(repo_root)))
        assert main(["bench", "--config", str(config_path), "--out", str(tmp_path)]) == 2
        assert "directory" in capsys.readouterr().err

    @pytest.mark.parametrize("command", [["estimate", "--hypothesis", "identity"], ["learn"]])
    def test_negative_seed_is_usage_error_naming_seed(self, repo_root, capsys, command):
        # numpy used to reject it with a message naming no flag.
        instance = str(repo_root / "instances" / "demo2.json")
        assert main([*command, "--instance", instance, "--epsilon", "0.1", "--delta", "0.1", "--seed", "-1"]) == 2
        assert capsys.readouterr().err.startswith("error: --seed: must be >= 0, got -1")

    @pytest.mark.parametrize("where", ["instance", "config", "config-epsilons"])
    def test_deeply_nested_json_is_usage_error(self, repo_root, tmp_path, capsys, where):
        # The JSON parser's RecursionError used to escape with a traceback and exit 1.
        deep = "[" * 100000 + "]" * 100000
        path = tmp_path / "deep.json"
        path.write_text(json.dumps(demo2_config(repo_root, epsilons=None)).replace("null", deep)
                        if where == "config-epsilons" else deep)
        if where == "instance":
            argv = ["learn", "--instance", str(path), "--epsilon", "0.1", "--delta", "0.1", "--seed", "1"]
        else:
            argv = ["bench", "--config", str(path), "--out", str(tmp_path / "r.csv")]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}: not valid JSON") and "Traceback" not in err

    @pytest.mark.parametrize("k", [30, 2000])
    def test_register_with_no_room_for_a_phase_bit(self, repo_root, tmp_path, capsys, k):
        # The depth search used to run with max_bits below 1: k = 30 named
        # "-7 phase bits", and k = 2000 raised ZeroDivisionError.
        spec = json.loads((repo_root / "instances" / "demo2.json").read_text())
        instance = tmp_path / "wide.json"
        instance.write_text(json.dumps({**spec, "k": k}))
        cap = f"{k + 2} qubits ({k + 1} system, m=1) exceed the cap of 24"
        argv = ["estimate", "--instance", str(instance), "--hypothesis", "identity", "--epsilon", "0.1",
                "--delta", "0.1", "--seed", "1"]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err == f"error: {cap}\n" and "Traceback" not in err
        # A bench cell over the cap is a failed row with the cap as its reason; classical cells still run.
        config = tmp_path / "c.json"
        config.write_text(json.dumps(demo2_config(repo_root, instance=str(instance), methods=["quantum", "classical"])))
        out = tmp_path / "r.csv"
        assert main(["bench", "--config", str(config), "--out", str(out)]) == 0
        quantum, classical = out.read_text().splitlines()[1:]
        assert quantum == f"wide,quantum,0.10000000000000001,0.10000000000000001,0,0,0,nan,{cap}"
        assert classical.endswith(",1,0,")

    def test_verify_quick_exits_zero(self, capsys):
        assert main(["verify", "--quick"]) == 0
        out = capsys.readouterr().out
        assert out.count("[PASS]") == 6

    def test_full_verify_exits_zero(self, capsys):
        # Only the full run checks ae-interval-mass at m = 5 and 6.
        assert main(["verify"]) == 0
        assert capsys.readouterr().out.count("[PASS]") == 6

    def test_missing_instance_is_usage_error(self, capsys):
        code = main(
            [
                "estimate",
                "--instance", "does-not-exist.json",
                "--hypothesis", "identity",
                "--epsilon", "0.1",
                "--delta", "0.1",
                "--seed", "1",
            ]
        )
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_bad_epsilon_is_usage_error(self, repo_root, capsys):
        code = main(
            [
                "estimate",
                "--instance", str(repo_root / "instances" / "demo2.json"),
                "--hypothesis", "identity",
                "--epsilon", "2.0",
                "--delta", "0.1",
                "--seed", "1",
            ]
        )
        assert code == 2

    def test_usage_error_exit_code(self):
        with pytest.raises(SystemExit) as exc:
            main(["estimate", "--instance", "x.json"])
        assert exc.value.code == 2
