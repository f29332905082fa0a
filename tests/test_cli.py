"""Tests for the CLI harness: config parsing, study runs, determinism."""

import json
import math
import re

import pytest

from hypercross import cli, diagnostics


BASE_CFG = {
    "d": 2,
    "alpha": [2.0, 2.0],
    "deriv": [0, 0],
    "p": 2,
    "q": 2,
    "theta": "inf",
    "test_fn": "trig",
    "budgets": [128, 512, 2048],
    "quadrature": {"cells_log2": 4},
}


def make_cfg(**overrides):
    raw = dict(BASE_CFG)
    raw.update(overrides)
    return json.dumps(raw)


class TestConfig:
    def test_roundtrip(self):
        cfg = cli.load_config(make_cfg())
        assert cfg.d == 2
        assert cfg.theta == math.inf
        assert cfg.budgets == (128, 512, 2048)
        assert cfg.quadrature.cells_log2 == 4

    def test_unknown_keys_rejected(self):
        with pytest.raises(ValueError, match="unknown config keys"):
            cli.load_config(make_cfg(extra=1))
        with pytest.raises(ValueError, match=r"unknown config keys: \['out'\]"):
            cli.load_config(make_cfg(out="table.csv"))
        raw = dict(BASE_CFG)
        raw["quadrature"] = {"cells_log2": 4, "bogus": 2}
        with pytest.raises(ValueError, match="unknown quadrature keys"):
            cli.load_config(json.dumps(raw))
        # The quadrature's d is the config's.
        with pytest.raises(ValueError, match=r"^unknown quadrature keys: \['d'\]$"):
            cli.load_config(make_cfg(quadrature={"d": 3}))

    def test_missing_key_rejected(self):
        for key in ("d", "alpha", "deriv", "p", "q", "theta", "test_fn", "budgets"):
            raw = dict(BASE_CFG)
            del raw[key]
            with pytest.raises(ValueError, match=f"^config missing required key '{key}'$"):
                cli.load_config(json.dumps(raw))
        # The required keys are checked in StudyConfig's field order.
        with pytest.raises(ValueError, match="^config missing required key 'd'$"):
            cli.load_config(json.dumps({"budgets": [128], "alpha": [2.0, 2.0]}))

    def test_budgets_must_increase(self):
        with pytest.raises(ValueError, match="strictly increasing"):
            cli.load_config(make_cfg(budgets=[128, 128]))

    @pytest.mark.parametrize(
        "text, message",
        [
            ("[1, 2]", "config must be a JSON object"),
            (make_cfg(budgets=[]), "budgets must be nonempty"),
            (make_cfg(quadrature=4), "quadrature must be an object"),
        ],
        ids=["array", "no-budgets", "quadrature-number"],
    )
    def test_shape_refused(self, text, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            cli.load_config(text)

    def test_invalid_class_params_rejected(self):
        with pytest.raises(ValueError, match="alpha - 1/p"):
            cli.load_config(make_cfg(alpha=[0.4, 2.0]))

    @pytest.mark.parametrize(
        "key, value",
        [
            ("d", 2.5),
            ("d", True),
            ("d", "2"),
            ("deriv", [0.9, 0]),
            ("deriv", [False, 0]),
            ("deriv", "00"),
            ("budgets", [64.7]),
            ("budgets", 64),
            ("alpha", "22"),
            ("alpha", None),
            ("alpha", [2.0, "2"]),
            ("seed", 1.5),
        ],
    )
    def test_types_are_strict(self, key, value):
        # derive_params checks the entries of alpha and deriv, naming the axis.
        name = {"alpha": "(alpha|axis 1: alpha)", "deriv": "(deriv|axis 0: derivative order)"}
        with pytest.raises(ValueError, match=rf"^{name.get(key, key)}: expected"):
            cli.load_config(make_cfg(**{key: value}))

    @pytest.mark.parametrize(
        "field, value, match",
        [
            ("cells_log2", 2.5, r"Quadrature\.cells_log2: expected an integer"),
            ("points_per_cell", True, r"Quadrature\.points_per_cell: expected an integer"),
            ("cells_log2", -1, r"Quadrature\.cells_log2 must be an integer >= 0"),
            ("sup_points", 0, r"Quadrature\.sup_points must be an integer >= 1"),
            ("sup_points", None, r"Quadrature\.sup_points: expected an integer, got 'null'"),
        ],
    )
    def test_quadrature_fields_are_strict(self, field, value, match):
        with pytest.raises(ValueError, match=match):
            cli.load_config(make_cfg(quadrature={field: value}))

    def test_integral_floats_are_integers(self):
        cfg = cli.load_config(make_cfg(d=2.0, deriv=[0.0, 0], budgets=[128.0, 512]))
        assert (cfg.d, cfg.deriv, cfg.budgets) == (2, (0, 0), (128, 512))
        assert all(type(v) is int for v in (cfg.d, *cfg.deriv, *cfg.budgets))

    def test_unknown_test_fn_rejected(self):
        with pytest.raises(ValueError, match="^unknown test function 'missing' for d=2"):
            cli.load_config(make_cfg(test_fn="missing"))

    def test_first_budget_at_the_smallest_plan(self, monkeypatch):
        # The radius-1 plan has 45 points; load_config counts it and scans no radii.
        monkeypatch.setattr(cli, "choose_radius", None)
        assert cli.load_config(make_cfg(budgets=[45, 46])).budgets == (45, 46)
        message = "budget 44 is below the minimum plan size 45"
        with pytest.raises(ValueError, match=f"^{message}$"):
            cli.load_config(make_cfg(budgets=[44, 46]))


class TestStudy:
    def test_rows_match_budgets(self):
        cfg = cli.load_config(make_cfg())
        result = cli.run_study(cfg)
        assert len(result.rows) == 3
        for row, budget in zip(result.rows, cfg.budgets):
            assert row.n_budget == budget
            assert row.n_actual <= budget

    def test_errors_decrease_for_smooth_entry(self):
        cfg = cli.load_config(make_cfg())
        result = cli.run_study(cfg)
        errs = [r.error for r in result.rows]
        for a, b in zip(errs, errs[1:]):
            assert b <= a * 1.05

    def test_csv_layout(self):
        cfg = cli.load_config(make_cfg(budgets=[128, 512]))
        text = cli.render_csv(cli.run_study(cfg))
        lines = text.strip().split("\n")
        assert lines[0] == "n_budget,r,n_actual,q,error,wall_ms"
        assert len(lines) == 3
        err_field = lines[1].split(",")[4]
        mantissa = err_field.split("e")[0].replace("-", "").replace(".", "")
        assert len(mantissa) >= 12  # at least 12 significant digits
        assert "." in err_field and "e" in err_field

    def test_repeated_radius_gives_equal_rows(self):
        # Budgets 64 and 128 both get radius 1 (45 points) here.
        cfg = cli.load_config(make_cfg(budgets=[64, 128]))
        first, second = cli.run_study(cfg).rows
        assert first.radius == second.radius == 1
        assert (first.n_actual, first.q, first.error) == (second.n_actual, second.q, second.error)

    def test_byte_identical_reruns(self):
        cfg = cli.load_config(make_cfg(budgets=[128, 512]))
        a = cli.render_csv(cli.run_study(cfg))
        b = cli.render_csv(cli.run_study(cfg))
        assert a == b


class TestMain:
    def test_study_verb(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(make_cfg(budgets=[128, 512]))
        out = tmp_path / "out.csv"
        rc = cli.main(["study", "--config", str(cfg_path), "--out", str(out)])
        assert rc == 0
        assert out.read_text().startswith("n_budget,")

    def test_plan_verb(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(make_cfg())
        out = tmp_path / "plan.txt"
        rc = cli.main(["plan", "--config", str(cfg_path), "--out", str(out)])
        assert rc == 0
        # The plan of the largest budget, 2048.
        assert capsys.readouterr().out == f"r=4 n_actual=1161 -> {out}\n"
        lines = out.read_text().strip().split("\n")
        assert len(lines) == 1161
        assert all(len(line.split("\t")) == 4 for line in lines)

    @pytest.mark.parametrize(
        "argv",
        [["plan", "--config", "x"], ["study"], [], ["diagnose", "--suite"]],
        ids=["plan-no-out", "study-no-args", "no-verb", "suite-no-value"],
    )
    def test_usage_error_exit_code(self, argv, capsys):
        assert cli.main(argv) == 1
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [["--help"], ["study", "--help"]])
    def test_help_exit_code(self, argv, capsys):
        assert cli.main(argv) == 0
        assert capsys.readouterr().out.startswith("usage: hypercross")

    def test_missing_out_exit_code(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(make_cfg(budgets=[128]))
        assert cli.main(["study", "--config", str(cfg_path)]) == 1

    @pytest.mark.parametrize("verb", ["plan", "study"])
    def test_unwritable_out_exit_code(self, tmp_path, capsys, verb):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(make_cfg(budgets=[128]))
        out = tmp_path / "missing" / "out.txt"
        assert cli.main([verb, "--config", str(cfg_path), "--out", str(out)]) == 1
        captured = capsys.readouterr()
        # study logs each budget to stderr before it writes the table.
        last = captured.err.splitlines()[-1]
        assert last.startswith("output error: [Errno 2] No such file or directory")
        assert str(out) in last
        assert captured.out == ""
        assert not out.parent.exists()

    def test_single_budget_has_no_fit(self):
        cfg = cli.load_config(make_cfg(budgets=[128]))
        result = cli.run_study(cfg)
        assert len(result.rows) == 1
        assert math.isnan(result.slope)

    def test_bad_config_exit_code(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text("{not json")
        rc = cli.main(["study", "--config", str(cfg_path), "--out", "/dev/null"])
        assert rc == 1

    @pytest.mark.parametrize(
        "override", [{"budgets": 64}, {"alpha": None}, {"d": True}, {"deriv": [0.9, 0]}]
    )
    def test_bad_type_exit_code(self, tmp_path, capsys, override):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(make_cfg(**override))
        rc = cli.main(["study", "--config", str(cfg_path), "--out", str(tmp_path / "o.csv")])
        key = next(iter(override)).replace("deriv", "axis 0: derivative order")
        assert rc == 1
        assert capsys.readouterr().err.startswith(f"config error: {key}: expected")

    def test_unknown_test_fn_exit_code(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(make_cfg(test_fn="nope"))
        rc = cli.main(["study", "--config", str(cfg_path), "--out", str(tmp_path / "o.csv")])
        assert rc == 1
        assert capsys.readouterr().err == (
            "config error: unknown test function 'nope' for d=2 (known: trig, kink, poly, aniso)\n"
        )

    def test_budget_below_minimum_exit_code(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(make_cfg(budgets=[2]))
        out = tmp_path / "out.csv"
        rc = cli.main(["study", "--config", str(cfg_path), "--out", str(out)])
        assert rc == 1

    @pytest.mark.parametrize("verb", ["plan", "study"])
    def test_budget_below_minimum_is_a_config_error(self, tmp_path, capsys, verb):
        # plan reads only the largest budget, yet refuses the config as study does.
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(make_cfg(budgets=[3, 1024]))
        out = tmp_path / "out.txt"
        assert cli.main([verb, "--config", str(cfg_path), "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.err == "config error: budget 3 is below the minimum plan size 45\n"
        assert captured.out == ""
        assert not out.exists()

    def test_study_error_exit_code(self, tmp_path, capsys):
        # The d=5 default rule is too large; load_config accepts the config,
        # and lq_error refuses it before the table is written.
        cfg_path = tmp_path / "cfg.json"
        raw = dict(BASE_CFG, d=5, alpha=[2] * 5, deriv=[0] * 5, budgets=[4000])
        del raw["quadrature"]
        cfg_path.write_text(json.dumps(raw))
        out = tmp_path / "out.csv"
        assert cli.main(["study", "--config", str(cfg_path), "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.err == (
            "study error: quadrature at d=5 needs 33554432 points, above the limit "
            "of 2097152; lower Quadrature.cells_log2\n"
        )
        assert captured.out == ""
        assert not out.exists()

    def test_study_refuses_the_rule_before_sampling(self, tmp_path, monkeypatch):
        from hypercross import recovery

        calls = []
        monkeypatch.setattr(recovery, "sample", lambda *args: calls.append(args))
        cfg_path = tmp_path / "cfg.json"
        raw = dict(BASE_CFG, d=5, alpha=[2] * 5, deriv=[0] * 5, budgets=[4000])
        del raw["quadrature"]
        cfg_path.write_text(json.dumps(raw))
        assert cli.main(["study", "--config", str(cfg_path), "--out", str(tmp_path / "o")]) == 1
        assert calls == []

    def test_diagnose_verb(self, capsys):
        rc = cli.main(["diagnose", "--suite", "grid"])
        lines = capsys.readouterr().out.strip().split("\n")
        assert rc == 0
        assert all(line.startswith(("PASS", "FAIL")) for line in lines)
        assert any("residual=" in line for line in lines)

    def test_diagnose_unknown_suite(self, capsys, monkeypatch):
        monkeypatch.setenv("COLUMNS", "80")  # argparse wraps the usage line to the terminal
        assert cli.main(["diagnose", "--suite", "zzz"]) == 1
        assert capsys.readouterr().err == (
            "usage: hypercross diagnose [-h]\n"
            "                           [--suite {bspline,interp,dyadic,grid,recovery,lab,all}]\n"
            "hypercross diagnose: error: argument --suite: invalid choice: 'zzz' (choose from "
            "'bspline', 'interp', 'dyadic', 'grid', 'recovery', 'lab', 'all')\n"
        )

    def test_suite_choices_are_the_suites(self):
        # cli names the suites itself, so that parsing --suite imports no suite.
        assert list(cli._SUITE_CHOICES) == [*diagnostics.SUITES, "all"]
