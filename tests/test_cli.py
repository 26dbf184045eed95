"""Command-line interface: subcommands, artifacts, exit codes."""

import dataclasses
import json

import pytest

from lgcomplexity import lgsolver as lg
from lgcomplexity import structures as st
from lgcomplexity.cli import main
from lgcomplexity.reporting import validate_config


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestStructureCommands:
    def test_build_emits_documented_field_order(self, capsys):
        code, out, _ = run(capsys, "structure", "build",
                           "--kind", "hidden_shift", "--params", "2")
        assert code == 0
        doc = json.loads(out, object_pairs_hook=list)
        assert [k for k, _ in doc] == ["kind", "params", "n", "certificates"]

    def test_show_summary(self, capsys):
        code, out, _ = run(capsys, "structure", "show",
                           "--kind", "ksubset", "--params", "5", "2")
        assert code == 0
        doc = json.loads(out)
        assert doc["certificates"] == 10
        assert doc["boundedly_generated"] is True

    def test_invalid_kind_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["structure", "build", "--kind", "nonsense", "--params", "2"])
        assert exc.value.code == 2

    def test_capacity_error_exit_code(self, capsys):
        code, _, err = run(capsys, "structure", "build",
                           "--kind", "triangle", "--params", "20")
        assert code == 2
        assert "error" in err


class TestLgCommands:
    def test_gap_passes_on_small_instance(self, capsys):
        code, out, _ = run(capsys, "lg", "gap", "--kind", "ksubset",
                           "--params", "2", "1")
        assert code == 0
        doc = json.loads(out)
        assert doc["gap"] <= 0.02

    def test_gap_csv_format(self, capsys):
        code, out, _ = run(capsys, "lg", "gap", "--kind", "ksubset",
                           "--params", "2", "1", "--format", "csv")
        assert code == 0
        header, row = out.strip().splitlines()
        assert header.split(",") == ["structure", "n", "primal", "dual", "gap",
                                     "iterations"]
        assert row.startswith("ksubset-2-1,2,")

    def test_primal_json(self, capsys):
        code, out, _ = run(capsys, "lg", "primal", "--kind", "ksubset",
                           "--params", "2", "1")
        assert code == 0
        doc = json.loads(out)
        assert doc["objective"] == pytest.approx(2 ** 0.5, abs=1e-3)

    @pytest.mark.parametrize("iterations", ["0", "-3"])
    def test_nonpositive_iteration_limit_is_usage_error(self, capsys, iterations):
        code, out, err = run(capsys, "lg", "primal", "--kind", "ksubset",
                             "--params", "3", "1", "--max-iterations", iterations)
        assert code == 2
        assert out == ""
        assert "max_iterations" in err

    def test_primal_checked_before_report(self, capsys, monkeypatch):
        solve = lg.solve_primal

        def perturbed(*args, **kwargs):
            sol = solve(*args, **kwargs)
            values = sol.flow.values.copy()
            values[0, st.arc_index(3, 0, 2)] += 1e-6
            return dataclasses.replace(sol, flow=lg.FlowAssignment(3, values))

        monkeypatch.setattr(lg, "solve_primal", perturbed)
        code, out, err = run(capsys, "lg", "primal", "--kind", "ksubset",
                             "--params", "3", "1")
        assert code == 2
        assert out == ""
        assert "conservation violated" in err


class TestWitnessCommands:
    def test_margin_csv(self, capsys):
        code, out, _ = run(capsys, "witness", "ksubset", "--n", "6", "--k", "2",
                           "--measure-margin", "--format", "csv")
        assert code == 0
        header, row = out.strip().splitlines()
        assert header.split(",") == ["n", "objective", "margin", "margin_per_log2n"]
        fields = row.split(",")
        assert float(fields[1]) == pytest.approx(6 ** (2 / 3), rel=1e-6)

    def test_witness_json_entries(self, capsys):
        code, out, _ = run(capsys, "witness", "hiddenshift", "--n", "2")
        assert code == 0
        doc = json.loads(out)
        assert doc["n"] == 4
        assert all(set(e) == {"subset_mask", "cert_index", "alpha"}
                   for e in doc["entries"])

    def test_triangle_witness_margin(self, capsys):
        code, out, _ = run(capsys, "witness", "triangle", "--n", "5",
                           "--measure-margin")
        assert code == 0
        doc = json.loads(out)
        assert doc["margin"] <= 100 * 2.3219281


class TestOaCommands:
    def test_make(self, capsys):
        code, out, _ = run(capsys, "oa", "make", "--q", "3", "--k", "2")
        assert code == 0
        doc = json.loads(out)
        assert doc["rows"] == [[0, 0], [1, 2], [2, 1]]

    def test_verify_sum_array(self, capsys):
        code, out, _ = run(capsys, "oa", "verify", "--q", "5", "--k", "3")
        assert code == 0
        assert json.loads(out)["ok"] is True

    def test_verify_planted_failure(self, capsys, tmp_path):
        rows_file = tmp_path / "bad.json"
        rows_file.write_text(json.dumps({"q": 3, "k": 2, "rows": [[0, 0], [1, 1]]}))
        code, out, _ = run(capsys, "oa", "verify", "--rows-file", str(rows_file))
        assert code == 1
        doc = json.loads(out)
        assert doc["ok"] is False and doc["counterexample"]["count"] == 1


class TestInstanceCommands:
    def test_build_summary(self, capsys):
        code, out, _ = run(capsys, "instance", "build", "--kind", "ksubset",
                           "--params", "3", "2", "--q", "8")
        assert code == 0
        doc = json.loads(out)
        assert doc["x_sizes"] == [64, 64, 64] and doc["y_size"] == 342

    def test_verify_passes(self, capsys):
        code, out, _ = run(capsys, "instance", "verify", "--kind", "ksubset",
                           "--params", "3", "2", "--q", "8")
        assert code == 0
        assert json.loads(out)["ok"] is True

    def test_small_alphabet_parameter_error(self, capsys):
        code, _, err = run(capsys, "instance", "build", "--kind", "ksubset",
                           "--params", "3", "2", "--q", "4")
        assert code == 2
        assert "q >= 2 * |C|" in err


class TestAdversaryCommand:
    def test_report_payload(self, capsys):
        code, out, _ = run(capsys, "adversary", "report", "--kind", "ksubset",
                           "--params", "3", "2", "--q", "8")
        assert code == 0
        doc = json.loads(out)
        assert {"instance_hash", "witness_hash", "gamma_norm", "per_j_norms",
                "ratio", "bound_checks"} <= set(doc)
        assert len(doc["per_j_norms"]) == 3
        assert all(check["passed"] for check in doc["bound_checks"])

    def test_report_above_dense_cap(self, capsys):
        # q^n = 32^3 = 32768 is past the dense oracle's cap of 2^14
        code, out, _ = run(capsys, "adversary", "report", "--kind", "ksubset",
                           "--params", "3", "2", "--q", "32")
        assert code == 0
        doc = json.loads(out)
        assert len(doc["bound_checks"]) == 4
        assert all(check["passed"] for check in doc["bound_checks"])
        assert doc["gamma_norm"] >= doc["rayleigh_identity"]


class TestFourierCommands:
    def test_bias(self, capsys):
        code, out, _ = run(capsys, "fourier", "bias", "--p", "101",
                           "--delta", "0.5", "--seed", "0")
        assert code == 0
        doc = json.loads(out)
        assert 0 <= doc["bias"] <= doc["delta"]

    def test_scan_csv(self, capsys):
        code, out, _ = run(capsys, "fourier", "scan", "--p", "97", "193",
                           "--seeds", "0", "1", "--format", "csv")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "p,seed,size,bias,bound"
        assert len(lines) == 5


class TestGeneralCommand:
    def test_gap_ladder(self, capsys):
        code, out, _ = run(capsys, "general", "gap", "--params", "2",
                           "--p", "16", "32", "--format", "csv")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "p,m,gap,bound"
        assert len(lines) == 5


class TestVerifyAll:
    def test_arrays_suite_passes(self, capsys):
        code, out, _ = run(capsys, "verify-all", "--suite", "arrays")
        assert code == 0
        doc = json.loads(out)
        assert doc["passed"] is True

    def test_write_artifacts_and_idempotence(self, capsys, tmp_path):
        out_dir = str(tmp_path / "results")
        code, out, _ = run(capsys, "verify-all", "--suite", "arrays",
                           "--out", out_dir)
        assert code == 0
        info = json.loads(out)
        first = open(info["csv"], "rb").read()
        code, out, _ = run(capsys, "verify-all", "--suite", "arrays",
                           "--out", out_dir)
        assert code == 0
        second = open(json.loads(out)["csv"], "rb").read()
        assert first == second
        meta = json.loads(open(info["meta"]).read())
        assert "written_at" in meta and "environment" in meta
        report = json.loads(open(info["json"]).read())
        assert report["passed"] is True

    def test_general_suite_report_json_loads(self, capsys, tmp_path):
        # the general checks compare numpy values; their records must still serialize
        code, out, _ = run(capsys, "verify-all", "--suite", "general",
                           "--out", str(tmp_path))
        assert code == 0
        report = json.loads(open(json.loads(out)["json"]).read())
        assert report["passed"] is True
        assert report["records"]

    def test_bad_config_is_usage_error(self, capsys, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({
            "structures": {"witnesses": {"triangle": [20]}},
        }))
        code, _, err = run(capsys, "verify-all", "--config", str(config))
        assert code == 2
        assert "triangle" in err

    def test_csv_output(self, capsys):
        code, out, _ = run(capsys, "verify-all", "--suite", "fourier",
                           "--format", "csv")
        assert code == 0
        assert out.splitlines()[0] == "check_id,claim,measured,bound,passed"


class TestParallelSuite:
    def test_parallel_matches_sequential_records(self):
        from lgcomplexity.reporting import run_suite

        config, errors = validate_config({"suite": "arrays"})
        assert not errors
        sequential = run_suite(config, parallel=False)
        parallel = run_suite(config, parallel=True)
        assert parallel.records == sequential.records
        assert parallel.config_hash == sequential.config_hash


class TestValidateConfig:
    def test_defaults_filled(self):
        config, errors = validate_config({})
        assert not errors
        assert config["solver"]["seed"] == 0
        assert config["suite"] == "all"

    def test_unknown_key_reported(self):
        _, errors = validate_config({"nonsense": 1})
        assert any("nonsense" in e for e in errors)

    def test_capacity_violation_reported(self):
        _, errors = validate_config(
            {"structures": {"duality": [["triangle", [20]]]}}
        )
        assert any("triangle" in e for e in errors)

    def test_small_alphabet_reported(self):
        _, errors = validate_config({"instance": {"q": 4}})
        assert any("q >= 2|C|" in e for e in errors)

    @pytest.mark.parametrize("iterations,message", [
        (0, "at least 1"), (-3, "at least 1"), ("abc", "integer"), (2.5, "integer"),
    ])
    def test_bad_iteration_limit_reported(self, iterations, message):
        _, errors = validate_config({"solver": {"max_iterations": iterations}})
        assert any("solver.max_iterations" in e and message in e for e in errors)

    def test_normalization_is_deterministic(self):
        a, _ = validate_config({"suite": "arrays"})
        b, _ = validate_config({"suite": "arrays"})
        assert json.dumps(a) == json.dumps(b)
