"""Command-line interface: subcommands, artifacts, exit codes."""

import argparse
import csv
import dataclasses
import io
import json
import math
import pathlib

import pytest

from lgcomplexity import adversary as adv
from lgcomplexity import arrays as ar
from lgcomplexity import lgsolver as lg
from lgcomplexity import structures as st
from lgcomplexity import witnesses as wt
from lgcomplexity.cli import build_parser, main
from lgcomplexity.reporting import run_suite, validate_config


# documents whose object-valued section holds something else, with that section's key
NON_OBJECT_SECTIONS = pytest.mark.parametrize("doc,key", [
    ({"solver": 5}, "solver"),
    ({"instance": 3}, "instance"),
    ({"structures": []}, "structures"),
    ({"structures": {"witnesses": 7}}, "structures.witnesses"),
], ids=["solver", "instance", "structures", "structures.witnesses"])

MISTYPED_VALUES = pytest.mark.parametrize("doc,key,expected", [
    ({"structures": {"duality": 5}}, "structures.duality", "a list"),
    ({"instance": {"q": "x"}}, "instance.q", "a number (integer or float)"),
    ({"gap_tolerance": "x"}, "gap_tolerance", "a number (integer or float)"),
    ({"structures": {"duality": [["ksubset", "x"]]}}, "structures.duality",
     "a list of [kind, [integers]] pairs"),
    ({"structures": {"duality": [5]}}, "structures.duality", "a list of [kind, [integers]] pairs"),
    ({"structures": {"witnesses": {"triangle": ["x"]}}}, "structures.witnesses.triangle",
     "a list of integers"),
    ({"structures": {"witnesses": {"ksubset": [[4]]}}}, "structures.witnesses.ksubset",
     "a list of [n, k] integer pairs"),
    ({"structures": {"witnesses": {"hidden_shift": [1.5]}}},
     "structures.witnesses.hidden_shift", "a list of integers"),
    ({"instance": {"p_ladder": ["a"]}}, "instance.p_ladder", "a list of integers"),
    ({"instance": {"q": 8.5}}, "instance.q", "an integer"),
    ({"instance": {"seed": 1.5}}, "instance.seed", "an integer"),
], ids=["structures.duality", "instance.q", "gap_tolerance", "duality-params",
        "duality-entry", "triangle-element", "ksubset-arity", "hidden-shift-element",
        "p_ladder-element", "fractional-q", "fractional-seed"])

# usage errors that must exit 2 with a message, never a traceback: argv, with {file} standing
# for a file holding the given text, and a fragment of the message
USAGE_ERRORS = pytest.mark.parametrize("argv,text,message", [
    (["structure", "build", "--kind", "ksubset", "--params", "4"], None,
     "'ksubset' takes 2 parameter(s) (n, k), got 1"),
    (["lg", "gap", "--kind", "hidden_shift", "--params", "2", "3"], None,
     "'hidden_shift' takes 1 parameter(s) (n), got 2"),
    (["adversary", "report", "--kind", "ksubset", "--params", "3", "2", "1", "--q", "8"], None,
     "'ksubset' takes 2 parameter(s) (n, k), got 3"),
    (["general", "gap", "--params", "2", "3"], None,
     "'hidden_shift' takes 1 parameter(s) (n), got 2"),
    (["verify-all", "--suite", "arrays", "--config", "{file}"],
     json.dumps({"structures": {"duality": [["ksubset", [4]]]}}),
     "config error: duality structure ksubset(4,): structure kind 'ksubset' takes 2"),
    (["oa", "verify", "--q", "3"], None, "needs --rows-file or both --q and --k"),
    (["oa", "verify", "--rows-file", "{file}"], json.dumps({"q": 3, "k": 2}),
     "must be an object with q, k and rows"),
    (["oa", "verify", "--rows-file", "{file}"], json.dumps({"q": 3, "k": 2, "rows": 5}),
     "rows must be a list of rows"),
    (["oa", "verify", "--rows-file", "{file}"], json.dumps({"q": "x", "k": 2, "rows": [[0, 0]]}),
     "q and k must be integers"),
    (["oa", "verify", "--rows-file", "{file}"], json.dumps({"q": 3, "k": 2, "rows": [[0, "a"]]}),
     "non-integer entry 'a'"),
    (["oa", "verify", "--rows-file", "{file}"], json.dumps({"q": 3, "k": 2, "rows": [[0, 0.5]]}),
     "non-integer entry 0.5"),
    (["verify-all", "--config", "{file}"], "{not json", "is not JSON"),
    (["instance", "build", "--kind", "ksubset", "--params", "8", "1", "--q", "16"], None,
     "q^n = 16^8 = 4294967296 exceeds the enumeration cap 16777216"),
    (["instance", "verify", "--kind", "ksubset", "--params", "8", "1", "--q", "16"], None,
     "q^n = 16^8 = 4294967296 exceeds the enumeration cap 16777216"),
    (["adversary", "report", "--kind", "ksubset", "--params", "8", "1", "--q", "16"], None,
     "q^n = 16^8 = 4294967296 exceeds the enumeration cap 16777216"),
    (["fourier", "bias", "--p", "1009", "--seed", "-1"], None,
     "seed must be a non-negative integer, got -1"),
    (["general", "gap", "--seed", "-1"], None, "seed must be a non-negative integer, got -1"),
    (["verify-all", "--seed", "-1"], None,
     "config error: config key 'instance.seed' must be an integer >= 0, got -1"),
    (["verify-all", "--config", "{file}"], json.dumps({"instance": {"seed": -1}}),
     "config error: config key 'instance.seed' must be an integer >= 0, got -1"),
    (["lg", "gap", "--kind", "ksubset", "--params", "2", "1", "--gap-tolerance", "-1"], None,
     "gap_tolerance must be non-negative, got -1.0"),
    (["verify-all", "--config", "{file}"], json.dumps({"gap_tolerance": -1}),
     "config error: gap_tolerance must be non-negative, got -1"),
    (["verify-all", "--config", "{file}"],
     json.dumps({"structures": {"witnesses": {"ksubset": [[30, 1]]}}}),
     "config error: witness ksubset(30, 1): full-lattice enumeration needs n <= 22, got n = 30"),
    (["verify-all", "--config", "{file}"],
     json.dumps({"structures": {"witnesses": {"hidden_shift": [12]}}}),
     "config error: witness hidden_shift(12,): full-lattice enumeration needs n <= 22"),
], ids=["structure-param-count", "lg-param-count", "adversary-param-count",
        "general-param-count", "config-param-count", "oa-verify-no-array",
        "rows-file-keys", "rows-not-a-list", "q-not-an-integer", "string-entry",
        "fractional-entry", "config-not-json", "instance-build-over-cap",
        "instance-verify-over-cap", "adversary-report-over-cap", "fourier-negative-seed",
        "general-negative-seed", "verify-all-negative-seed", "config-negative-seed",
        "lg-negative-gap-tolerance", "config-negative-gap-tolerance",
        "config-ksubset-witness-over-cap", "config-hidden-shift-witness-over-cap"])


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def overscaled_witness(monkeypatch):
    """Scale every primal's multiplier witness by 1.5, past feasibility, so weak duality fails."""
    solve = lg.solve_primal

    def scaled(*args, **kwargs):
        sol = solve(*args, **kwargs)
        w = sol.witness
        return dataclasses.replace(sol, witness=lg.DualWitness(w.n, 1.5 * w.alpha, info=w.info))

    monkeypatch.setattr(lg, "solve_primal", scaled)


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
        assert doc["certificate_orbits"] == 1
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

    @pytest.mark.parametrize("command", ["primal", "dual"])
    def test_primal_checked_before_report(self, capsys, monkeypatch, command):
        solve = lg.solve_primal

        def perturbed(*args, **kwargs):
            sol = solve(*args, **kwargs)
            values = sol.flow.values.copy()
            values[0, st.arc_index(3, 0, 2)] += 1e-6
            return dataclasses.replace(sol, flow=lg.FlowAssignment(3, values))

        monkeypatch.setattr(lg, "solve_primal", perturbed)
        code, out, err = run(capsys, "lg", command, "--kind", "ksubset",
                             "--params", "3", "1")
        assert code == 2
        assert out == ""
        assert "conservation violated" in err

    @pytest.mark.parametrize("command", ["primal", "dual", "gap"])
    def test_weak_duality_violation_fails_the_weak_record(self, capsys, overscaled_witness,
                                                         command):
        code, out, err = run(capsys, "lg", command, "--kind", "ksubset", "--params", "3", "1")
        assert code == 1
        assert json.loads(out)
        assert err.startswith("FAIL duality/ksubset-3-1/weak: feasible witness objective "
                              "never exceeds the primal objective (measured 0.866")
        assert len(err.splitlines()) == 1

    @pytest.mark.parametrize("command", ["primal", "dual", "gap"])
    def test_over_byte_cap_is_usage_error(self, capsys, monkeypatch, command):
        def never(*args):
            raise AssertionError("a lattice table was built for a refused job")

        for table in ("membership_table", "arc_orbits", "arc_arrays", "subset_orbits",
                      "permute_masks"):
            monkeypatch.setattr(lg, table, never)
        code, out, err = run(capsys, "lg", command, "--kind", "hidden_shift", "--params", "11")
        assert code == 2
        assert out == ""
        assert "primal solve on 11 certificates over n = 22 needs about 14210301952 bytes" in err


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
        cert = st.ksubset_structure(3, 2)
        witness = lg.normalize_witness(wt.ksubset_witness(3, 2), cert)
        bn = adv.bounded_norm_certificates(ar.build_bounded_instance(cert, 8), witness, 1)
        assert doc["bound_checks"] == bn.bound_checks()

    def test_report_above_dense_cap(self, capsys):
        # q^n = 32^3 = 32768 is past the dense oracle's cap of 2^14
        code, out, _ = run(capsys, "adversary", "report", "--kind", "ksubset",
                           "--params", "3", "2", "--q", "32")
        assert code == 0
        doc = json.loads(out)
        assert len(doc["bound_checks"]) == 4
        assert all(check["passed"] for check in doc["bound_checks"])
        assert doc["gamma_norm"] >= doc["rayleigh_identity"]

    def test_kind_checked_before_the_instance_is_built(self, capsys, monkeypatch):
        calls = []
        build = ar.build_bounded_instance

        def recorded(*args, **kwargs):
            calls.append(args)
            return build(*args, **kwargs)

        monkeypatch.setattr(ar, "build_bounded_instance", recorded)
        code, out, err = run(capsys, "adversary", "report", "--kind", "triangle",
                             "--params", "4", "--q", "8")
        assert code == 2
        assert out == ""
        assert "only ksubset" in err
        assert calls == []


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


# every subcommand without a seeded draw, with arguments it would otherwise accept
# (`fourier scan` is seeded by --seeds, which argparse lets --seed abbreviate)
UNSEEDED_COMMANDS = {
    "structure-build": ["structure", "build", "--kind", "ksubset", "--params", "2", "1"],
    "structure-show": ["structure", "show", "--kind", "ksubset", "--params", "2", "1"],
    "lg-primal": ["lg", "primal", "--kind", "ksubset", "--params", "2", "1"],
    "lg-dual": ["lg", "dual", "--kind", "ksubset", "--params", "2", "1"],
    "lg-gap": ["lg", "gap", "--kind", "ksubset", "--params", "2", "1"],
    "witness-ksubset": ["witness", "ksubset", "--n", "4", "--k", "1"],
    "witness-hiddenshift": ["witness", "hiddenshift", "--n", "2"],
    "witness-triangle": ["witness", "triangle", "--n", "4"],
    "oa-make": ["oa", "make", "--q", "3", "--k", "2"],
    "oa-verify": ["oa", "verify", "--q", "3", "--k", "2"],
    "instance-build": ["instance", "build", "--kind", "ksubset", "--params", "3", "2", "--q", "8"],
    "instance-verify": ["instance", "verify", "--kind", "ksubset", "--params", "3", "2", "--q", "8"],
    "adversary-report": ["adversary", "report", "--kind", "ksubset", "--params", "3", "2",
                         "--q", "8"],
}


class TestSeedFlag:
    @pytest.mark.parametrize("argv", UNSEEDED_COMMANDS.values(), ids=UNSEEDED_COMMANDS.keys())
    def test_rejected_where_nothing_is_seeded(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--seed", "0"])
        assert exc.value.code == 2
        assert "--seed" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["fourier", "bias", "--p", "101"],
        ["general", "gap", "--params", "2", "--p", "16"],
    ], ids=["fourier-bias", "general-gap"])
    def test_accepted_where_a_draw_is_seeded(self, capsys, argv):
        code, out, _ = run(capsys, *argv, "--seed", "3")
        assert code == 0
        assert out


# the subcommands with no CSV form, with arguments they would otherwise accept
NO_CSV_COMMANDS = {
    **{name: UNSEEDED_COMMANDS[name] for name in (
        "structure-build", "structure-show", "lg-primal", "lg-dual", "oa-make", "oa-verify",
        "instance-build", "instance-verify", "adversary-report")},
    "fourier-bias": ["fourier", "bias", "--p", "101"],
}

CSV_COMMANDS = {
    "lg-gap": UNSEEDED_COMMANDS["lg-gap"],
    "witness-ksubset": ["witness", "ksubset", "--n", "4", "--k", "1", "--measure-margin"],
    "witness-hiddenshift": ["witness", "hiddenshift", "--n", "2", "--measure-margin"],
    "witness-triangle": ["witness", "triangle", "--n", "4", "--measure-margin"],
    "fourier-scan": ["fourier", "scan", "--p", "101"],
    "general-gap": ["general", "gap", "--params", "2", "--p", "16"],
    "verify-all": ["verify-all", "--suite", "fourier"],
}


class TestFormatFlag:
    @pytest.mark.parametrize("argv", NO_CSV_COMMANDS.values(), ids=NO_CSV_COMMANDS.keys())
    def test_rejected_where_no_csv_form_exists(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--format", "json"])
        assert exc.value.code == 2
        assert "--format" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", CSV_COMMANDS.values(), ids=CSV_COMMANDS.keys())
    def test_accepted_where_a_csv_form_exists(self, capsys, argv):
        code, out, _ = run(capsys, *argv, "--format", "csv")
        assert code == 0
        assert out and not out.startswith("{")

    def test_witness_csv_needs_the_margin(self, capsys):
        code, out, err = run(capsys, "witness", "ksubset", "--n", "4", "--k", "1",
                             "--format", "csv")
        assert code == 2
        assert out == ""
        assert "--measure-margin" in err

    def test_out_without_csv_form_writes_json(self, capsys, tmp_path):
        code, out, _ = run(capsys, *NO_CSV_COMMANDS["structure-build"], "--out", str(tmp_path))
        assert code == 0
        path = out.strip()
        assert path.endswith(".json")
        assert json.loads(open(path).read())["kind"] == "ksubset"


@pytest.mark.parametrize("argv", [
    ["adversary", "report", "--kind", "ksubset", "--params", "3", "2", "--q", "8", "--parallel"],
    ["general", "gap", "--kind", "hidden_shift"],
], ids=["adversary-parallel", "general-kind"])
def test_removed_option_is_usage_error(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


@USAGE_ERRORS
def test_usage_error_exits_2(capsys, tmp_path, argv, text, message):
    path = tmp_path / "input.json"
    if text is not None:
        path.write_text(text)
    code, out, err = run(capsys, *(str(path) if a == "{file}" else a for a in argv))
    assert code == 2
    assert out == ""
    assert message in err


# every subcommand's options; a change to the public CLI surface edits this table and says why
CLI_SURFACE = {
    "structure build": ["--kind", "--out", "--params"],
    "structure show": ["--kind", "--out", "--params"],
    "lg primal": ["--kind", "--max-iterations", "--out", "--params", "--tolerance"],
    "lg dual": ["--kind", "--max-iterations", "--out", "--params", "--tolerance"],
    "lg gap": ["--format", "--gap-tolerance", "--kind", "--max-iterations", "--out", "--params",
               "--tolerance"],
    "witness ksubset": ["--format", "--k", "--measure-margin", "--n", "--out"],
    "witness hiddenshift": ["--format", "--measure-margin", "--n", "--out", "--target"],
    "witness triangle": ["--format", "--measure-margin", "--n", "--out"],
    "oa make": ["--k", "--out", "--q"],
    "oa verify": ["--k", "--out", "--q", "--rows-file"],
    "instance build": ["--kind", "--out", "--params", "--q"],
    "instance verify": ["--kind", "--out", "--params", "--q"],
    "adversary report": ["--kind", "--out", "--params", "--q"],
    "fourier bias": ["--delta", "--out", "--p", "--seed"],
    "fourier scan": ["--delta", "--format", "--out", "--p", "--seeds"],
    "general gap": ["--format", "--j", "--out", "--p", "--params", "--seed"],
    "verify-all": ["--config", "--format", "--out", "--seed", "--suite"],
}


def _cli_surface(parser, path=()) -> dict[str, list[str]]:
    """{subcommand: sorted option strings} for every leaf parser, without -h/--help."""
    subparsers = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    if not subparsers:
        return {" ".join(path): sorted(option for action in parser._actions
                                       for option in action.option_strings
                                       if option not in ("-h", "--help"))}
    table = {}
    for action in subparsers:
        for name, sub in action.choices.items():
            table.update(_cli_surface(sub, path + (name,)))
    return table


def test_cli_surface_snapshot():
    surface = _cli_surface(build_parser())
    assert surface == CLI_SURFACE
    assert sum(map(len, surface.values())) == 76


class TestGeneralCommand:
    def test_gap_ladder(self, capsys):
        code, out, _ = run(capsys, "general", "gap", "--params", "2",
                           "--p", "16", "32", "--format", "csv")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "p,m,gap,bound"
        assert len(lines) == 5


class TestVerifyAll:
    def test_seed0_report_shape_is_pinned(self, capsys):
        # every record's id, claim, bound and verdict; measured values may move
        code, out, _ = run(capsys, "verify-all", "--seed", "0", "--format", "csv")
        assert code == 0
        got = [[r["check_id"], r["claim"], r["bound"], r["passed"]]
               for r in csv.DictReader(io.StringIO(out))]
        with open(pathlib.Path(__file__).with_name("verify_all_seed0.csv"), newline="") as pin:
            assert got == list(csv.reader(pin))[1:]
        assert len(got) == 43

    def test_suite_help_lists_only_the_suites(self, capsys):
        with pytest.raises(SystemExit):
            main(["verify-all", "--help"])
        help_text = capsys.readouterr().out
        assert "{duality,witnesses," in help_text and "None" not in help_text

    def test_weak_duality_violation_is_a_failing_record(self, capsys, overscaled_witness):
        code, out, err = run(capsys, "verify-all", "--suite", "duality")
        assert code == 1
        records = {r["check_id"]: r for r in json.loads(out)["records"]}
        assert not any(r["claim"].startswith("plumbing") for r in records.values())
        for name, optimum in (("ksubset-2-1", math.sqrt(2)), ("ksubset-3-1", math.sqrt(3))):
            weak = records[f"duality/{name}/weak"]
            assert not weak["passed"] and weak["bound"] == 1e-6
            assert weak["measured"] == pytest.approx(0.5 * optimum, abs=1e-4)
            assert records[f"duality/{name}/gap"]["passed"]
            assert f"FAIL duality/{name}/weak: " in err

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

    @NON_OBJECT_SECTIONS
    @pytest.mark.parametrize("seed", [[], ["--seed", "1"]], ids=["no-seed", "seed"])
    def test_non_object_section_is_usage_error(self, capsys, tmp_path, doc, key, seed):
        config = tmp_path / "config.json"
        config.write_text(json.dumps(doc))
        code, out, err = run(capsys, "verify-all", "--config", str(config), *seed)
        assert code == 2
        assert out == ""
        assert f"config error: config key '{key}' must be an object" in err

    @MISTYPED_VALUES
    def test_mistyped_value_is_usage_error(self, capsys, tmp_path, doc, key, expected):
        config = tmp_path / "config.json"
        config.write_text(json.dumps(doc))
        code, out, err = run(capsys, "verify-all", "--suite", "arrays", "--config", str(config))
        assert code == 2
        assert out == ""
        assert f"config error: config key '{key}' must be {expected}" in err


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

    @pytest.mark.parametrize("doc,message", [
        ({"instance": {"seed": -1}}, "config key 'instance.seed' must be an integer >= 0, got -1"),
        ({"solver": {"seed": -2}}, "config key 'solver.seed' must be an integer >= 0, got -2"),
        ({"gap_tolerance": -1}, "gap_tolerance must be non-negative, got -1"),
        ({"solver": {"tolerance": 0}}, "solver.tolerance must be positive, got 0"),
        ({"structures": {"witnesses": {"ksubset": [[30, 1]]}}},
         "witness ksubset(30, 1): full-lattice enumeration needs n <= 22, got n = 30"),
        ({"structures": {"witnesses": {"hidden_shift": [12]}}},
         "witness hidden_shift(12,): full-lattice enumeration needs n <= 22, got n = 24"),
        ({"structures": {"witnesses": {"triangle": [8]}}},
         "witness triangle(8,): full-lattice enumeration needs n <= 22, got n = 28"),
        ({"structures": {"witnesses": {"triangle": [2]}}},
         "witness triangle(2,): triangle structure needs n >= 3 vertices, got 2"),
        ({"structures": {"duality": [["hidden_shift", [12]]]}},
         "duality structure hidden_shift(12,): full-lattice enumeration needs n <= 22, got n = 24"),
    ], ids=["instance-seed", "solver-seed", "gap-tolerance", "tolerance", "ksubset-witness",
            "hidden-shift-witness", "triangle-witness", "triangle-too-small", "duality"])
    def test_out_of_range_value_reported(self, doc, message):
        _, errors = validate_config(doc)
        assert errors == [message]

    def test_weak_row_reads_the_report_slack(self):
        config, errors = validate_config({"suite": "duality", "solver": {"tolerance": 1e-4},
                                          "structures": {"duality": [["ksubset", [2, 1]]]}})
        assert not errors
        weak = run_suite(config).records[0]
        assert weak.check_id == "duality/ksubset-2-1/weak"
        assert weak.bound == lg.SolverParams(tolerance=1e-4).weak_duality_slack == 1e-4

    def test_zero_seed_and_gap_tolerance_accepted(self):
        _, errors = validate_config({"instance": {"seed": 0}, "gap_tolerance": 0})
        assert not errors

    @NON_OBJECT_SECTIONS
    def test_non_object_section_reported(self, doc, key):
        _, errors = validate_config(doc)
        assert any(f"config key '{key}' must be an object" in e for e in errors)

    @MISTYPED_VALUES
    def test_mistyped_value_reported(self, doc, key, expected):
        _, errors = validate_config(doc)
        assert any(f"config key '{key}' must be {expected}" in e for e in errors)

    @pytest.mark.parametrize("doc,key,expected", [
        ({"instance": {"q": True}}, "instance.q", "a number (integer or float), got bool"),
        ({"solver": {"tolerance": [1e-6]}}, "solver.tolerance", "a number (integer or float), got list"),
        ({"suite": 3}, "suite", "a string, got int"),
    ], ids=["bool-for-number", "list-for-number", "number-for-string"])
    def test_other_mistyped_values_reported(self, doc, key, expected):
        _, errors = validate_config(doc)
        assert f"config key '{key}' must be {expected}" in errors

    def test_float_accepted_for_integer_default(self):
        config, errors = validate_config({"instance": {"q": 8.0}, "gap_tolerance": 1})
        assert not errors
        assert config["gap_tolerance"] == 1

    def test_nested_section_keeps_unset_defaults(self):
        config, errors = validate_config({"structures": {"witnesses": {"triangle": [4]}}})
        assert not errors
        assert config["structures"]["witnesses"]["triangle"] == [4]
        assert config["structures"]["witnesses"]["ksubset"] == [[4, 1], [6, 2]]

    def test_unknown_nested_key_reported(self):
        _, errors = validate_config({"structures": {"witnesses": {"nonsense": 1}}})
        assert any("structures.witnesses.nonsense" in e for e in errors)

    def test_normalization_is_deterministic(self):
        a, _ = validate_config({"suite": "arrays"})
        b, _ = validate_config({"suite": "arrays"})
        assert json.dumps(a) == json.dumps(b)
