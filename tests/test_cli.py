import json
from pathlib import Path

import numpy as np
import pytest

from qsdp.cli import EXIT_USAGE, main
from qsdp.modeling import Model, model_from_json, model_to_json

ROOT2 = np.sqrt(2.0)


def chsh_scenario_doc():
    bell = []
    for x in range(2):
        for y in range(2):
            sign = -1.0 if (x, y) == (1, 1) else 1.0
            for a in range(2):
                for b in range(2):
                    bell.append({"a": a, "b": b, "x": x, "y": y, "coeff": sign * (1.0 if a == b else -1.0)})
    return {"settings": [2, 2], "outcomes": [[2, 2], [2, 2]], "bell": bell}


def eigenvalue_model_json(seed=42):
    rng = np.random.default_rng(seed)
    g = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    x = (g + g.conj().T) / 2
    m = Model()
    s = m.declare(3, structure="hermitian", field="complex", name="S")
    m.add_lmi(s.expr())
    m.add_equality(s.trace(), 1.0)
    m.maximize(s.expr().frobenius_with(x))
    return model_to_json(m), float(np.linalg.eigvalsh(x)[-1])


EIGEN_DOC = json.loads(eigenvalue_model_json()[0])


def model_doc(**changes) -> str:
    """The eigenvalue model's document with some top-level entries replaced."""
    return json.dumps({**EIGEN_DOC, **changes})


EIGEN_LMI = model_from_json(eigenvalue_model_json()[0]).lmis[0]


def v1_lmi(expr, extra_terms) -> dict:
    """expr as a version-1 LMI entry, the constant and each term dense, with extra {key: matrix} terms."""
    cplx = lambda m: {"re": np.real(m).tolist(), "im": np.imag(m).tolist()}
    terms = {str(k): cplx(f) for k, f in {**expr.terms, **extra_terms}.items()}
    return {"shape": list(expr.shape), "const": cplx(expr.const), "terms": terms}


def one_term(key: str) -> dict:
    """A scalar document with coefficient 1 at parameter ``key``."""
    return {"coeffs": {key: [1.0, 0.0]}, "const": [0.0, 0.0]}


# input files the readers must reject: subcommand and file text
MALFORMED = {
    "edge_line.edges": ("theta", "3\n0 1\n1\n"),
    "weight_line.edges": ("theta", "3\n0 1\nw 1\n"),
    "weight_vertex.edges": ("theta", "3\n0 1\nw 7 2.5\n"),
    "bell_no_y.json": ("npa", json.dumps({**chsh_scenario_doc(), "bell": [{"a": 0, "b": 0, "x": 0, "coeff": 1.0}]})),
    "bell_no_coeff.json": ("npa", json.dumps({**chsh_scenario_doc(), "bell": [{"a": 0, "b": 0, "x": 0, "y": 0}]})),
    "state_no_re.json": ("dps", json.dumps({"dim": 4, "im": np.zeros((4, 4)).tolist()})),
    "state_list.json": ("dps", json.dumps(np.eye(4).tolist())),
    "model_no_lmis.json": ("solve", json.dumps({k: v for k, v in json.loads(eigenvalue_model_json()[0]).items() if k != "lmis"})),
    "model_var_no_rows.json": ("solve", eigenvalue_model_json()[0].replace('"rows": 3,', "")),
    "nv_list.json": ("nv", json.dumps([{"kind": "qrac"}])),
    "model_sense_minimize.json": ("solve", model_doc(sense="minimize")),
    "model_objective_key_minus_1.json": ("solve", model_doc(objective=one_term("-1"))),
    "model_objective_key_9.json": ("solve", model_doc(objective=one_term("9"))),
    "model_equality_key_9.json": ("solve", model_doc(equalities=[{**one_term("9"), "const": [-1.0, 0.0]}])),
    "model_short_const.json": ("solve", model_doc(equalities=[{**one_term("0"), "const": [-1.0]}])),
    "model_one_entry_shape.json": ("solve", model_doc(lmis=[{**EIGEN_DOC["lmis"][0], "shape": [9]}])),
    "model_lmis_not_list.json": ("solve", model_doc(lmis=5)),
    "model_v1_term_key_minus_1.json": ("solve", model_doc(version=1, lmis=[v1_lmi(EIGEN_LMI, {-1: np.eye(3)})])),
}


def run(tmp_path, argv):
    out = tmp_path / "report.json"
    code = main(argv + ["--json-out", str(out)])
    report = json.loads(out.read_text()) if out.exists() else None
    return code, report


class TestNpaCommand:
    def test_chsh_level1(self, tmp_path, capsys):
        scen = tmp_path / "chsh.json"
        scen.write_text(json.dumps(chsh_scenario_doc()))
        code, report = run(tmp_path, ["npa", "--scenario", str(scen), "--level", "1"])
        assert code == 0
        assert report["status"] == 0
        assert abs(report["result"]["bound"] - 2 * ROOT2) < 1e-6
        # the relabelling group that tied the moments, next to moment_size
        assert report["result"]["moment_size"] == 5
        assert "symmetry" not in report["result"]
        assert report["symmetry"] == {"order": 16, "classes": 10, "orbits": 1, "pinned": 6}
        assert report["block_sizes"] == [5]
        assert report["version"] == 5
        text = capsys.readouterr().out
        assert "2.828427" in text
        assert "symmetry       : order 16, 10 moments -> 1 orbits, 6 pinned to 0" in text

    def test_level_1ab(self, tmp_path):
        scen = tmp_path / "chsh.json"
        scen.write_text(json.dumps(chsh_scenario_doc()))
        code, report = run(tmp_path, ["npa", "--scenario", str(scen), "--level", "1+AB"])
        assert code == 0
        assert abs(report["result"]["bound"] - 2 * ROOT2) < 1e-6


    def test_shipped_i3322_is_split(self, tmp_path):
        # the canonical I3322 file; at level 3 its 88 x 88 moment matrix is
        # past the size gate and becomes one LMI per copy of each irrep
        path = Path(__file__).resolve().parents[1] / "demos" / "data" / "i3322.json"
        code, report = run(tmp_path, ["npa", "--scenario", str(path), "--level", "3"])
        assert code == 0
        assert abs(report["result"]["bound"] - 0.25087556) < 1e-6
        assert report["result"]["moment_size"] == 88
        assert sorted(report["block_sizes"]) == [9, 11, 11, 13, 22, 22]


class TestThetaCommand:
    def test_c5(self, tmp_path, capsys):
        graph = tmp_path / "c5.edges"
        graph.write_text("5\n0 1\n1 2\n2 3\n3 4\n0 4\n")
        code, report = run(tmp_path, ["theta", "--graph", str(graph)])
        assert code == 0
        assert abs(report["result"]["theta"] - np.sqrt(5.0)) < 1e-6
        assert round(report["result"]["theta"], 6) == 2.236068
        assert "theta" in capsys.readouterr().out

    def test_weighted(self, tmp_path):
        graph = tmp_path / "c5w.edges"
        graph.write_text("5\n0 1\n1 2\n2 3\n3 4\n0 4\n" + "".join(f"w {i} 1.0\n" for i in range(5)))
        code, report = run(tmp_path, ["theta", "--graph", str(graph)])
        assert code == 0
        assert abs(report["result"]["theta_weighted"] - np.sqrt(5.0)) < 1e-6


class TestSolveCommand:
    def test_model_json_primal_framing(self, tmp_path):
        text, lam_max = eigenvalue_model_json()
        path = tmp_path / "appb.json"
        path.write_text(text)
        code, report = run(tmp_path, ["solve", str(path), "--framing", "primal"])
        assert code == 0
        assert report["block_sizes"] == [6]
        assert report["m"] == 1
        assert abs(report["result"]["model_value"] - lam_max) < 1e-6

    def test_model_json_dual_framing(self, tmp_path):
        text, lam_max = eigenvalue_model_json()
        path = tmp_path / "appb.json"
        path.write_text(text)
        code, report = run(tmp_path, ["solve", str(path)])
        assert code == 0
        assert report["block_sizes"] == [6]
        assert report["m"] == 9
        assert report["free_dim"] == 1
        assert abs(report["result"]["model_value"] - lam_max) < 1e-6

    def test_sdpa_file(self, tmp_path):
        path = tmp_path / "p.dat-s"
        path.write_text("1\n1\n2\n1.0\n0 1 1 1 1.0\n0 1 2 2 2.0\n1 1 1 1 1.0\n1 1 2 2 1.0\n")
        code, report = run(tmp_path, ["solve", str(path)])
        assert code == 0
        # min x s.t. x I - diag(1, 2) >= 0: optimum x = 2
        assert abs(report["result"]["sdpa_objective"] - 2.0) < 1e-6

    def test_nt_direction_flag(self, tmp_path):
        text, lam_max = eigenvalue_model_json()
        path = tmp_path / "appb.json"
        path.write_text(text)
        code, report = run(tmp_path, ["solve", str(path), "--direction", "nt"])
        assert code == 0
        assert report["direction"] == "nt"
        assert abs(report["result"]["model_value"] - lam_max) < 1e-6


class TestQuantumCommands:
    def test_dps(self, tmp_path):
        from qsdp.quantum import werner_state

        state = tmp_path / "werner.json"
        state.write_text(json.dumps(werner_state(0.5).to_json_dict()))
        code, report = run(tmp_path, ["dps", "--state", str(state), "--dims", "2", "2", "--copies", "1"])
        assert code == 0
        assert report["result"]["feasible"] is False
        state.write_text(json.dumps(werner_state(0.25).to_json_dict()))
        code, report = run(tmp_path, ["dps", "--state", str(state), "--dims", "2", "2", "--copies", "1"])
        assert report["result"]["feasible"] is True

    def test_dps_verbose_prints_the_iteration_table_before_the_report(self, tmp_path, capsys):
        from qsdp.quantum import werner_state

        state = tmp_path / "werner.json"
        state.write_text(json.dumps(werner_state(0.25).to_json_dict()))
        assert main(["dps", "--state", str(state), "--dims", "2", "2", "--copies", "2", "--verbose"]) == 0
        text = capsys.readouterr().out
        header = text.index(" it  pstep")
        assert header < text.index("command        : dps")
        assert text.count(" it  pstep") == 1

    def test_qsd(self, tmp_path):
        doc = {
            "states": [
                {"re": [[1.0, 0.0], [0.0, 0.0]], "im": [[0.0, 0.0], [0.0, 0.0]]},
                {"re": [[0.0, 0.0], [0.0, 1.0]], "im": [[0.0, 0.0], [0.0, 0.0]]},
            ]
        }
        path = tmp_path / "states.json"
        path.write_text(json.dumps(doc))
        code, report = run(tmp_path, ["qsd", "--states", str(path)])
        assert code == 0
        assert abs(report["result"]["success_probability"] - 1.0) < 1e-6

    def test_sos_chsh(self, tmp_path):
        code, report = run(tmp_path, ["sos", "--chsh"])
        assert code == 0
        assert abs(report["result"]["q1"] - 2 * ROOT2) < 1e-6

    def test_sos_poly(self, tmp_path):
        doc = {"vars": 2, "terms": [{"exponents": [4, 0], "coeff": 1.0}, {"exponents": [2, 2], "coeff": 2.0}, {"exponents": [0, 4], "coeff": 1.0}]}
        path = tmp_path / "poly.json"
        path.write_text(json.dumps(doc))
        code, report = run(tmp_path, ["sos", "--poly", str(path)])
        assert code == 0
        assert report["result"]["feasible"] is True

    def test_seesaw_qrac(self, tmp_path):
        code, report = run(tmp_path, ["seesaw", "--task", "qrac", "--restarts", "2", "--seed", "1"])
        assert code == 0
        assert report["result"]["lower_bound"] >= (1 + 1 / ROOT2) / 2 - 1e-3
        assert report["wall_time"] > 0
        # a see-saw value is a lower bound only: no solver certificate is claimed
        for key in ("primal_value", "dual_value", "gap", "primal_residual", "dual_residual", "dimacs", "iterations", "direction"):
            assert report[key] is None
        assert report["result"]["sweeps"] >= 1

    def test_nv_seed_determinism(self, tmp_path):
        scen = tmp_path / "nv.json"
        scen.write_text(json.dumps({"kind": "qrac", "bits": 2, "dim": 2}))
        code1, rep1 = run(tmp_path, ["nv", "--scenario", str(scen), "--seed", "11"])
        code2, rep2 = run(tmp_path, ["nv", "--scenario", str(scen), "--seed", "11"])
        assert code1 == code2 == 0
        for rep in (rep1, rep2):
            rep.pop("wall_time")
        assert rep1 == rep2
        assert abs(rep1["result"]["bound"] - (1 + 1 / ROOT2) / 2) < 1e-4


class TestErrors:
    def test_missing_file(self, tmp_path, capsys):
        code = main(["theta", "--graph", str(tmp_path / "nope.edges")])
        assert code == EXIT_USAGE
        assert "error" in capsys.readouterr().err

    def test_bad_json(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        code = main(["npa", "--scenario", str(path)])
        assert code == EXIT_USAGE

    def test_unknown_subcommand(self, capsys):
        assert main(["frobnicate"]) == EXIT_USAGE

    def test_seesaw_rejects_solver_flags(self, capsys):
        assert main(["seesaw", "--tol", "1e-6"]) == EXIT_USAGE

    @pytest.mark.parametrize(
        "argv",
        [
            ["solve", "m.json"],
            ["npa", "--scenario", "s.json"],
            ["mlp", "--scenario", "s.json"],
            ["theta", "--graph", "g.edges"],
            ["dps", "--state", "s.json", "--dims", "2", "2"],
            ["qsd", "--states", "s.json"],
            ["sos", "--chsh"],
        ],
        ids=lambda argv: argv[0],
    )
    def test_seed_only_where_it_is_read(self, capsys, argv):
        # only nv and seesaw draw random numbers
        assert main([*argv, "--seed", "1"]) == EXIT_USAGE
        assert "unrecognized arguments: --seed 1" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv, flag",
        [
            (["--restarts", "0"], "restarts"),
            (["--restarts", "-3"], "restarts"),
            (["--task", "qrac", "--restarts", "0"], "restarts"),
            (["--task", "qrac", "--bits", "0"], "--bits"),
            (["--task", "qrac", "--dim", "0"], "--dim"),
            (["--task", "qrac", "--dim", "-2"], "--dim"),
        ],
    )
    def test_seesaw_rejects_what_it_would_not_run(self, tmp_path, capsys, argv, flag):
        out = tmp_path / "report.json"
        assert main(["seesaw", *argv, "--json-out", str(out)]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("error: ") and flag in err
        assert not out.exists()

    @pytest.mark.parametrize("case", sorted(MALFORMED))
    def test_malformed_input_is_a_usage_error(self, tmp_path, capsys, case):
        command, text = MALFORMED[case]
        path = tmp_path / case
        path.write_text(text)
        flag = {"theta": ["--graph"], "npa": ["--scenario"], "nv": ["--scenario"], "solve": [], "dps": ["--state"]}
        argv = [command, *flag[command], str(path)] + (["--dims", "2", "2"] if command == "dps" else [])
        assert main(argv) == EXIT_USAGE
        assert capsys.readouterr().err.startswith("error: ")

    def test_usage_distinct_from_solver_codes(self):
        assert EXIT_USAGE not in (0, 11, 12, 21, 23, 26)


class TestReportInvariants:
    def test_dimacs_within_ten_tolerances_on_success(self, tmp_path):
        text, _ = eigenvalue_model_json()
        path = tmp_path / "m.json"
        path.write_text(text)
        code, report = run(tmp_path, ["solve", str(path), "--tol", "1e-7"])
        assert code == 0 and report["status"] == 0
        assert all(abs(e) <= 10 * 1e-7 for e in report["dimacs"])

    def test_solver_failure_maps_to_nonzero_exit(self, tmp_path):
        # primal-infeasible data: X11 = 0 with X12 = 1 contradicts PSD
        path = tmp_path / "infeasible.dat-s"
        path.write_text("2\n1\n2\n0.0 1.0\n0 1 1 1 -1.0\n0 1 2 2 -1.0\n1 1 1 1 1.0\n2 1 1 2 0.5\n")
        out = tmp_path / "report.json"
        code = main(["solve", str(path), "--maxit", "60", "--json-out", str(out)])
        report = json.loads(out.read_text())
        assert report["status"] != 0
        assert code in (11, 12, 21, 23, 26)
        assert code != 0
