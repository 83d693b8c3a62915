import json

import numpy as np
import pytest

from conftest import README_GRID, random_measure, random_metric_space
from ineqlab import cli
from ineqlab.cli import main
from ineqlab.constants import ThresholdZeroError
from ineqlab.transport import SolverFailure
from ineqlab.young import Delta2ViolationError, UnboundedConjugateError


def run(argv):
    return main(argv)


@pytest.fixture
def two_point_file(tmp_path):
    doc = {
        "labels": ["a", "b"],
        "dist": [[0.0, 1.0], [1.0, 0.0]],
        "measure": {"weights": [0.5, 0.5]},
    }
    path = tmp_path / "space.json"
    path.write_text(json.dumps(doc))
    return str(path)


@pytest.fixture
def grid_file(tmp_path):
    doc = {
        "generator": {"kind": "grid1d", "count": 21, "spacing": 0.05},
        "measure": {"density": "exp(-x**2/2)"},
    }
    path = tmp_path / "grid.json"
    path.write_text(json.dumps(doc))
    return str(path)


class TestConstantsCommand:
    def test_quadratic_bundle(self, tmp_path, capsys):
        code = run(["constants", "--alpha", "power:2,2", "--A", "1",
                    "--lambda", "0.5", "--output-dir", str(tmp_path)])
        assert code == 0
        report = json.loads((tmp_path / "constants.json").read_text())
        res = report["result"]
        assert res["c_plus"] == 1.0
        assert res["c_minus"] == 1.0
        assert res["kappa"] == 4.0
        assert res["kappa_tilde"] == 16.0

    def test_outer_exponent_near_one(self, tmp_path):
        # xi overflows to +inf beyond x = 1; the minus-route limit is finite
        code = run(["constants", "--alpha", "power:2,1.001", "--A", "0.001",
                    "--lambda", "1", "--output-dir", str(tmp_path)])
        assert code == 0
        report = json.loads((tmp_path / "constants.json").read_text())
        assert report["result"]["b_minus"] == pytest.approx(0.98796120222971,
                                                            rel=1e-13)

    def test_bad_alpha_spec(self, tmp_path):
        assert run(["constants", "--alpha", "power:2", "--A", "1",
                    "--lambda", "0.5", "--output-dir", str(tmp_path)]) == 1


class TestXiTable:
    def test_agreement_column(self, tmp_path):
        code = run(["xi-table", "--alpha", "power:3,2",
                    "--grid", "0.01:10:60", "--output-dir", str(tmp_path)])
        assert code == 0
        report = json.loads((tmp_path / "xi-table.json").read_text())
        assert report["result"]["agree_1e-5"] is True
        rows = (tmp_path / "xi-table.csv").read_text().strip().splitlines()
        assert rows[0] == "x,closed_form,numeric,rel_err"
        assert len(rows) == 61

    def test_power_overflow_reads_inf(self, tmp_path):
        # x ** (1/(p2-1)) leaves the float range for p2 = 1.001 at x > 1
        code = run(["xi-table", "--alpha", "power:2,1.001",
                    "--grid", "1:10:3", "--output-dir", str(tmp_path)])
        assert code == 0
        rows = (tmp_path / "xi-table.csv").read_text().strip().splitlines()
        assert [r.split(",")[:3] for r in rows[2:]] == [
            ["3.1622776601683795", "inf", "inf"], ["10", "inf", "inf"]]

    def test_power_beyond_1e12_agrees(self, tmp_path):
        # the closed form reaches 1.98e198 at x = 100; the numeric supremum
        # follows it, with no cap
        code = run(["xi-table", "--alpha", "power:2,1.01",
                    "--grid", "1:100:5", "--output-dir", str(tmp_path)])
        assert code == 0
        report = json.loads((tmp_path / "xi-table.json").read_text())
        assert report["result"]["agree_1e-5"] is True

    def test_table_cost_200_points(self, tmp_path):
        # 201-knot quadratic table: each numeric x once took about 0.6 s
        xs = np.linspace(0.0, 10.0, 201)
        table = tmp_path / "quad.txt"
        np.savetxt(table, np.column_stack([xs, xs**2]))
        code = run(["xi-table", "--alpha", f"table:{table}",
                    "--grid", "0.01:10:200", "--output-dir", str(tmp_path)])
        assert code == 0
        report = json.loads((tmp_path / "xi-table.json").read_text())
        assert report["result"]["points"] == 200
        rows = (tmp_path / "xi-table.csv").read_text().strip().splitlines()
        assert len(rows) == 201


class TestValidateSpace:
    def test_valid(self, two_point_file, tmp_path):
        assert run(["validate-space", "--space-file", two_point_file,
                    "--output-dir", str(tmp_path)]) == 0

    def test_invalid_triangle(self, tmp_path):
        doc = {"labels": ["a", "b", "c"],
               "dist": [[0, 1, 5], [1, 0, 1], [5, 1, 0]]}
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        assert run(["validate-space", "--space-file", str(path),
                    "--output-dir", str(tmp_path)]) == 1


class TestMeasureErrors:
    def test_unnormalized_weights_exit_one(self, tmp_path):
        doc = {"labels": ["a", "b"], "dist": [[0.0, 1.0], [1.0, 0.0]],
               "measure": {"weights": [0.5, 0.4]}}
        path = tmp_path / "bad_measure.json"
        path.write_text(json.dumps(doc))
        code = run(["estimate", "T", "--alpha", "power:2,2", "--seed", "1",
                    "--space-file", str(path), "--output-dir", str(tmp_path)])
        assert code == 1

    def test_density_code_exit_one(self, tmp_path):
        doc = {"generator": {"kind": "grid1d", "count": 5, "spacing": 0.1},
               "measure": {"density": "1+0*x+0*(().__class__.__base__"
                                      ".__subclasses__().__len__())"}}
        path = tmp_path / "code.json"
        path.write_text(json.dumps(doc))
        assert run(["estimate", "T", "--alpha", "power:2,2", "--seed", "1",
                    "--space-file", str(path),
                    "--output-dir", str(tmp_path)]) == 1

    def test_missing_seed_exit_one(self, two_point_file, tmp_path):
        assert run(["estimate", "T", "--alpha", "power:2,2",
                    "--space-file", two_point_file,
                    "--output-dir", str(tmp_path)]) == 1

    def test_missing_space_file_exit_one(self, tmp_path, capsys):
        missing = str(tmp_path / "absent.json")
        assert run(["estimate", "T", "--alpha", "power:2,2", "--seed", "1",
                    "--space-file", missing, "--output-dir", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error:") and "absent.json" in err
        assert run(["validate-space", "--space-file", str(tmp_path),
                    "--output-dir", str(tmp_path)]) == 1  # a directory
        broken = tmp_path / "broken.json"
        broken.write_text('{"dist": ')
        capsys.readouterr()
        assert run(["validate-space", "--space-file", str(broken),
                    "--output-dir", str(tmp_path)]) == 1
        assert "broken.json: line 1" in capsys.readouterr().err


@pytest.mark.parametrize("weights", [[1.0], [0.4, 0.3, 0.3]])
@pytest.mark.parametrize("argv", [["estimate", "T"], ["estimate", "tauLSI"],
                                  ["estimate", "mLSI"], ["verify", "T-to-tauLSI"],
                                  ["transport"]])
def test_measure_length_mismatch_exit_one(weights, argv, tmp_path, monkeypatch,
                                          capsys):
    # one weight on two points once read as a Dirac mass, three failed late
    # inside numpy; both are config errors before any estimate or solve.
    # transport takes the bad weights as its source, the others as mu
    bad = {"weights": weights}
    good = {"weights": [0.5, 0.5]}
    is_transport = argv == ["transport"]
    doc = {"dist": [[0.0, 1.0], [1.0, 0.0]], "measure": good if is_transport else bad}
    path = tmp_path / "space.json"
    path.write_text(json.dumps(doc))
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"source": bad if is_transport else good}))

    def never(*args, **kwargs):
        raise AssertionError("ran on a mismatched measure")

    for name in ("transport_constant_estimate", "tau_lsi_constant_estimate",
                 "mlsi_constant_estimate", "verify_chain"):
        monkeypatch.setattr(cli.inequalities, name, never)
    monkeypatch.setattr(cli, "optimal_cost", never)
    assert run([*argv, "--config", str(cfg_path), "--alpha", "power:2,2",
                "--seed", "1", "--space-file", str(path),
                "--output-dir", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error:")
    assert f"measure has {len(weights)} weights for 2 points" in err


class TestSpaceErrors:
    @pytest.mark.parametrize("coords", [[[float(i), 0.0] for i in range(6)],
                                        [0.0, 1.0, 2.0]])
    @pytest.mark.parametrize("argv", [["estimate", "T"], ["estimate", "mLSI"],
                                      ["transport"]])
    def test_bad_coords_exit_one(self, coords, argv, tmp_path, monkeypatch, capsys):
        # 2-D coords, or 3 coords for 6 points: a config error raised while
        # the space is built, before any estimate or solve runs
        xs = np.arange(6.0)
        doc = {"dist": np.abs(xs[:, None] - xs[None, :]).tolist(), "coords": coords,
               "measure": {"uniform": True}}
        path = tmp_path / "coords.json"
        path.write_text(json.dumps(doc))
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"source": {"uniform": True}}))

        def never(*args, **kwargs):
            raise AssertionError("ran on an invalid space")

        for name in ("transport_constant_estimate", "mlsi_constant_estimate"):
            monkeypatch.setattr(cli.inequalities, name, never)
        monkeypatch.setattr(cli, "optimal_cost", never)
        assert run([*argv, "--config", str(cfg_path), "--alpha", "power:2,2",
                    "--seed", "1", "--space-file", str(path),
                    "--output-dir", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: coords must hold one finite number "
                              "per point")


    @pytest.mark.parametrize("generator, field", [
        ({"kind": "grid1d", "count": 5}, "spacing"),
        ({"kind": "path", "count": 5, "step": 0.1}, "step"),
        ({"kind": "grid1d", "count": "five", "spacing": 0.1}, "count"),
        ({"kind": "grid1d", "count": 5, "spacing": 0.0}, "spacing"),
    ], ids=["no-spacing", "unknown-step", "count-five", "zero-spacing"])
    def test_bad_generator_exit_one(self, generator, field, tmp_path, monkeypatch,
                                    capsys):
        # a missing, unknown or out-of-range field is a config error naming
        # it; a zero spacing once built an all-zero metric and exited 0
        path = tmp_path / "gen.json"
        path.write_text(json.dumps({"generator": generator,
                                    "measure": {"uniform": True}}))

        def never(*args, **kwargs):
            raise AssertionError("ran on an invalid space")

        monkeypatch.setattr(cli.inequalities, "transport_constant_estimate", never)
        assert run(["estimate", "T", "--alpha", "power:2,2", "--seed", "1",
                    "--space-file", str(path), "--output-dir", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error:") and repr(field) in err


class TestFailureExitCodes:
    @pytest.mark.parametrize("error", [UnboundedConjugateError,
                                       Delta2ViolationError, ThresholdZeroError])
    def test_numerical_error_exit_four(self, error, tmp_path, monkeypatch, capsys):
        def fail(*args, **kwargs):
            raise error("injected")

        monkeypatch.setattr(cli, "implication_constants", fail)
        assert run(["constants", "--alpha", "power:2,2", "--A", "1",
                    "--lambda", "0.5", "--output-dir", str(tmp_path)]) == 4
        assert capsys.readouterr().err.startswith("numerical error:")

    def test_solver_failure_exit_five(self, tmp_path, two_point_file,
                                      monkeypatch, capsys):
        def fail(*args, **kwargs):
            raise SolverFailure("injected")

        monkeypatch.setattr(cli, "optimal_cost", fail)
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"source": {"weights": [0.9, 0.1]}}))
        assert run(["transport", "--config", str(cfg_path), "--alpha",
                    "power:2,2", "--seed", "7", "--space-file", two_point_file,
                    "--output-dir", str(tmp_path)]) == 5
        assert capsys.readouterr().err.startswith("internal solver failure:")


class TestRuns:
    def test_transport_and_plan_csv(self, tmp_path, two_point_file):
        cfg = {"source": {"weights": [0.9, 0.1]}}
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        code = run(["transport", "--config", str(cfg_path), "--alpha",
                    "power:2,2", "--seed", "7", "--space-file", two_point_file,
                    "--output-dir", str(tmp_path)])
        assert code == 0
        rows = (tmp_path / "transport-plan.csv").read_text().strip().splitlines()
        assert rows[0] == "i,j,mass,cost_contrib"
        report = json.loads((tmp_path / "transport.json").read_text())
        assert report["result"]["cost"] == pytest.approx(0.4)  # |0.9-0.5| * 1

    def test_plan_csv_export(self, tmp_path, rng, monkeypatch):
        space = random_metric_space(rng, 3)
        nu, mu = random_measure(rng, 3), random_measure(rng, 3)
        space_path = tmp_path / "space.json"
        space_path.write_text(json.dumps({"dist": space.dist.tolist(),
                                          "measure": {"weights": mu.weights.tolist()}}))
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"source": {"weights": nu.weights.tolist()}}))
        opened = []

        def counting_open(path, *args, **kwargs):
            opened.append(str(path))
            return open(path, *args, **kwargs)

        monkeypatch.setattr(cli, "open", counting_open, raising=False)
        assert run(["transport", "--config", str(cfg_path), "--alpha", "power:2,2",
                    "--seed", "7", "--space-file", str(space_path),
                    "--output-dir", str(tmp_path)]) == 0
        assert opened.count(str(space_path)) == 1  # the space file is read once
        data = (tmp_path / "transport-plan.csv").read_bytes()
        assert b"\r" not in data and data.endswith(b"\n")
        rows = data.decode().splitlines()
        assert rows[0] == "i,j,mass,cost_contrib"
        cost = json.loads((tmp_path / "transport.json").read_text())["result"]["cost"]
        total = sum(float(r.split(",")[3]) for r in rows[1:])
        assert total == pytest.approx(cost, abs=1e-9)

    def test_estimate_and_verify_exit_codes(self, tmp_path, two_point_file):
        assert run(["estimate", "T", "--alpha", "power:2,2", "--seed", "1",
                    "--space-file", two_point_file,
                    "--output-dir", str(tmp_path)]) == 0
        assert run(["verify", "T-to-tauLSI", "--alpha", "power:2,2",
                    "--seed", "1", "--space-file", two_point_file,
                    "--output-dir", str(tmp_path)]) == 0

    def test_estimate_reports_degeneracy_evidence(self, tmp_path, two_point_file):
        # dip potentials on two points always give zero-defect witnesses
        assert run(["estimate", "tauLSI", "--alpha", "power:2,2", "--seed", "1",
                    "--space-file", two_point_file,
                    "--output-dir", str(tmp_path)]) == 0
        res = json.loads((tmp_path / "estimate-tauLSI.json").read_text())["result"]
        assert res["premise_degenerate"] is True
        assert res["degenerate_witnesses"] > 0
        assert res["degenerate_entropy"] > 0.0

    def test_verify_dual(self, tmp_path, two_point_file):
        assert run(["verify", "dual", "--alpha", "power:2,2", "--seed", "1",
                    "--level", "0.0001", "--space-file", two_point_file,
                    "--output-dir", str(tmp_path)]) == 0

    def test_concentration(self, tmp_path, two_point_file):
        assert run(["verify", "concentration", "--alpha", "power:2,2",
                    "--seed", "1", "--C", "300", "--p", "2",
                    "--space-file", two_point_file,
                    "--output-dir", str(tmp_path)]) == 0

    def test_concentration_reads_no_cost(self, tmp_path, two_point_file):
        # the check never uses the cost, so it runs without --alpha and
        # gives the same result
        argv = ["verify", "concentration", "--seed", "1", "--C", "300", "--p", "2",
                "--space-file", two_point_file]
        results = []
        for extra in ([], ["--alpha", "power:2,2"]):
            out = tmp_path / str(len(extra))
            assert run([*argv, *extra, "--output-dir", str(out)]) == 0
            report = json.loads((out / "verify-concentration.json").read_text())
            results.append(report["result"])
        assert results[0] == results[1]

    def test_missing_cost_named(self, tmp_path, two_point_file, capsys):
        assert run(["estimate", "T", "--seed", "1", "--space-file", two_point_file,
                    "--output-dir", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: missing 'alpha'")

    def test_concentration_oversized_product_exit_one(self, tmp_path,
                                                      no_large_zeros, capsys):
        path = tmp_path / "grid.json"
        path.write_text(json.dumps(README_GRID))
        assert run(["verify", "concentration", "--alpha", "power:2,2",
                    "--seed", "1", "--C", "300", "--p", "2", "--order", "2",
                    "--space-file", str(path),
                    "--output-dir", str(tmp_path)]) == 1
        assert "40401 product points" in capsys.readouterr().err

    def test_lemma_bounds(self, tmp_path, two_point_file):
        assert run(["lemma-bounds", "--alpha", "power:3,2", "--seed", "3",
                    "--order", "2", "--t", "0.4",
                    "--space-file", two_point_file,
                    "--output-dir", str(tmp_path)]) == 0


class TestParserReuse:
    CALLS = (
        ("constants", ["constants", "--alpha", "power:2,2", "--A", "1.3",
                       "--lambda", "0.5"]),
        ("estimate-T", ["estimate", "T", "--alpha", "power:2,2", "--seed", "5"]),
    )

    def _calls(self, tmp_path, space_file):
        """A bad-argument call, then two subcommands, in one process."""
        with pytest.raises(SystemExit) as bad:
            run(["estimate", "Q", "--alpha", "power:2,2"])
        out = [bad.value.code]
        for stem, argv in self.CALLS:
            outdir = tmp_path / stem
            extra = ["--space-file", space_file] if argv[0] == "estimate" else []
            code = run([*argv, *extra, "--output-dir", str(outdir)])
            report = json.loads((outdir / f"{stem}.json").read_text())
            out.append((code, report["result"]))
        return out

    def test_cached_parser_matches_fresh_parser(self, tmp_path, two_point_file,
                                                monkeypatch, capsys):
        assert cli._parser() is cli._parser()
        reused = self._calls(tmp_path / "reused", two_point_file)
        monkeypatch.setattr(cli, "_parser", cli.build_parser)
        fresh = self._calls(tmp_path / "fresh", two_point_file)
        assert reused == fresh
        assert reused[0] == 2 and [code for code, _ in reused[1:]] == [0, 0]

    def test_build_parser_returns_a_new_parser(self):
        assert cli.build_parser() is not cli.build_parser()
        assert cli.build_parser() is not cli._parser()


class TestDeterminism:
    def test_reports_identical_modulo_timestamp(self, tmp_path, two_point_file):
        out1 = tmp_path / "r1"
        out2 = tmp_path / "r2"
        for out in (out1, out2):
            assert run(["estimate", "T", "--alpha", "power:2,2", "--seed",
                        "42", "--space-file", two_point_file,
                        "--output-dir", str(out)]) == 0
        r1 = json.loads((out1 / "estimate-T.json").read_text())
        r2 = json.loads((out2 / "estimate-T.json").read_text())
        r1.pop("timestamp")
        r2.pop("timestamp")
        r1["config"].pop("output-dir")
        r2["config"].pop("output-dir")
        assert r1 == r2

    def test_report_embeds_config_and_schema(self, tmp_path, two_point_file):
        run(["estimate", "T", "--alpha", "power:2,2", "--seed", "42",
             "--space-file", two_point_file, "--output-dir", str(tmp_path)])
        report = json.loads((tmp_path / "estimate-T.json").read_text())
        assert report["schema"] == 1
        assert report["seed"] == 42
        assert report["config"]["alpha"] == "power:2,2"
