import json
import os

import numpy as np
import pytest

from frgeo import cli, selftest, io as fio
from frgeo.cli import main
from frgeo.fisher_rao import MeasurePath, metric_speed
from frgeo.measures import (
    MatrixMeasure,
    Support,
    make_support,
    uniform_reference,
)
from frgeo.testing import random_finite_entropy_measure, random_measure, random_psd


@pytest.fixture
def workdir(rng, tmp_path):
    sup = make_support(2)
    lam = uniform_reference(sup, 2)
    g0 = random_finite_entropy_measure(rng, 2, 2, blend=0.5, support=sup, lam=lam)
    g1 = random_finite_entropy_measure(rng, 2, 2, blend=0.5, support=sup, lam=lam)
    paths = {
        "g0": str(tmp_path / "g0.json"),
        "g1": str(tmp_path / "g1.json"),
        "lam": str(tmp_path / "lam.json"),
        "dir": str(tmp_path),
    }
    fio.save_measure(paths["g0"], g0)
    fio.save_measure(paths["g1"], g1)
    fio.save_reference(paths["lam"], lam)
    return paths


class TestDistanceCommand:
    def test_identical_files_zero(self, workdir, capsys):
        for metric in ("bures", "hellinger", "fisher-rao", "tv"):
            code = main(["distance", workdir["g0"], workdir["g0"], "--metric", metric])
            assert code == 0
            out = capsys.readouterr().out
            value = float(out.splitlines()[0].split("=")[1])
            assert abs(value) <= 1e-6

    def test_hellinger_against_zero_prints_two_root_mass(self, rng, tmp_path, capsys):
        g = random_measure(rng, 2, 2)
        zero = g.with_atoms(np.zeros_like(g.atoms))
        gp, zp = str(tmp_path / "g.json"), str(tmp_path / "z.json")
        fio.save_measure(gp, g)
        fio.save_measure(zp, zero)
        assert main(["distance", gp, zp, "--metric", "hellinger"]) == 0
        out = capsys.readouterr().out
        value = float(out.splitlines()[0].split("=")[1])
        from frgeo.measures import mass

        assert value == pytest.approx(2.0 * np.sqrt(mass(g)), rel=1e-12)

    def test_disjoint_unit_pair_saturates(self, tmp_path, capsys):
        sup = Support(("a", "b"))
        g0 = MatrixMeasure(sup, np.stack([np.eye(1), np.zeros((1, 1))]).astype(complex))
        g1 = MatrixMeasure(sup, np.stack([np.zeros((1, 1)), np.eye(1)]).astype(complex))
        p0, p1 = str(tmp_path / "a.json"), str(tmp_path / "b.json")
        fio.save_measure(p0, g0)
        fio.save_measure(p1, g1)
        assert main(["distance", p0, p1, "--metric", "fisher-rao"]) == 0
        out = capsys.readouterr().out
        value = float(out.splitlines()[0].split("=")[1])
        assert value == pytest.approx(np.pi, abs=1e-12)

    def test_parse_error_exit_2(self, tmp_path, capsys):
        bad = str(tmp_path / "bad.json")
        with open(bad, "w") as f:
            f.write("not json")
        assert main(["distance", bad, bad]) == 2

    def test_precondition_exit_3(self, rng, tmp_path, capsys):
        g = random_measure(rng, 1, 2)  # mass almost surely not 1
        p = str(tmp_path / "g.json")
        fio.save_measure(p, g)
        assert main(["distance", p, p, "--metric", "fisher-rao"]) == 3
        assert "precondition" in capsys.readouterr().err


class TestGeodesicCommand:
    def test_writes_path_and_csv(self, workdir, capsys):
        out = os.path.join(workdir["dir"], "geo")
        code = main(
            ["geodesic", workdir["g0"], workdir["g1"], "--steps", "8", "--out", out]
        )
        assert code == 0
        times, slices = fio.load_measure_path(os.path.join(out, "path.json"))
        assert len(times) == 9
        with open(os.path.join(out, "path.csv")) as f:
            header = f.readline().strip().split(",")
        assert header == ["time", "mass", "entropy", "speed"]

    def test_hellinger_speeds_equal_the_printed_distance(self, workdir, capsys):
        # Both come from the same polar residual, so they agree bit for bit.
        out = os.path.join(workdir["dir"], "geo")
        assert main(["distance", workdir["g0"], workdir["g1"], "--metric", "hellinger"]) == 0
        dh = float(capsys.readouterr().out.splitlines()[0].removeprefix("hellinger = "))
        assert main(["geodesic", workdir["g0"], workdir["g1"], "--metric", "hellinger", "--out", out]) == 0
        with open(os.path.join(out, "path.csv")) as f:
            rows = [line.split(",") for line in f.read().splitlines()]
        assert rows[0][3] == "speed"
        assert [float(r[3]) for r in rows[1:]] == [dh] * 17

    @pytest.mark.parametrize("steps", ["0", "-1", "-5"])
    def test_steps_below_one_exit_3(self, workdir, capsys, steps):
        # Checked before anything runs, so no output directory appears.
        out = os.path.join(workdir["dir"], "geo")
        assert main(["geodesic", workdir["g0"], workdir["g1"], "--steps", steps, "--out", out]) == 3
        err = capsys.readouterr().err
        assert f"steps must be at least 1, got {steps}" in err and "Traceback" not in err
        assert not os.path.exists(out)

    def test_hellinger_metric(self, workdir):
        out = os.path.join(workdir["dir"], "geo_h")
        code = main(
            [
                "geodesic",
                workdir["g0"],
                workdir["g1"],
                "--metric",
                "hellinger",
                "--steps",
                "8",
                "--out",
                out,
            ]
        )
        assert code == 0
        with open(os.path.join(out, "path.csv")) as f:
            lines = f.read().strip().splitlines()
        speeds = [float(l.split(",")[3]) for l in lines[1:]]
        # Constant-speed geodesic: every row holds the same speed.
        assert speeds[0] > 0.0 and speeds == [speeds[0]] * 9

    @pytest.mark.parametrize("seed", [5, 11])
    @pytest.mark.parametrize("start", ["definite", "singular"])
    @pytest.mark.parametrize("metric", ["fisher-rao", "hellinger"])
    def test_speed_column_is_the_finite_difference_speed(self, tmp_path, seed, start, metric):
        # The column is the geodesic's distance; finite differences of the
        # written slices read the same constant.
        rng = np.random.default_rng(seed)
        sup = make_support(64)
        g1 = random_finite_entropy_measure(rng, 64, 4, support=sup)
        if start == "singular":
            atoms = np.stack([random_psd(rng, 4, rank=2) for _ in range(64)])
            g0 = MatrixMeasure(sup, atoms / np.real(np.trace(atoms, axis1=1, axis2=2)).sum())
        else:
            g0 = random_finite_entropy_measure(rng, 64, 4, support=sup)
        p0, p1, out = str(tmp_path / "g0.json"), str(tmp_path / "g1.json"), str(tmp_path / "geo")
        fio.save_measure(p0, g0)
        fio.save_measure(p1, g1)
        assert main(["geodesic", p0, p1, "--metric", metric, "--out", out]) == 0
        times, slices = fio.load_measure_path(os.path.join(out, "path.json"))
        path = MeasurePath(times, sup, np.stack([g.atoms for g in slices]))
        with open(os.path.join(out, "path.csv")) as f:
            speeds = np.array([float(l.split(",")[3]) for l in f.read().splitlines()[1:]])
        expected = metric_speed(path, metric.replace("-", "_"))
        assert np.abs(speeds - expected).max() <= 1e-12 * expected.max()

    def test_identical_files_give_the_constant_path(self, tmp_path):
        # The measure of the seeded CLI check, whose polar residual with
        # itself is round-off above 0.
        g0 = random_finite_entropy_measure(np.random.default_rng(7), 8, 3)
        p0, out = str(tmp_path / "g0.json"), str(tmp_path / "geo")
        fio.save_measure(p0, g0)
        assert main(["geodesic", p0, p0, "--out", out]) == 0
        _, slices = fio.load_measure_path(os.path.join(out, "path.json"))
        assert len(slices) == 17 and all(np.array_equal(g.atoms, g0.atoms) for g in slices)
        with open(os.path.join(out, "path.csv")) as f:
            rows = [l.split(",") for l in f.read().splitlines()[1:]]
        assert {r[2] for r in rows} == {rows[0][2]} and all(float(r[3]) == 0.0 for r in rows)

    def test_hellinger_mixed_fiber_modes(self, mixed_mode_pair, fiber_formulas, tmp_path):
        from frgeo.bures import bures_geodesic

        g0, g1 = mixed_mode_pair
        p0, p1, out = str(tmp_path / "g0.json"), str(tmp_path / "g1.json"), str(tmp_path / "geo")
        fio.save_measure(p0, g0)
        fio.save_measure(p1, g1)
        assert main(["geodesic", p0, p1, "--metric", "hellinger", "--steps", "4", "--out", out]) == 0
        times, slices = fio.load_measure_path(os.path.join(out, "path.json"))
        fiber_formulas.check_path(g0, g1, times, [g.atoms for g in slices])
        fibers = [bures_geodesic(g0.atoms[i], g1.atoms[i], times) for i in range(g0.n)]
        for k, g in enumerate(slices):
            assert np.abs(g.atoms - np.stack([fp.points[k] for fp in fibers])).max() <= 1e-12

    def test_singular_start_at_large_scale_exit_0(self, fiber_formulas, tmp_path):
        # The geodesic from a singular start is exact at every scale; this
        # one-point pair used to exit 3 through a start-shift error bound.
        sup = make_support(1)
        g0 = MatrixMeasure(sup, np.diag([50.0, 0.0])[None].astype(complex))
        g1 = MatrixMeasure(sup, 50.0 * np.eye(2, dtype=complex)[None])
        p0, p1, out = str(tmp_path / "g0.json"), str(tmp_path / "g1.json"), str(tmp_path / "geo")
        fio.save_measure(p0, g0)
        fio.save_measure(p1, g1)
        assert main(["geodesic", p0, p1, "--metric", "hellinger", "--steps", "8", "--out", out]) == 0
        times, slices = fio.load_measure_path(os.path.join(out, "path.json"))
        masses = np.array([np.real(np.trace(g.atoms, axis1=1, axis2=2)).sum() for g in slices])
        expected = fiber_formulas.masses(g0, g1, times)
        assert np.abs(masses - expected).max() <= 1e-14 * np.abs(expected).max()
        assert np.abs(slices[0].atoms - g0.atoms).max() <= 1e-14 * 50.0
        assert np.abs(slices[-1].atoms - g1.atoms).max() <= 1e-14 * 50.0
        fiber_formulas.check_path(g0, g1, times, [g.atoms for g in slices])

    def test_small_definite_pair_exit_0(self, tmp_path):
        # Each atom is definite under the relative rank rule, so the Bures
        # velocity step accepts its eigenvalue 1e-13.
        sup = make_support(1)
        g0 = MatrixMeasure(sup, np.diag([1e-2, 1e-13])[None].astype(complex))
        g1 = MatrixMeasure(sup, np.diag([2e-2, 1e-13])[None].astype(complex))
        p0, p1, out = str(tmp_path / "g0.json"), str(tmp_path / "g1.json"), str(tmp_path / "geo")
        fio.save_measure(p0, g0)
        fio.save_measure(p1, g1)
        assert main(["geodesic", p0, p1, "--metric", "hellinger", "--steps", "4", "--out", out]) == 0
        _, slices = fio.load_measure_path(os.path.join(out, "path.json"))
        assert np.abs(slices[-1].atoms - g1.atoms).max() <= 1e-15


class TestParserReuse:
    def test_one_parser_serves_successive_calls(self, workdir, capsys):
        # The parser is built once per process; no option value leaks from
        # one call into the next.
        assert cli.build_parser() is cli.build_parser()
        short, default = os.path.join(workdir["dir"], "short"), os.path.join(workdir["dir"], "default")
        argv = ["geodesic", workdir["g0"], workdir["g1"]]
        assert main([*argv, "--metric", "hellinger", "--steps", "4", "--out", short]) == 0
        assert main([*argv, "--out", default]) == 0
        assert len(fio.load_measure_path(os.path.join(short, "path.json"))[1]) == 5
        slices = fio.load_measure_path(os.path.join(default, "path.json"))[1]
        assert len(slices) == 17
        assert all(abs(np.real(np.trace(g.atoms, axis1=1, axis2=2)).sum() - 1.0) <= 1e-12 for g in slices)
        assert main([*argv, "--steps", "four", "--out", default]) == 2
        assert main(["distance", workdir["g0"], workdir["g1"]]) == 0
        assert capsys.readouterr().out.startswith("wrote")


class TestMeasureFileErrors:
    def test_non_hermitian_file_exit_2_names_point(self, tmp_path, capsys):
        doc = {
            "dim": 2,
            "support": ["ok", "skewed"],
            "atoms": [
                {"point": "ok", "matrix": [[[1, 0], [0, 0]], [[0, 0], [1, 0]]]},
                {"point": "skewed", "matrix": [[[1, 0], [0.5, 0.25]], [[0.5, 0], [1, 0]]]},
            ],
        }
        p = str(tmp_path / "skewed.json")
        with open(p, "w") as f:
            json.dump(doc, f)
        assert main(["distance", p, p]) == 2
        err = capsys.readouterr().err
        assert "atom at point 'skewed' is not Hermitian" in err


    @pytest.mark.parametrize(
        "entry, row",
        [
            ("[NaN, 0]", None),
            ("[Infinity, 0]", None),
            ("[1e400, 0]", None),
            ("[" + "9" * 400 + ", 0]", None),
            ('["0.5", 0]', None),
            ("[null, 0]", None),
            ("[0, 0, 0]", None),
            ("[0, 0]", "[[0, 0]]"),
        ],
        ids=["nan", "infinity", "1e400", "400-digit-integer", "string", "null", "three-entry-pair", "ragged-row"],
    )
    def test_malformed_number_exit_2_names_point(self, tmp_path, capsys, entry, row):
        bad = f"[[[0.25, 0], {entry}], {row or '[[0, 0], [0.25, 0]]'}]"
        text = (
            '{"dim": 2, "support": ["ok", "bad"], "atoms": ['
            '{"point": "ok", "matrix": [[[0.25, 0], [0, 0]], [[0, 0], [0.25, 0]]]}, '
            f'{{"point": "bad", "matrix": {bad}}}]}}'
        )
        p = tmp_path / "bad.json"
        p.write_text(text)
        assert main(["distance", str(p), str(p)]) == 2
        err = capsys.readouterr().err
        assert "atom at point 'bad'" in err and "Traceback" not in err

    @pytest.mark.parametrize("support", [["a", "a"], []], ids=["duplicate", "empty"])
    @pytest.mark.parametrize("kind", ["measure", "reference"])
    def test_bad_support_exit_2(self, workdir, capsys, support, kind):
        if kind == "measure":
            atoms = [{"point": p, "matrix": [[[1, 0]]]} for p in support]
            doc = {"dim": 1, "support": support, "atoms": atoms}
        else:
            doc = {"dim": 2, "support": support, "weights": [0.25] * len(support)}
        p = os.path.join(workdir["dir"], "bad_support.json")
        with open(p, "w") as f:
            json.dump(doc, f)
        if kind == "measure":
            argv = ["distance", p, p]
        else:
            argv = ["heatflow", workdir["g0"], "--reference", p, "--out", os.path.join(workdir["dir"], "flow.csv")]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert "support" in err and "Traceback" not in err

    @pytest.mark.parametrize(
        "text, message",
        [
            ("[1, 2]", "measure document must be a JSON object"),
            ('{"dim": 1, "support": ["p"]}', "measure document missing field 'atoms'"),
            ('{"dim": 1, "support": ["p"], "atoms": [{"point": "p"}]}', "each atom must be an object with 'point' and 'matrix'"),
            ('{"dim": 1, "support": ["p"], "atoms": [{"matrix": [[[1, 0]]]}]}', "each atom must be an object with 'point' and 'matrix'"),
            ('{"dim": 1, "support": ["p"], "atoms": [{"point": "q", "matrix": [[[1, 0]]]}]}', "atom point 'q' is not in the support"),
            (
                '{"dim": 1, "support": ["p", "q"], "atoms": [{"point": "p", "matrix": [[[1, 0]]]}, {"point": "p", "matrix": [[[1, 0]]]}]}',
                "duplicate atom for point 'p'",
            ),
            (
                '{"dim": 2, "support": ["p"], "atoms": [{"point": "p", "matrix": [[[1, 0], [0, 0], [0, 0]], [[0, 0], [1, 0], [0, 0]], [[0, 0], [0, 0], [1, 0]]]}]}',
                "atom at point 'p' ([re, im] pairs) must have shape (2, 2, 2), got (3, 3, 2)",
            ),
            ('{"dim": 1, "support": ["1"], "atoms": [{"point": 1, "matrix": [[[1, 0]]]}]}', "atom point must be a JSON string, got 1"),
            ('{"dim": 1, "support": ["True"], "atoms": [{"point": true, "matrix": [[[1, 0]]]}]}', "atom point must be a JSON string, got true"),
        ],
        ids=[
            "not-an-object", "missing-field", "no-matrix", "no-point", "point-not-in-support", "duplicate-atom", "3x3-in-dim-2",
            "number-point", "boolean-point",
        ],
    )
    def test_malformed_measure_document_exit_2(self, tmp_path, capsys, text, message):
        p = tmp_path / "bad.json"
        p.write_text(text)
        assert main(["distance", str(p), str(p)]) == 2
        err = capsys.readouterr().err
        assert message in err and "Traceback" not in err

    @pytest.mark.parametrize(
        "weights", ["[NaN, 0.25]", '["0.25", 0.25]', "[0.5, 0.5]"], ids=["nan", "string", "not-normalized"]
    )
    def test_malformed_weight_exit_2_names_weights(self, workdir, capsys, weights):
        p = os.path.join(workdir["dir"], "bad_lam.json")
        with open(p, "w") as f:
            f.write(f'{{"dim": 2, "support": ["p1", "p2"], "weights": {weights}}}')
        out = os.path.join(workdir["dir"], "flow.csv")
        assert main(["heatflow", workdir["g0"], "--reference", p, "--out", out]) == 2
        err = capsys.readouterr().err
        assert "weights" in err and "Traceback" not in err


class TestUnwritableOutput:
    @pytest.mark.parametrize(
        "command, out",
        [
            (["geodesic", "g0", "g1"], "afile/x"),
            (["heatflow", "g0"], "afile/x"),
            (["convexity", "g0", "g1"], "afile/x"),
            (["bridge", "g0", "g1", "--epsilon", "0.3", "--steps", "8"], "afile"),
            (["gamma-sweep", "g0", "g1", "--epsilons", "0.5", "--steps", "8"], "afile/x"),
        ],
        ids=["geodesic", "heatflow", "convexity", "bridge", "gamma-sweep"],
    )
    def test_output_beneath_a_regular_file_exit_2(self, workdir, capsys, command, out):
        # "afile" is a regular file: a directory cannot be made there, nor a file beneath it.
        afile = os.path.join(workdir["dir"], "afile")
        with open(afile, "w") as f:
            f.write("not a directory\n")
        argv = [workdir.get(arg, arg) for arg in command]
        assert main(argv + ["--out", os.path.join(workdir["dir"], out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: [Errno") and afile in err and "Traceback" not in err
        with open(afile) as f:
            assert f.read() == "not a directory\n"


class TestReferenceMismatch:
    """A reference on another support or ``dim`` fails every command that
    takes one before the command writes anything."""

    @pytest.mark.parametrize(
        "support, dim, message",
        [
            (Support(("p1", "q2")), 2, "measure and reference live on different supports"),
            (make_support(2), 1, "measure dim 2 != reference dim 1"),
        ],
        ids=["support", "dim"],
    )
    @pytest.mark.parametrize(
        "command, out",
        [
            (["geodesic", "g0", "g1"], "geo"),
            (["geodesic", "g0", "g1", "--metric", "hellinger"], "geo"),
            (["heatflow", "g0"], "flow.csv"),
            (["bridge", "g0", "g1", "--epsilon", "0.3", "--steps", "8"], "bridge"),
            (["gamma-sweep", "g0", "g1", "--epsilons", "0.5", "--steps", "8"], "sweep.csv"),
            (["convexity", "g0", "g1"], "conv.csv"),
        ],
        ids=["geodesic-fisher-rao", "geodesic-hellinger", "heatflow", "bridge", "gamma-sweep", "convexity"],
    )
    def test_exit_3_and_nothing_written(self, workdir, capsys, command, out, support, dim, message):
        lam = os.path.join(workdir["dir"], "lam_other.json")
        fio.save_reference(lam, uniform_reference(support, dim))
        target = os.path.join(workdir["dir"], out)
        argv = [workdir.get(arg, arg) for arg in command] + ["--reference", lam, "--out", target]
        assert main(argv) == 3
        err = capsys.readouterr().err
        assert err == f"error: precondition violated: {message}\n"
        assert not os.path.exists(target)

    @pytest.mark.parametrize("command", ["geodesic", "bridge", "gamma-sweep", "convexity"])
    def test_pair_on_two_supports_exit_3(self, rng, workdir, capsys, command):
        other = os.path.join(workdir["dir"], "other.json")
        fio.save_measure(other, random_finite_entropy_measure(rng, 3, 2))
        target = os.path.join(workdir["dir"], "out")
        argv = [command, workdir["g0"], other, "--out", target] + (["--epsilon", "0.3"] if command == "bridge" else [])
        assert main(argv) == 3
        assert capsys.readouterr().err == "error: precondition violated: measures live on different supports\n"
        assert not os.path.exists(target)


class TestHeatflowCommand:
    def test_writes_table(self, workdir):
        out = os.path.join(workdir["dir"], "flow.csv")
        code = main(
            ["heatflow", workdir["g0"], "--t", "1.5", "--steps", "8", "--out", out]
        )
        assert code == 0
        with open(out) as f:
            lines = f.read().strip().splitlines()
        assert lines[0] == "t,entropy,fisher,mass,tv_to_equilibrium"
        assert len(lines) == 10

    @pytest.mark.parametrize(
        "flag,value,message",
        [
            ("--t", "nan", "final flow time must be finite, got nan"),
            ("--t", "inf", "final flow time must be finite, got inf"),
            ("--steps", "-1", "steps must be at least 1, got -1"),
            ("--steps", "0", "steps must be at least 1, got 0"),
        ],
        ids=["t-nan", "t-inf", "steps-negative", "steps-zero"],
    )
    def test_bad_time_grid_exit_3(self, workdir, capsys, flag, value, message):
        out = os.path.join(workdir["dir"], "flow.csv")
        assert main(["heatflow", workdir["g0"], flag, value, "--out", out]) == 3
        err = capsys.readouterr().err
        assert message in err and "Traceback" not in err
        assert not os.path.exists(out)

    def test_negative_time_exit_3(self, workdir, capsys):
        out = os.path.join(workdir["dir"], "flow.csv")
        assert main(["heatflow", workdir["g0"], "--t", "-1", "--steps", "4", "--out", out]) == 3
        err = capsys.readouterr().err
        assert "flow time must be nonnegative, got -0.25" in err and "Traceback" not in err


class TestBridgeCommand:
    def test_bridge_outputs(self, workdir, capsys):
        out = os.path.join(workdir["dir"], "bridge")
        code = main(
            [
                "bridge",
                workdir["g0"],
                workdir["g1"],
                "--reference",
                workdir["lam"],
                "--epsilon",
                "0.3",
                "--steps",
                "8",
                "--out",
                out,
            ]
        )
        assert code == 0
        stdout = capsys.readouterr().out
        assert "objective" in stdout and "converged = True" in stdout
        lines = stdout.splitlines()
        converged_at = next(k for k, line in enumerate(lines) if line.startswith("converged = "))
        assert lines[converged_at + 1] in ("stop_reason = gradient_tol", "stop_reason = stall")
        times, slices = fio.load_measure_path(os.path.join(out, "path.json"))
        assert len(times) == 9
        with open(os.path.join(out, "slices.csv")) as f:
            assert f.readline().strip() == "t,mass,entropy,fisher,speed"

    def test_non_convergence_exit_4(self, workdir, capsys):
        out = os.path.join(workdir["dir"], "starved")
        code = main(
            [
                "bridge",
                workdir["g0"],
                workdir["g1"],
                "--epsilon",
                "0.3",
                "--steps",
                "8",
                "--max-iters",
                "1",
                "--out",
                out,
            ]
        )
        assert code == 4
        captured = capsys.readouterr()
        assert "converged = False" in captured.out
        assert "stop_reason = budget" in captured.out
        assert "did not converge in 1 iterations (budget)" in captured.err

    @pytest.mark.parametrize("max_iters", ["-5", "0"])
    def test_max_iters_below_one_exit_3(self, workdir, capsys, max_iters):
        out = os.path.join(workdir["dir"], "no_budget")
        argv = ["bridge", workdir["g0"], workdir["g1"], "--epsilon", "0.3", "--steps", "8"]
        assert main(argv + ["--max-iters", max_iters, "--out", out]) == 3
        captured = capsys.readouterr()
        assert f"max_iters must be at least 1, got {max_iters}" in captured.err
        assert "converged" not in captured.out and "Traceback" not in captured.err

    def test_fine_grid_converges_within_small_budget(self, workdir, capsys):
        # Preconditioned in time, N = 96 needs a handful of iterations; plain
        # L-BFGS took 158 to 209 here and exited 4 on this budget.
        out = os.path.join(workdir["dir"], "fine")
        argv = ["bridge", workdir["g0"], workdir["g1"], "--reference", workdir["lam"]]
        code = main(argv + ["--epsilon", "0.2", "--steps", "96", "--max-iters", "40", "--out", out])
        assert code == 0
        lines = capsys.readouterr().out.splitlines()
        assert "stop_reason = stall" in lines or "stop_reason = gradient_tol" in lines

    def test_infinite_entropy_exit_3(self, rng, tmp_path, workdir):
        sup = make_support(2)
        singular = MatrixMeasure(
            sup, np.stack([np.diag([0.5, 0.0]), np.diag([0.25, 0.25])]).astype(complex)
        )
        p = str(tmp_path / "sing.json")
        fio.save_measure(p, singular)
        out = os.path.join(workdir["dir"], "bad_bridge")
        code = main(
            ["bridge", p, workdir["g1"], "--epsilon", "0.3", "--steps", "8", "--out", out]
        )
        assert code == 3

    @pytest.mark.parametrize("epsilon", ["nan", "inf"])
    def test_non_finite_epsilon_exit_3(self, workdir, capsys, epsilon):
        out = os.path.join(workdir["dir"], "bad_bridge")
        code = main(["bridge", workdir["g0"], workdir["g1"], "--epsilon", epsilon, "--steps", "8", "--out", out])
        assert code == 3
        assert "epsilon must be positive and finite" in capsys.readouterr().err
        assert not os.path.exists(out)


class TestSweepAndConvexity:
    def test_gamma_sweep_csv(self, workdir):
        out = os.path.join(workdir["dir"], "sweep.csv")
        code = main(
            [
                "gamma-sweep",
                workdir["g0"],
                workdir["g1"],
                "--epsilons",
                "0.5,0.2",
                "--steps",
                "8",
                "--out",
                out,
            ]
        )
        assert code == 0
        with open(out) as f:
            lines = f.read().strip().splitlines()
        assert lines[0] == "epsilon,objective_x2,dfr_sq,tv_gap"
        assert len(lines) == 3
        first = [float(x) for x in lines[1].split(",")]
        second = [float(x) for x in lines[2].split(",")]
        assert first[0] == 0.5 and second[0] == 0.2
        assert second[1] <= first[1] * 1.01

    @pytest.mark.parametrize(
        "option, value, message",
        [
            ("--jobs", "0", "jobs must be at least 1"),
            ("--jobs", "-2", "jobs must be at least 1"),
            ("--epsilons", "0.5,nan", "epsilon must be positive and finite"),
            ("--epsilons", "inf,0.5", "epsilon must be positive and finite"),
        ],
    )
    def test_gamma_sweep_bad_option_exit_3(self, workdir, capsys, option, value, message):
        out = os.path.join(workdir["dir"], "sweep.csv")
        argv = ["gamma-sweep", workdir["g0"], workdir["g1"], "--steps", "8", option, value, "--out", out]
        assert main(argv) == 3
        assert message in capsys.readouterr().err
        assert not os.path.exists(out)

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_gamma_sweep_infinite_entropy_exit_3(self, tmp_path, workdir, capsys, jobs):
        # Every row's solve fails on the endpoint, so the sweep stops with
        # the precondition, from a worker pool too, and writes no table.
        sup = make_support(2)
        singular = MatrixMeasure(sup, np.stack([np.diag([0.5, 0.0]), np.diag([0.25, 0.25])]).astype(complex))
        p = str(tmp_path / "sing.json")
        fio.save_measure(p, singular)
        out = os.path.join(workdir["dir"], "sweep.csv")
        argv = ["gamma-sweep", p, workdir["g1"], "--epsilons", "0.5,0.2", "--steps", "8", "--jobs", jobs]
        assert main(argv + ["--out", out]) == 3
        captured = capsys.readouterr()
        assert "error: precondition violated:" in captured.err and "initial endpoint has infinite entropy" in captured.err
        assert captured.out == "" and not os.path.exists(out)

    def test_gamma_sweep_unconverged_row_exit_4(self, workdir, capsys, monkeypatch):
        from frgeo.schrodinger import SweepRow

        rows = [SweepRow(0.5, 1.0, 0.75, 0.25, 0.125, True), SweepRow(0.2, 0.5, 0.375, 0.125, 0.0625, False)]
        monkeypatch.setattr(cli, "gamma_sweep", lambda *args, **kwargs: rows)
        out = os.path.join(workdir["dir"], "sweep.csv")
        assert main(["gamma-sweep", workdir["g0"], workdir["g1"], "--epsilons", "0.5,0.2", "--out", out]) == 4
        captured = capsys.readouterr()
        assert "error: at least one sweep row did not converge" in captured.err
        assert "epsilon=0.5: objective_x2=2.0 tv_gap=0.125 (converged)" in captured.out
        assert "epsilon=0.2: objective_x2=1.0 tv_gap=0.0625 (not converged)" in captured.out
        with open(out) as f:
            lines = f.read().strip().splitlines()
        assert [l.split(",")[:2] for l in lines[1:]] == [["0.5", "2"], ["0.20000000000000001", "1"]]

    @pytest.mark.parametrize(
        "command, option, value, message",
        [
            ("gamma-sweep", "--epsilons", "0.2,abc", "cannot parse epsilon list '0.2,abc'"),
            ("convexity", "--theta-grid", ",", "empty theta grid ','"),
        ],
    )
    def test_unparsable_list_exit_2(self, workdir, capsys, command, option, value, message):
        out = os.path.join(workdir["dir"], "table.csv")
        assert main([command, workdir["g0"], workdir["g1"], option, value, "--out", out]) == 2
        err = capsys.readouterr().err
        assert message in err and "Traceback" not in err
        assert not os.path.exists(out)

    def test_convexity_csv(self, workdir):
        out = os.path.join(workdir["dir"], "conv.csv")
        code = main(
            ["convexity", workdir["g0"], workdir["g1"], "--theta-grid", "0.25,0.5,0.75", "--out", out]
        )
        assert code == 0
        with open(out) as f:
            lines = f.read().strip().splitlines()
        assert lines[0] == "theta,entropy_lhs,bound_rhs,slack"
        slacks = [float(l.split(",")[3]) for l in lines[1:]]
        assert all(s >= -1e-6 for s in slacks)

    def test_convexity_violation_exit_1(self, workdir, capsys, monkeypatch):
        # The CLI's slack check is the only half-convexity check; a row whose
        # entropy exceeds its bound fails it after the CSV is written.
        monkeypatch.setattr(cli, "convexity_experiment", lambda *args: [(0.25, 0.0, 0.0), (0.5, 1.0, 0.5)])
        out = os.path.join(workdir["dir"], "conv.csv")
        assert main(["convexity", workdir["g0"], workdir["g1"], "--out", out]) == 1
        assert "half-convexity bound violated" in capsys.readouterr().err
        with open(out) as f:
            lines = f.read().strip().splitlines()
        assert [float(l.split(",")[3]) for l in lines[1:]] == [0.0, -0.5]

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("grid", ["nan", "inf", "0.25,nan,0.75"])
    def test_convexity_non_finite_theta_exit_3(self, workdir, capsys, grid):
        out = os.path.join(workdir["dir"], "conv.csv")
        assert main(["convexity", workdir["g0"], workdir["g1"], "--theta-grid", grid, "--out", out]) == 3
        assert "times must" in capsys.readouterr().err
        assert not os.path.exists(out)


class TestSelftestCommand:
    def test_deterministic_and_exit_codes(self, capsys):
        assert main(["selftest", "--seed", "3"]) == 0
        out1 = capsys.readouterr().out
        assert main(["selftest", "--seed", "3"]) == 0
        out2 = capsys.readouterr().out
        assert out1 == out2
        assert "PASS" in out1

    def test_seed_1_passes(self, capsys):
        assert main(["selftest", "--seed", "1"]) == 0
        assert "FAIL" not in capsys.readouterr().out

    def test_failing_group_exit_1(self, capsys, monkeypatch):
        passing = ("passing-group", lambda rng: [])
        monkeypatch.setattr(selftest, "_GROUPS", [passing, ("failing-group", lambda rng: ["injected failure"])])
        assert main(["selftest", "--seed", "0"]) == 1
        out = capsys.readouterr().out
        assert "PASS passing-group" in out and "FAIL failing-group: injected failure" in out
        assert "1/2 invariant groups passed (seed 0)" in out

    def test_force_fail_option_is_gone(self, capsys):
        assert main(["selftest", "--force-fail"]) == 2
        assert "unrecognized arguments: --force-fail" in capsys.readouterr().err


class TestRoundTripThroughCli:
    def test_file_round_trip_bit_identical(self, rng, tmp_path):
        g = random_measure(rng, 3, 3)
        p1 = str(tmp_path / "a.json")
        p2 = str(tmp_path / "b.json")
        fio.save_measure(p1, g)
        g2 = fio.load_measure(p1)
        fio.save_measure(p2, g2)
        with open(p1) as f1, open(p2) as f2:
            assert f1.read() == f2.read()

    def test_seventeen_significant_digits(self, tmp_path):
        sup = Support(("p1",))
        val = 1.0 / 3.0
        g = MatrixMeasure(sup, np.array([[[val]]], dtype=complex))
        p = str(tmp_path / "m.json")
        fio.save_measure(p, g)
        with open(p) as f:
            doc = json.load(f)
        assert doc["atoms"][0]["matrix"][0][0][0] == val
        with open(p) as f:
            text = f.read()
        assert "0.33333333333333331" in text
