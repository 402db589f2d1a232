import json
import xml.etree.ElementTree as ET

import numpy as np
import pytest

import screenlab as sl
from screenlab.cli import main
from screenlab.dictionary import read_dsmx


def run_cli(*argv):
    return main(list(argv))


@pytest.fixture
def lasso_files(tmp_path):
    d = tmp_path / "d.dsmx"
    y = tmp_path / "y.dsmx"
    assert run_cli("gen", "--kind", "pnoise", "--n", "40", "--k", "120",
                   "--seed", "5", "--out", str(d)) == 0
    assert run_cli("gen", "--kind", "pnoise", "--dict", str(d),
                   "--seed", "5", "--out", str(y)) == 0
    return d, y


class TestGen:
    def test_dsmx_header_contract(self, tmp_path):
        out = tmp_path / "d.dsmx"
        assert run_cli("gen", "--kind", "pnoise", "--n", "20", "--k", "60",
                       "--seed", "7", "--out", str(out)) == 0
        raw = out.read_bytes()
        assert raw[:4] == b"DSMX"
        assert int.from_bytes(raw[8:16], "little") == 20
        assert int.from_bytes(raw[16:24], "little") == 60
        manifest = json.loads((tmp_path / "d.dsmx.manifest.json").read_text())
        assert manifest["seed"] == 7 and manifest["kind"] == "pnoise"

    def test_same_flags_same_bytes(self, tmp_path):
        a, b = tmp_path / "a.dsmx", tmp_path / "b.dsmx"
        for out in (a, b):
            run_cli("gen", "--kind", "gaussian", "--n", "15", "--k", "30",
                    "--seed", "3", "--out", str(out))
        assert a.read_bytes() == b.read_bytes()

    def test_dct_undercomplete_fails(self, tmp_path):
        code = run_cli("gen", "--kind", "dct", "--n", "200", "--k", "100",
                       "--out", str(tmp_path / "bad.dsmx"))
        assert code != 0

    def test_env_seed_override(self, tmp_path, monkeypatch):
        monkeypatch.setenv("SCREENLAB_SEED", "42")
        out = tmp_path / "d.dsmx"
        run_cli("gen", "--kind", "gaussian", "--n", "10", "--k", "12", "--out", str(out))
        manifest = json.loads((tmp_path / "d.dsmx.manifest.json").read_text())
        assert manifest["seed"] == 42

    def test_group_file_generation(self, tmp_path):
        out = tmp_path / "g.txt"
        assert run_cli("gen", "--kind", "groups", "--k", "12", "--group-size", "3",
                       "--seed", "1", "--out", str(out)) == 0
        groups, weights = sl.read_group_file(out)
        assert len(groups) == 4
        assert np.allclose(weights, np.sqrt(3.0))
        # the same grouping as the library's random partition for that seed
        dic = sl.gen_dictionary(sl.GenSpec(kind="gaussian", n=5, k=12, seed=0))
        want = sl.random_partition(dic, 3, 1).groups
        assert [g.tolist() for g in groups] == [g.tolist() for g in want]

    def test_planted_observation_with_truth(self, tmp_path):
        d = tmp_path / "d.dsmx"
        g = tmp_path / "g.txt"
        y = tmp_path / "y.dsmx"
        run_cli("gen", "--kind", "gaussian", "--n", "20", "--k", "12", "--seed", "2", "--out", str(d))
        run_cli("gen", "--kind", "groups", "--k", "12", "--group-size", "3", "--seed", "2", "--out", str(g))
        assert run_cli("gen", "--kind", "bernoulli-gaussian-obs", "--dict", str(d),
                       "--groups", str(g), "--seed", "2", "--bernoulli-p", "0.4",
                       "--out", str(y)) == 0
        truth = read_dsmx(str(y) + ".truth.dsmx")
        assert truth.shape == (12, 1)
        assert np.linalg.norm(read_dsmx(y)) == pytest.approx(1.0, abs=1e-12)


class TestSolve:
    def test_trivial_ratio_reports_zero_iterations(self, lasso_files, capsys):
        d, y = lasso_files
        assert run_cli("solve", "--dict", str(d), "--obs", str(y),
                       "--lambda-ratio", "1.5", "--algo", "ista", "--strategy", "none") == 0
        out = capsys.readouterr().out
        assert "iterations  0" in out
        assert "screened    1.0000" in out

    def test_trace_kept_non_increasing(self, lasso_files, tmp_path, capsys):
        d, y = lasso_files
        trace = tmp_path / "tr.csv"
        assert run_cli("solve", "--dict", str(d), "--obs", str(y),
                       "--lambda-ratio", "0.7", "--algo", "fista",
                       "--strategy", "dynamic", "--test", "dst3",
                       "--trace", str(trace)) == 0
        lines = [l for l in trace.read_text().splitlines() if not l.startswith("#")]
        assert lines[0] == "t,kept,sparsity,objective,flops_cum,seconds"
        kept = [int(l.split(",")[1]) for l in lines[1:]]
        assert all(b <= a for a, b in zip(kept, kept[1:]))
        assert kept[-1] < 120

    def test_strategies_agree(self, lasso_files, capsys):
        d, y = lasso_files
        objs = {}
        for strategy, test in (("none", None), ("dynamic", "dst3")):
            argv = ["solve", "--dict", str(d), "--obs", str(y), "--lambda-ratio", "0.7",
                    "--algo", "fista", "--strategy", strategy,
                    "--max-iters", "2000", "--rel-tol", "1e-12"]
            if test:
                argv += ["--test", test]
            assert run_cli(*argv) == 0
            out = capsys.readouterr().out
            objs[strategy] = float(out.split("objective", 1)[1].split()[0])
        rel = abs(objs["none"] - objs["dynamic"]) / objs["dynamic"]
        assert rel <= 1e-6

    def test_incompatible_test_rejected(self, lasso_files):
        d, y = lasso_files
        with pytest.raises(SystemExit):
            run_cli("solve", "--dict", str(d), "--obs", str(y), "--lambda-ratio", "0.7",
                    "--algo", "ista", "--strategy", "dynamic", "--test", "gsafe")

    def test_lam_required(self, lasso_files):
        d, y = lasso_files
        with pytest.raises(SystemExit) as exc:
            run_cli("solve", "--dict", str(d), "--obs", str(y), "--algo", "ista")
        assert exc.value.code == 2

    def test_lam_and_ratio_exclusive(self, lasso_files, capsys):
        d, y = lasso_files
        with pytest.raises(SystemExit) as exc:
            run_cli("solve", "--dict", str(d), "--obs", str(y), "--algo", "ista",
                    "--lam", "100", "--lambda-ratio", "0.5")
        assert exc.value.code == 2
        assert "not allowed with argument" in capsys.readouterr().err

    def test_normalize_rescales_csv_input(self, tmp_path, capsys):
        rng = np.random.default_rng(0)
        mat = 3.0 * rng.standard_normal((10, 15))
        d = tmp_path / "d.csv"
        d.write_text("\n".join(",".join(f"{v!r}" for v in map(float, row)) for row in mat) + "\n")
        y = tmp_path / "y.csv"
        y.write_text("\n".join(f"{float(v)!r}" for v in rng.standard_normal(10)) + "\n")
        # raw columns are not unit norm, so the un-normalized path errors out
        assert run_cli("solve", "--dict", str(d), "--obs", str(y),
                       "--lambda-ratio", "0.7", "--algo", "ista") == 1
        capsys.readouterr()
        assert run_cli("solve", "--dict", str(d), "--obs", str(y),
                       "--lambda-ratio", "0.7", "--algo", "ista", "--normalize") == 0
        assert "objective" in capsys.readouterr().out

    def test_nan_in_csv_dictionary_names_file_and_entry(self, lasso_files, tmp_path, capsys):
        _, y = lasso_files
        mat = np.eye(4)[:, :3]
        mat[2, 1] = np.nan
        d = tmp_path / "d.csv"
        d.write_text("\n".join(",".join(f"{v!r}" for v in map(float, row)) for row in mat) + "\n")
        assert run_cli("solve", "--dict", str(d), "--obs", str(y),
                       "--lambda-ratio", "0.7", "--algo", "ista") == 1
        err = capsys.readouterr().err
        assert f"{d}: non-finite value nan at row 3, column 2" in err

    def test_inf_in_observation_names_file_and_entry(self, lasso_files, tmp_path, capsys):
        d, y = lasso_files
        obs = read_dsmx(str(y))
        obs[5, 0] = np.inf
        bad = tmp_path / "bad.dsmx"
        sl.write_dsmx(bad, obs)
        assert run_cli("solve", "--dict", str(d), "--obs", str(bad),
                       "--lambda-ratio", "0.7", "--algo", "ista") == 1
        err = capsys.readouterr().err
        assert f"{bad}: non-finite value inf at row 6, column 1" in err

    def test_non_finite_group_weight_names_file_and_line(self, lasso_files, tmp_path, capsys):
        d, y = lasso_files
        groups = tmp_path / "g.txt"
        for weight in ("nan", "inf"):
            lines = [f"1.0;{2 * i},{2 * i + 1}" for i in range(60)]
            lines[2] = f"{weight};4,5"
            groups.write_text("\n".join(lines) + "\n")
            assert run_cli("solve", "--dict", str(d), "--obs", str(y), "--groups", str(groups),
                           "--lambda-ratio", "0.7", "--algo", "fista",
                           "--strategy", "dynamic", "--test", "gsafe") == 1
            assert f"{groups}:3: bad weight" in capsys.readouterr().err

    def test_matrix_observation_names_file_and_shape(self, tmp_path, capsys):
        d, y = tmp_path / "d.dsmx", tmp_path / "y.dsmx"
        assert run_cli("gen", "--kind", "gaussian", "--n", "10", "--k", "20",
                       "--seed", "3", "--out", str(d)) == 0
        obs = np.arange(1.0, 11.0) / np.linalg.norm(np.arange(1.0, 11.0))
        argv = ["solve", "--dict", str(d), "--obs", str(y), "--lambda-ratio", "0.5",
                "--algo", "ista"]
        for shape in ((10, 1), (1, 10)):
            sl.write_dsmx(y, obs.reshape(shape))
            assert run_cli(*argv) == 0
        capsys.readouterr()
        sl.write_dsmx(y, obs.reshape(2, 5))
        assert run_cli(*argv) == 1
        assert f"{y}: observation must be one row or column, not (2, 5)" in capsys.readouterr().err

    @pytest.mark.parametrize("line,message", [
        ("4,5,4", "{path}:3: index 4 repeated"),
        ("4,130", "group 2: indices must lie in [0, 120), not 130"),
        ("1.0;2,3", "groups must be disjoint; 2 is in groups 1, 2"),
        ("0.0;4,5", "group 2: weight 0.0 must be finite and positive"),
    ])
    def test_group_file_errors_name_the_group(self, lasso_files, tmp_path, capsys, line, message):
        d, y = lasso_files
        groups = tmp_path / "g.txt"
        lines = [f"1.0;{2 * i},{2 * i + 1}" for i in range(60)]
        lines[2] = line
        groups.write_text("\n".join(lines) + "\n")
        assert run_cli("solve", "--dict", str(d), "--obs", str(y), "--groups", str(groups),
                       "--lambda-ratio", "0.7", "--algo", "fista") == 1
        assert message.format(path=groups) in capsys.readouterr().err


class TestBench:
    def test_single_cell_row_count(self, tmp_path):
        out = tmp_path / "b.csv"
        assert run_cli("bench", "--problem", "lasso", "--dict-kind", "gaussian",
                       "--n", "15", "--k", "30", "--algos", "ista",
                       "--strategies", "none", "--tests", "", "--ratios", "0.7",
                       "--seeds", "1,2,3", "--out", str(out)) == 0
        rows = [l for l in out.read_text().splitlines() if l and not l.startswith("#")]
        assert rows[0].startswith("seed,algo,strategy,test,lambda_ratio")
        assert len(rows) - 1 == 3

    def test_group_problem_bench(self, tmp_path):
        out = tmp_path / "bg.csv"
        assert run_cli("bench", "--problem", "group", "--dict-kind", "gaussian",
                       "--n", "20", "--k", "40", "--group-size", "4",
                       "--algos", "fista", "--strategies", "none,dynamic",
                       "--tests", "gst3", "--ratios", "0.5", "--seeds", "1,2",
                       "--out", str(out)) == 0
        rows = [l.split(",") for l in out.read_text().splitlines()
                if l and not l.startswith(("#", "seed"))]
        assert len(rows) == 4
        dyn = [r for r in rows if r[2] == "dynamic"]
        assert all(r[3] == "gst3" for r in dyn)
        assert all(0.0 <= float(r[9]) <= 1.0 for r in rows)

    def test_parallel_rows_match_serial(self, tmp_path):
        # seeds fanned out to worker processes give the serial rows, times aside
        outs = []
        for name, extra in (("serial.csv", ()), ("parallel.csv", ("--parallel",))):
            out = tmp_path / name
            assert run_cli("bench", "--problem", "lasso", "--dict-kind", "gaussian",
                           "--n", "15", "--k", "30", "--algos", "ista,cp",
                           "--strategies", "none,dynamic", "--tests", "safe,dst3",
                           "--ratios", "0.5,0.8", "--seeds", "1,2", "--out", str(out),
                           *extra) == 0
            comment, header, *rows = out.read_text().splitlines()
            assert header.split(",")[7] == "time_s"
            outs.append([comment, header] + [r.split(",")[:7] + r.split(",")[8:] for r in rows])
        serial, parallel = outs
        # seeds x ratios x algorithms x (none + two dynamic tests)
        assert len(serial) == 2 + 2 * 2 * 2 * 3
        assert parallel == serial

    def test_group_size_must_divide(self, tmp_path):
        with pytest.raises(SystemExit):
            run_cli("bench", "--problem", "group", "--n", "20", "--k", "40",
                    "--group-size", "3", "--tests", "gst3", "--ratios", "0.5",
                    "--seeds", "1", "--out", str(tmp_path / "b.csv"))

    def test_invalid_ratio_rejected(self, tmp_path):
        with pytest.raises(SystemExit):
            run_cli("bench", "--problem", "lasso", "--n", "15", "--k", "30",
                    "--ratios", "1.5", "--seeds", "1", "--out", str(tmp_path / "b.csv"))

    def test_bench_and_report_round_trip(self, tmp_path):
        bench = tmp_path / "b.csv"
        report = tmp_path / "r.csv"
        svg = tmp_path / "r.svg"
        assert run_cli("bench", "--problem", "lasso", "--dict-kind", "pnoise",
                       "--n", "30", "--k", "90", "--algos", "fista",
                       "--strategies", "none,static,dynamic", "--tests", "dst3",
                       "--ratios", "0.6,0.8", "--seeds", "1,2", "--out", str(bench)) == 0
        assert run_cli("report", "--input", str(bench), "--out", str(report),
                       "--svg", str(svg)) == 0
        lines = [l for l in report.read_text().splitlines() if not l.startswith("#")]
        header = lines[0].split(",")
        assert header[:4] == ["algo", "strategy", "test", "lambda_ratio"]
        # two strategies x two ratios
        assert len(lines) - 1 == 4
        # normalization pairs rows against the none baseline of the same cell
        bench_rows = [l.split(",") for l in bench.read_text().splitlines()
                      if l and not l.startswith(("#", "seed"))]
        flops = {(r[0], r[2], r[4]): int(r[6]) for r in bench_rows}
        rep = {tuple(l.split(",")[:4]): l.split(",") for l in lines[1:]}
        key = ("fista", "static", "dst3", "0.6")
        med = float(rep[key][6])
        samples = sorted(
            flops[(s, "static", "0.6")] / flops[(s, "none", "0.6")] for s in ("1", "2")
        )
        assert med == pytest.approx(0.5 * (samples[0] + samples[1]), rel=1e-12)
        # svg parses as xml and contains plotted series
        tree = ET.parse(svg)
        assert tree.getroot().tag.endswith("svg")
        assert svg.read_text().count("polyline") >= 2

    def test_report_single_row_percentiles_collapse(self, tmp_path):
        bench = tmp_path / "b.csv"
        report = tmp_path / "r.csv"
        bench.write_text(
            "seed,algo,strategy,test,lambda_ratio,iters,flops,time_s,final_obj,screened_frac\n"
            "1,ista,none,-,0.5,10,1000,2.0,0.4,0.0\n"
            "1,ista,dynamic,safe,0.5,10,400,1.0,0.4,0.5\n"
        )
        assert run_cli("report", "--input", str(bench), "--out", str(report)) == 0
        row = [l for l in report.read_text().splitlines() if not l.startswith(("#", "algo"))][0]
        cols = row.split(",")
        assert float(cols[5]) == float(cols[6]) == float(cols[7]) == 0.4
        assert float(cols[8]) == float(cols[9]) == float(cols[10]) == 0.5

    def test_report_rejects_malformed(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("not,a,bench\n1,2,3\n")
        with pytest.raises(SystemExit):
            run_cli("report", "--input", str(bad), "--out", str(tmp_path / "r.csv"))

    def test_report_requires_baseline(self, tmp_path):
        bench = tmp_path / "b.csv"
        bench.write_text(
            "seed,algo,strategy,test,lambda_ratio,iters,flops,time_s,final_obj,screened_frac\n"
            "1,ista,dynamic,safe,0.5,10,400,1.0,0.4,0.5\n"
        )
        with pytest.raises(SystemExit):
            run_cli("report", "--input", str(bench), "--out", str(tmp_path / "r.csv"))
