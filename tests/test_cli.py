import itertools
import json
from pathlib import Path

import pytest

from hopcompress import Graph, builtin, write_edge_list
from hopcompress.cli import main


def write_graph(path, g):
    with open(path, "w", encoding="utf-8") as handle:
        write_edge_list(g, handle)


@pytest.fixture
def triangle_file(tmp_path):
    path = tmp_path / "triangle.txt"
    write_graph(path, builtin("triangle"))
    return str(path)


@pytest.fixture
def zachary_file(tmp_path):
    path = tmp_path / "zachary.txt"
    write_graph(path, builtin("zachary"))
    return str(path)


class TestCompress:
    def test_zachary_ratio_reported(self, zachary_file, tmp_path, capsys):
        out = tmp_path / "out.txt"
        code = main(
            [
                "compress",
                zachary_file,
                "--p",
                "0.5,1.0",
                "--ordering",
                "random",
                "--seed",
                "1",
                "-o",
                str(out),
            ]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["n"] == 34 and payload["m"] == 78
        assert payload["verified"] is True
        assert 0.15 <= payload["ratio"] <= 0.45
        assert out.exists()

    def test_identity_compression(self, triangle_file, tmp_path, capsys):
        out = tmp_path / "kept.txt"
        code = main(["compress", triangle_file, "--p", "1.0", "-o", str(out)])
        assert code == 0
        assert out.read_text() == Path(triangle_file).read_text()

    def test_non_monotone_p_is_config_error(self, triangle_file):
        assert main(["compress", triangle_file, "--p", "0.9,0.5"]) == 1

    @pytest.mark.parametrize(
        "option",
        [
            ("--sa-t0", "nan"),
            ("--sa-t0", "inf"),
            ("--sa-t0", "0"),
            ("--sa-alpha", "1"),
            ("--sa-iters", "-1"),
        ],
        ids=" ".join,
    )
    def test_invalid_sa_params_is_config_error(self, triangle_file, option, capsys):
        code = main(["compress", triangle_file, "--p", "0,1", "--ordering", "sa", *option])
        assert code == 1
        assert capsys.readouterr().err.startswith("error: invalid SA parameters: ")

    def test_sa_survives_temperature_underflow(self, capsys):
        # T reaches 0.0 after about 1080 trials at alpha=0.5
        args = ["compress", "zachary", "--p", "0,1/2", "--ordering", "sa"]
        assert main(args + ["--sa-alpha", "0.5", "--sa-iters", "1200"]) == 0
        assert json.loads(capsys.readouterr().out)["verified"] is True

    def test_missing_input_is_io_error(self):
        assert main(["compress", "/nonexistent/g.txt", "--p", "1"]) == 2

    def test_report_written(self, triangle_file, tmp_path):
        report = tmp_path / "report.json"
        code = main(
            ["compress", triangle_file, "--p", "0,1", "--report", str(report)]
        )
        assert code == 0
        assert json.loads(report.read_text())["t"] == 2

    def test_deterministic_outputs(self, zachary_file, tmp_path, capsys):
        outs = []
        for name in ("a.txt", "b.txt"):
            out = tmp_path / name
            assert (
                main(
                    [
                        "compress",
                        zachary_file,
                        "--p",
                        "0.5,1",
                        "--seed",
                        "7",
                        "-o",
                        str(out),
                    ]
                )
                == 0
            )
            outs.append(out.read_bytes())
        capsys.readouterr()
        assert outs[0] == outs[1]

    def test_sa_ordering(self, triangle_file, capsys):
        code = main(
            [
                "compress",
                triangle_file,
                "--p",
                "0,1",
                "--ordering",
                "sa",
                "--sa-iters",
                "30",
            ]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["strategy"] == "sa"
        assert payload["kept"] == 2

    def test_report_keys_and_lp_iterations(self, zachary_file, tmp_path, capsys):
        documented = {
            "input", "n", "m", "kept", "ratio", "ratio_exact", "p", "t", "strategy", "seed",
            "seconds", "verified",
        }
        reports = {}
        for ordering in ("lp", "random"):
            path = tmp_path / f"{ordering}.json"
            args = ["compress", zachary_file, "--p", "1/2,1", "--ordering", ordering]
            assert main(args + ["--report", str(path)]) == 0
            reports[ordering] = json.loads(path.read_text())
        capsys.readouterr()
        assert set(reports["lp"]) == documented | {"lp_iterations"}
        assert reports["lp"]["lp_iterations"] > 0
        assert set(reports["random"]) == documented

    def test_lp_iteration_limit_is_config_error(self, triangle_file, lp_iteration_limit, capsys):
        code = main(["compress", triangle_file, "--p", "1", "--ordering", "lp"])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: HiGHS ended with status kIterationLimit ")
        assert "use the ec or random ordering" in err
        assert "Traceback" not in err

    def test_lp_broken_row_is_config_error(self, triangle_file, lp_broken_row, capsys):
        code = main(["compress", triangle_file, "--p", "1", "--ordering", "lp"])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: LP solution violates row ")
        assert "use the ec or random ordering" in err and "Traceback" not in err


class TestVerify:
    def test_roundtrip_after_compress(self, zachary_file, tmp_path, capsys):
        out = tmp_path / "gc.txt"
        assert (
            main(["compress", zachary_file, "--p", "0.5,1", "-o", str(out)]) == 0
        )
        capsys.readouterr()
        assert main(["verify", zachary_file, str(out), "--p", "0.5,1"]) == 0
        assert capsys.readouterr().out.strip() == "ok"

    def test_spanner_pair_ok(self, triangle_file, tmp_path):
        gc = tmp_path / "gc.txt"
        write_graph(gc, Graph.from_edges(3, [(0, 1), (0, 2)]))
        assert main(["verify", triangle_file, str(gc), "--p", "0,1"]) == 0

    def test_violation_listed(self, triangle_file, tmp_path, capsys):
        gc = tmp_path / "gc.txt"
        write_graph(gc, Graph.from_edges(2, [(0, 1)]))
        code = main(["verify", triangle_file, str(gc), "--p", "0,1"])
        assert code == 4
        out = capsys.readouterr().out
        assert "vertex 2" in out and "level 2" in out

    def test_extra_edge_named(self, tmp_path, capsys):
        original = tmp_path / "g.txt"
        write_graph(original, Graph.from_edges(3, [(0, 1), (1, 2)]))
        gc = tmp_path / "gc.txt"
        gc.write_text("0 2\n")
        code = main(["verify", str(original), str(gc), "--p", "1"])
        assert code == 4
        assert "(0, 2)" in capsys.readouterr().out


class TestGenAndEval:
    def test_gen_writes_count_files(self, tmp_path):
        outdir = tmp_path / "instances"
        code = main(
            ["gen", str(outdir), "--n", "10", "--m", "15", "--count", "4", "--seed", "5"]
        )
        assert code == 0
        files = sorted(outdir.glob("*.txt"))
        assert len(files) == 4
        for f in files:
            assert len(f.read_text().splitlines()) == 15

    def test_gen_rejects_overfull(self, tmp_path):
        assert main(["gen", str(tmp_path), "--n", "4", "--m", "10"]) == 1

    @pytest.mark.parametrize(("n", "m", "field"), [("-1", "0", "n"), ("5", "-1", "m")])
    def test_gen_rejects_negative_size(self, n, m, field, tmp_path, capsys):
        assert main(["gen", str(tmp_path), "--n", n, "--m", m]) == 1
        assert capsys.readouterr().err == f"error: {field} must be >= 0\n"

    def test_sp_hist_single_graph(self, triangle_file, capsys):
        assert main(["eval", "sp-hist", triangle_file]) == 0
        out = capsys.readouterr().out
        assert "pairs" in out and "disc" in out

    def test_sp_hist_two_columns(self, triangle_file, tmp_path, capsys):
        gc = tmp_path / "gc.txt"
        write_graph(gc, Graph.from_edges(3, [(0, 1), (0, 2)]))
        code = main(["eval", "sp-hist", triangle_file, str(gc)])
        assert code == 0
        out = capsys.readouterr().out
        assert "original" in out and "compressed" in out
        assert "speed-up" in out

    def test_stretch(self, triangle_file, tmp_path, capsys):
        gc = tmp_path / "gc.txt"
        write_graph(gc, Graph.from_edges(3, [(0, 1), (0, 2)]))
        assert main(["eval", "stretch", triangle_file, str(gc), "--t", "2"]) == 0
        assert "max stretch: 2" in capsys.readouterr().out

    def test_ratio(self, triangle_file, tmp_path, capsys):
        gc = tmp_path / "gc.txt"
        write_graph(gc, Graph.from_edges(3, [(0, 1), (0, 2)]))
        assert main(["eval", "ratio", triangle_file, str(gc)]) == 0
        assert "1/3" in capsys.readouterr().out

    @pytest.fixture
    def zachary_p0(self, zachary_file, tmp_path, capsys):
        """At p=0 every edge goes: the compressed file is empty, and its
        34 vertices are isolated."""
        out = tmp_path / "z0.txt"
        assert main(["compress", zachary_file, "--p", "0", "-o", str(out)]) == 0
        capsys.readouterr()
        assert out.read_text() == ""
        return str(out)

    def test_ratio_with_isolated_vertices(self, zachary_file, zachary_p0, capsys):
        assert main(["eval", "ratio", zachary_file, zachary_p0]) == 0
        assert capsys.readouterr().out == "1.0000 (1)\n"

    def test_stretch_rejects_t_below_one(self, triangle_file, capsys):
        assert main(["eval", "stretch", triangle_file, triangle_file, "--t", "0"]) == 1
        assert capsys.readouterr() == ("", "error: t must be >= 1\n")

    def test_stretch_with_isolated_vertices(self, zachary_file, zachary_p0, capsys):
        assert main(["eval", "stretch", zachary_file, zachary_p0, "--t", "1"]) == 4
        assert capsys.readouterr() == ("ok: False  max stretch: inf\n", "")

    def test_sp_hist_with_isolated_vertices(self, zachary_file, zachary_p0, capsys):
        assert main(["eval", "sp-hist", zachary_file, zachary_p0]) == 0
        out = capsys.readouterr().out
        assert f"{'disc':>8} {0:>12} {34 * 33 // 2:>12}\n" in out

    @pytest.mark.parametrize("metric", [["sp-hist"], ["stretch", "--t", "2"], ["ratio"]])
    @pytest.mark.parametrize(
        "edge, fault",
        [("10 70", "uses a vertex absent from the original"), ("10 30", "is not present in the original graph")],
    )
    def test_foreign_edge_named_by_labels(self, metric, edge, fault, tmp_path, capsys):
        original = tmp_path / "g.txt"
        original.write_text("10 20\n20 30\n")
        gc = tmp_path / "gc.txt"
        gc.write_text(edge + "\n")
        assert main(["eval", metric[0], str(original), str(gc), *metric[1:]]) == 1
        lu, lv = edge.split()
        assert capsys.readouterr().err == f"error: edge ({lu}, {lv}) {fault}\n"


class TestBench:
    def test_table_and_report(self, tmp_path, capsys):
        report = tmp_path / "bench.json"
        code = main(
            [
                "bench",
                "--family",
                "8,12,3",
                "--p",
                "0,1",
                "--strategies",
                "basic,ec",
                "--seed",
                "4",
                "--sa-iters",
                "10",
                "--report",
                str(report),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "basic-random" in out and "ec" in out
        payload = json.loads(report.read_text())
        assert payload["trials"] == 3
        assert payload["seed_list"] == [4, 5, 6]

    def test_lp_iteration_limit_is_config_error(self, lp_iteration_limit, capsys):
        code = main(["bench", "--family", "10,15,2", "--p", "1", "--strategies", "lp", "--jobs", "1"])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: HiGHS ended with status kIterationLimit ")
        assert "use the ec or random ordering" in err
        assert "Traceback" not in err

    def test_lp_broken_row_is_config_error(self, lp_broken_row, capsys):
        code = main(["bench", "--family", "10,15,2", "--p", "1", "--strategies", "lp", "--jobs", "1"])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: LP solution violates row ")
        assert "use the ec or random ordering" in err and "Traceback" not in err

    def test_jobs_do_not_change_the_report(self, tmp_path, capsys):
        payloads = []
        for jobs in ("1", "2"):
            path = tmp_path / f"jobs{jobs}.json"
            args = ["bench", "--family", "9,16,4", "--p", "0,1/2", "--strategies", "basic,lp,ec,sa"]
            args += ["--sa-iters", "40", "--seed", "3", "--jobs", jobs, "--report", str(path)]
            assert main(args) == 0
            payload = json.loads(path.read_text())
            for row in payload["strategies"]:
                row.pop("mean_seconds")
            payloads.append(json.dumps(payload, sort_keys=True))
        capsys.readouterr()
        assert payloads[0] == payloads[1]

    def test_bad_family_string(self):
        assert main(["bench", "--family", "8,12", "--p", "1"]) == 1

    def test_negative_family_size(self, capsys):
        assert main(["bench", "--family", "5,-1,1", "--p", "1"]) == 1
        assert capsys.readouterr().err == "error: invalid --family value '5,-1,1': m must be >= 0\n"

    def test_jobs_env_override(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("HOPCOMPRESS_JOBS", "2")
        code = main(
            ["bench", "--family", "6,8,2", "--p", "0,1", "--strategies", "basic"]
        )
        assert code == 0


class TestEdgeCases:
    @pytest.fixture(params=["", "# comments only\n\n# no edges\n"], ids=["empty", "comments-only"])
    def edgeless_file(self, request, tmp_path):
        path = tmp_path / "edgeless.txt"
        path.write_text(request.param)
        return str(path)

    @pytest.mark.parametrize(
        "command, code",
        [
            (["compress", "{g}", "--p", "1/2,1", "--ordering", "random"], 0),
            (["compress", "{g}", "--p", "1/2,1", "--ordering", "ec"], 0),
            (["compress", "{g}", "--p", "1/2,1", "--ordering", "sa"], 0),
            (["verify", "{g}", "{g}", "--p", "1/2,1"], 0),
            (["eval", "sp-hist", "{g}"], 0),
            (["eval", "stretch", "{g}", "{g}", "--t", "2"], 0),
            (["eval", "ratio", "{g}", "{g}"], 1),
        ],
    )
    def test_edgeless_input(self, edgeless_file, command, code, capsys):
        assert main([arg.format(g=edgeless_file) for arg in command]) == code
        err = capsys.readouterr().err
        assert "Traceback" not in err
        if code:
            assert err == "error: compression ratio undefined for an edgeless graph\n"

    def test_edgeless_family_bench(self, capsys):
        code = main(["bench", "--family", "5,0,2", "--p", "1", "--strategies", "basic,ec,sa", "--sa-iters", "10"])
        assert code == 0
        out, err = capsys.readouterr()
        assert "Traceback" not in err
        for strategy in ("basic-random", "ec", "sa"):
            assert f"{strategy:<14} {0:>12.2f}" in out

    @pytest.mark.parametrize(
        "command",
        [
            ["compress", "{bad}", "--p", "1"],
            ["verify", "{good}", "{bad}", "--p", "1"],
            ["eval", "sp-hist", "{bad}"],
        ],
        ids=["compress", "verify", "eval"],
    )
    def test_non_utf8_input_is_config_error(self, triangle_file, tmp_path, command, capsys):
        bad = tmp_path / "bad.txt"
        bad.write_bytes(b"1 2\n\xff 3\n")
        assert main([arg.format(good=triangle_file, bad=bad) for arg in command]) == 1
        out, err = capsys.readouterr()
        assert out == "" and "Traceback" not in err
        assert err.startswith(f"error: {bad}: 'utf-8' codec can't decode byte 0xff")
        assert err.count("\n") == 1

    def test_empty_graph_roundtrip(self, tmp_path, capsys):
        empty = tmp_path / "empty.txt"
        empty.write_text("# nothing here\n")
        out = tmp_path / "gc.txt"
        assert main(["compress", str(empty), "--p", "0,1", "-o", str(out)]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["n"] == 0 and payload["kept"] == 0
        assert main(["verify", str(empty), str(out), "--p", "0,1"]) == 0

    def test_empty_graph_lp_ordering(self, tmp_path, capsys):
        empty = tmp_path / "empty.txt"
        empty.write_text("")
        assert main(["compress", str(empty), "--p", "1/2,1", "--ordering", "lp"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert (payload["m"], payload["kept"], payload["lp_iterations"]) == (0, 0, 0)

    @pytest.mark.parametrize("family", ["5,0,2", "0,0,2"])
    def test_edgeless_family_lp_bench(self, family, capsys):
        assert main(["bench", "--family", family, "--p", "1", "--strategies", "lp"]) == 0
        assert "lp                     0.00" in capsys.readouterr().out

    def test_lp_path_budget_is_config_error(self, tmp_path, capsys, path_enumerations):
        k60 = tmp_path / "k60.txt"
        write_graph(k60, Graph.from_edges(60, list(itertools.combinations(range(60), 2))))
        code = main(["compress", str(k60), "--p", "0,0,1/2", "--ordering", "lp"])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: more than ") and "use the ec or random ordering" in err


class TestArgumentHandling:
    def test_unknown_strategy_is_config_error(self, triangle_file):
        assert main(["compress", triangle_file, "--p", "1", "--ordering", "bogus"]) == 1

    def test_missing_subcommand(self):
        assert main([]) == 1

    def test_builtin_names_accepted(self, capsys):
        assert main(["compress", "zachary", "--p", "1"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["m"] == 78
