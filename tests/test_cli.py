import io
import itertools
import json
import tracemalloc
import warnings
from concurrent.futures.process import BrokenProcessPool
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from hopcompress import Graph, SaParams, builtin, gen_gnm, write_edge_list
from hopcompress.cli import build_parser, main
from hopcompress.compress import VerificationReport, Violation


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

    def test_ec_scan_budget_is_config_error(self, zachary_file, monkeypatch, capsys):
        monkeypatch.setattr("hopcompress.graph.MAX_PATH_SCANS", 100)
        assert main(["compress", zachary_file, "--p", "0,0,1/2", "--ordering", "ec"]) == 1
        err = capsys.readouterr().err
        assert err.startswith(
            "error: more than 100 adjacency entries to scan for paths of at most 3 edges "
            "exceed the path-search guard;"
        )
        assert "Traceback" not in err

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

    def test_sa_past_its_work_guard(self, capsys):
        args = ["compress", "triangle", "--p", "1/2", "--ordering", "sa"]
        assert main(args + ["--sa-iters", "1000000000"]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: 1000000000 annealing trials over 3 edges exceed")
        assert err.count("\n") == 1

    def test_missing_input_is_io_error(self):
        assert main(["compress", "/nonexistent/g.txt", "--p", "1"]) == 2

    def test_sa_params_checked_before_the_input_is_read(self, capsys):
        assert main(["compress", "/nonexistent/g.txt", "--p", "1/2", "--sa-t0", "0"]) == 1
        assert capsys.readouterr().err == "error: invalid SA parameters: t0 must be positive and finite\n"

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

    def test_four_level_lp_order_verifies(self, capsys):
        # the builtin graph at t = 4: 2 699 paths from the depth-first search
        assert main(["compress", "zachary", "--p", "0,0,0,1/2", "--ordering", "lp"]) == 0
        assert json.loads(capsys.readouterr().out)["verified"] is True

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

    @pytest.mark.parametrize("option", ["-o", "--report"])
    def test_unwritable_path_is_io_error(self, triangle_file, tmp_path, option, capsys):
        target = tmp_path / "missing" / "out.txt"
        assert main(["compress", triangle_file, "--p", "1", option, str(target)]) == 2
        assert capsys.readouterr().err.startswith(f"error: cannot write {target}: ")

    @pytest.mark.parametrize("p", ["one", "none", "half"])
    def test_word_proportion_is_not_an_exponent(self, p, capsys):
        assert main(["compress", "zachary", "--p", p]) == 1
        err = capsys.readouterr().err
        assert err == f"error: invalid --p value {p!r}: Invalid literal for Fraction: {p!r}\n"

    def test_unsound_output_is_internal_error(self, monkeypatch, capsys):
        broken = VerificationReport((Violation(vertex=5, level=2, required=Fraction(3), achieved=1),))
        monkeypatch.setattr("hopcompress.cli.verify", lambda *args: broken)
        assert main(["compress", "zachary", "--p", "1/2,1"]) == 3
        err = capsys.readouterr().err
        assert err == (
            "internal error: output fails verification (vertex 5: 1 of its neighbors "
            "within 2 hop(s), needs at least 3)\n"
        )

    def test_unsound_output_names_the_input_vertex(self, tmp_path, monkeypatch, capsys):
        path = tmp_path / "labelled.txt"
        path.write_text("10 20\n20 30\n")
        broken = VerificationReport((Violation(vertex=0, level=1, required=Fraction(1), achieved=0),))
        monkeypatch.setattr("hopcompress.cli.verify", lambda *args: broken)
        assert main(["compress", str(path), "--p", "1"]) == 3
        err = capsys.readouterr().err
        assert err == (
            "internal error: output fails verification (vertex 10: 0 of its neighbors "
            "within 1 hop(s), needs at least 1)\n"
        )

    def test_duplicate_edge_is_one_warning_line(self, tmp_path, capsys):
        path = tmp_path / "repeat.txt"
        path.write_text("0 1\n1 0\n1 2\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a warning escaping main would raise
            assert main(["compress", str(path), "--p", "1"]) == 0
        assert capsys.readouterr().err == f"warning: {path}: collapsed 1 duplicate edge(s)\n"


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

    def test_duplicate_edge_in_the_compressed_file_is_named(self, triangle_file, tmp_path, capsys):
        path = tmp_path / "repeat.txt"
        path.write_text("0 1\n1 0\n1 2\n0 2\n")
        assert main(["verify", triangle_file, str(path), "--p", "1"]) == 0
        assert capsys.readouterr() == ("ok\n", f"warning: {path}: collapsed 1 duplicate edge(s)\n")


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

    @pytest.mark.parametrize(
        ("n", "m", "seed"), [(20, 60, 1000), (200, 1000, 3), (7, 21, 0), (0, 0, 0), (5, 0, 1)]
    )
    def test_gen_writes_the_edge_list_of_gen_gnm(self, n, m, seed, tmp_path):
        assert main(["gen", str(tmp_path), "--n", str(n), "--m", str(m), "--seed", str(seed)]) == 0
        expected = io.StringIO()
        write_edge_list(gen_gnm(n, m, seed), expected)
        assert (tmp_path / f"gnm_n{n}_m{m}_000.txt").read_text() == expected.getvalue()

    def test_gen_allocates_nothing_per_vertex(self, tmp_path):
        # near the most vertices whose n(n-1)/2 pairs random.sample can
        # index (~4.29e9); one byte per vertex would be 4 GB
        n = 4_000_000_000
        tracemalloc.start()
        try:
            assert main(["gen", str(tmp_path), "--n", str(n), "--m", "3"]) == 0
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000
        assert len((tmp_path / f"gnm_n{n}_m3_000.txt").read_text().splitlines()) == 3

    def test_gen_rejects_overfull(self, tmp_path):
        assert main(["gen", str(tmp_path), "--n", "4", "--m", "10"]) == 1

    def test_gen_rejects_more_pairs_than_maxsize(self, tmp_path, capsys):
        # n(n-1)/2 past sys.maxsize used to end in random.sample's OverflowError
        assert main(["gen", str(tmp_path / "out"), "--n", "1000000000000", "--m", "1"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: n=1000000000000 has ") and err.count("\n") == 1
        assert not (tmp_path / "out").exists()

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

    def test_sp_hist_reads_the_compressed_file_first(self, tmp_path, monkeypatch, capsys):
        def no_metric(g):
            raise AssertionError("sp_histogram ran before the compressed file was read")

        monkeypatch.setattr("hopcompress.cli.sp_histogram", no_metric)
        original = tmp_path / "g.txt"
        original.write_text("0 1\n1 2\n")
        assert main(["eval", "sp-hist", str(original), str(tmp_path / "missing.txt")]) == 2
        assert capsys.readouterr().err.startswith("error: cannot read ")
        foreign = tmp_path / "gc.txt"
        foreign.write_text("0 2\n")
        assert main(["eval", "sp-hist", str(original), str(foreign)]) == 1
        assert capsys.readouterr().err == "error: edge (0, 2) is not present in the original graph\n"


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

    def test_unsound_output_is_internal_error(self, monkeypatch, capsys):
        broken = VerificationReport((Violation(vertex=5, level=1, required=Fraction(2), achieved=1),))
        monkeypatch.setattr("hopcompress.evaluate.verify", lambda *args: broken)
        code = main(["bench", "--family", "8,12,2", "--p", "1", "--strategies", "basic", "--jobs", "1"])
        assert code == 3
        err = capsys.readouterr().err
        assert err.startswith("internal error: soundness violation: strategy basic-random seed 0 ")
        assert err.endswith("first: vertex 5: 1 of its neighbors within 1 hop(s), needs at least 2\n")

    def test_broken_process_pool_is_not_an_internal_error(self, monkeypatch, capsys):
        # a worker killed from outside (the OOM killer, say) is no self-check failure
        def broken(*args, **kwargs):
            raise BrokenProcessPool("A process in the process pool was terminated abruptly")

        monkeypatch.setattr("hopcompress.evaluate.run_strategy", broken)
        with pytest.raises(BrokenProcessPool):
            main(["bench", "--family", "8,12,2", "--p", "1", "--strategies", "basic"])
        assert "internal error" not in capsys.readouterr().err

    def test_bad_family_string(self):
        assert main(["bench", "--family", "8,12", "--p", "1"]) == 1

    def test_negative_family_size(self, capsys):
        assert main(["bench", "--family", "5,-1,1", "--p", "1"]) == 1
        assert capsys.readouterr().err == "error: invalid --family value '5,-1,1': m must be >= 0\n"

    @pytest.mark.parametrize(
        "strategies, message",
        [
            ("", "no strategy given"),
            (",", "no strategy given"),
            ("basic,random", "strategy 'basic-random' named more than once"),
        ],
        ids=["empty", "comma", "alias"],
    )
    def test_empty_or_repeated_strategies_are_config_errors(self, strategies, message, capsys):
        args = ["bench", "--family", "6,8,2", "--p", "1", "--strategies", strategies]
        assert main(args) == 1
        assert capsys.readouterr() == ("", f"error: {message}\n")

    @pytest.mark.parametrize("jobs", ["-3", "0"], ids=["flag", "flag-zero"])
    def test_jobs_below_one_are_config_errors(self, jobs, capsys):
        args = ["bench", "--family", "6,8,2", "--p", "1", "--strategies", "basic", "--jobs", jobs]
        assert main(args) == 1
        assert capsys.readouterr() == ("", f"error: jobs must be >= 1, got {jobs}\n")

    def test_family_with_more_pairs_than_maxsize(self, capsys):
        assert main(["bench", "--family", "1000000000000,1,1", "--p", "1"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: invalid --family value '1000000000000,1,1': n=1000000000000 has ")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("n", ["1000001", "4294967296"])
    def test_family_past_the_vertex_guard(self, n, monkeypatch, capsys):
        # n = 2**32 passes the (n, m) check; its instances would need hundreds of GB
        def no_instance(*args):
            raise AssertionError("an instance was built")

        monkeypatch.setattr("hopcompress.evaluate.gen_gnm", no_instance)
        assert main(["bench", "--family", f"{n},1,1", "--p", "0,1/2", "--strategies", "basic"]) == 1
        message = f"error: n={n} exceeds the bench guard of 1000000 vertices\n"
        assert capsys.readouterr() == ("", message)
        assert main(["bench", "--family", "4294967297,1,1", "--p", "0,1/2"]) == 1
        assert capsys.readouterr().err.startswith(
            "error: invalid --family value '4294967297,1,1': n=4294967297 has "
        )


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
        k30 = tmp_path / "k30.txt"
        write_graph(k30, Graph.from_edges(30, list(itertools.combinations(range(30), 2))))
        code = main(["compress", str(k30), "--p", "0,0,1/2", "--ordering", "lp"])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: more than ") and "use the ec or random ordering" in err


class TestArgumentHandling:
    def test_unknown_strategy_is_config_error(self, triangle_file):
        assert main(["compress", triangle_file, "--p", "1", "--ordering", "bogus"]) == 1

    def test_missing_subcommand(self):
        assert main([]) == 1

    @pytest.mark.parametrize(
        "argv, reason",
        [
            (["compress", "zachary"], "hopcompress compress: error: the following arguments are required: --p"),
            (
                ["bench", "--family", "20,60,2", "--p", "1", "--jobs", "x"],
                "hopcompress bench: error: argument --jobs: invalid int value: 'x'",
            ),
        ],
        ids=["missing-p", "jobs-not-int"],
    )
    def test_usage_error_prints_its_reason(self, argv, reason, capsys):
        assert main(argv) == 1
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("usage: ") and err.splitlines()[-1] == reason

    @pytest.mark.parametrize(
        "argv, option, value",
        [
            (["compress", "triangle", "--p", "1", "--seed", " 3"], "--seed", " 3"),
            (["compress", "triangle", "--p", "1", "--sa-iters", "1_0"], "--sa-iters", "1_0"),
            (["gen", "@gen", "--n", "\u0663", "--m", "1"], "--n", "\u0663"),
            (["gen", "@gen", "--n", "3", "--m", "+1"], "--m", "+1"),
            (["gen", "@gen", "--n", "3", "--m", "1", "--count", "1_0"], "--count", "1_0"),
            (["gen", "@gen", "--n", "3", "--m", "1", "--seed", "+2"], "--seed", "+2"),
            (["eval", "stretch", "triangle", "triangle", "--t", "1_0"], "--t", "1_0"),
            (["bench", "--family", "1_0,2,1", "--p", "1"], "--family", "1_0"),
            (["bench", "--family", "10,+2,1", "--p", "1"], "--family", "+2"),
            (["bench", "--family", "10,2, 1", "--p", "1"], "--family", " 1"),
            (["bench", "--family", "10,2,1", "--p", "1", "--seed", "\u0661"], "--seed", "\u0661"),
            (["bench", "--family", "10,2,1", "--p", "1", "--jobs", "1_0"], "--jobs", "1_0"),
        ],
        ids=["compress-seed", "sa-iters", "gen-n", "gen-m", "gen-count", "gen-seed", "stretch-t",
             "family-n", "family-m", "family-count", "bench-seed", "jobs"],
    )
    def test_integer_options_take_ascii_digits_only(self, argv, option, value, tmp_path, capsys):
        argv = [str(tmp_path / arg[1:]) if arg.startswith("@") else arg for arg in argv]
        prog = " ".join(["hopcompress", *argv[: 2 if argv[0] == "eval" else 1]])
        assert main(argv) == 1
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("usage: ")
        reason = f"{prog}: error: argument {option}: invalid int value: {value!r}"
        assert err.splitlines()[-1] == reason
        assert not (tmp_path / "gen").exists()

    @pytest.mark.parametrize(
        "command",
        [["compress", "triangle", "--ordering", "sa"], ["bench", "--family", "5,4,1", "--strategies", "sa"]],
        ids=lambda command: command[0],
    )
    @pytest.mark.parametrize(
        "option, value",
        [
            ("--sa-t0", "1_0"),
            ("--sa-t0", "+10"),
            ("--sa-t0", " 10"),
            ("--sa-t0", "\u0661\u0660"),
            ("--sa-alpha", "0.9_9"),
            ("--sa-alpha", "+0.5"),
            ("--sa-alpha", "0.5 "),
            ("--sa-alpha", "Infinity"),
        ],
    )
    def test_float_options_take_ascii_spellings_only(self, command, option, value, capsys):
        assert main([*command, "--p", "1", option, value]) == 1
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("usage: ")
        reason = f"hopcompress {command[0]}: error: argument {option}: invalid float value: {value!r}"
        assert err.splitlines()[-1] == reason

    @pytest.mark.parametrize(
        "text, value",
        [("10", 10.0), ("0.5", 0.5), (".5", 0.5), ("5.", 5.0), ("-1", -1.0), ("1e-1", 0.1), ("2E+1", 20.0)],
    )
    def test_float_options_take_decimals(self, text, value):
        args = build_parser().parse_args(["compress", "zachary", "--p", "1", "--sa-t0", text, "--sa-alpha", text])
        assert args.sa_t0 == args.sa_alpha == value

    def test_family_needs_three_fields(self, capsys):
        assert main(["bench", "--family", "8,12", "--p", "1"]) == 1
        err = capsys.readouterr().err
        reason = "hopcompress bench: error: argument --family: expected N,M,COUNT, got '8,12'"
        assert err.splitlines()[-1] == reason

    @pytest.mark.parametrize("argv", [["compress", "zachary"], ["bench", "--family", "5,4,1"]])
    def test_sa_defaults_are_sa_params(self, argv):
        args = build_parser().parse_args(argv + ["--p", "1"])
        defaults = SaParams()
        assert (args.sa_iters, args.sa_t0, args.sa_alpha) == (
            defaults.iterations, defaults.t0, defaults.alpha
        )

    def test_builtin_names_accepted(self, capsys):
        assert main(["compress", "zachary", "--p", "1"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["m"] == 78


# edge-list lines the loader rejects, skips or warns about
EDGE_LINE_FAULTS = [
    b"# comment", b"", b"3 3", b"1 x", b"-1 2", b"7", b"1 2 3", b"+1 2", b"1_0 2",
    "\u0663 \u0664".encode(), b"0 99999999", b"1 2\n2 1", b"\xff\xfe",
]
P_TEXTS = [
    "1", "1/2", "0,1/2", "1/2,1", "0,1/3,1", "0,0,1/2", "0.5,1.0", "1/3,2/3,1",
    "1/0", "2", "-1/2", "1/2,0", "", ",", "x", "nan", "inf", "1e-2", "\u0661",
]
MALFORMED = st.sampled_from(["", "x", "1.5", "\u0663", "-"])


def small_ints(lo, hi):  # malformed one time in four
    ints = st.integers(lo, hi).map(str)
    return st.one_of(ints, ints, ints, MALFORMED)


@st.composite
def cli_runs(draw):
    """(files, argv): edge-list bytes by file name, and an argv whose
    ``@name`` tokens stand for paths in the test's directory."""
    pairs = st.tuples(st.integers(0, 7), st.integers(0, 7)).filter(lambda e: e[0] != e[1])
    lines = [f"{u} {v}".encode() for u, v in draw(st.lists(pairs, max_size=12))]
    subset = [line for line in lines if draw(st.booleans())]
    if draw(st.integers(0, 3)) == 0:
        lines.insert(draw(st.integers(0, len(lines))), draw(st.sampled_from(EDGE_LINE_FAULTS)))
    files = {"a": b"\n".join(lines), "b": b"\n".join(subset)}

    def flag(name, values, present=st.booleans()):
        return [name, draw(values)] if draw(present) else []

    def required(name, values):
        return flag(name, values, st.integers(0, 9).map(bool))

    graph = st.sampled_from(["@a", "@a", "@b", "@missing", "@dir", "triangle", "diamond", "star4"])
    p_texts = st.one_of(st.sampled_from(P_TEXTS), st.text("0123456789/.,-e ", max_size=6))
    p = required("--p", p_texts)
    seed = flag("--seed", small_ints(-2, 3))
    report = flag("--report", st.sampled_from(["@report.json", "@dir", "@missing/r.json"]))
    sa = [
        "--sa-iters", draw(small_ints(-1, 20)),
        *flag("--sa-t0", st.sampled_from(["10", "0.5", "0", "-1", "inf", "nan", "1e308", "x"])),
        *flag("--sa-alpha", st.sampled_from(["0.99", "0.5", "0", "1", "nan", "x"])),
    ]
    command = draw(
        st.sampled_from(["compress", "verify", "gen", "sp-hist", "stretch", "ratio", "bench"])
    )
    if command == "compress":
        orderings = st.sampled_from(["random", "basic", "ec", "lp", "sa", "bogus"])
        outputs = st.sampled_from(["@out.txt", "@dir", "@missing/out.txt"])
        argv = [command, draw(graph), *p, *flag("--ordering", orderings), *seed, *report, *sa,
                *flag("-o", outputs)]
    elif command == "verify":
        argv = [command, draw(graph), draw(graph), *p]
    elif command == "gen":
        outdir = draw(st.sampled_from(["@gen", "@dir", "@a"]))
        argv = [command, outdir, *required("--n", small_ints(-1, 8)),
                *required("--m", small_ints(-1, 30)), *flag("--count", small_ints(-1, 2)), *seed]
    elif command == "bench":
        sizes = st.tuples(st.integers(-1, 8), st.integers(-1, 30), st.integers(-1, 2))
        family = st.one_of(
            sizes.map(lambda f: ",".join(map(str, f))),
            st.sampled_from(["", "5,3", "a,b,c", "5,3,1,1"]),
        )
        strategies = st.lists(
            st.sampled_from(["basic", "lp", "ec", "sa", "random", "bogus", ""]), max_size=4
        )
        argv = [command, *required("--family", family), *p,
                *flag("--strategies", strategies.map(",".join)), *seed, *report, *sa,
                *flag("--jobs", st.sampled_from(["1", "0", "-2", "x", ""]))]
    else:
        compressed = [draw(graph)] if command != "sp-hist" or draw(st.booleans()) else []
        argv = ["eval", command, draw(graph), *compressed]
        if command == "stretch":
            argv += required("--t", small_ints(-1, 3))
    return files, argv + draw(st.sampled_from([[]] * 4 + [["--bogus"], ["-h"]]))


class TestDrawnArguments:
    @settings(
        max_examples=150,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(run=cli_runs())
    # p's 5001-digit denominator once failed to print in the report
    @example(run=({"a": b"0 1", "b": b""}, ["compress", "@a", "--p", "1e-5000"]))
    # and so did the 4301-digit denominator of 4300 decimals
    @example(run=({"a": b"0 1", "b": b""}, ["compress", "triangle", "--p", "0." + "0" * 4299 + "1"]))
    # n(n-1)/2 past sys.maxsize once overflowed random.sample
    @example(run=({}, ["gen", "@gen", "--n", "1000000000000", "--m", "1"]))
    @example(run=({}, ["bench", "--family", "1000000000000,1,1", "--p", "1"]))
    # int() took these spellings, and n = 2**32 passed the (n, m) check
    @example(run=({}, ["bench", "--family", "1_0,+2, 1", "--p", "1", "--jobs", "1_0"]))
    @example(run=({}, ["gen", "@gen", "--n", "\u0663", "--m", "1"]))
    @example(run=({}, ["bench", "--family", "1000001,1,1", "--p", "1", "--strategies", "basic"]))
    # SA ran 3 * 10**9 edge-trials with no work bound
    @example(run=({}, ["compress", "triangle", "--p", "1/2", "--ordering", "sa", "--sa-iters", "1000000000"]))
    @example(run=({}, ["bench", "--family", "5,4,1", "--p", "1/2", "--strategies", "sa", "--sa-iters", "1000000000"]))
    # float() took these spellings of the SA schedule
    @example(run=({}, ["compress", "triangle", "--p", "1/2", "--ordering", "sa", "--sa-t0", " \u0661\u0660"]))
    @example(run=({}, ["bench", "--family", "5,4,1", "--p", "1/2", "--sa-t0", "1_0", "--sa-alpha", "+0.5"]))
    # a bad SA flag was refused only after the input was read
    @example(run=({}, ["compress", "@missing", "--p", "1/2", "--sa-t0", "0"]))
    def test_exits_cleanly(self, run, tmp_path, capsys):
        # exit 3 would be an internal error; anything raised is a crash
        files, argv = run
        (tmp_path / "dir").mkdir(exist_ok=True)
        for name, data in files.items():
            (tmp_path / name).write_bytes(data)
        argv = [str(tmp_path / arg[1:]) if arg.startswith("@") else arg for arg in argv]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(argv)
        out, err = capsys.readouterr()
        assert code in (0, 1, 2, 4), (argv, code, err)
        assert "Traceback" not in out + err
        assert not caught, [w.message for w in caught]  # the CLI prints its warnings itself
