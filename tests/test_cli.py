"""Tests for the command-line interface, run in process through main()
(and, where a limit must bind the whole process, in a child)."""

import csv
import io
import json
import os
import resource
import subprocess
import sys
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

from subtri import exact, graph_store
from subtri.cli import BENCH_COLUMNS, main
from subtri.graph_store import Graph, write_edge_list
from subtri.lb_gen import gen_g2_matching
from util import complete_graph


def write_graph(tmp_path, name, graph) -> str:
    path = tmp_path / name
    write_edge_list(graph, path)
    return str(path)


def k4_path(tmp_path) -> str:
    return write_graph(tmp_path, "k4.edges", complete_graph(4))


def bipartite_path(tmp_path) -> str:
    g = Graph.from_edges(8, [(i, 4 + j) for i in range(4) for j in range(4)])
    return write_graph(tmp_path, "bip.edges", g)


class TestExact:
    def test_plain_output(self, tmp_path, capsys):
        assert main(["exact", "--input", k4_path(tmp_path)]) == 0
        assert capsys.readouterr().out == "t=4\n"

    def test_triangle_free(self, tmp_path, capsys):
        assert main(["exact", "--input", bipartite_path(tmp_path)]) == 0
        assert capsys.readouterr().out == "t=0\n"

    def test_json_output(self, tmp_path, capsys):
        assert main(["exact", "--input", k4_path(tmp_path), "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["t"] == 4
        assert doc["t_v"] == [3, 3, 3, 3]
        assert len(doc["t_e"]) > 0

    def test_out_file_matches_stdout(self, tmp_path, capsys):
        target = tmp_path / "result.txt"
        main(["exact", "--input", k4_path(tmp_path), "--out", str(target)])
        assert capsys.readouterr().out == ""
        assert target.read_text() == "t=4\n"

    def test_missing_file_is_exit_three(self, tmp_path, capsys):
        code = main(["exact", "--input", str(tmp_path / "nope.edges")])
        assert code == 3
        assert "error" in capsys.readouterr().err

    def test_malformed_file_reports_line(self, tmp_path, capsys):
        bad = tmp_path / "bad.edges"
        bad.write_text("0 1\n2 2\n")
        assert main(["exact", "--input", str(bad)]) == 3
        assert "line 2" in capsys.readouterr().err

    def test_vertex_count_past_row_keys_is_exit_three(self, tmp_path, capsys):
        bad = tmp_path / "huge.edges"
        bad.write_text("0 100000000000000000\n")
        assert main(["exact", "--input", str(bad)]) == 3
        assert "line 1: vertex count 100000000000000001 is over" in capsys.readouterr().err

    @staticmethod
    def exact_under_memory_limit(path, kib: int) -> subprocess.CompletedProcess:
        """`subtri exact` on path in a child whose address space is capped at kib KiB."""
        limit = kib * 1024

        def limit_memory():
            resource.setrlimit(resource.RLIMIT_AS, (limit, limit))

        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(
            os.environ,
            PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])),
            OPENBLAS_NUM_THREADS="1",
        )
        return subprocess.run(
            [sys.executable, "-m", "subtri.cli", "exact", "--input", str(path)],
            env=env, capture_output=True, text=True, timeout=120, preexec_fn=limit_memory,
        )

    def test_vertex_count_past_memory_is_exit_three(self, tmp_path):
        # An id within MAX_VERTICES whose per-vertex arrays (16 GB each here)
        # do not fit under a 3 GB address-space limit is bad input, not a bug.
        bad = tmp_path / "big.edges"
        bad.write_text("0 2000000000\n")
        proc = self.exact_under_memory_limit(bad, 3_000_000)
        assert proc.returncode == 3, proc.stderr
        assert proc.stderr == (
            "error: line 1: vertex count 2000000001 needs more memory than is available\n"
        )

    def test_vertex_count_past_counter_memory_is_exit_three(self, tmp_path):
        # Here the graph's own arrays (128 MB each) and its checks fit under
        # 500 MB, and count_ordered's n-sized arrays after them do not; the
        # error names no line, as no line of the file is at fault.
        bad = tmp_path / "big.edges"
        bad.write_text("0 16000000\n")
        proc = self.exact_under_memory_limit(bad, 500_000)
        assert proc.returncode == 3, proc.stderr
        assert proc.stderr == "error: vertex count 16000001 needs more memory than is available\n"

    def test_counter_memory_is_exit_three(self, tmp_path, capsys):
        # The graph fits, and count_ordered's own n-sized arrays do not.
        class NoMemoryNumpy:
            def __getattr__(self, name):
                return getattr(np, name)

            @staticmethod
            def empty(*args, **kwargs):
                raise MemoryError

        with mock.patch.object(exact, "np", NoMemoryNumpy()):
            code = main(["exact", "--input", k4_path(tmp_path)])
        assert code == 3
        assert capsys.readouterr().err == (
            "error: vertex count 4 needs more memory than is available\n"
        )

    @staticmethod
    def exact_with_failing_zeros(path, flags, length) -> tuple[int, list]:
        """main(["exact", ...]) with count_ordered's np.zeros raising MemoryError
        for arrays of this length: (exit code, the lengths that failed)."""
        failed = []

        class NoMemoryNumpy:
            def __getattr__(self, name):
                return getattr(np, name)

            @staticmethod
            def zeros(shape, *args, **kwargs):
                if shape == length:
                    failed.append(shape)
                    raise MemoryError
                return np.zeros(shape, *args, **kwargs)

        with mock.patch.object(exact, "np", NoMemoryNumpy()):
            code = main(["exact", "--input", path, *flags])
        return code, failed

    def test_counter_tail_memory_is_exit_three(self, tmp_path, capsys):
        # The graph and count_ordered's n-sized arrays fit, and the m = 6
        # per-position hit counts in its tail do not.
        code, failed = self.exact_with_failing_zeros(k4_path(tmp_path), [], 6)
        assert failed
        assert code == 3
        assert capsys.readouterr().err == (
            "error: edge count 6 needs more memory than is available\n"
        )

    def test_slot_split_memory_is_exit_three(self, tmp_path, capsys):
        # Only --json reads t_e, so only it builds the per-slot split, whose
        # 2m slot counts do not fit; plain exact never allocates them.
        path = k4_path(tmp_path)
        assert self.exact_with_failing_zeros(path, [], 2 * 6) == (0, [])
        capsys.readouterr()
        code, failed = self.exact_with_failing_zeros(path, ["--json"], 2 * 6)
        assert failed
        assert code == 3
        assert capsys.readouterr().err == (
            "error: edge count 6 needs more memory than is available\n"
        )

    def test_slot_ranks_memory_names_the_edge_count(self, tmp_path, capsys):
        # The slots' source ranks, np.repeat of the n ranks, are 2m long.
        class NoMemoryNumpy:
            def __getattr__(self, name):
                return getattr(np, name)

            @staticmethod
            def repeat(*args, **kwargs):
                raise MemoryError

        with mock.patch.object(exact, "np", NoMemoryNumpy()):
            code = main(["exact", "--input", k4_path(tmp_path)])
        assert code == 3
        assert capsys.readouterr().err == (
            "error: edge count 6 needs more memory than is available\n"
        )


class TestEstimate:
    def test_slot_lookup_memory_is_exit_three(self, tmp_path, capsys):
        # The per-vertex arrays fit, and the 2m slot keys that from_edges
        # builds for the slot lookup do not; no one line is to blame.
        class NoMemoryArray(np.ndarray):
            def __mul__(self, other):
                raise MemoryError

        class NoMemoryNumpy:
            def __getattr__(self, name):
                return getattr(np, name)

            @staticmethod
            def asarray(*args, **kwargs):
                return np.asarray(*args, **kwargs).view(NoMemoryArray)

        path = k4_path(tmp_path)
        for argv in (["estimate", "--input", path, "--seed", "0"], ["exact", "--input", path]):
            with mock.patch.object(graph_store, "np", NoMemoryNumpy()):
                code = main(argv)
            assert code == 3
            assert capsys.readouterr().err == (
                "error: edge count 6 needs more memory than is available\n"
            )

    def test_triangle_free_reports_zero_through_fallback(self, tmp_path, capsys):
        code = main(
            ["estimate", "--input", bipartite_path(tmp_path), "--json", "--seed", "1"]
        )
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["estimate"] == 0.0
        assert doc["fallback_used"] is True
        assert doc["wall_ms"] is None

    def test_output_does_not_depend_on_line_order(self, tmp_path, capsys):
        # The same edges with the data lines reversed and each line's ends
        # swapped: the same graph, so the same bytes.
        path = Path(write_graph(tmp_path, "g2.edges", gen_g2_matching(256, 64, seed=3).graph))
        header, *data = path.read_text().splitlines(keepends=True)
        flipped = tmp_path / "g2-flipped.edges"
        flipped.write_text(header + "".join(" ".join(line.split()[::-1]) + "\n" for line in data[::-1]))
        outs = []
        for p in (path, flipped):
            assert main(["estimate", "--input", str(p), "--seed", "0"]) == 0
            outs.append(capsys.readouterr().out)
        assert outs[1] == outs[0]

    def test_output_is_byte_deterministic(self, tmp_path, capsys):
        argv = ["estimate", "--input", k4_path(tmp_path), "--json", "--seed", "7"]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert main(argv) == 0
        assert capsys.readouterr().out == first

    def test_tiny_budget_forces_exact_fallback(self, tmp_path, capsys):
        code = main(
            [
                "estimate",
                "--input", k4_path(tmp_path),
                "--json",
                "--budget", "2",
                "--seed", "0",
            ]
        )
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["estimate"] == 4.0
        assert doc["fallback_used"] is True
        assert doc["queries"]["total"] >= 1

    def test_exact_check_reports_error_fields(self, tmp_path, capsys):
        code = main(
            [
                "estimate",
                "--input", k4_path(tmp_path),
                "--json", "--exact-check",
                "--seed", "0",
            ]
        )
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["exact"] == 4
        assert doc["rel_error"] == abs(doc["estimate"] - 4) / 4

    def test_plain_output_lists_queries(self, tmp_path, capsys):
        assert main(["estimate", "--input", k4_path(tmp_path), "--seed", "0"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("estimate: ")
        assert "queries: degree=" in out
        assert "wall_ms" not in out

    def test_refused_run_falls_back_to_exact(self, tmp_path, capsys):
        # eps=1e-5 puts the first advice run over MAX_RUN_SAMPLES.
        code = main(["estimate", "--input", k4_path(tmp_path), "--epsilon", "1e-5"])
        assert code == 0
        lines = capsys.readouterr().out.splitlines()
        assert "estimate: 4.0" in lines
        assert "fallback_used: True" in lines
        assert "runs: 0" in lines

    def test_fallback_reason_is_reported(self, tmp_path, capsys):
        path = k4_path(tmp_path)
        assert main(["estimate", "--input", path, "--epsilon", "1e-5"]) == 0
        assert "fallback_reason: run_size" in capsys.readouterr().out.splitlines()
        assert main(["estimate", "--input", path, "--json", "--budget", "2"]) == 0
        assert json.loads(capsys.readouterr().out)["fallback_reason"] == "budget"

    def test_nan_epsilon_is_exit_three(self, tmp_path, capsys):
        code = main(["estimate", "--input", k4_path(tmp_path), "--epsilon", "nan"])
        assert code == 3
        assert "eps must be positive" in capsys.readouterr().err

    def test_negative_budget_is_exit_three(self, tmp_path, capsys):
        code = main(["estimate", "--input", k4_path(tmp_path), "--budget", "-3"])
        assert code == 3
        assert "query budget must be at least 0" in capsys.readouterr().err

    def test_package_bug_is_exit_four(self, tmp_path, capsys, monkeypatch):
        def broken(*args, **kwargs):
            raise KeyError("bug")

        monkeypatch.setattr("subtri.cli.estimate", broken)
        assert main(["estimate", "--input", k4_path(tmp_path)]) == 4
        assert "internal error: KeyError" in capsys.readouterr().err


class TestGen:
    def test_writes_graph_and_sidecar(self, tmp_path, capsys):
        out = tmp_path / "clique.edges"
        code = main(
            [
                "gen",
                "--family", "clique",
                "--n", "4096", "--t", "1000",
                "--seed", "0",
                "--out", str(out),
            ]
        )
        assert code == 0
        assert "exact_t=120" in capsys.readouterr().out
        sidecar = json.loads((tmp_path / "clique.edges.json").read_text())
        assert sidecar["exact_t"] == 120
        assert sidecar["family"] == "clique"
        # The emitted file parses back to the advertised size.
        assert main(["exact", "--input", str(out)]) == 0

    def test_double_bipartite_twin_family(self, tmp_path, capsys):
        out = tmp_path / "twin.edges"
        code = main(
            [
                "gen",
                "--family", "g1-double-bipartite",
                "--n", "64", "--side", "16", "--t", "4",
                "--out", str(out),
            ]
        )
        assert code == 0
        capsys.readouterr()
        sidecar = json.loads((tmp_path / "twin.edges.json").read_text())
        assert sidecar["exact_t"] == 0
        assert main(["exact", "--input", str(out)]) == 0
        assert "t=0" in capsys.readouterr().out

    def test_missing_family_parameter_is_usage_error(self, tmp_path, capsys):
        code = main(
            [
                "gen",
                "--family", "g2-multi-matching",
                "--n", "32", "--side", "16",
                "--out", str(tmp_path / "x.edges"),
            ]
        )
        assert code == 2
        assert "requires --r" in capsys.readouterr().err

    def test_bad_generator_parameters_exit_three(self, tmp_path, capsys):
        code = main(
            [
                "gen",
                "--family", "special-four",
                "--n", "32", "--side", "8", "--t", "3",
                "--out", str(tmp_path / "x.edges"),
            ]
        )
        assert code == 3
        assert "error" in capsys.readouterr().err

    def test_unknown_family_is_usage_error(self, tmp_path, capsys):
        code = main(
            ["gen", "--family", "mystery", "--n", "8", "--out", str(tmp_path / "x")]
        )
        assert code == 2

    def test_shuffle_flag_changes_placement_not_count(self, tmp_path, capsys):
        plain = tmp_path / "plain.edges"
        mixed = tmp_path / "mixed.edges"
        base = [
            "gen", "--family", "g2-matching", "--n", "40", "--side", "10", "--seed", "3",
        ]
        assert main(base + ["--out", str(plain)]) == 0
        assert main(base + ["--shuffle", "--out", str(mixed)]) == 0
        capsys.readouterr()
        assert plain.read_text() != mixed.read_text()
        a = json.loads((tmp_path / "plain.edges.json").read_text())
        b = json.loads((tmp_path / "mixed.edges.json").read_text())
        assert a["exact_t"] == b["exact_t"] == 160


class TestBench:
    def manifest(self, tmp_path) -> str:
        graph_path = write_graph(tmp_path, "k4.edges", complete_graph(4))
        entries = [
            {"path": graph_path, "seeds": [0]},
            {
                "genspec": {
                    "family": "g2-matching",
                    "params": {"n": 40, "side": 10},
                    "seed": 1,
                },
                "seeds": [0, 1],
            },
        ]
        path = tmp_path / "manifest.json"
        path.write_text(json.dumps(entries))
        return str(path)

    def test_csv_output_shape(self, tmp_path, capsys):
        assert main(["bench", "--manifest", self.manifest(tmp_path)]) == 0
        rows = list(csv.reader(io.StringIO(capsys.readouterr().out)))
        assert rows[0] == list(BENCH_COLUMNS)
        assert len(rows) == 4  # header + one path row + two genspec rows
        by_col = dict(zip(BENCH_COLUMNS, rows[1]))
        assert by_col["exact_t"] == "4"
        assert by_col["wall_ms"] == ""  # timing omitted for determinism

    def test_rerun_is_byte_identical(self, tmp_path, capsys):
        manifest = self.manifest(tmp_path)
        assert main(["bench", "--manifest", manifest]) == 0
        first = capsys.readouterr().out
        assert main(["bench", "--manifest", manifest]) == 0
        assert capsys.readouterr().out == first

    def test_sidecar_exact_t_is_trusted(self, tmp_path, capsys):
        graph_path = write_graph(tmp_path, "k4.edges", complete_graph(4))
        with open(graph_path + ".json", "w", encoding="utf-8") as fh:
            json.dump({"exact_t": 999}, fh)
        manifest = tmp_path / "m.json"
        manifest.write_text(json.dumps([{"path": graph_path, "seeds": [0]}]))
        assert main(["bench", "--manifest", str(manifest)]) == 0
        rows = list(csv.reader(io.StringIO(capsys.readouterr().out)))
        assert dict(zip(BENCH_COLUMNS, rows[1]))["exact_t"] == "999"

    def test_empty_manifest_emits_header_only(self, tmp_path, capsys):
        manifest = tmp_path / "empty.json"
        manifest.write_text("[]")
        assert main(["bench", "--manifest", str(manifest)]) == 0
        out = capsys.readouterr().out
        assert out == ",".join(BENCH_COLUMNS) + "\n"

    def test_json_mode_returns_row_objects(self, tmp_path, capsys):
        assert main(["bench", "--manifest", self.manifest(tmp_path), "--json"]) == 0
        rows = json.loads(capsys.readouterr().out)
        assert len(rows) == 3
        assert {"source", "seed", "estimate", "queries"} <= set(rows[0])

    def test_malformed_manifest_is_exit_three(self, tmp_path, capsys):
        manifest = tmp_path / "bad.json"
        manifest.write_text("{not json")
        assert main(["bench", "--manifest", str(manifest)]) == 3

    @pytest.mark.parametrize(
        "entry, message",
        [
            ({"genspec": {"family": "mystery", "params": {"n": 8}}}, "unknown genspec family"),
            ({"genspec": {"family": "g2-matching", "params": {"n": 40}}}, "missing params ['side']"),
            (
                {"genspec": {"family": "g2-matching", "params": {"n": 40, "side": 10, "r": 2}}},
                "unexpected params ['r']",
            ),
            (
                {"genspec": {"family": "clique", "params": {"n": 40, "t": 27, "shuffle": True}}},
                "unexpected params ['shuffle']",
            ),
            ({"genspec": {"family": "clique", "params": [40, 27]}}, "params must be an object"),
            ({"genspec": {"family": "clique", "params": {"n": "40", "t": 27}}}, "must be integers"),
            ({"genspec": "clique"}, "genspec must be an object"),
            ({"path": 5}, "path must be a string"),
            ({"path": "x.edges", "seeds": 0}, "seeds must be a list of integers"),
        ],
    )
    def test_bad_manifest_entry_is_exit_three(self, tmp_path, capsys, entry, message):
        manifest = tmp_path / "bad.json"
        manifest.write_text(json.dumps([entry]))
        assert main(["bench", "--manifest", str(manifest)]) == 3
        assert message in capsys.readouterr().err


class TestUsage:
    def test_no_command_is_usage_error(self):
        assert main([]) == 2

    def test_unknown_command_is_usage_error(self):
        assert main(["transmogrify"]) == 2

    def test_profile_flag_is_a_usage_error(self, tmp_path, capsys):
        path = k4_path(tmp_path)
        assert main(["estimate", "--input", path, "--profile", "practical"]) == 2
        assert main(["bench", "--manifest", path, "--profile", "practical"]) == 2
        assert capsys.readouterr().err.count("unrecognized arguments: --profile") == 2
