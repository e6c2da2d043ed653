"""Tests for streaming edge-list ingestion (repro/graphs/io.py +
repro/store/ingest.py + the ``repro ingest`` CLI).

The chunked reader must validate *across* flush boundaries exactly as
the old line-at-a-time reader did: malformed lines, self-loops and
duplicate edges are each reported with their line number, even when the
duplicate's first copy landed in an earlier chunk.  The ingest wrapper
pins the report fields the scale benchmark and CI consume.
"""

import json

import pytest

from repro.cli import main
from repro.errors import GraphError
from repro.graphs import Graph, read_edge_list, write_edge_list
from repro.store import IngestReport, ingest_edge_list


def _write(tmp_path, text, name="edges.txt"):
    path = tmp_path / name
    path.write_text(text)
    return path


class TestChunkedReader:
    def test_round_trip_across_chunk_sizes(self, tmp_path):
        graph = Graph(edges=[(i, i + 1) for i in range(20)] + [(0, 19)])
        path = tmp_path / "ring.txt"
        write_edge_list(graph, path)
        for chunk_size in (1, 3, 7, 64):
            again = read_edge_list(path, chunk_size=chunk_size)
            assert again == graph

    def test_comments_and_blank_lines_skipped(self, tmp_path):
        path = _write(tmp_path, "# SNAP header\n% matrix-market\n\n1 2\n2 3\n")
        graph = read_edge_list(path)
        assert graph.num_edges == 2 and graph.has_edge(1, 2)

    def test_malformed_line_reports_line_number(self, tmp_path):
        path = _write(tmp_path, "1 2\noops\n3 4\n")
        with pytest.raises(GraphError) as excinfo:
            read_edge_list(path, chunk_size=1)
        message = str(excinfo.value)
        assert "invalid edge list (1 problem)" in message
        assert f"{path}:2: expected 'u v', got 'oops'" in message

    def test_malformed_line_raises_even_lenient(self, tmp_path):
        path = _write(tmp_path, "1 2\noops\n")
        with pytest.raises(GraphError):
            read_edge_list(path, strict=False)

    def test_duplicate_spanning_chunks_reports_both_lines(self, tmp_path):
        # chunk_size=2 flushes (1,2),(2,3) before the duplicate arrives:
        # cross-chunk detection must still name line 1 as the first copy
        path = _write(tmp_path, "1 2\n2 3\n3 4\n2 1\n")
        with pytest.raises(GraphError) as excinfo:
            read_edge_list(path, chunk_size=2)
        message = str(excinfo.value)
        assert f"{path}:4: duplicate edge 2 1 (first seen on line 1)" \
            in message

    def test_self_loop_strict_vs_lenient(self, tmp_path):
        path = _write(tmp_path, "1 2\n3 3\n2 3\n")
        with pytest.raises(GraphError, match="self-loop 3 3"):
            read_edge_list(path)
        graph = read_edge_list(path, strict=False)
        assert graph.num_edges == 2 and not graph.has_edge(3, 3)

    def test_multiple_problems_all_listed(self, tmp_path):
        path = _write(tmp_path, "1 2\n5 5\n1 2\nbad\n")
        with pytest.raises(GraphError) as excinfo:
            read_edge_list(path, chunk_size=1)
        message = str(excinfo.value)
        assert "invalid edge list (3 problems)" in message
        for fragment in ("self-loop 5 5", "duplicate edge 1 2", "bad"):
            assert fragment in message

    def test_bad_chunk_size_and_missing_file(self, tmp_path):
        with pytest.raises(GraphError, match="chunk_size must be >= 1"):
            read_edge_list(tmp_path / "x.txt", chunk_size=0)
        with pytest.raises(GraphError, match="edge list not found"):
            read_edge_list(tmp_path / "absent.txt")


class TestBulkAddEdges:
    def test_add_edges_from_matches_loop(self):
        edges = [(1, 2), (2, 3), (1, 3), (3, 4)]
        bulk, loop = Graph(), Graph()
        bulk.add_edges_from(edges)
        for u, v in edges:
            loop.add_edge(u, v)
        assert bulk == loop

    def test_add_edges_from_rejects_self_loop(self):
        graph = Graph()
        with pytest.raises(GraphError):
            graph.add_edges_from([(1, 2), (3, 3)])

    def test_add_edges_from_duplicates_are_idempotent(self):
        graph = Graph()
        graph.add_edges_from([(1, 2), (2, 1), (1, 2)])
        assert graph.num_edges == 1


class TestIngestEdgeList:
    def test_report_fields_and_registration(self, tmp_path):
        path = _write(tmp_path, "1 2\n2 3\n1 3\n3 4\n")
        report = ingest_edge_list(path, register=["triangle"])
        assert isinstance(report, IngestReport)
        assert report.num_nodes == 4 and report.num_edges == 4
        assert report.graph.version == 0
        assert report.registered == [
            {
                "pattern": "triangle",
                "occurrences": 1,
                "seconds": report.registered[0]["seconds"],
            }
        ]
        summary = report.summary()
        assert summary["num_edges"] == 4
        assert summary["path"] == str(path)
        assert report.total_seconds >= report.read_seconds

    def test_strict_errors_propagate(self, tmp_path):
        path = _write(tmp_path, "1 1\n")
        with pytest.raises(GraphError, match="self-loop"):
            ingest_edge_list(path)


class TestIngestCli:
    def test_ingest_happy_path(self, tmp_path, capsys):
        path = _write(tmp_path, "1 2\n2 3\n1 3\n3 4\n")
        out_path = tmp_path / "report.json"
        code = main(
            ["ingest", str(path), "--register", "triangle", "--out", str(out_path)]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "4 nodes" in out and "4 edges" in out
        payload = json.loads(out_path.read_text())
        assert payload["num_edges"] == 4
        assert payload["registered"][0]["pattern"] == "triangle"

    def test_ingest_invalid_file_exits_2(self, tmp_path, capsys):
        path = _write(tmp_path, "1 2\n1 2\n")
        assert main(["ingest", str(path)]) == 2
        assert "duplicate edge" in capsys.readouterr().err

    def test_ingest_lenient_accepts_duplicates(self, tmp_path, capsys):
        path = _write(tmp_path, "1 2\n1 2\n2 3\n")
        assert main(["ingest", str(path), "--lenient"]) == 0
        assert "2 edges" in capsys.readouterr().out
