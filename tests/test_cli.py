"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_count_defaults(self):
        args = build_parser().parse_args(["count"])
        assert args.query == "triangle"
        assert args.privacy == "node"

    def test_fig_choices(self):
        args = build_parser().parse_args(["fig", "fig4a"])
        assert args.name == "fig4a"
        with pytest.raises(SystemExit):
            build_parser().parse_args(["fig", "fig99"])


class TestCommands:
    def test_datasets(self, capsys):
        assert main(["datasets"]) == 0
        out = capsys.readouterr().out
        assert "ca-GrQc" in out
        assert "48260" in out

    def test_count_random_graph(self, capsys):
        code = main(
            [
                "count",
                "--nodes",
                "24",
                "--avgdeg",
                "5",
                "--privacy",
                "edge",
                "--epsilon",
                "2",
                "--seed",
                "3",
                "--show-true",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "edge-DP triangle count" in out
        assert "true count" in out

    def test_count_dataset(self, capsys):
        code = main(
            [
                "count",
                "--dataset",
                "1138_bus",
                "--dataset-scale",
                "0.02",
                "--privacy",
                "edge",
                "--seed",
                "1",
            ]
        )
        assert code == 0
        assert "graph:" in capsys.readouterr().out

    def test_count_edge_list(self, tmp_path, capsys):
        path = tmp_path / "g.txt"
        path.write_text("0 1\n1 2\n0 2\n2 3\n")
        code = main(["count", "--edge-list", str(path), "--privacy", "edge"])
        assert code == 0
        assert "4 nodes" in capsys.readouterr().out

    def test_audit_passes(self, capsys):
        code = main(
            [
                "audit",
                "--nodes",
                "14",
                "--avgdeg",
                "5",
                "--trials",
                "500",
                "--epsilon",
                "1.0",
                "--seed",
                "0",
            ]
        )
        out = capsys.readouterr().out
        assert "empirical epsilon" in out
        assert code == 0

    def test_fig9_smoke(self, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_BENCH_SCALE", "smoke")
        code = main(["fig", "fig9", "--scale", "smoke"])
        assert code == 0
        out = capsys.readouterr().out
        assert "3-DNF" in out and "3-CNF" in out

    def test_invalid_epsilon_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["count", "--epsilon", "-1"])
        with pytest.raises(SystemExit):
            build_parser().parse_args(["count", "--epsilon", "nan"])

    def test_invalid_workers_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["fig", "fig5", "--workers", "0"])

    @pytest.mark.parametrize(
        "argv",
        [["batch", "spec.json", "--remote", "127.0.0.1:70000"],
         ["obs", "127.0.0.1:70000"]],
        ids=["batch-remote", "obs"],
    )
    def test_out_of_range_port_exits_2(self, argv, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert "1-65535" in err and "Traceback" not in err

    def test_refused_connection_exits_2(self, tmp_path, capsys):
        spec = tmp_path / "spec.json"
        spec.write_text(
            '{"queries": [{"query": "triangle", "privacy": "node", '
            '"epsilon": 0.5}]}'
        )
        # nothing listens on port 1
        assert main(["batch", str(spec), "--remote", "127.0.0.1:1"]) == 2
        assert main(["obs", "127.0.0.1:1"]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 2 and "Traceback" not in err

    def test_replica_subcommand_is_gone(self, capsys):
        # one ledger per dataset: no second server may release against it
        with pytest.raises(SystemExit) as exit_info:
            main(["replica", "--primary", "127.0.0.1:8732", "--dataset", "d"])
        assert exit_info.value.code == 2
        assert "invalid choice: 'replica'" in capsys.readouterr().err


class TestBatchCommand:
    SPEC = {
        "graph": {"nodes": 30, "avgdeg": 6, "seed": 1},
        "budget": 1.5,
        "seed": 7,
        "queries": [
            {"query": "triangle", "privacy": "node", "epsilon": 0.5},
            {
                "query": "triangle",
                "privacy": "node",
                "epsilon": 0.5,
                "label": "tri-again",
            },
            {
                "query": "2-star",
                "privacy": "edge",
                "epsilon": 0.5,
                "mechanism": "smooth",
            },
            {
                "query": "2-star",
                "privacy": "edge",
                "epsilon": 0.5,
                "mechanism": "rhms",
                "label": "over-budget",
            },
        ],
    }

    def test_batch_workload(self, tmp_path, capsys):
        import json

        path = tmp_path / "spec.json"
        path.write_text(json.dumps(self.SPEC))
        code = main(["batch", str(path)])
        assert code == 0
        captured = capsys.readouterr()
        out = captured.out
        assert "batch workload" in out
        assert "tri-again" in out
        assert "refused" in out  # the over-budget query was refused
        assert "budget spent: eps=1.5" in out
        # the repeated triangle query hit the compiled-relation cache
        assert "1 hits" in out

    def test_batch_audit_log(self, tmp_path, capsys):
        import json

        spec = {
            "graph": {"nodes": 20, "avgdeg": 4, "seed": 2},
            "seed": 3,
            "queries": [{"query": "triangle", "privacy": "edge", "epsilon": 1.0}],
        }
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec))
        code = main(["batch", str(path), "--audit-log"])
        assert code == 0
        out = capsys.readouterr().out
        assert '"status": "released"' in out

    def test_batch_empty_spec_fails(self, tmp_path, capsys):
        path = tmp_path / "spec.json"
        path.write_text("{}")
        assert main(["batch", str(path)]) == 2

    def test_batch_rejects_unknown_and_mistyped_fields(self, tmp_path, capsys):
        import json

        spec = {
            "graph": {"nodes": "twenty", "avgdeg": 4},
            "budgit": 1.0,  # typo'd top-level key
            "queries": [
                {"query": "triangle", "epsilon": "a lot", "privacy": "both"},
                {"query": "triangle", "epsilon": 0.5, "mechansim": "smooth"},
            ],
        }
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec))
        assert main(["batch", str(path)]) == 2
        err = capsys.readouterr().err
        # one clear line per offending field, each naming its path
        assert "budgit: unknown key" in err
        assert "graph.nodes: must be a positive integer" in err
        assert "queries[0].epsilon: must be a positive finite number" in err
        assert 'queries[0].privacy: must be "node" or "edge"' in err
        assert "queries[1].mechansim: unknown key" in err
        assert "Traceback" not in err

    def test_batch_rejects_non_object_spec(self, tmp_path, capsys):
        path = tmp_path / "spec.json"
        path.write_text("[1, 2, 3]")
        assert main(["batch", str(path)]) == 2
        assert "must be a JSON object" in capsys.readouterr().err

    def test_batch_per_user_rows(self, tmp_path, capsys):
        import json

        spec = {
            "graph": {"nodes": 20, "avgdeg": 4, "seed": 2},
            "seed": 3,
            "queries": [
                {
                    "query": "triangle",
                    "privacy": "edge",
                    "epsilon": 0.5,
                    "user": "alice",
                },
            ],
        }
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec))
        assert main(["batch", str(path), "--audit-log"]) == 0
        out = capsys.readouterr().out
        assert "alice" in out
        assert '"user": "alice"' in out

    def test_batch_malformed_item_does_not_abort_workload(self, tmp_path, capsys):
        import json

        spec = {
            "graph": {"nodes": 20, "avgdeg": 4, "seed": 2},
            "seed": 3,
            "queries": [
                {"query": "triangel", "epsilon": 0.5},      # typo'd query
                {"privacy": "edge", "epsilon": 0.5},        # missing query
                {"query": "triangle", "privacy": "edge", "epsilon": 0.5},
            ],
        }
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec))
        code = main(["batch", str(path)])
        assert code == 1  # malformed items reported, workload not aborted
        out = capsys.readouterr().out
        assert out.count("invalid") >= 2
        assert "released" in out  # the valid query still ran
