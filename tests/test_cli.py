"""Tests for the command-line interface."""

import pytest

from repro.cli import main
from repro.datasets import get_dataset
from repro.graph.io import save_graph_jsonl
from tests.oracles import validate_elements


class TestCli:
    def test_no_command_shows_help(self, capsys):
        assert main([]) == 2
        assert "usage" in capsys.readouterr().out.lower()

    def test_datasets_listing(self, capsys):
        assert main(["datasets", "--scale", "0.1"]) == 0
        out = capsys.readouterr().out
        assert "POLE" in out and "IYP" in out

    def test_discover_bundled_dataset(self, capsys):
        assert main(["discover", "POLE", "--scale", "0.15"]) == 0
        out = capsys.readouterr().out
        assert "CREATE GRAPH TYPE" in out
        assert "PersonType" in out

    def test_discover_jsonl_file(self, tmp_path, capsys, figure1_graph):
        path = tmp_path / "g.jsonl"
        save_graph_jsonl(figure1_graph, path)
        assert main(["discover", str(path)]) == 0
        assert "Person" in capsys.readouterr().out

    def test_discover_xsd_output_file(self, tmp_path, capsys):
        out_path = tmp_path / "schema.xsd"
        assert main([
            "discover", "POLE", "--scale", "0.15",
            "--format", "xsd", "--output", str(out_path),
        ]) == 0
        assert out_path.read_text().startswith("<?xml")

    def test_discover_loose_mode(self, capsys):
        assert main([
            "discover", "POLE", "--scale", "0.15", "--mode", "LOOSE",
        ]) == 0
        assert "LOOSE" in capsys.readouterr().out

    def test_discover_incremental_batches(self, capsys):
        assert main([
            "discover", "POLE", "--scale", "0.15", "--batches", "3",
        ]) == 0

    def test_discover_parallel_jobs(self, capsys, test_jobs):
        """--jobs routes through the pool and matches the sequential
        schema; the stage breakdown is reported on stderr."""
        assert main([
            "discover", "ldbc", "--scale", "0.5",
            "--batches", "4", "--seed", "0",
        ]) == 0
        sequential = capsys.readouterr()
        assert main([
            "discover", "ldbc", "--scale", "0.5",
            "--batches", "4", "--seed", "0",
            "--jobs", str(test_jobs),
        ]) == 0
        parallel = capsys.readouterr()
        assert parallel.out == sequential.out
        assert "stages" in parallel.err and "embed=" in parallel.err

    def test_discover_unknown_input(self, capsys):
        with pytest.raises(SystemExit):
            main(["discover", "definitely-not-a-thing"])

    def test_generate_with_noise(self, tmp_path, capsys):
        out = tmp_path / "noisy.jsonl"
        assert main([
            "generate", "POLE", str(out), "--scale", "0.1",
            "--noise", "0.3", "--label-availability", "0.5",
        ]) == 0
        assert out.exists()
        from repro.graph.io import load_graph_jsonl

        graph = load_graph_jsonl(out)
        assert any(not n.labels for n in graph.nodes())

    def test_evaluate(self, capsys):
        assert main(["evaluate", "POLE", "--scale", "0.15"]) == 0
        out = capsys.readouterr().out
        assert "PG-HIVE-ELSH" in out and "SchemI" in out

    def test_inspect(self, capsys):
        assert main(["inspect", "POLE", "--scale", "0.15"]) == 0
        out = capsys.readouterr().out
        assert "Schema report" in out
        assert "labeled coverage" in out

    def test_discover_with_profiles_and_bounds(self, capsys):
        assert main([
            "discover", "POLE", "--scale", "0.15",
            "--profiles", "--bounds",
        ]) == 0
        out = capsys.readouterr().out
        assert "range" in out or "enum" in out
        assert ".." in out  # interval cardinality bounds

    def test_discover_cypher_format(self, capsys):
        assert main([
            "discover", "POLE", "--scale", "0.15", "--format", "cypher",
        ]) == 0
        assert "CREATE CONSTRAINT" in capsys.readouterr().out

    def test_discover_graphql_format(self, capsys):
        assert main([
            "discover", "POLE", "--scale", "0.15", "--format", "graphql",
        ]) == 0
        assert "type Person {" in capsys.readouterr().out

    def test_discover_jobs_with_single_batch_notes_fallback(self, capsys):
        """--jobs with one batch cannot shard; the footer says so instead
        of silently running sequentially."""
        assert main([
            "discover", "POLE", "--scale", "0.15", "--jobs", "2",
        ]) == 0
        err = capsys.readouterr().err
        assert "--jobs 2 ignored" in err
        assert "ran sequentially" in err

    def test_discover_parallel_checkpoint_and_resume(
        self, tmp_path, capsys, test_jobs
    ):
        """--jobs with --checkpoint-dir journals the folded prefix;
        --resume reports how many shards it restored."""
        ckpt = tmp_path / "ckpt"
        args = [
            "discover", "ldbc", "--scale", "0.5",
            "--batches", "4", "--seed", "0",
            "--jobs", str(test_jobs), "--checkpoint-dir", str(ckpt),
        ]
        assert main(args) == 0
        first = capsys.readouterr()
        assert "ignored" not in first.err
        assert (ckpt / "pghive-checkpoint.json").is_file()
        assert not list((ckpt / "shards").glob("shard-*.json"))
        assert main(args + ["--resume"]) == 0
        second = capsys.readouterr()
        assert "resumed 4 shard(s) from the parallel journal" in second.err
        assert second.out == first.out

    def test_evaluate_unlabeled_marks_baselines_skipped(self, capsys):
        assert main([
            "evaluate", "POLE", "--scale", "0.15",
            "--label-availability", "0.0",
        ]) == 0
        out = capsys.readouterr().out
        lines = [l for l in out.splitlines() if l.startswith("SchemI")]
        assert lines and "-" in lines[0]


class TestOneEngine:
    """Discovery and validation have one engine each; no flag picks another."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["discover", "POLE", "--kernels", "reference"],
            ["serve", "--port", "0", "--kernels", "reference"],
            ["validate", "POLE", "schema.json", "--engine", "reference"],
        ],
        ids=["discover-kernels", "serve-kernels", "validate-engine"],
    )
    def test_engine_flags_are_rejected(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err


class TestCliFailureHandling:
    def test_corrupt_jsonl_exits_1_with_clean_error(self, tmp_path, capsys):
        path = tmp_path / "broken.jsonl"
        path.write_text(
            '{"kind": "node", "id": 0}\n{"kind": "wormhole"}\n',
            encoding="utf-8",
        )
        assert main(["discover", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error:")
        assert "broken.jsonl:2" in captured.err
        assert "Traceback" not in captured.err

    def test_on_error_collect_loads_and_reports(
        self, tmp_path, capsys, figure1_graph
    ):
        path = tmp_path / "dirty.jsonl"
        save_graph_jsonl(figure1_graph, path)
        with path.open("a", encoding="utf-8") as handle:
            handle.write('{"kind": "wormhole"}\n')
        assert main([
            "discover", str(path), "--on-error", "collect",
        ]) == 0
        captured = capsys.readouterr()
        assert "Person" in captured.out
        assert "rejected 1 records" in captured.err
        assert "unknown record kind" in captured.err

    def test_out_of_range_id_is_a_reject_on_both_stores(
        self, tmp_path, capsys
    ):
        """An id past the int64 range is a located reject, never a
        traceback: ``raise`` exits 1 at its line, and ``collect`` reports
        the same line on both stores and discovers the rest."""
        path = tmp_path / "big.jsonl"
        path.write_text(
            '{"kind": "node", "id": 1, "labels": ["A"]}\n'
            '{"kind": "node", "id": 9223372036854775813, "labels": ["A"]}\n'
            '{"kind": "edge", "id": 5, "source": 1, "target": 1}\n',
            encoding="utf-8",
        )
        reports = []
        for store in ("memory", "disk"):
            store_args = [
                "--store", store, "--store-dir", str(tmp_path / store),
            ]
            assert main(["discover", str(path), *store_args]) == 1
            captured = capsys.readouterr()
            assert captured.err.startswith(f"error: {path}:2: node id ")
            assert "Traceback" not in captured.err
            assert main([
                "discover", str(path), *store_args, "--on-error", "collect",
            ]) == 0
            captured = capsys.readouterr()
            assert "Traceback" not in captured.err
            reports.append([
                line for line in captured.err.splitlines()
                if line.startswith(str(path))
            ])
        assert reports[0] == reports[1] == [
            f"{path}:2: node id 9223372036854775813 outside the signed "
            "64-bit range"
        ]

    def test_on_error_skip_loads_silently(
        self, tmp_path, capsys, figure1_graph
    ):
        path = tmp_path / "dirty.jsonl"
        save_graph_jsonl(figure1_graph, path)
        with path.open("a", encoding="utf-8") as handle:
            handle.write("not json\n")
        assert main([
            "discover", str(path), "--on-error", "skip",
        ]) == 0

    def test_bad_fault_plan_in_env_is_reported(self, monkeypatch, capsys):
        monkeypatch.setenv("PGHIVE_FAULTS", "garbage")
        assert main(["discover", "POLE", "--scale", "0.15"]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error:")
        assert "fault spec" in captured.err

    def test_empty_fault_plan_in_env_is_noop(self, monkeypatch, capsys):
        monkeypatch.setenv("PGHIVE_FAULTS", "")
        assert main(["discover", "POLE", "--scale", "0.15"]) == 0
        capsys.readouterr()

    def test_checkpoint_dir_and_resume_flags(self, tmp_path, capsys):
        ckpt = tmp_path / "ckpt"
        args = [
            "discover", "POLE", "--scale", "0.15", "--batches", "3",
            "--checkpoint-dir", str(ckpt),
        ]
        assert main(args) == 0
        first = capsys.readouterr()
        assert (ckpt / "pghive-checkpoint.json").is_file()
        assert main(args + ["--resume"]) == 0
        second = capsys.readouterr()
        assert second.out == first.out
        assert "resumed from checkpoint at batch 3" in second.err

    def test_verify_store_clean_and_corrupt(self, tmp_path, capsys):
        """verify-store exits 0 on a clean directory and 1 with a report
        pinpointing the exact corrupted file; repair restores it."""
        from repro.datasets import get_dataset
        from repro.graph.diskstore import write_graph_to_slabs

        slab_dir = tmp_path / "slabs"
        graph = get_dataset("POLE", scale=0.15, seed=0).graph
        write_graph_to_slabs(graph, slab_dir).close()
        assert main(["verify-store", str(slab_dir)]) == 0
        assert "verdict: clean" in capsys.readouterr().out
        heap = slab_dir / "nodes-props.dat"
        with heap.open("r+b") as handle:
            handle.seek(-1, 2)
            byte = handle.read(1)
            handle.seek(-1, 2)
            handle.write(bytes((byte[0] ^ 0xFF,)))
        assert main(["verify-store", str(slab_dir)]) == 1
        out = capsys.readouterr().out
        assert "nodes-props.dat: checksum" in out
        assert "verdict: corrupt" in out
        assert main(["repair", str(slab_dir)]) == 0
        assert "repaired: restored" in capsys.readouterr().out
        assert main(["verify-store", str(slab_dir)]) == 0
        capsys.readouterr()
        assert main([
            "discover", str(slab_dir), "--store", "disk", "--batches", "2",
        ]) == 0
        capsys.readouterr()

    def test_verify_store_on_non_slab_directory_exits_1(
        self, tmp_path, capsys
    ):
        empty = tmp_path / "empty"
        empty.mkdir()
        assert main(["verify-store", str(empty)]) == 1
        assert capsys.readouterr().err.startswith("error:")

    def test_discover_corrupt_slab_policy_flag(self, tmp_path, capsys):
        """--corrupt-slab-policy is accepted and forwarded; on a clean
        store both policies produce the same schema."""
        from repro.datasets import get_dataset
        from repro.graph.diskstore import write_graph_to_slabs

        slab_dir = tmp_path / "slabs"
        graph = get_dataset("POLE", scale=0.15, seed=0).graph
        write_graph_to_slabs(graph, slab_dir).close()
        assert main([
            "discover", str(slab_dir), "--store", "disk",
            "--batches", "2", "--corrupt-slab-policy", "skip",
        ]) == 0
        skip_out = capsys.readouterr().out
        assert main([
            "discover", str(slab_dir), "--store", "disk",
            "--batches", "2", "--corrupt-slab-policy", "raise",
        ]) == 0
        assert capsys.readouterr().out == skip_out

    def test_corrupt_checkpoint_exits_1(self, tmp_path, capsys):
        ckpt = tmp_path / "ckpt"
        ckpt.mkdir()
        (ckpt / "pghive-checkpoint.json").write_text(
            "{broken", encoding="utf-8"
        )
        assert main([
            "discover", "POLE", "--scale", "0.15", "--batches", "3",
            "--checkpoint-dir", str(ckpt), "--resume",
        ]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error:")
        assert "corrupt or truncated" in captured.err


class TestValidateCommand:
    def _saved_schema(self, tmp_path, capsys):
        path = tmp_path / "schema.json"
        assert main([
            "discover", "POLE", "--scale", "0.15",
            "--format", "json", "--output", str(path),
        ]) == 0
        capsys.readouterr()
        return path

    def test_conforming_graph_exits_0(self, tmp_path, capsys):
        schema = self._saved_schema(tmp_path, capsys)
        assert main([
            "validate", "POLE", "--scale", "0.15", str(schema),
        ]) == 0
        out = capsys.readouterr().out
        assert "conforms" in out
        assert "rate 0.000" in out

    def test_strict_violations_exit_1(self, tmp_path, capsys):
        schema = self._saved_schema(tmp_path, capsys)
        graph = tmp_path / "g.jsonl"
        assert main([
            "generate", "POLE", str(graph),
            "--scale", "0.15", "--noise", "0.5", "--seed", "5",
        ]) == 0
        capsys.readouterr()
        assert main(["validate", str(graph), str(schema)]) == 1
        out = capsys.readouterr().out
        assert "violates" in out
        assert "[mandatory]" in out
        # LOOSE mode tolerates missing properties -> exit 0.
        assert main([
            "validate", str(graph), str(schema), "--mode", "LOOSE",
        ]) == 0
        capsys.readouterr()

    def test_engines_report_identically(self, tmp_path, capsys, monkeypatch):
        """``pghive validate`` prints what the per-element oracle reports."""
        schema = self._saved_schema(tmp_path, capsys)
        graph = tmp_path / "g.jsonl"
        assert main([
            "generate", "POLE", str(graph),
            "--scale", "0.15", "--noise", "0.3", "--seed", "9",
        ]) == 0
        capsys.readouterr()
        argv = ["validate", str(graph), str(schema), "--max-violations", "5"]
        assert main(argv) == 1
        columns_out = capsys.readouterr().out
        monkeypatch.setattr(
            "repro.schema.validate.validate_batch", validate_elements
        )
        assert main(argv) == 1
        assert capsys.readouterr().out == columns_out

    def test_missing_schema_file_exits_1(self, capsys):
        assert main([
            "validate", "POLE", "--scale", "0.15", "/nope/schema.json",
        ]) == 1
        assert capsys.readouterr().err.startswith("error:")


class TestLintCliExitCodes:
    """``pghive-lint`` exit-code contract: 0 clean, 1 findings, 2 crash.

    Scripts (and the CI gate) branch on these; a crashed linter must
    never masquerade as a clean or merely dirty tree.
    """

    def _project(self, root, body):
        package = root / "repro"
        package.mkdir(parents=True)
        (package / "__init__.py").write_text('"""Fixture."""\n')
        (package / "mod.py").write_text(body)
        return root

    def test_clean_tree_exits_0(self, tmp_path, capsys):
        from repro.analysis import main as lint_main

        target = self._project(
            tmp_path, '"""Fixture."""\n\n\ndef f() -> int:\n    return 1\n'
        )
        assert lint_main([str(target)]) == 0
        assert "no findings" in capsys.readouterr().err

    def test_findings_exit_1(self, tmp_path, capsys):
        from repro.analysis import main as lint_main

        target = self._project(
            tmp_path,
            '"""Fixture."""\nimport time\n\n\n'
            'def f() -> float:\n    return time.time()\n',
        )
        assert lint_main([str(target)]) == 1
        assert "wall-clock" in capsys.readouterr().out

    def test_usage_error_exits_2(self, capsys):
        from repro.analysis import main as lint_main

        assert lint_main(["--rule", "no-such-rule", "."]) == 2
        assert "unknown rule" in capsys.readouterr().err

    def test_internal_error_exits_2(self, tmp_path, capsys, monkeypatch):
        import repro.analysis.__main__ as lint_cli

        target = self._project(
            tmp_path, '"""Fixture."""\n\n\ndef f() -> int:\n    return 1\n'
        )

        def explode(*args, **kwargs):
            raise RuntimeError("engine bug")

        monkeypatch.setattr(lint_cli, "lint_paths", explode)
        assert lint_cli.main([str(target)]) == 2
        captured = capsys.readouterr()
        assert "internal error" in captured.err
        assert "RuntimeError" in captured.err
