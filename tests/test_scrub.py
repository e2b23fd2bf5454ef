"""Scrub and repair of slab directories.

The contract under test: every injected corruption -- a flipped byte, a
sheared file, a half-renamed manifest -- is *detected* (scrub pinpoints
the exact file, the reader refuses to open), and repair rolls the
directory back to its newest fully verified generation so that a
resumed ingest reproduces byte-identical slabs.
"""

import pytest

from repro.graph.builder import GraphBuilder
from repro.graph.diskstore import write_graph_to_slabs
from repro.graph.scrub import (
    repair_slab_directory,
    scrub_slab_directory,
)
from repro.graph.slab import (
    MANIFEST_BACKUP_NAME,
    MANIFEST_NAME,
    SlabCorruptionError,
    SlabReader,
    SlabWriter,
)


def _nodes(start, count):
    return [
        (i, frozenset({"P"}), {"x": i})
        for i in range(start, start + count)
    ]


def _two_commit_dir(directory):
    """A directory with two committed generations of nodes."""
    with SlabWriter(directory, name="t") as writer:
        writer.add_nodes(_nodes(0, 8))
        writer.commit({"src": 8})
        writer.add_nodes(_nodes(8, 8))
        writer.commit({"src": 16})
    return directory


def _flip_last_byte(path):
    with path.open("r+b") as handle:
        handle.seek(-1, 2)
        byte = handle.read(1)
        handle.seek(-1, 2)
        handle.write(bytes((byte[0] ^ 0xFF,)))


class TestScrub:
    def test_clean_directory_is_clean(self, tmp_path):
        directory = _two_commit_dir(tmp_path / "slabs")
        report = scrub_slab_directory(directory)
        assert report.clean
        assert report.manifest_status == "ok"
        assert report.generations >= 1
        assert all(v.status == "ok" for v in report.verdicts)
        assert report.describe().endswith("verdict: clean")

    def test_bitflip_pinpoints_the_exact_file(self, tmp_path):
        directory = _two_commit_dir(tmp_path / "slabs")
        _flip_last_byte(directory / "nodes-props.dat")
        report = scrub_slab_directory(directory)
        assert not report.clean
        bad = [v for v in report.verdicts if v.status != "ok"]
        assert [v.file for v in bad] == ["nodes-props.dat"]
        assert bad[0].status == "checksum"
        assert "nodes-props.dat" in report.describe()
        assert report.describe().endswith("verdict: corrupt")

    def test_truncated_file_detected(self, tmp_path):
        directory = _two_commit_dir(tmp_path / "slabs")
        path = directory / "nodes-ids.i64"
        with path.open("r+b") as handle:
            handle.truncate(path.stat().st_size - 8)
        bad = [
            v for v in scrub_slab_directory(directory).verdicts
            if v.status != "ok"
        ]
        assert [(v.file, v.status) for v in bad] == \
            [("nodes-ids.i64", "truncated")]

    def test_missing_file_detected(self, tmp_path):
        directory = _two_commit_dir(tmp_path / "slabs")
        (directory / "nodes-props.dat").unlink()
        bad = [
            v for v in scrub_slab_directory(directory).verdicts
            if v.status != "ok"
        ]
        assert [(v.file, v.status) for v in bad] == \
            [("nodes-props.dat", "missing")]

    def test_corrupt_manifest_falls_back_to_backup(self, tmp_path):
        directory = _two_commit_dir(tmp_path / "slabs")
        (directory / MANIFEST_NAME).write_text("{torn", encoding="utf-8")
        report = scrub_slab_directory(directory)
        assert report.manifest_status == "corrupt"
        assert not report.clean
        # Data files still verify against the backup's prefix lengths.
        assert all(v.status == "ok" for v in report.verdicts)

    def test_unreadable_when_backup_also_corrupt(self, tmp_path):
        directory = _two_commit_dir(tmp_path / "slabs")
        (directory / MANIFEST_NAME).write_text("{torn", encoding="utf-8")
        (directory / MANIFEST_BACKUP_NAME).write_text(
            "{also torn", encoding="utf-8"
        )
        report = scrub_slab_directory(directory)
        assert report.manifest_status == "unreadable"
        assert not report.clean
        assert report.verdicts == ()

    def test_not_a_slab_directory_raises(self, tmp_path):
        empty = tmp_path / "empty"
        empty.mkdir()
        with pytest.raises(FileNotFoundError):
            scrub_slab_directory(empty)
        with pytest.raises(FileNotFoundError):
            repair_slab_directory(empty)


class TestRepair:
    def test_clean_directory_repair_is_a_noop(self, tmp_path):
        directory = _two_commit_dir(tmp_path / "slabs")
        report = repair_slab_directory(directory)
        assert report.repaired
        assert report.restored == "current"
        assert not any("rewrote manifest" in a for a in report.actions)

    def test_reader_refuses_corrupt_directory(self, tmp_path):
        directory = _two_commit_dir(tmp_path / "slabs")
        _flip_last_byte(directory / "nodes-props.dat")
        with pytest.raises(SlabCorruptionError) as info:
            SlabReader(directory)
        assert info.value.kind == "checksum"
        assert "nodes-props.dat" in str(info.value)

    def test_bitflip_rolls_back_one_generation(self, tmp_path):
        directory = _two_commit_dir(tmp_path / "slabs")
        # The last heap byte belongs to the second commit: generation -1
        # (the state after the first commit) still verifies.
        _flip_last_byte(directory / "nodes-props.dat")
        report = repair_slab_directory(directory)
        assert report.repaired
        assert report.restored == "generation -1"
        assert any("rejected current" in a for a in report.actions)
        assert scrub_slab_directory(directory).clean
        with SlabReader(directory) as reader:
            assert reader.node_count == 8
        with SlabWriter(directory) as writer:
            assert writer.source_progress("src") == 8

    def test_resume_after_rollback_is_byte_identical(self, tmp_path):
        directory = _two_commit_dir(tmp_path / "slabs")
        reference = _two_commit_dir(tmp_path / "reference")
        _flip_last_byte(directory / "nodes-props.dat")
        assert repair_slab_directory(directory).repaired
        with SlabWriter(directory) as writer:
            writer.add_nodes(_nodes(8, 8))
            writer.commit({"src": 16})
        for name in ("nodes-ids.i64", "nodes-props.dat"):
            assert (directory / name).read_bytes() == \
                (reference / name).read_bytes()

    def test_manifest_restored_from_backup(self, tmp_path):
        directory = _two_commit_dir(tmp_path / "slabs")
        (directory / MANIFEST_NAME).write_text("{torn", encoding="utf-8")
        report = repair_slab_directory(directory)
        assert report.repaired
        assert any(MANIFEST_BACKUP_NAME in a for a in report.actions)
        # The backup still describes the full durable state (the writer's
        # closing commit rewrote an unchanged manifest, pushing it into
        # the backup slot): nothing is lost, the directory opens cleanly.
        assert scrub_slab_directory(directory).clean
        with SlabReader(directory) as reader:
            assert reader.node_count == 16
            assert reader.source_progress("src") == 16

    def test_unrepairable_when_no_generation_verifies(self, tmp_path):
        directory = tmp_path / "slabs"
        builder = GraphBuilder("tiny")
        builder.node(["A"], {"x": 1})
        write_graph_to_slabs(builder.build(), directory).close()
        (directory / MANIFEST_NAME).write_text("{torn", encoding="utf-8")
        (directory / MANIFEST_BACKUP_NAME).write_text(
            "{also torn", encoding="utf-8"
        )
        report = repair_slab_directory(directory)
        assert not report.repaired
        assert "no parseable manifest" in report.detail
