"""Tests for ``pghive-lint`` (:mod:`repro.analysis`).

Three layers:

* fixture projects under ``tests/fixtures/lint/`` plant exactly one (or
  a handful of) violations per rule; each rule must fire on its plant;
* the suppression machinery is exercised end to end: justified
  directives silence findings, unexplained and stale directives are
  themselves findings, ``disable-file`` covers a whole module, and a
  ``--rule``-filtered run never audits unrelated directives;
* the meta-test: the repo's own ``src/repro`` tree lints clean, which
  is the invariant the CI ``static-analysis`` job enforces.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.analysis import Severity, all_rules, get_rule, lint_paths, main

FIXTURES = Path(__file__).resolve().parent / "fixtures" / "lint"
BAD_PROJECT = FIXTURES / "bad_project"
SUPPRESSED_PROJECT = FIXTURES / "suppressed_project"
INTERPROC_PROJECT = FIXTURES / "interproc_project"
SRC_REPRO = Path(__file__).resolve().parents[1] / "src" / "repro"

#: whole-program rule name -> fixture module (posix suffix) of its plant.
INTERPROC_PLANTED = {
    "exception-surface": "cli.py",
    "global-mutation-race": "core/parallel.py",
    "merge-purity": "schema/merge.py",
    "worker-reachability": "core/parallel.py",
}

#: file-rule name -> fixture module (posix suffix) where its plant lives.
PLANTED = {
    "assert-ban": "core/ordering.py",
    "bare-except": "hygiene.py",
    "config-cli-surface": "core/config.py",
    "env-read": "core/clock.py",
    "env-var-docs": "core/clock.py",
    "id-keyed-dict": "core/ordering.py",
    "init-exports": "__init__.py",
    "missing-annotations": "hygiene.py",
    "mutable-default": "hygiene.py",
    "payload-pickle": "workers.py",
    "slab-lifecycle": "storage.py",
    "unseeded-rng": "core/chaos.py",
    "unsorted-iteration": "core/ordering.py",
    "wall-clock": "core/clock.py",
    "worker-closure": "workers.py",
}


@pytest.fixture(scope="module")
def bad_findings():
    return lint_paths([BAD_PROJECT])


@pytest.fixture(scope="module")
def interproc_findings():
    rules = [get_rule(name) for name in sorted(INTERPROC_PLANTED)]
    return lint_paths([INTERPROC_PROJECT], rules=rules)


def _by_rule(findings):
    grouped: dict[str, list] = {}
    for finding in findings:
        grouped.setdefault(finding.rule, []).append(finding)
    return grouped


# ----------------------------------------------------------------------
# Every rule fires on its planted violation
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    "rule,suffix", sorted(PLANTED.items()), ids=sorted(PLANTED)
)
def test_rule_fires_on_planted_violation(bad_findings, rule, suffix):
    hits = [f for f in bad_findings if f.rule == rule]
    assert hits, f"rule {rule!r} produced no findings on the bad fixture"
    paths = {Path(f.path).as_posix() for f in hits}
    assert any(p.endswith(suffix) for p in paths), (
        f"{rule!r} fired, but not in the fixture module {suffix} "
        f"(got {sorted(paths)})"
    )


def test_planted_table_covers_every_registered_rule():
    # A new rule must come with a fixture plant; this keeps the two in
    # lockstep (the suppression audit pseudo-rules are engine-level).
    registered = {rule.name for rule in all_rules()}
    assert set(PLANTED) | set(INTERPROC_PLANTED) == registered
    assert not set(PLANTED) & set(INTERPROC_PLANTED)


def test_ghost_export_and_undocumented_export_are_distinct(bad_findings):
    messages = [f.message for f in bad_findings if f.rule == "init-exports"]
    assert any("ghost_export" in m and "neither defines" in m
               for m in messages)
    assert any("undocumented_thing" in m and "not mentioned" in m
               for m in messages)


def test_sanctioned_env_read_in_config_is_not_flagged(bad_findings):
    # core/config.py reads os.environ too, but it is an exempt module.
    env_paths = {
        Path(f.path).as_posix()
        for f in bad_findings if f.rule == "env-read"
    }
    assert not any(p.endswith("core/config.py") for p in env_paths)


def test_managed_handle_lifecycles_are_not_flagged(bad_findings):
    # storage.py also opens handles via with/close()/return: only the
    # three ownerless sites may fire.
    hits = [f for f in bad_findings if f.rule == "slab-lifecycle"]
    assert len(hits) == 3
    assert all(Path(f.path).as_posix().endswith("storage.py") for f in hits)


def test_untracked_mmap_is_flagged(bad_findings):
    # mmap.mmap stays a tracked handle: the leaked mapping in
    # storage.py fires under its own name, the managed ones do not.
    hits = [
        f for f in bad_findings
        if f.rule == "slab-lifecycle" and f.message.startswith("mmap.mmap")
    ]
    assert len(hits) == 1
    source = Path(hits[0].path).read_text(encoding="utf-8").splitlines()
    assert "# leaked" in source[hits[0].line - 1]


def test_undocumented_subcommand_is_flagged(bad_findings):
    messages = [
        f.message for f in bad_findings if f.rule == "config-cli-surface"
    ]
    assert any(
        "ghost-command" in m and "not documented" in m for m in messages
    )


def test_set_comprehension_leak_is_flagged(bad_findings):
    # A list comprehension over a set is a sink of its own (the form
    # that hid the tied-Jaccard host bug in schema/merge.py); iterating
    # sorted() over the same set is not.
    hits = [
        f for f in bad_findings
        if f.rule == "unsorted-iteration" and "comprehension" in f.message
    ]
    assert len(hits) == 1
    assert Path(hits[0].path).as_posix().endswith("core/ordering.py")


def test_documented_env_var_is_not_flagged(bad_findings):
    messages = [f.message for f in bad_findings if f.rule == "env-var-docs"]
    assert all("PGHIVE_DOCUMENTED" not in m for m in messages)
    assert any("PGHIVE_UNDOCUMENTED" in m for m in messages)


# ----------------------------------------------------------------------
# Whole-program rules (interprocedural effect analysis)
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    "rule,suffix",
    sorted(INTERPROC_PLANTED.items()),
    ids=sorted(INTERPROC_PLANTED),
)
def test_interproc_rule_fires_on_planted_violation(
    interproc_findings, rule, suffix
):
    hits = [f for f in interproc_findings if f.rule == rule]
    assert hits, f"rule {rule!r} produced no findings on the fixture"
    paths = {Path(f.path).as_posix() for f in hits}
    assert any(p.endswith(suffix) for p in paths), (
        f"{rule!r} fired, but not in the fixture module {suffix} "
        f"(got {sorted(paths)})"
    )


def test_transitive_effect_carries_multi_hop_witness_chain(
    interproc_findings,
):
    # The wall-clock read sits two calls below the root; the finding
    # must name the full path root -> _audit -> _stamp, not just the
    # leaf.
    [hit] = [
        f for f in interproc_findings
        if f.rule == "worker-reachability" and "wall-clock" in f.message
    ]
    assert hit.trace == ("_discover_one", "_audit", "_stamp")
    assert "_discover_one -> _audit -> _stamp" in hit.message


def test_effect_propagates_through_recursive_cycle(interproc_findings):
    # _walk calls itself; the fixpoint must converge and still surface
    # the env read hiding inside the cycle.
    hits = [
        f for f in interproc_findings
        if f.rule == "worker-reachability"
        and "environment read" in f.message
    ]
    assert hits
    assert any("_walk" in f.trace for f in hits)


def test_class_attribute_dispatch_resolves_to_kernel(interproc_findings):
    # kernel.impl() resolves through the Kernel.impl = _rng_kernel
    # class-attribute binding to the unseeded RNG.
    hits = [
        f for f in interproc_findings
        if f.rule == "worker-reachability" and "unseeded RNG" in f.message
    ]
    assert hits
    assert any(f.trace[-1] == "_rng_kernel" for f in hits)


def test_dynamic_call_degrades_to_conservative_finding(
    interproc_findings,
):
    # getattr(payload, payload.name) cannot be resolved statically; the
    # analysis must flag the call rather than silently assume purity.
    assert any(
        f.rule == "worker-reachability"
        and "statically unresolvable" in f.message
        for f in interproc_findings
    )


def test_merge_fold_config_mutation_is_flagged(interproc_findings):
    assert any(
        f.rule == "merge-purity"
        and "mutates the shared config parameter" in f.message
        for f in interproc_findings
    )


def test_pure_merge_root_produces_no_findings(interproc_findings):
    # combine_shard_results is deliberately clean: a finding naming it
    # as the root would be a precision regression.
    assert not any(
        "combine_shard_results" in f.message for f in interproc_findings
    )


def test_sanctioned_systemexit_escape_is_not_flagged(interproc_findings):
    surface = [
        f for f in interproc_findings if f.rule == "exception-surface"
    ]
    assert surface
    assert all("SystemExit" not in f.message for f in surface)
    assert any("RuntimeError" in f.message for f in surface)


def test_interproc_rules_are_vacuous_without_roots(bad_findings):
    # bad_project defines none of the root functions: the whole-program
    # rules must not invent findings there.
    assert not any(
        f.rule in INTERPROC_PLANTED for f in bad_findings
    )


# ----------------------------------------------------------------------
# Suppressions
# ----------------------------------------------------------------------
def test_suppressions_silence_and_are_audited():
    grouped = _by_rule(lint_paths([SUPPRESSED_PROJECT]))
    # Both wall-clock reads carry directives: neither may surface.
    assert "wall-clock" not in grouped
    # The directive without a reason is itself a finding...
    assert len(grouped["unexplained-suppression"]) == 1
    # ...as is the directive that suppresses nothing.
    [stale] = grouped["unused-suppression"]
    assert "id-keyed-dict" in stale.message
    # disable-file covers every def in file_wide.py.
    assert "missing-annotations" not in grouped


def test_rule_filter_skips_unrelated_suppression_audit():
    # bare-except is unrelated to every directive in the fixture; a
    # filtered run must not cry "unused" about directives it never
    # evaluated.
    findings = lint_paths(
        [SUPPRESSED_PROJECT], rules=[get_rule("bare-except")]
    )
    assert findings == []


def test_rule_filter_still_audits_its_own_directives():
    grouped = _by_rule(lint_paths(
        [SUPPRESSED_PROJECT], rules=[get_rule("wall-clock")]
    ))
    assert "wall-clock" not in grouped  # still suppressed
    assert "unexplained-suppression" in grouped  # still audited
    assert "unused-suppression" not in grouped  # id-keyed-dict not active


# ----------------------------------------------------------------------
# Engine behaviour
# ----------------------------------------------------------------------
def test_findings_are_sorted_and_deterministic(bad_findings):
    assert bad_findings == lint_paths([BAD_PROJECT])
    keys = [(f.path, f.line, f.rule, f.message) for f in bad_findings]
    assert keys == sorted(keys)


def test_min_severity_drops_warnings():
    errors = lint_paths([BAD_PROJECT], min_severity=Severity.ERROR)
    assert errors
    assert all(f.severity is Severity.ERROR for f in errors)
    assert not any(f.rule == "missing-annotations" for f in errors)


def test_single_file_target():
    findings = lint_paths([BAD_PROJECT / "repro" / "hygiene.py"])
    assert {f.rule for f in findings} >= {"bare-except", "mutable-default"}


def test_missing_target_raises():
    with pytest.raises(FileNotFoundError):
        lint_paths([FIXTURES / "does_not_exist"])


# ----------------------------------------------------------------------
# Result cache (--cache)
# ----------------------------------------------------------------------
def _write_project(root: Path, body: str) -> Path:
    package = root / "repro"
    package.mkdir(parents=True, exist_ok=True)
    (package / "__init__.py").write_text('"""Fixture."""\n')
    module = package / "timed.py"
    module.write_text(body)
    return module


DIRTY = '"""Fixture."""\nimport time\n\n\ndef now() -> float:\n    return time.time()\n'
CLEAN = '"""Fixture."""\n\n\ndef now() -> float:\n    return 0.0\n'


def test_cache_round_trip_is_deterministic(tmp_path):
    _write_project(tmp_path / "proj", DIRTY)
    cache_dir = tmp_path / "cache"
    cold = lint_paths([tmp_path / "proj"], cache_dir=cache_dir)
    assert any(f.rule == "wall-clock" for f in cold)
    assert list(cache_dir.glob("*.json")), "cache wrote no entries"
    warm = lint_paths([tmp_path / "proj"], cache_dir=cache_dir)
    assert warm == cold


def test_cache_invalidated_by_file_edit(tmp_path):
    module = _write_project(tmp_path / "proj", DIRTY)
    cache_dir = tmp_path / "cache"
    dirty = lint_paths([tmp_path / "proj"], cache_dir=cache_dir)
    assert any(f.rule == "wall-clock" for f in dirty)
    # Removing the violation must change the content hash and miss the
    # cache: a served stale entry would still report wall-clock here.
    module.write_text(CLEAN)
    assert lint_paths([tmp_path / "proj"], cache_dir=cache_dir) == []
    # And back again: the original entry is still valid and still dirty.
    module.write_text(DIRTY)
    assert lint_paths([tmp_path / "proj"], cache_dir=cache_dir) == dirty


def test_cache_keys_include_ruleset_version(tmp_path):
    from repro.analysis.cache import LintCache

    module = _write_project(tmp_path / "proj", DIRTY)
    old = LintCache(tmp_path / "cache")
    new = LintCache(tmp_path / "cache")
    new.version = "different-ruleset"
    rules = ("wall-clock",)
    assert old.file_key(module, rules) != new.file_key(module, rules)
    assert old.run_key([module], rules, 1) != new.run_key([module], rules, 1)


def test_cache_tolerates_corrupt_entries(tmp_path):
    _write_project(tmp_path / "proj", DIRTY)
    cache_dir = tmp_path / "cache"
    expected = lint_paths([tmp_path / "proj"], cache_dir=cache_dir)
    for entry in cache_dir.glob("*.json"):
        entry.write_text("{not json")
    assert lint_paths([tmp_path / "proj"], cache_dir=cache_dir) == expected


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------
def test_cli_findings_exit_one_text_format(capsys):
    assert main([str(BAD_PROJECT)]) == 1
    captured = capsys.readouterr()
    assert "wall-clock" in captured.out
    assert "findings" in captured.err


def test_cli_json_format(capsys):
    assert main([str(BAD_PROJECT), "--format", "json"]) == 1
    captured = capsys.readouterr()
    records = json.loads(captured.out)
    assert records
    assert {"path", "line", "rule", "message", "severity"} <= set(records[0])
    assert {r["rule"] for r in records} >= {"wall-clock", "payload-pickle"}


def test_cli_sarif_format(capsys):
    assert main([str(BAD_PROJECT), "--format", "sarif"]) == 1
    captured = capsys.readouterr()
    report = json.loads(captured.out)
    assert report["version"] == "2.1.0"
    [run] = report["runs"]
    driver = run["tool"]["driver"]
    assert driver["name"] == "pghive-lint"
    catalogued = {rule["id"] for rule in driver["rules"]}
    results = run["results"]
    assert results
    for result in results:
        assert result["ruleId"] in catalogued
        location = result["locations"][0]["physicalLocation"]
        assert location["artifactLocation"]["uri"]
        assert location["region"]["startLine"] >= 1


def test_cli_sarif_carries_witness_trace(capsys):
    code = main([
        str(INTERPROC_PROJECT), "--format", "sarif",
        "--rule", "worker-reachability",
    ])
    assert code == 1
    report = json.loads(capsys.readouterr().out)
    results = report["runs"][0]["results"]
    traces = [
        r["properties"]["trace"] for r in results
        if "properties" in r and "trace" in r["properties"]
    ]
    assert any(len(trace) >= 3 for trace in traces)


def test_cli_sarif_clean_tree_is_valid_and_exits_zero(tmp_path, capsys):
    _write_project(tmp_path / "proj", CLEAN)
    assert main([str(tmp_path / "proj"), "--format", "sarif"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["runs"][0]["results"] == []


def test_cli_rule_filter(capsys):
    assert main([str(BAD_PROJECT), "--rule", "bare-except"]) == 1
    captured = capsys.readouterr()
    lines = [l for l in captured.out.splitlines() if l.strip()]
    assert lines and all("bare-except" in l for l in lines)


def test_cli_unknown_rule_is_usage_error(capsys):
    assert main([str(BAD_PROJECT), "--rule", "no-such-rule"]) == 2
    assert "unknown rule" in capsys.readouterr().err


def test_cli_missing_path_is_usage_error(capsys):
    assert main([str(FIXTURES / "nope")]) == 2


def test_cli_list_rules(capsys):
    assert main(["--list-rules"]) == 0
    out = capsys.readouterr().out
    for rule in all_rules():
        assert rule.name in out


# ----------------------------------------------------------------------
# Meta: the repo's own sources lint clean
# ----------------------------------------------------------------------
def test_repo_source_tree_is_clean():
    assert lint_paths([SRC_REPRO]) == []


def test_repo_source_tree_clean_via_cli(capsys):
    assert main([str(SRC_REPRO)]) == 0
    assert "no findings" in capsys.readouterr().err
