"""Call-graph argument binding of the whole-program linter.

A constructor call ``Cls(a)`` runs ``Cls.__init__(self, a)``: its
arguments bind after ``self``, or an ``__init__`` that stores its
argument on ``self`` would read as mutating the caller's variable.
"""

from repro.analysis import lint_paths

CONSTRUCTOR_FOLD = '''"""Fixture."""


class Engine:
    """Keeps the config it is given."""

    def __init__(self, config: object, name: str = "x") -> None:
        self.config = config
        self.name = name


def combine_shard_results(results: list, config: object) -> object:
    """Builds an engine from the shared config."""
    return Engine(config, name="g")
'''


def test_constructor_argument_binds_after_self(tmp_path):
    """``Engine(config)`` passes ``config`` as parameter 1 of
    ``__init__``: the constructor writing ``self.config`` must not read
    as the fold mutating its config, while a real mutation still does."""
    core = tmp_path / "proj" / "repro" / "core"
    core.mkdir(parents=True)
    for package in (core.parent, core):
        (package / "__init__.py").write_text('"""Fixture."""\n')
    module = core / "parallel.py"
    module.write_text(CONSTRUCTOR_FOLD)
    assert not [
        f for f in lint_paths([tmp_path / "proj"])
        if f.rule == "merge-purity"
    ]
    module.write_text(CONSTRUCTOR_FOLD.replace(
        "self.config = config", "config.seed = 1"
    ))
    assert any(
        f.rule == "merge-purity"
        and "mutates the shared config parameter" in f.message
        for f in lint_paths([tmp_path / "proj"])
    )
