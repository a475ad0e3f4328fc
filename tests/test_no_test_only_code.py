"""Every module-level function and class of the library is named by other library code.

A definition that only tests reach is test code living in ``src/``; it
belongs in ``tests/`` or nowhere.  Names are matched as plain names,
attribute names and imported names, anywhere in ``src/berezin_lab``
outside the definition's own body.  No library module reads the
environment either: a run is its command line.
"""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "berezin_lab"

# Reached by tests only today; each waits on the ROADMAP item that gives it a library caller.
KEPT = {
    "coeff_Q_o": "item 5: the independent side of the r = 0 check, bound to a ledger row",
    "coeff_CVQ_u": "item 4: the unitary Plancherel family",
    "covariance_convention_table": "item 5: the check of the ledger row 'kernel covariance multiplier'",
}


def _names(node):
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            yield sub.id
        elif isinstance(sub, ast.Attribute):
            yield sub.attr
        elif isinstance(sub, ast.alias):
            yield sub.name


def test_every_src_definition_is_named_by_other_src_code():
    defined, named = [], set()
    for path in sorted(SRC.glob("*.py")):
        for stmt in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
                defined.append(f"{path.stem}.{stmt.name}")
                named.update(name for name in _names(stmt) if name != stmt.name)
            else:
                named.update(_names(stmt))
    unnamed = [full for full in defined if full.rpartition(".")[2] not in named]
    test_only = [full for full in unnamed if full.rpartition(".")[2] not in KEPT]
    # a kept name that gains a caller leaves the list, so the list stays exact
    stale = sorted(set(KEPT) - {full.rpartition(".")[2] for full in unnamed})
    assert not test_only and not stale, f"named by no src code: {test_only}; kept but named: {stale}"


def test_no_src_module_reads_the_environment():
    reads = {path.name: {"environ", "getenv"}.intersection(
                 _names(ast.parse(path.read_text(encoding="utf-8"))))
             for path in sorted(SRC.glob("*.py"))}
    assert not {name: found for name, found in reads.items() if found}
