"""The package's exported names and the command line's options, pinned:
a change that adds, removes or renames a public name or a CLI knob must
edit these lists, so it shows in the diff."""

import argparse
import ast
import importlib
import inspect
import re
from pathlib import Path

import dsrg
from dsrg.cli import build_parser

PUBLIC = [
    "AdjFormatError",
    "BinMatrix",
    "BoundExceeded",
    "CayleySpec",
    "ConstructionResult",
    "DOUBLY_REGULAR_TOURNAMENT",
    "DimensionError",
    "DsrgParams",
    "FeasibilityReport",
    "GENUINE",
    "GroupTable",
    "IntMatrix",
    "IsoCertificate",
    "NotDsrg",
    "NotTournament",
    "PermSpec",
    "TeamProfile",
    "Tournament",
    "UNDIRECTED",
    "abelian_groups_up_to",
    "adjio",
    "are_isomorphic",
    "block_compose",
    "bordered_team_dsrg",
    "canonical_form",
    "cayley_criteria",
    "cayley_dsrg",
    "cayley_graph",
    "cayley_subset_scan",
    "circulant_tournament",
    "classify",
    "complement_graph",
    "complement_params",
    "conjugate_by_perm",
    "constructions",
    "cycle_power",
    "cycle_sum_dsrg",
    "cycle_sum_matrix",
    "cyclic_group",
    "dihedral_group",
    "direct_product",
    "duval_b",
    "duval_c",
    "duval_feasible",
    "enumerate_feasible",
    "enumerate_regular_tournaments",
    "format_adj",
    "groups",
    "hobart_shaw",
    "is_doubly_regular_team",
    "is_doubly_regular_tournament",
    "iso",
    "kronecker",
    "kronecker_expand",
    "m_construction",
    "m_of",
    "mat_mul_count",
    "matrix",
    "numth",
    "paley_tournament",
    "params",
    "parse_adj",
    "pq_dsrg",
    "pq_search",
    "qr_dsrg",
    "qr_search",
    "read_adj",
    "sigma_circulant",
    "symmetric_group",
    "tall_blocks",
    "team_dsrg",
    "team_lem6",
    "tournaments",
    "try_verify_dsrg",
    "verify_dsrg",
    "wide_blocks",
    "write_adj",
]


def test_public_names_are_pinned():
    assert sorted(dsrg.__all__) == PUBLIC


# option strings of each subcommand, positionals by name, -h/--help left
# out; the key "" holds the global options
CLI_OPTIONS = {
    "": [],
    "construct": ["method", "descriptor", "-o", "--output"],
    "verify": ["path"],
    "feasible": ["max_n"],
    "classify": ["paths", "--bound"],
    "catalog": ["max_n", "-o", "--output"],
    "tournaments": ["--n"],
    "cayley-scan": ["--group"],
    "qr-search": ["--q"],
    "pq-search": ["--tournament"],
}


def _options(parser):
    return [s for a in parser._actions
            if not isinstance(a, (argparse._HelpAction,
                                  argparse._SubParsersAction))
            for s in a.option_strings or [a.dest]]


def test_cli_options_are_pinned():
    parser = build_parser()
    sub = next(a for a in parser._actions
               if isinstance(a, argparse._SubParsersAction))
    found = {"": _options(parser)}
    found.update((name, _options(p)) for name, p in sub.choices.items())
    assert found == CLI_OPTIONS


ROOT = Path(__file__).resolve().parent.parent


def test_every_public_limit_is_documented():
    # a module-level integer constant with a public ALL_CAPS name is a
    # limit or version a user meets, so README.md names it
    readme = (ROOT / "README.md").read_text()
    limits = []
    for path in sorted((ROOT / "src" / "dsrg").glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, ast.Assign) and \
                    isinstance(node.value, ast.Constant) and \
                    type(node.value.value) is int:
                limits += [t.id for t in node.targets
                           if isinstance(t, ast.Name)
                           and re.fullmatch(r"[A-Z][A-Z0-9_]*", t.id)]
    assert "MAX_VERTICES" in limits
    assert [name for name in limits if name not in readme] == []


# public functions and classes that no code in the package calls, each with
# the reason it stays
UNREFERENCED = {
    "are_isomorphic": "the classify workload pairs graphs with it",
    "dihedral_group": "parse_group reaches it through getattr",
    "symmetric_group": "parse_group reaches it through getattr",
    "duval_feasible": "the reference oracle for iter_feasible",
    "complement_graph": "ROADMAP item 7 decides its fate",
    "complement_params": "ROADMAP item 7 decides its fate",
    "cycle_power": "ROADMAP item 2 decides its fate",
    "abelian_groups_up_to": "criterion 8's Jorgensen test",
    "is_doubly_regular_team": "the north star's team criterion",
}


def _package_references():
    # AST names, attributes and import aliases in every module but
    # __init__.py, leaving out each top-level definition's uses of its own
    # name
    refs = set()
    for path in (ROOT / "src" / "dsrg").glob("*.py"):
        if path.name == "__init__.py":
            continue
        for top in ast.parse(path.read_text()).body:
            own = getattr(top, "name", None)
            for node in ast.walk(top):
                name = (node.id if isinstance(node, ast.Name) else
                        node.attr if isinstance(node, ast.Attribute) else
                        node.name if isinstance(node, ast.alias) else None)
                if name is not None and name != own:
                    refs.add(name)
    return refs


def test_unreferenced_public_names_are_allowlisted():
    refs = _package_references()
    unreferenced = sorted(
        name for name in dsrg.__all__
        if (inspect.isfunction(getattr(dsrg, name))
            or inspect.isclass(getattr(dsrg, name))) and name not in refs)
    assert unreferenced == sorted(UNREFERENCED)


def test_bound_exceeded_is_one_class():
    assert dsrg.BoundExceeded is dsrg.iso.BoundExceeded is \
        dsrg.matrix.BoundExceeded


def test_readme_references_resolve():
    # every backticked module.NAME in README.md (optionally dsrg.module.NAME;
    # cons and grp are the examples' aliases) and every backticked
    # Class.attr of an exported class names an attribute that exists
    modules = {path.stem for path in (ROOT / "src" / "dsrg").glob("*.py")}
    aliases = {"cons": "constructions", "grp": "groups"}
    readme = (ROOT / "README.md").read_text()
    checked, missing = [], []
    for owner, attr in re.findall(
            r"`(?:dsrg\.)?([A-Za-z_]\w*)\.([A-Za-z_]\w*)`", readme):
        name = aliases.get(owner, owner)
        if name in modules:
            target = importlib.import_module(f"dsrg.{name}")
        elif name in dsrg.__all__ and inspect.isclass(getattr(dsrg, name)):
            target = getattr(dsrg, name)
        else:
            continue
        checked.append(f"{owner}.{attr}")
        if not (hasattr(target, attr) or
                attr in getattr(target, "__dataclass_fields__", {})):
            missing.append(f"{owner}.{attr}")
    assert "constructions.MAX_VERTICES" in checked
    assert missing == []
