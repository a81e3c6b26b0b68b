"""README.md held to the code: the names it cites resolve, its commands,
recipes and config keys are the CLI's, its install lines name the package's
dependencies, its known failures are the suite's xfails, and its Quick start
runs."""

import argparse
import ast
import importlib
import json
import pkgutil
import re
import typing
from dataclasses import fields, is_dataclass
from pathlib import Path

import pytest

import calpro
from calpro import active, cli, datagen, experiments, trainer

ROOT = Path(__file__).resolve().parents[1]
README = (ROOT / "README.md").read_text(encoding="utf-8")
MODULES = {m.name for m in pkgutil.iter_modules(calpro.__path__)}

FENCE = re.compile(r"^```(\w*)\n(.*?)^```$", re.M | re.S)
TICKED = re.compile(r"`([^`\n]+)`")
DOTTED = re.compile(r"[A-Za-z_]\w*(?:\.[A-Za-z_]\w*)+")
# a directory of the repo, or a file in one, with pytest's ::-separated test
# id; other slashed names (no extension) are config-key paths
REPO_PATH = re.compile(r"(?:[\w.-]+/)+(?:[\w.-]+\.(?:py|json|md|toml))?((?:::\w+)*)")
KEY_PATH = re.compile(r"[a-z_]+(?:/[a-z_]+)+")
FILE_NAME = re.compile(r".*\.(?:json|csv|py|toml|md)")

# the config sections that are dataclasses, and the keys cmd_active reads
# beside the active section's fields
SECTIONS = {"generator": datagen.GeneratorConfig, "shifted_generator": datagen.GeneratorConfig,
            "train": trainer.TrainConfig, "active": active.ActiveConfig}
EXTRA_KEYS = {active.ActiveConfig: {"strategies": "string array"}}


def _section(title):
    """The text under the README heading `title`, up to the next heading of
    any level."""
    match = re.search(rf"^#+ {re.escape(title)}\n(.*?)(?=^#+ |\Z)", README, re.M | re.S)
    assert match, f"README has no section {title!r}"
    return match.group(1)


def _prose(text):
    return FENCE.sub("", text)


def _phrase(pattern, text):
    """The first group of pattern's first match in text, its lines joined."""
    match = re.search(pattern, " ".join(text.split()))
    assert match, f"README has no {pattern!r}"
    return match.group(1)


def _table(text):
    """The rows of the first markdown table in text, as lists of cells."""
    rows = [line.strip().strip("|").split("|") for line in text.splitlines()
            if line.startswith("|")]
    return [[cell.strip() for cell in row] for row in rows[2:]]


def _ticked(cell):
    return TICKED.findall(cell)


def _resolve(name):
    """The object a dotted name names, its first part a calpro module or a
    name one of them defines (AttributeError past that); None when the
    first part is neither."""
    first, *rest = name.split(".")
    modules = {m: importlib.import_module(f"calpro.{m}") for m in sorted(MODULES)}
    if first in modules:
        obj = modules[first]
    else:
        owners = [getattr(mod, first) for mod in modules.values()
                  if getattr(getattr(mod, first, None), "__module__", None) == mod.__name__]
        if not owners:
            return None
        obj = owners[0]
    for part in rest:
        obj = getattr(obj, part)
    return obj


def _kind(tp):
    """A field annotation's JSON kind, as README's config table names it."""
    args = [a for a in typing.get_args(tp) if a is not type(None)]
    if type(None) in typing.get_args(tp):
        return _kind(args[0])
    if typing.get_origin(tp) is tuple:
        return f"{_kind(args[0])} array"
    if is_dataclass(tp) or tp is dict:
        return "object"
    return {int: "integer", float: "number", str: "string"}[tp]


def _settable(cls):
    """{key: JSON kind} of what a config section of dataclass cls takes."""
    keys = {f.name: _kind(f.type) for f in fields(cls)
            if f.name not in cli.SET_BY_RUN.get(cls, set())}
    return {**keys, **EXTRA_KEYS.get(cls, {})}


def _types(cls):
    return {f.name: f.type for f in fields(cls)}


def _key_path(path):
    """(the dataclass read from a config-key path's last section, the key);
    KeyError unless every part is a key of its section."""
    first, *rest = path.split("/")
    cls = SECTIONS[first]
    for part in rest[:-1]:
        cls = _types(cls)[part]
    if rest[-1] not in _types(cls).keys() | EXTRA_KEYS.get(cls, {}).keys():
        raise KeyError(path)
    return cls, rest[-1]


def test_dotted_names_resolve():
    """A dotted name of a calpro module (`bounds.CPUS`) or of a name one
    defines (`Dataset.subset`) resolves; a benchmark trace metric
    (`trainer.steps`, `layer.head.self_s`) is one of BENCHMARK.json's
    per_layer names."""
    metrics = {m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]}
    names = {n for n in _ticked(_prose(README))
             if DOTTED.fullmatch(n) and not FILE_NAME.fullmatch(n)}
    dead = []
    for name in sorted(names - metrics):
        try:
            if _resolve(name) is None and name.split(".")[0] in ("layer", "trace"):
                dead.append(name)
        except AttributeError:
            dead.append(name)
    assert {"bounds.CPUS", "trainer.steps"} <= names
    assert dead == []


def test_repo_paths_exist():
    """Every file, directory and test id README cites is in the repo."""
    missing = []
    for ticked in _ticked(_prose(README)):
        match = REPO_PATH.fullmatch(ticked)
        if not match:
            continue
        path = ROOT / ticked.split("::")[0]
        source = path.read_text(encoding="utf-8") if path.is_file() else ""
        parts = match.group(1).split("::")[1:]
        if not path.exists() or any(not re.search(rf"^\s*(?:def|class) {p}\b", source, re.M)
                                    for p in parts):
            missing.append(ticked)
    assert missing == []


def test_config_key_paths_resolve():
    """`train/objective/mu_only` and the like name keys of their sections,
    and the keys the run sets itself are exactly cli.SET_BY_RUN's."""
    paths = {p for p in _ticked(_prose(README)) if KEY_PATH.fullmatch(p)}
    for path in paths:
        first, *rest = path.split("/")
        assert first in SECTIONS, path
        if rest:
            _key_path(path)
    text = re.search(r"Keys that the run sets itself(.*?)\n\n", README, re.S).group(1)
    listed = {_key_path(p) for p in _ticked(text) if KEY_PATH.fullmatch(p)}
    assert listed == {(cls, key) for cls, keys in cli.SET_BY_RUN.items() for key in keys}


def test_config_table_lists_each_section_key_with_its_kind():
    rows = {}
    for section, read_as, keys in _table(_section("Config values")):
        same = re.fullmatch(r"as `(\w+)`", keys)
        listed = dict(rows[same.group(1)][1]) if same else {}
        for part in ([] if same else keys.split(";")):
            kind = part.split("`")[0].strip()
            listed.update((key, kind) for key in _ticked(part))
        rows[section.strip("`")] = (read_as, listed)
    top = rows.pop("top level")[1]
    spec = _settable(experiments.ExperimentSpec)
    assert {k: v for k, v in top.items() if k in spec} == {
        k: v for k, v in spec.items() if k in top}
    for section, (read_as, listed) in rows.items():
        cls = _resolve(read_as.strip("`"))
        if "/" in section:
            owner, key = _key_path(section)
            assert cls is _types(owner)[key], section
        else:
            assert cls is SECTIONS[section], section
        assert listed == _settable(cls), section


def test_commands_are_the_parsers():
    (subparsers,) = [a for a in cli.build_parser()._actions
                     if isinstance(a, argparse._SubParsersAction)]
    listed = [row[0].strip("`") for row in _table(_section("Commands"))]
    assert sorted(listed) == sorted(subparsers.choices)


def test_recipes_are_cli_experiments_with_the_keys_they_read():
    listed = {row[0].strip("`"): set(_ticked(row[1]))
              for row in _table(_section("Experiment recipes"))}
    assert listed == {name: reads for name, (reads, _) in cli.EXPERIMENTS.items()}


def test_install_lines_name_the_dependencies():
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads((ROOT / "pyproject.toml").read_text(encoding="utf-8"))["project"]
    install = _section("Install")

    def names(specs):
        return {re.match(r"[\w-]+", spec).group(0) for spec in specs}

    runtime = _phrase(r"Runtime dependencies are (.*?)\.", install)
    assert set(_ticked(runtime)) == names(project["dependencies"])
    extra = _phrase(r"The `test` extra adds (.*?):", install)
    assert set(_ticked(extra)) == names(project["optional-dependencies"]["test"])
    assert "pip install -e '.[test]'" in install


def _xfails():
    """pytest ids of the suite's tests marked xfail."""
    ids = set()
    for path in sorted((ROOT / "tests").glob("test_*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        scopes = [(node.name + "::", node) for node in tree.body
                  if isinstance(node, ast.ClassDef)] + [("", tree)]
        for prefix, scope in scopes:
            for fn in scope.body:
                if isinstance(fn, ast.FunctionDef) and any(
                        "xfail" in ast.unparse(d) for d in fn.decorator_list):
                    ids.add(f"tests/{path.name}::{prefix}{fn.name}")
    return ids


def test_known_failures_are_the_strict_xfails():
    text = _phrase(r"strict xfails(.*)", _section("Tests"))
    assert {t for t in _ticked(text) if "::" in t} == _xfails()
    assert re.search(r"^xfail_strict = true$", (ROOT / "pyproject.toml").read_text(), re.M)


def test_quick_start_runs(capsys):
    ((lang, code),) = FENCE.findall(_section("Quick start"))
    assert lang == "python"
    exec(compile(code, "README.md: Quick start", "exec"), {})
    assert capsys.readouterr().out.strip()
