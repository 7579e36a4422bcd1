"""What the package's modules import.

scipy.stats takes most of a second and about 70 MB to import, so no command
loads it: schema computes its moments in numpy. scipy.special costs about a
third of that, and only the Levy family's tail draws load it, for `erfinv`;
`import shockstab` loads neither. Each command is checked in a fresh
interpreter. And no module reaches for another's private helpers, and only
the modules that make or read splits name `ShockSplit`, and only frame.py's
load, take and write touch a frame's export lines.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import shockstab

_SRC = str(Path(shockstab.__file__).resolve().parents[1])


def _run(code: str, cwd) -> dict:
    """Run `code` in a fresh interpreter; it prints one JSON object."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [_SRC, env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", code], cwd=cwd, env=env,
        capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


def test_import_loads_no_scipy_stats(tmp_path):
    out = _run(
        "import json, sys\n"
        "import shockstab, shockstab.cli\n"
        "print(json.dumps({m: m in sys.modules for m in ('scipy.stats', 'scipy.special')}))\n",
        tmp_path,
    )
    assert out == {"scipy.stats": False, "scipy.special": False}


def test_split_command_loads_no_scipy_stats(tmp_path):
    out = _run(
        "import contextlib, io, json, sys\n"
        "from shockstab import cli\n"
        "from shockstab.fixtures import make_shocked_fixture\n"
        "make_shocked_fixture(rows=300).to_csv('f.csv')\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    code = cli.main(['split', 'f.csv', '--mode', 'oot', '--date-col', 'date',\n"
        "                     '--shock-date', '2018-03-22', '--runs', '2', '--out', 's'])\n"
        "print(json.dumps({'code': code, 'loaded': 'scipy.stats' in sys.modules}))\n",
        tmp_path,
    )
    assert out == {"code": 0, "loaded": False}


def _command_loads(tmp_path, argv: list) -> dict:
    """Exit code of `shockstab <argv>` on a 300-row fixture `f.csv`, run in
    a fresh interpreter, and whether it loaded scipy.stats and scipy.special."""
    return _run(
        "import contextlib, io, json, sys\n"
        "from shockstab import cli\n"
        "from shockstab.fixtures import make_shocked_fixture\n"
        "make_shocked_fixture(rows=300).to_csv('f.csv')\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    code = cli.main({argv!r})\n"
        "print(json.dumps({'code': code, 'stats': 'scipy.stats' in sys.modules,\n"
        "                  'special': 'scipy.special' in sys.modules}))\n",
        tmp_path,
    )


def test_schema_command_loads_no_scipy(tmp_path):
    schema = ["schema", "f.csv"]
    assert _command_loads(tmp_path, schema) == {"code": 0, "stats": False, "special": False}


def test_synth_and_train_eval_commands_load_no_scipy_stats(tmp_path):
    synth = ["synth", "f.csv", "--rows", "200", "--outliers-pct", "10", "--family", "levy",
             "--out", "s.csv"]
    assert _command_loads(tmp_path, synth) == {"code": 0, "stats": False, "special": True}
    synth[synth.index("levy")] = "normal"
    assert _command_loads(tmp_path, synth) == {"code": 0, "stats": False, "special": False}
    # the A-only pipeline config that replaces the train-eval command
    (tmp_path / "a_only.json").write_text(json.dumps({
        "input": "f.csv", "label": "is_bad", "split": {"mode": "oos", "shock_fraction": 0.2,
        "mc_runs": 2}, "levels": ["without"], "real_fraction": 1.0, "train": {"epochs": 20},
    }))
    a_only = ["pipeline", "a_only.json"]
    assert _command_loads(tmp_path, a_only) == {"code": 0, "stats": False, "special": False}


def _pipeline_loads(tmp_path, family: str, workers: int, forbidden: tuple) -> dict:
    """Run a `family` pipeline at levels without and 10 on `workers`
    processes in a fresh interpreter. Every task checks, as it evaluates its
    model, that its process has loaded none of the `forbidden` modules; a
    check that fails is a failed cell, so the report is partial."""
    return _run(
        "import concurrent.futures, json, sys\n"
        "from shockstab import pipeline\n"
        "from shockstab.errors import DataError\n"
        "from shockstab.fixtures import make_shocked_fixture\n"
        "from shockstab.splitting import SplitSpec\n"
        "loaded = []\n"
        "class Pool(concurrent.futures.ProcessPoolExecutor):\n"
        "    def __init__(self, *args, **kwargs):\n"
        "        loaded.append('scipy.special' in sys.modules)\n"
        "        super().__init__(*args, **kwargs)\n"
        "concurrent.futures.ProcessPoolExecutor = Pool\n"
        f"pipeline._worker_count = lambda tasks: {workers}\n"
        "evaluate_pair = pipeline.evaluate_pair\n"
        "def checked_evaluate_pair(*args):\n"
        f"    for module in {forbidden!r}:\n"
        "        if module in sys.modules:\n"
        "            raise DataError(f'{module} is loaded')\n"
        "    return evaluate_pair(*args)\n"
        "pipeline.evaluate_pair = checked_evaluate_pair\n"
        "config = pipeline.PipelineConfig(\n"
        f"    input_path='f.csv', label='is_bad', levels=['without', 10], family={family!r},\n"
        "    split=SplitSpec(mode='oot', date_column='date', shock_date='2018-03-22', mc_runs=2),\n"
        ")\n"
        "make_shocked_fixture(rows=300).to_csv('f.csv')\n"
        "before = 'scipy.special' in sys.modules\n"
        "report = pipeline.run_pipeline(config)\n"
        "print(json.dumps({'before': before, 'at_pool_start': loaded,\n"
        "                  'partial': report.partial,\n"
        "                  'stats': 'scipy.stats' in sys.modules,\n"
        "                  'special': 'scipy.special' in sys.modules}))\n",
        tmp_path,
    )


_WORKERS = pytest.mark.parametrize(
    "workers",
    [1, pytest.param(2, marks=pytest.mark.skipif(
        not hasattr(os, "fork"), reason="pipeline workers need fork"))],
    ids=["serial", "forked"],
)


@_WORKERS
def test_pipeline_loads_scipy_special_and_never_scipy_stats(tmp_path, workers):
    out = _pipeline_loads(tmp_path, "levy", workers, ("scipy.stats",))
    assert out == {
        "before": False,
        "at_pool_start": [True] if workers > 1 else [],
        "partial": False,
        "stats": False,
        "special": True,
    }


@_WORKERS
def test_normal_family_pipeline_loads_no_scipy_special(tmp_path, workers):
    # neither the parent, before or after its pool, nor any task loads it
    out = _pipeline_loads(tmp_path, "normal", workers, ("scipy.stats", "scipy.special"))
    assert out == {
        "before": False,
        "at_pool_start": [False] if workers > 1 else [],
        "partial": False,
        "stats": False,
        "special": False,
    }


def _private_uses(source: str, siblings: set) -> list[str]:
    """Private names `source` takes from the sibling modules `siblings`:
    `from .x import _name` and `x._name`; dunders are public."""

    def private(name):
        return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))

    def sibling(module, level):
        if level:  # relative: .x, or the package itself
            return not module or module.split(".")[0] in siblings
        return module == "shockstab" or module.startswith("shockstab.")

    tree = ast.parse(source)
    aliases, found = set(), []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and sibling(node.module or "", node.level):
            for a in node.names:
                if private(a.name):
                    found.append(f"from {'.' * node.level}{node.module or ''} import {a.name}")
                elif (node.module or "") in ("", "shockstab") and a.name in siblings:
                    aliases.add(a.asname or a.name)  # from . import x
        elif isinstance(node, ast.Import):
            aliases.update(
                a.asname for a in node.names if a.asname and a.name.startswith("shockstab.")
            )
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and private(node.attr):
            owner = ast.unparse(node.value)
            parts = owner.split(".")
            if owner in aliases or (
                len(parts) == 2 and parts[0] == "shockstab" and parts[1] in siblings
            ):
                found.append(f"{owner}.{node.attr}")
    return found


def test_no_module_imports_a_siblings_private_helpers():
    root = Path(shockstab.__file__).parent
    siblings = {p.stem for p in root.glob("*.py")}
    found = {
        p.name: uses
        for p in sorted(root.glob("*.py"))
        if (uses := _private_uses(p.read_text(encoding="utf-8"), siblings))
    }
    assert found == {}


def test_private_import_check_finds_each_form():
    siblings = {"frame", "pipeline"}
    source = (
        "from . import __version__, pipeline\n"
        "from .frame import _gather, load_csv\n"
        "from shockstab.pipeline import _run_a\n"
        "import shockstab.frame\n"
        "import shockstab.pipeline as pl\n"
        "def f():\n"
        "    from . import frame as fr\n"
        "    return (pipeline._map_runs, fr._CSV_CHUNK_ROWS, pl._task_list,\n"
        "            shockstab.frame._gather, pipeline.__doc__, load_csv._x)\n"
    )
    assert sorted(_private_uses(source, siblings)) == sorted([
        "from .frame import _gather",
        "from shockstab.pipeline import _run_a",
        "pipeline._map_runs",
        "fr._CSV_CHUNK_ROWS",
        "pl._task_list",
        "shockstab.frame._gather",
    ])


def _date_decisions(source: str) -> list[str]:
    """Reads of a `.date_column` attribute and calls of `oot_partition` in
    `source`."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute) and node.attr == "date_column":
            found.append(ast.unparse(node))
        elif isinstance(node, ast.Call):
            func = node.func
            name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
            if name == "oot_partition":
                found.append(ast.unparse(node))
    return found


def test_only_splitting_decides_what_the_oot_date_column_is():
    # an OOT date is parsed from its text and is neither a feature nor a DS
    # column: splitting.model_splits and oot_partition hold that decision
    root = Path(shockstab.__file__).parent
    found = {
        p.name: uses
        for p in sorted(root.glob("*.py"))
        if p.name != "splitting.py"
        if (uses := _date_decisions(p.read_text(encoding="utf-8")))
    }
    assert found == {}


def test_date_decision_check_finds_each_form():
    source = (
        "from .splitting import SplitSpec, oot_partition\n"
        "from . import splitting\n"
        "def f(config, frame):\n"
        "    SplitSpec(mode='oot', date_column='date')\n"
        "    date = config.split.date_column\n"
        "    return oot_partition(frame, config.split), splitting.oot_partition(frame, spec)\n"
    )
    assert _date_decisions(source) == [
        "config.split.date_column",
        "oot_partition(frame, config.split)",
        "splitting.oot_partition(frame, spec)",
    ]


# The functions of frame.py that may touch a frame's export lines: they are
# only loaded, gathered by a take and written back, and nothing reads a cell
# from them.
_LINE_OWNERS = frozenset({
    "load_csv", "TabularFrame.__init__", "TabularFrame.take",
    "TabularFrame.to_csv", "TabularFrame.lines",
})


def _lines_uses(source: str, owners=frozenset()) -> list[str]:
    """Each place in `source` outside the functions `owners` that touches
    `_lines`, as an attribute or as the string "_lines" (getattr, setattr,
    vars), prefixed by its function's qualified name or "<module>"."""
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, f"{scope}.{child.name}" if scope else child.name)
                continue
            touched = (isinstance(child, ast.Attribute) and child.attr == "_lines") or (
                isinstance(child, ast.Constant) and child.value == "_lines"
            )
            if touched and scope not in owners:
                found.append(f"{scope or '<module>'}: {ast.unparse(child)}")
            visit(child, scope)

    visit(ast.parse(source), "")
    return found


def test_only_the_load_take_and_write_touch_export_lines():
    root = Path(shockstab.__file__).parent
    found = {
        p.name: uses
        for p in sorted(root.glob("*.py"))
        if (uses := _lines_uses(
            p.read_text(encoding="utf-8"), _LINE_OWNERS if p.name == "frame.py" else frozenset()
        ))
    }
    assert found == {}


def test_lines_check_finds_each_form():
    source = (
        "class TabularFrame:\n"
        "    def take(self, rows):\n"
        "        return self._lines\n"
        "    def text(self, name):\n"
        "        return self._lines[0]\n"
        "def concat_frames(a, b):\n"
        "    a._lines = a._lines + getattr(b, '_lines')\n"
        "def load_csv(path):\n"
        "    def render(frame):\n"
        "        return frame._lines\n"
        "    return render, path.lines, '_lines_of'\n"
        "LINES = vars(frame)['_lines']\n"
    )
    assert _lines_uses(source, {"TabularFrame.take", "load_csv"}) == [
        "TabularFrame.text: self._lines",
        "concat_frames: a._lines",
        "concat_frames: a._lines",
        "concat_frames: '_lines'",
        "load_csv.render: frame._lines",
        "<module>: '_lines'",
    ]
    # outside frame.py no function may touch them
    assert _lines_uses("def take(frame):\n    return frame._lines\n") == [
        "take: frame._lines"
    ]


def _shock_split_names(source: str) -> list[str]:
    """Names and attributes `ShockSplit` in `source`, and imports of it."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom):
            found += [f"import {a.name}" for a in node.names if a.name == "ShockSplit"]
        elif isinstance(node, ast.Name) and node.id == "ShockSplit":
            found.append(node.id)
        elif isinstance(node, ast.Attribute) and node.attr == "ShockSplit":
            found.append(ast.unparse(node))
    return found


def test_only_the_split_owners_name_shock_split():
    # a split is row indices into the model frame: splitting makes it, the
    # pipeline and the split command take its rows, and the package exports
    # it; a model or a metric takes frames
    root = Path(shockstab.__file__).parent
    owners = {"splitting.py", "pipeline.py", "cli.py", "__init__.py"}
    found = {
        p.name: names
        for p in sorted(root.glob("*.py"))
        if p.name not in owners
        if (names := _shock_split_names(p.read_text(encoding="utf-8")))
    }
    assert found == {}


def test_shock_split_check_finds_each_form():
    source = (
        "from .splitting import ShockSplit, SplitSpec\n"
        "from . import splitting\n"
        "def f(split: ShockSplit, spec: SplitSpec):\n"
        "    return splitting.ShockSplit, split.train, 'ShockSplit'\n"
    )
    assert _shock_split_names(source) == [
        "import ShockSplit",
        "ShockSplit",
        "splitting.ShockSplit",
    ]


def _line_loads(source: str) -> list[str]:
    """Calls in `source` that may pass `lines` to `load_csv`: by keyword,
    through `**` or as its fourth argument, each prefixed by its function's
    name or "<module>"."""
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
                continue
            if (
                isinstance(child, ast.Call)
                and ast.unparse(child.func).rsplit(".", 1)[-1] == "load_csv"
                and (len(child.args) > 3 or any(k.arg in ("lines", None) for k in child.keywords))
            ):
                found.append(f"{scope}: {ast.unparse(child)}")
            visit(child, scope)

    visit(ast.parse(source), "<module>")
    return found


def test_only_the_split_command_loads_export_lines():
    # keeping CSV text is decided once, at load: `shockstab split` alone
    # asks for it, and every other load keeps no text for a later step to
    # strip
    root = Path(shockstab.__file__).parent
    found = {
        p.name: calls
        for p in sorted(root.glob("*.py"))
        if (calls := _line_loads(p.read_text(encoding="utf-8")))
    }
    assert found == {"cli.py": ["_cmd_split: load_csv(args.file, lines=True)"]}


def test_line_load_check_finds_each_form():
    source = (
        "frame = load_csv(p, lines=True)\n"
        "def f(p, keep):\n"
        "    a = frame.load_csv(p, lines=keep)\n"
        "    b = load_csv(p, ('NA',), 0, True)\n"
        "    c = load_csv(p, **options)\n"
        "    return load_csv(p, categorical_override=2), load_csv(p, ('NA',), 0)\n"
        "class Loader:\n"
        "    def load(self, p):\n"
        "        return load_csv(p, lines=False), read_csv(p, lines=True)\n"
    )
    assert _line_loads(source) == [
        "<module>: load_csv(p, lines=True)",
        "f: frame.load_csv(p, lines=keep)",
        "f: load_csv(p, ('NA',), 0, True)",
        "f: load_csv(p, **options)",
        "load: load_csv(p, lines=False)",
    ]


def _bool_tests(source: str) -> list[str]:
    """`isinstance` calls in `source` that name `bool`, alone or in a tuple."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if (
            isinstance(node, ast.Call)
            and getattr(node.func, "id", None) == "isinstance"
            and len(node.args) == 2
        ):
            kinds = node.args[1]
            names = kinds.elts if isinstance(kinds, ast.Tuple) else [kinds]
            if any(getattr(n, "id", None) == "bool" for n in names):
                found.append(ast.unparse(node))
    return found


def test_only_config_decides_what_a_number_is():
    # config.check is the one rule for what a number is: a bool is not one,
    # and a module that tests for bool itself restates that rule
    root = Path(shockstab.__file__).parent
    found = {
        p.name: uses
        for p in sorted(root.glob("*.py"))
        if p.name != "config.py"
        if (uses := _bool_tests(p.read_text(encoding="utf-8")))
    }
    assert found == {}


def _override_calls(source: str) -> list[str]:
    """Calls in `source` that pass `categorical_override=` to anything but
    `load_csv`."""
    return [
        ast.unparse(node)
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Call)
        and any(k.arg == "categorical_override" for k in node.keywords)
        and ast.unparse(node.func).rsplit(".", 1)[-1] != "load_csv"
    ]


def test_only_load_csv_decides_a_column_by_the_override():
    # load_csv decides each column's kind once, the override included; a
    # summary or a model that applied it again would restate that rule
    root = Path(shockstab.__file__).parent
    found = {
        p.name: calls
        for p in sorted(root.glob("*.py"))
        if (calls := _override_calls(p.read_text(encoding="utf-8")))
    }
    assert found == {}


def test_override_call_check_finds_each_form():
    source = (
        "load_csv(p, categorical_override=2)\n"
        "frame.load_csv(p, categorical_override=n)\n"
        "detect_schema(f, categorical_override=2)\n"
        "frame.detect_schema(f, categorical_override=n, x=1)\n"
        "detect_schema(f)\n"
    )
    assert _override_calls(source) == [
        "detect_schema(f, categorical_override=2)",
        "frame.detect_schema(f, categorical_override=n, x=1)",
    ]


def test_bool_test_check_finds_each_form():
    source = (
        "def f(v, ds):\n"
        "    if isinstance(v, bool) or not isinstance(v, (int, float)):\n"
        "        return isinstance(ds, (str, bool))\n"
        "    return isinstance(v, int), isinstance(v, booleans), v.isinstance(v, bool)\n"
    )
    assert _bool_tests(source) == [
        "isinstance(v, bool)",
        "isinstance(ds, (str, bool))",
    ]


def _unused_imports(source: str) -> list[str]:
    """Names that `source` imports and never reads. `__future__` imports
    and lines marked `noqa` (an import kept for its side effect) are exempt."""
    tree = ast.parse(source)
    lines = source.splitlines()
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if getattr(node, "module", None) == "__future__" or "noqa" in lines[node.lineno - 1]:
                continue
            # `import a.b` binds `a`
            imported.update(a.asname or a.name.split(".")[0] for a in node.names)
    read = {
        node.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }
    return sorted(imported - read)


def test_no_module_imports_a_name_it_never_uses():
    # __init__ imports to re-export
    root = Path(shockstab.__file__).parent
    found = {
        p.name: unused
        for p in sorted(root.glob("*.py"))
        if p.name != "__init__.py"
        if (unused := _unused_imports(p.read_text(encoding="utf-8")))
    }
    assert found == {}


def test_unused_import_check_finds_each_form():
    source = (
        "from __future__ import annotations\n"
        "import math\n"
        "import os.path\n"
        "import numpy as np\n"
        "import scipy.special  # noqa: F401\n"
        "from .frame import Column, load_csv as load\n"
        "from . import pipeline\n"
        "def f(x: Column):\n"
        "    import json\n"
        "    from .model import auc\n"
        "    np = None\n"
        "    return os.path.join(x), pipeline.run, auc\n"
    )
    assert _unused_imports(source) == ["json", "load", "math", "np"]


def test_all_lists_each_name_the_package_imports_once():
    # a name removed from a module but left in __all__, or imported and
    # never listed, fails here
    tree = ast.parse(Path(shockstab.__file__).read_text(encoding="utf-8"))
    imported = [
        a.asname or a.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom) and node.level == 1
        for a in node.names
    ]
    assert len(set(shockstab.__all__)) == len(shockstab.__all__)
    assert sorted(shockstab.__all__) == sorted(imported)
