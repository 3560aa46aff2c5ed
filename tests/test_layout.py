"""Module-boundary rules of the headfx package, checked on its source,
the README's CLI reference (subcommands, dynamics kinds and flags),
checked against the parser, and the modules a run in process loads."""

import argparse
import ast
import importlib
import json
import os
import re
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path

import pytest

from headfx import cli

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "headfx"
MODULES = sorted(SRC.glob("*.py"))


def _headfx_module(node: ast.ImportFrom) -> bool:
    return node.level > 0 or (node.module or "").split(".")[0] == "headfx"


def _dotted(node) -> str | None:
    """'a.b.c' for a chain of attribute reads on a plain name, else None."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        base = _dotted(node.value)
        return None if base is None else f"{base}.{node.attr}"
    return None


def private_imports(tree: ast.Module) -> list[str]:
    """Every `_`-prefixed name a module takes from another headfx module.

    Covers `from .mod import _name` and attribute reads `mod._name` on a
    headfx module bound by `from . import mod` or `import headfx.mod`.
    """
    found, module_aliases = [], set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and _headfx_module(node):
            for alias in node.names:
                if alias.name.startswith("_"):
                    found.append(f"line {node.lineno}: imports {alias.name}")
                elif node.module is None or node.module == "headfx":
                    module_aliases.add(alias.asname or alias.name)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "headfx":
                    module_aliases.add(alias.asname or alias.name.split(".")[0])
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr.startswith("_"):
            owner = _dotted(node.value)
            if (
                not node.attr.startswith("__")
                and owner is not None
                and owner.split(".")[0] in module_aliases
            ):
                found.append(f"line {node.lineno}: reads {owner}.{node.attr}")
    return found


def headfx_imports(tree: ast.Module) -> set[str]:
    """The headfx modules a module imports from, by their dotted names."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and _headfx_module(node):
            if node.level > 0:
                base = "headfx" + (f".{node.module}" if node.module else "")
            else:
                base = node.module
            if base == "headfx":
                found.update(f"headfx.{alias.name}" for alias in node.names)
            else:
                found.add(base)
        elif isinstance(node, ast.Import):
            found.update(a.name for a in node.names if a.name.split(".")[0] == "headfx")
    return found


def test_package_sources_found():
    assert {"core.py", "logit.py", "equilibrium.py"} <= {p.name for p in MODULES}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_private_imports_across_modules(path):
    assert private_imports(ast.parse(path.read_text(), filename=str(path))) == []


def test_logit_is_a_leaf_module():
    # The solvers hand logit a core.Market, which it reads by attribute;
    # an import of core (or of anything built on it) would be a cycle.
    tree = ast.parse((SRC / "logit.py").read_text())
    assert headfx_imports(tree) <= {"headfx.errors"}


def test_welfare_builds_on_the_static_layers_only():
    # Welfare is evaluated at static logit equilibria; nothing in it runs
    # the dynamics, the agent-based model or the harness.
    tree = ast.parse((SRC / "welfare.py").read_text())
    assert headfx_imports(tree) <= {
        "headfx.errors", "headfx.logit", "headfx.core", "headfx.equilibrium",
    }


def test_harness_builds_on_the_abm_only():
    # The harness runs and writes ABM scenarios; the CLI runs the solvers
    # and writes their tables itself.
    tree = ast.parse((SRC / "harness.py").read_text())
    assert headfx_imports(tree) <= {
        "headfx.abm", "headfx.core", "headfx.errors", "headfx.metrics",
    }


@pytest.mark.parametrize(
    "source, modules",
    [
        ("from .errors import NumericalError", {"headfx.errors"}),
        ("from .core import Market", {"headfx.core"}),
        ("from . import core", {"headfx.core"}),
        ("import headfx.dynamics as d", {"headfx.dynamics"}),
        ("from headfx.welfare import x", {"headfx.welfare"}),
        ("import numpy as np\nfrom math import isfinite", set()),
    ],
)
def test_headfx_imports_found(source, modules):
    assert headfx_imports(ast.parse(source)) == modules


@pytest.mark.parametrize(
    "source",
    [
        "from .equilibrium import _softmax",
        "from headfx.welfare import x, _grid_viewer_fixed_point as g",
        "from . import equilibrium\nequilibrium._utilities(1)",
        "import headfx.dynamics\nheadfx.dynamics._flow",
    ],
)
def test_checker_flags_private_imports(source):
    assert private_imports(ast.parse(source))


@pytest.mark.parametrize(
    "source",
    [
        "from __future__ import annotations",
        "from .logit import softmax",
        "from numpy import _core",
        "from . import logit\nlogit.__name__",
    ],
)
def test_checker_allows_public_imports(source):
    assert private_imports(ast.parse(source)) == []


def _numpy(*names: str) -> set[str]:
    """The dotted names of numpy attributes under either of its import names."""
    return {f"{mod}.{name}" for mod in ("np", "numpy") for name in names}


@dataclass(frozen=True)
class NameRule:
    """Only the modules in allowed call the dotted names in calls, or import
    a name in imports from the package source or a submodule of it; reason
    says why. A calls entry without a dot also matches any dotted name that
    ends in it, whatever the module was imported as."""

    calls: set[str]
    source: str
    imports: set[str]
    allowed: set[str]
    reason: str


NAME_RULES = {
    "json_reads": NameRule(
        {"json.load", "json.loads"}, "json", {"load", "loads"}, {"harness.py"},
        "the input documents' format, and its checks, live behind harness's reader",
    ),
    "outer_products": NameRule(
        _numpy("outer", "multiply.outer"), "numpy", {"outer"}, {"logit.py"},
        "the choice Jacobian diag P - P P^T has one home, logit.choice_jacobian",
    ),
    "logs": NameRule(
        _numpy("log"), "numpy", {"log"}, {"logit.py", "abm.py"},
        "the log-sum-exp, and with it consumer surplus, has one home, logit.logsumexp;"
        " the ABM takes logs only for its Gumbel noise and log(boost)",
    ),
    "generator_builds": NameRule(
        {"default_rng", "Generator", "PCG64"}, "numpy", {"default_rng"},
        {"abm.py", "equilibrium.py"},
        "the population is drawn once, by abm.init_platform, whose round threads copy"
        " its generator, and equilibrium draws only its enumeration starts: a second"
        " draw of the market cannot return",
    ),
    "gumbel_draws": NameRule(
        {"gumbel"}, "numpy", {"gumbel"}, set(),
        "the ABM's noise has one path, abm._gumbel_block, which reads one uniform"
        " double per cell: a second noise path cannot return",
    ),
}


def _matches(dotted: str | None, calls: set[str]) -> bool:
    """Whether a call's dotted name is one of calls, or ends in `.<entry>`
    for an entry without a dot."""
    return dotted is not None and any(
        dotted == c or ("." not in c and dotted.endswith("." + c)) for c in calls
    )


def name_uses(tree: ast.Module, rule: NameRule) -> list[str]:
    """Every call of one of a rule's dotted names, and every import of one of
    its names from its source package or a submodule of it."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and _matches(_dotted(node.func), rule.calls):
            found.append(f"line {node.lineno}: calls {_dotted(node.func)}")
        elif isinstance(node, ast.ImportFrom) and (
            node.module == rule.source or (node.module or "").startswith(rule.source + ".")
        ):
            found += [f"line {node.lineno}: imports {a.name}" for a in node.names
                      if a.name in rule.imports]
    return found


@pytest.mark.parametrize(
    "rule, path",
    [(name, path) for name, rule in NAME_RULES.items() for path in MODULES
     if path.name not in rule.allowed],
    ids=lambda x: getattr(x, "name", x),
)
def test_only_the_allowed_modules_use_a_rules_names(rule, path):
    found = name_uses(ast.parse(path.read_text(), filename=str(path)), NAME_RULES[rule])
    assert found == [], NAME_RULES[rule].reason


@pytest.mark.parametrize(
    "rule, source, flagged",
    [
        ("json_reads", "import json\njson.loads(text)", True),
        ("json_reads", "import json\njson.load(fh)", True),
        ("json_reads", "from json import loads", True),
        ("json_reads", "from json.decoder import loads", True),
        ("json_reads", "import json\njson.dumps(summary)", False),
        ("json_reads", "from json import dumps", False),
        ("outer_products", "np.diag(p) - np.outer(p, p)", True),
        ("outer_products", "import numpy\nnumpy.outer(p, p)", True),
        ("outer_products", "np.multiply.outer(p, p)", True),
        ("outer_products", "from numpy import outer", True),
        ("outer_products", "choice_jacobian(p)", False),
        ("outer_products", "np.diag(p)", False),
        ("outer_products", "from numpy import diag", False),
        ("logs", "np.log(rb, out=rb)", True),
        ("logs", "import numpy\nlse = top + numpy.log(s)", True),
        ("logs", "from numpy import log", True),
        ("logs", "from numpy.core import log", True),
        ("logs", "lse = logsumexp(v + prices)", False),
        ("logs", "x = np.log1p(n)", False),
        ("logs", "y = math.log(2.0)", False),
        ("logs", "from numpy import log1p", False),
        ("logs", "from numpyro import log", False),
        ("generator_builds", "rng = np.random.default_rng(seed)", True),
        ("generator_builds", "import numpy\nnumpy.random.default_rng(0)", True),
        ("generator_builds", "from numpy.random import default_rng\ndefault_rng(1)", True),
        ("generator_builds", "from numpy.random import default_rng", True),
        ("generator_builds", "from numpy import random\nrandom.default_rng(2)", True),
        ("generator_builds", "import numpy.random as npr\nnpr.default_rng(0)", True),
        ("generator_builds", "from numpy import random as nr\nnr.default_rng(0)", True),
        ("generator_builds", "from numpy.random._generator import default_rng", True),
        ("generator_builds", "state = init_platform(sim)", False),
        ("generator_builds", "rng.uniform(0.1, 0.3, size=n)", False),
        ("generator_builds", "from numpy.random import Generator", False),
        ("generator_builds", "rng = np.random.Generator(np.random.PCG64())", True),
        ("generator_builds", "import numpy\nnumpy.random.PCG64(seed)", True),
        ("generator_builds", "from numpy.random import Generator, PCG64\nGenerator(PCG64(0))",
         True),
        ("generator_builds", "import numpy.random as npr\nnpr.Generator(bit_generator)", True),
        ("generator_builds", "rng.bit_generator.advance(start * n)", False),
        ("generator_builds", "def draw(rng: np.random.Generator) -> float: ...", False),
        ("gumbel_draws", "noise = rng.gumbel(0.0, scale, size=out.shape)", True),
        ("gumbel_draws", "state.rng.gumbel(0.0, 0.2)", True),
        ("gumbel_draws", "import numpy\nnumpy.random.gumbel(size=3)", True),
        ("gumbel_draws", "from numpy.random import gumbel", True),
        ("gumbel_draws", "_gumbel_block(rng, scale, out)", False),
        ("gumbel_draws", "rng.random(out=out)", False),
    ],
)
def test_name_use_checker(rule, source, flagged):
    assert bool(name_uses(ast.parse(source), NAME_RULES[rule])) == flagged


_WRITE_MODE_CHARS = set("wax+")


def _writes(call: ast.Call, mode_index: int) -> bool:
    """Whether an open call's mode (positional mode_index or mode=) can write;
    a mode that is not a string literal counts as one that can."""
    mode = next((kw.value for kw in call.keywords if kw.arg == "mode"), None)
    if mode is None and len(call.args) > mode_index:
        mode = call.args[mode_index]
    if mode is None:
        return False
    if isinstance(mode, ast.Constant) and isinstance(mode.value, str):
        return bool(_WRITE_MODE_CHARS & set(mode.value))
    return True


def file_writers(tree: ast.Module) -> list[str]:
    """Every way a module could write an output file itself: imports of csv
    or json, open(path, mode) and path.open(mode) in a write mode, and
    .write_text or .write_bytes calls."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found += [f"line {node.lineno}: imports {a.name}" for a in node.names
                      if a.name.split(".")[0] in ("csv", "json")]
        elif isinstance(node, ast.ImportFrom) and node.level == 0 and (
            (node.module or "").split(".")[0] in ("csv", "json")
        ):
            found.append(f"line {node.lineno}: imports from {node.module}")
        elif isinstance(node, ast.Call):
            func = node.func
            if isinstance(func, ast.Name) and func.id == "open" and _writes(node, 1):
                found.append(f"line {node.lineno}: opens a file to write")
            elif isinstance(func, ast.Attribute) and (
                (func.attr == "open" and _writes(node, 0))
                or func.attr in ("write_text", "write_bytes")
            ):
                found.append(f"line {node.lineno}: calls .{func.attr} to write")
    return found


@pytest.mark.parametrize(
    "path", [p for p in MODULES if p.name != "harness.py"], ids=lambda p: p.name
)
def test_only_harness_writes_files(path):
    # The output format (UTF-8, LF, csv dialect) lives behind harness's writers.
    assert file_writers(ast.parse(path.read_text(), filename=str(path))) == []


@pytest.mark.parametrize(
    "source, flagged",
    [
        ("import csv", True),
        ("import json as j", True),
        ("from json import dumps", True),
        ("from csv import writer", True),
        ("open(path, 'w')", True),
        ("open(path, mode='a', encoding='utf-8')", True),
        ("open(path, 'r+b')", True),
        ("open(path, flags)", True),
        ("path.open('w', newline='')", True),
        ("Path(p).open(mode='x')", True),
        ("path.write_text(text)", True),
        ("path.write_bytes(data)", True),
        ("open(path)", False),
        ("open(path, 'rb')", False),
        ("path.open()", False),
        ("path.open(newline='')", False),
        ("path.read_text(encoding='utf-8')", False),
        ("from .harness import write_table\nwrite_table(path, header, rows)", False),
    ],
)
def test_file_writer_checker(source, flagged):
    assert bool(file_writers(ast.parse(source))) == flagged


def listed_names(tree: ast.Module) -> list[str]:
    """The names of a module's top-level __all__ list, or [] without one."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return [elt.value for elt in node.value.elts]
    return []


def defined_names(tree: ast.Module) -> set[str]:
    """The functions, classes and variables a module defines at top level."""
    found = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            found.add(node.name)
        elif isinstance(node, ast.Assign):
            found.update(t.id for t in node.targets if isinstance(t, ast.Name))
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            found.add(node.target.id)
    return found


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_all_lists_only_names_the_module_defines(path):
    # The benchmark's spans wrap what __all__ lists, so a stale entry
    # would silently drop a layer from its traces.
    tree = ast.parse(path.read_text(), filename=str(path))
    assert sorted(set(listed_names(tree)) - defined_names(tree)) == []


# The modules whose __all__ the package republishes.
_REPUBLISHED = ("core", "equilibrium", "dynamics", "abm", "metrics", "welfare", "harness")


def test_package_republishes_each_modules_interface():
    # `from headfx import name` gives the module's own object for every
    # name those modules list
    import headfx

    modules = [importlib.import_module(f"headfx.{name}") for name in _REPUBLISHED]
    missing = [f"{module.__name__}.{name}" for module in modules for name in module.__all__
               if getattr(headfx, name, None) is not getattr(module, name)]
    assert missing == []


def test_readme_library_example_runs(tmp_path, monkeypatch, capsys):
    # the README's "Library example" block, run as written
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Library example\n", 1)[1]
    example = section.split("```python\n", 1)[1].split("```", 1)[0]
    monkeypatch.chdir(tmp_path)
    exec(example, {})
    assert " True\n" in capsys.readouterr().out  # the equilibrium converged
    assert (tmp_path / "out" / "Combined" / "summary.csv").is_file()


@pytest.mark.parametrize(
    "source, stale",
    [
        ("__all__ = ['f', 'C', 'X', 'Y']\ndef f(): ...\nclass C: ...\nX = 1\nY: int = 2", []),
        ("__all__ = ['gone']\ndef kept(): ...", ["gone"]),
        ("from .core import cost\n__all__ = ['cost']", ["cost"]),
        ("def f(): ...", []),
    ],
)
def test_stale_all_entry_checker(source, stale):
    tree = ast.parse(source)
    assert sorted(set(listed_names(tree)) - defined_names(tree)) == stale


def unread_private_names(tree: ast.Module) -> list[str]:
    """The `_`-prefixed functions, classes and constants a module defines at
    top level (dunders aside) that no other top-level statement reads."""
    unread = []
    for name in sorted(defined_names(tree)):
        if not name.startswith("_") or (name.startswith("__") and name.endswith("__")):
            continue
        reads = (node for top in tree.body if getattr(top, "name", None) != name
                 for node in ast.walk(top))
        if not any(isinstance(node, ast.Name) and node.id == name
                   and isinstance(node.ctx, ast.Load) for node in reads):
            unread.append(name)
    return unread


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_private_names_are_read_in_their_module(path):
    # No other module may read them, so one its own module does not read
    # is a helper left behind.
    assert unread_private_names(ast.parse(path.read_text(), filename=str(path))) == []


@pytest.mark.parametrize(
    "source, unread",
    [
        ("def _f(): ...\ndef g(): return _f()", []),
        ("_X = 1\nclass _C: ...\ndef _f(): ...", ["_C", "_X", "_f"]),
        ("_A: int = 1\n_B = [_A]", ["_B"]),
        ("def _f(n): return _f(n - 1)", ["_f"]),
        ("_X = 1\n_X = 2", ["_X"]),
        ("__all__ = []\n__version__ = '1'", []),
        ("def f(): ...\nX = f", []),
    ],
)
def test_unread_private_name_checker(source, unread):
    assert unread_private_names(ast.parse(source)) == unread


def market_beta_reads(tree: ast.Module) -> list[str]:
    """Every read of the attribute beta on a name market (`market.beta`,
    `self.market.beta`)."""
    return [f"line {node.lineno}: reads {_dotted(node)}" for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and node.attr == "beta"
            and (_dotted(node.value) or "").split(".")[-1] == "market"]


@pytest.mark.parametrize(
    "path", [p for p in MODULES if p.name != "core.py"], ids=lambda p: p.name
)
def test_only_core_reads_market_beta(path):
    # The network term and its slope have one home, core.Market.network and
    # network_slope; a solver that reads beta would fix the term's form.
    assert market_beta_reads(ast.parse(path.read_text(), filename=str(path))) == []


@pytest.mark.parametrize(
    "source, flagged",
    [
        ("v = base + market.beta * n", True),
        ("slope = self.market.beta", True),
        ("v = base + market.network(n)", False),
        ("summary = {'beta': platform.beta}", False),
        ("w = cfg.network_effect_beta", False),
        ("plat = dataclasses.replace(platform, beta=beta)", False),
    ],
)
def test_market_beta_read_checker(source, flagged):
    assert bool(market_beta_reads(ast.parse(source))) == flagged


_FINITENESS_TESTS = {"isfinite", "isnan", "isinf"}
# The checks of computed values, by module: the fixed point's residual,
# an integration step's state, and the grid oracle's step count.
_COMPUTED_VALUE_CHECKS = {
    "logit.py": {"viewer_fixed_point"},
    "dynamics.py": {"_divergence"},
    "welfare.py": {"grid_search_allocation"},
}


def finiteness_tests(tree: ast.Module) -> list[tuple[str | None, int]]:
    """(top-level function or class, line) of every isfinite, isnan or isinf
    a module reads or imports; None outside any function or class."""
    found = []
    for top in tree.body:
        owner = top.name if isinstance(top, (ast.FunctionDef, ast.ClassDef)) else None
        for node in ast.walk(top):
            if isinstance(node, ast.Attribute):
                name = node.attr
            elif isinstance(node, ast.Name):
                name = node.id
            elif isinstance(node, ast.alias):
                name = node.name.split(".")[-1]
            else:
                continue
            if name in _FINITENESS_TESTS:
                found.append((owner, node.lineno))
    return found


@pytest.mark.parametrize(
    "path", [p for p in MODULES if p.name != "errors.py"], ids=lambda p: p.name
)
def test_only_computed_values_are_tested_for_finiteness(path):
    # An input's finiteness has one home, errors.require and require_array;
    # elsewhere only the checks of computed values test it themselves.
    allowed = _COMPUTED_VALUE_CHECKS.get(path.name, set())
    found = finiteness_tests(ast.parse(path.read_text(), filename=str(path)))
    assert [f"line {line}: {owner}" for owner, line in found if owner not in allowed] == []


def test_every_computed_value_check_is_found():
    # the exemptions name checks that still exist
    for name, owners in _COMPUTED_VALUE_CHECKS.items():
        found = finiteness_tests(ast.parse((SRC / name).read_text()))
        assert owners == {owner for owner, _ in found}


@pytest.mark.parametrize(
    "source, owners",
    [
        ("ok = np.all(np.isfinite(x))", [None]),
        ("def f(x):\n    return math.isfinite(x)", ["f"]),
        ("def f(x):\n    return numpy.isnan(x).any()", ["f"]),
        ("class C:\n    def g(self):\n        return np.isinf(self.x)", ["C"]),
        ("from numpy import isfinite", [None]),
        ("def f(x):\n    from math import isnan", ["f"]),
        ("def f(x):\n    return require_array('x', x)", []),
        ("def f(x):\n    return np.all(x >= 0)", []),
    ],
)
def test_finiteness_test_checker(source, owners):
    assert [owner for owner, _ in finiteness_tests(ast.parse(source))] == owners


# the viewer columns the ABM's systematic utility weighs, and its one home
_UTILITY_COLUMNS = ("quality_sens", "network_sens", "price_sens", "preferred", "interaction",
                    "loyalty")
_UTILITY_HOME = "_systematic_utility"


def utility_column_reads(tree: ast.Module) -> list[str]:
    """Every read of a utility column (`state.loyalty`, ...) outside the
    module's top-level function _systematic_utility."""
    found = []
    for top in tree.body:
        if isinstance(top, ast.FunctionDef) and top.name == _UTILITY_HOME:
            continue
        for node in ast.walk(top):
            if isinstance(node, ast.Attribute) and node.attr in _UTILITY_COLUMNS:
                found.append(f"line {node.lineno}: reads {_dotted(node) or node.attr}")
    return found


def test_abm_utility_has_one_home():
    # The round kernel adds its noise to abm._systematic_utility, and the
    # deterministic skeleton's test calls it too: no second formula exists.
    tree = ast.parse((SRC / "abm.py").read_text(), filename="abm.py")
    assert any(isinstance(top, ast.FunctionDef) and top.name == _UTILITY_HOME
               for top in tree.body)
    assert utility_column_reads(tree) == []


@pytest.mark.parametrize(
    "source, flagged",
    [
        ("def _systematic_utility(state, block):\n    return state.loyalty[block]", False),
        ("def _choose_streamers(state):\n    return state.loyalty[block]", True),
        ("u = state.quality_sens[:, None] * q", True),
        ("state.preferred[:] = 0", True),
        ("class C:\n    def f(self, s):\n        return s.network_sens", True),
        ("def _systematic_utility(s): ...\ndef g(s):\n    return s.price_sens", True),
        ("alpha = state.mean_quality_sens", False),
        ("w = cfg.interaction_weight", False),
    ],
)
def test_utility_column_read_checker(source, flagged):
    assert bool(utility_column_reads(ast.parse(source))) == flagged


def documented_cli(readme: str) -> tuple[set[str], set[str]]:
    """The subcommands of a README's `headfx <subcommand>` bullets, and the
    members of its one `--kind {...}` set."""
    commands = set(re.findall(r"^- `headfx ([a-z-]+)", readme, re.MULTILINE))
    (kinds,) = re.findall(r"--kind \{([^}]*)\}", readme)
    return commands, set(kinds.split(","))


def test_readme_documents_the_cli_the_parser_builds():
    # A deleted subcommand or dynamics kind cannot stay documented.
    (subparsers,) = [action for action in cli._build_parser()._actions
                     if isinstance(action, argparse._SubParsersAction)]
    (kind,) = [action for action in subparsers.choices["dynamics"]._actions
               if "--kind" in action.option_strings]
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    assert documented_cli(readme) == (set(subparsers.choices), set(kind.choices))


def test_documented_cli_reader():
    readme = "- `headfx run [--x]` — a\n  `headfx walk` inline\n- `headfx dyn --kind {a,b-c}`\n"
    assert documented_cli(readme) == ({"run", "dyn"}, {"a", "b-c"})


def documented_flags(readme: str) -> set[str]:
    """Every `--flag` a README names in its `## CLI` section."""
    section = readme.split("\n## CLI\n", 1)[1].split("\n## ", 1)[0]
    return set(re.findall(r"(?<![\w-])--[a-z][a-z0-9-]*", section))


def parser_flags(parser: argparse.ArgumentParser) -> set[str]:
    """The long option strings of a parser and its subparsers, except --help."""
    flags = set()
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for sub in action.choices.values():
                flags |= parser_flags(sub)
        else:
            flags.update(o for o in action.option_strings if o.startswith("--"))
    return flags - {"--help"}


def test_readme_documents_every_flag_the_parser_builds():
    # A flag no document names cannot hide in the parser, and a deleted
    # one cannot stay documented.
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    assert documented_flags(readme) == parser_flags(cli._build_parser())


def test_documented_flags_reader():
    readme = ("## Install\n`pip --no-deps`\n## CLI\n`headfx run [--x-y N]`, `--z` and a--b\n"
              "## Config\n`--w`\n")
    assert documented_flags(readme) == {"--x-y", "--z"}


_POOL_MODULES = ("multiprocessing", "concurrent.futures")

_IN_PROCESS_RUN = f"""
import json, sys
import headfx.cli
loaded = [sorted(set({_POOL_MODULES!r}) & set(sys.modules))]
codes = [headfx.cli.main(["simulate", "--config", "configs/combined.json", "--seeds", "1",
                         "--threads", "1", "--out", sys.argv[1]])]
loaded.append(sorted(set({_POOL_MODULES!r}) & set(sys.modules)))
codes.append(headfx.cli.main(["optimize-theta", "--instance", "configs/instance_n3.json",
                              "--out", sys.argv[1]]))
loaded.append(sorted(set({_POOL_MODULES!r}) & set(sys.modules)))
print(json.dumps([codes, loaded]))
"""


def test_runs_in_process_never_load_the_process_pool(tmp_path):
    # The pool modules are imported only by a command that starts a pool:
    # a one-thread simulate and an optimize-theta without the grid oracle.
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(SRC.parent), os.environ.get("PYTHONPATH")])))
    result = subprocess.run([sys.executable, "-c", _IN_PROCESS_RUN, str(tmp_path)], cwd=ROOT,
                            env=env, capture_output=True, text=True, check=True)
    codes, loaded = json.loads(result.stdout.splitlines()[-1])
    assert codes == [0, 0]
    assert loaded == [[], [], []]
