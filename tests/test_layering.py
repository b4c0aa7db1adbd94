"""Import boundaries between the simulator's modules.

The reference interpreter is only worth something while it stays
independent of the pipeline it checks: the two may share the ISA layer and
the ALU, never the pipeline's execute path. These checks read the import
statements of the source files, so a forbidden import fails here even if
nothing exercises it. One check imports the package in a fresh interpreter,
for the standard modules that importing it must not load.
"""

import ast
import re
import subprocess
import sys
from pathlib import Path

import pytest

import kpusim
from kpusim import core, isa, memsys, oracle, pipeline
from kpusim.codec import ProgramFault

PACKAGE = Path(kpusim.__file__).resolve().parent


def imported_modules(name):
    """Sibling kpusim modules a source file imports, by short name."""
    tree = ast.parse((PACKAGE / ("%s.py" % name)).read_text())
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                parts = alias.name.split(".")
                if parts[0] == "kpusim" and len(parts) > 1:
                    found.add(parts[1])
        elif isinstance(node, ast.ImportFrom):
            parts = (node.module or "").split(".")
            if node.level == 0 and parts[0] != "kpusim":
                continue
            if node.level == 0:
                parts = parts[1:]
            if parts and parts[0]:
                found.add(parts[0])
            else:                       # from . import x / from kpusim import x
                found.update(alias.name for alias in node.names)
    return found


@pytest.mark.parametrize("module, forbidden", [
    ("oracle", {"pipeline"}),
    ("isa", {"pipeline", "oracle"}),
    ("alu", {"pipeline", "oracle"}),
    # the checker reads both machines; neither machine reads the checker
    ("oracle", {"check"}),
    ("isa", {"check"}),
    ("alu", {"check"}),
    ("codec", {"check"}),
    ("core", {"check"}),
    ("memsys", {"check"}),
])
def test_module_stays_below_its_consumers(module, forbidden):
    assert not imported_modules(module) & forbidden


def test_import_scan_sees_sibling_imports():
    assert {"alu", "isa", "codec", "core", "memsys"} <= imported_modules("oracle")
    assert {"alu", "isa", "memsys"} <= imported_modules("pipeline")
    assert {"assembler", "codec", "isa"} <= imported_modules("check")


def test_frontend_catches_program_faults_by_their_one_base():
    """Every machine's fault is a ProgramFault, and the frontend names that
    base alone, so a new fault needs no edit there."""
    faults = (pipeline.SimulationFault, pipeline.MaxCyclesExceeded,
              memsys.PhysicalExhausted, memsys.UnalignedSupervisorAccess,
              memsys.OutOfRegion, core.VectorSpin, oracle.MaxStepsExceeded)
    assert all(issubclass(fault, ProgramFault) for fault in faults)
    names = set()
    for node in ast.walk(ast.parse((PACKAGE / "frontend.py").read_text())):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name)
    assert "ProgramFault" in names
    assert not names & {fault.__name__ for fault in faults}


def test_mnemonic_literals_name_table_rows():
    """A mistyped mnemonic compared against in the engine or the oracle
    would silently never match; every string that looks like a mnemonic
    outside the table must be one of its rows (the engine's illegal-fetch
    carrier aside)."""
    known = set(isa.MNEMONICS) | {"l.illegal"}
    strays = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "isa.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Constant) and isinstance(node.value, str) \
                    and re.fullmatch(r"l\.\w+", node.value) \
                    and node.value not in known:
                strays.append("%s:%d %r" % (path.name, node.lineno, node.value))
    assert not strays


def test_no_unused_imports():
    """Every name a module imports is used there. A dead import hides a
    layer's real dependencies: `pipeline.feistel_unround`, say, must stay a
    live call, not a name kept for whoever wraps it. The package's
    `__init__` is left out, since it imports only to re-export."""
    unused = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text())
        imported = {}
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    name = alias.asname or alias.name.split(".")[0]
                    imported[name] = node.lineno
        used = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name)}
        unused += ["%s:%d %s" % (path.name, line, name)
                   for name, line in imported.items() if name not in used]
    assert not unused


def test_import_loads_no_dataclasses_or_argparse():
    """Every kpu call and the benchmark's set-up import the package and
    its frontend first. That must not load dataclasses, with the inspect
    it pulls in, or argparse, which only building the parser needs."""
    heavy = ("dataclasses", "inspect", "argparse")
    code = ("import sys; sys.path.insert(0, %r)\n"
            "import kpusim, kpusim.frontend\n"
            "print(*[name in sys.modules for name in %r])\n"
            "kpusim.frontend._build_parser()\n"
            "print('argparse' in sys.modules)" % (str(PACKAGE.parent), heavy))
    proc = subprocess.run([sys.executable, "-I", "-c", code],
                          capture_output=True, text=True, check=True)
    assert proc.stdout.split() == ["False"] * len(heavy) + ["True"]
