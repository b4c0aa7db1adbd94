"""README's own examples, run as written.

The five-minute tour's `$ kpu ...` lines run in-process in a scratch
directory, each on the files README names: every command prints exactly
the lines README shows under it, and `kpu run` prints the quoted
accounting table on stderr. The latency table in "How the machine works"
must be tests/test_hazard_matrix.py's LATENCY, entry for entry.
"""

import shlex
import shutil
from pathlib import Path

from kpusim.frontend import main
from test_hazard_matrix import CONSUMERS, LATENCY

ROOT = Path(__file__).resolve().parent.parent
README = (ROOT / "README.md").read_text()


def _section(title):
    start = README.index("\n## %s\n" % title)
    end = README.find("\n## ", start + 1)
    return README[start:end]


def _blocks(text):
    """The fenced code blocks of `text`, each as its list of lines."""
    return [block.splitlines()[1:] for block in text.split("```")[1::2]]


def test_the_tour_prints_what_readme_shows(tmp_path, monkeypatch, capsys):
    tour, stats = _blocks(_section("Five-minute tour"))[:2]
    commands = []                   # (argv, the stdout lines shown)
    for line in tour:
        if line.startswith("$ "):
            commands.append((shlex.split(line)[1:], []))
        else:
            commands[-1][1].append(line)
    assert [argv[:2] for argv, _ in commands] == \
        [["kpu", "asm"], ["kpu", "run"], ["kpu", "compare"]]
    monkeypatch.chdir(tmp_path)
    for argv, out in commands:
        for arg in argv:
            if (ROOT / arg).is_file():
                (tmp_path / arg).parent.mkdir(parents=True, exist_ok=True)
                shutil.copy(ROOT / arg, tmp_path / arg)
        assert main(argv[1:]) == 0
        got = capsys.readouterr()
        assert got.out.splitlines() == out
        assert got.err.splitlines() == (stats if argv[1] == "run" else [])


def test_readme_quotes_the_latency_table():
    rows = [[cell.strip().strip("`") for cell in line.strip("|").split("|")]
            for line in _section("How the machine works").splitlines()
            if line.startswith("| ")]
    assert rows[0] == ["mode", "producer", *CONSUMERS]
    table = {}
    for mode, producer, *cells in rows[1:]:
        table.setdefault(mode, {})[producer] = {
            consumer: int(cell) for consumer, cell in zip(CONSUMERS, cells)
            if cell != "-"}
    assert table == LATENCY
