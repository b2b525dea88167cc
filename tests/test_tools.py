from __future__ import annotations

import importlib.util
import re
import subprocess
import sys
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "code_lines.py"


def load_tool():
    spec = importlib.util.spec_from_file_location("code_lines", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_code_lines_skips_blanks_comments_and_docstrings(tmp_path):
    source = tmp_path / "sample.py"
    source.write_text(
        '"""Module\n\ndocstring."""\n'
        "\n"
        "# a comment-only line\n"
        "import os  # a trailing comment keeps the line\n"
        "\n"
        "class A:\n"
        '    """One line."""\n'
        "\n"
        "    def f(self):\n"
        '        """Two\n'
        '        lines."""\n'
        '        return "# not a comment"\n',
        encoding="utf-8",
    )
    assert load_tool().code_lines(source) == 4  # import, class, def, return


def test_code_lines_prints_each_module_and_the_total(tmp_path, capsys):
    (tmp_path / "a.py").write_text("x = 1\n", encoding="utf-8")
    (tmp_path / "b.py").write_text("y = 2\nz = 3\n", encoding="utf-8")
    assert load_tool().main(["code_lines.py", str(tmp_path)]) == 0
    assert capsys.readouterr().out.split("\n") == [
        "     1  a.py", "     2  b.py", "     3  total", "",
    ]


def test_factor_digest_at_the_smoke_size():
    # members 0..5 and seed 1's smoke-size exact-irregular subgraphs (two
    # batches of three per family). The factor and structural digests are
    # pinned, since a change to a solver must keep every factor; the stats
    # digest is not, since effort counts may move
    tool = TOOL.parent / "factor_digest.py"
    args = ["--seeds", "1", "--max-n", "5", "--size", "smoke"]
    result = subprocess.run(
        [sys.executable, "-W", "error", str(tool), *args], capture_output=True, text=True, timeout=60
    )
    assert result.returncode == 0, result.stderr
    factors, stats, structural, graphs = result.stdout.splitlines()
    assert factors == "factors 302e01ca4b82e47b320a20ca19169ba7c8d08264f325f17925474e0a6537e518"
    assert re.fullmatch(r"stats   [0-9a-f]{64}", stats)
    assert structural == "structural 2d271c9743659eb9b51364226d63bf6dbadbc5d4149f0fa321f6c0ada2eb9960"
    assert graphs == "graphs  24"
