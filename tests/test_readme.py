"""The README's library sketch runs as written, and its usage lists every option."""

import argparse
import re
from pathlib import Path

from qcorr.cli import build_parser

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_sketch_runs_as_written():
    section = README.read_text(encoding="utf-8").split("\n## Library sketch\n", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    exec(compile(code, "README.md (Library sketch)", "exec"), {})


def usage_lines() -> dict:
    """Each command's usage in the README, its continuation lines joined on."""
    block = README.read_text(encoding="utf-8").split("\n## Command-line usage\n", 1)[1]
    usage = {}
    for line in re.search(r"```\n(.*?)```", block, re.S).group(1).splitlines():
        if line.startswith("qcorr "):
            command = line.split()[1]
            usage[command] = line
        else:
            usage[command] += line
    return usage


def test_usage_lists_every_option():
    parser = build_parser()
    (commands,) = (a.choices for a in parser._actions
                   if isinstance(a, argparse._SubParsersAction))
    usage = usage_lines()
    assert set(usage) == set(commands)
    for command, sub in commands.items():
        options = [o for a in sub._actions for o in a.option_strings if o not in ("-h", "--help")]
        missing = [o for o in options
                   if not re.search(rf"(?<![\w-]){re.escape(o)}(?![\w-])", usage[command])]
        assert missing == [], f"{command}: {missing}"
