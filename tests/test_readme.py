"""The README's library sketch and config example work as written; it lists every option and key."""

import argparse
import re
from pathlib import Path

import pytest

from qcorr import config
from qcorr.cli import build_parser
from qcorr.trajectory import TimestepWarning

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


def parser_options() -> dict:
    """Each command's options in build_parser(), --help aside."""
    (commands,) = (a.choices for a in build_parser()._actions
                   if isinstance(a, argparse._SubParsersAction))
    return {command: [o for a in sub._actions for o in a.option_strings
                      if o not in ("-h", "--help")]
            for command, sub in commands.items()}


def test_usage_lists_every_option():
    usage = usage_lines()
    options = parser_options()
    assert set(usage) == set(options)
    for command, names in options.items():
        missing = [o for o in names
                   if not re.search(rf"(?<![\w-]){re.escape(o)}(?![\w-])", usage[command])]
        assert missing == [], f"{command}: {missing}"


def test_usage_names_no_unknown_option():
    options = parser_options()
    for command, line in usage_lines().items():
        unknown = [o for o in re.findall(r"(?<![\w-])--?[a-z][\w-]*", line)
                   if o not in options[command]]
        assert unknown == [], f"{command}: {unknown}"


# The parser tables of qcorr.config, by the README section that documents their keys.
KEY_TABLES = {
    "Configuration file": ("_CONFIG", "_CHANNEL", "_HAMILTONIAN", "_ENVIRONMENT", "_SIM",
                           "_OUTPUTS"),
    "Correlator spec files": ("_EVENTS_ENTRY", "_INITIAL", "_EVENT", "_WINDOWED_ENTRY",
                              "_WINDOW", "_GAP"),
}


def test_file_sections_list_every_key():
    tables = {name for name, value in vars(config).items()
              if isinstance(value, dict) and value and all(map(callable, value.values()))}
    # A new table must be placed under the section that documents it.
    assert tables == {name for names in KEY_TABLES.values() for name in names}
    text = README.read_text(encoding="utf-8")
    for title, names in KEY_TABLES.items():
        section = re.search(rf"\n### {title}\n(.*?)\n##", text, re.S).group(1)
        missing = [f"{name}.{key}" for name in names for key in getattr(config, name)
                   if f'"{key}"' not in section and f"`{key}`" not in section]
        assert missing == [], title


def test_config_example_is_a_valid_config():
    section = README.read_text(encoding="utf-8").split("\n### Configuration file\n", 1)[1]
    example = re.search(r"```json\n(.*?)```", section, re.S).group(1)
    with pytest.warns(TimestepWarning):  # dt_us 0.01 against tau_us 0.65
        assert len(config.load_config(example, "README.md").sim.channels) == 2
