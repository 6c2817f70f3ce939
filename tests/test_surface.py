"""The public surface is documented: every CLI option and every top-level name
appears in README.md, so adding or removing one without a doc change fails."""

import os
import re
import types

import pytest

import polywsd
from polywsd.cli import build_parser

README = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "README.md")
EXPORTS_LEAD = "The package's top level exports exactly these names:"


@pytest.fixture(scope="module")
def readme():
    with open(README, encoding="utf-8") as fh:
        return fh.read()


def _options():
    subcommands = next(
        a for a in build_parser()._actions if isinstance(a.choices, dict)
    ).choices
    return sorted(
        (name, option)
        for name, sub in subcommands.items()
        for action in sub._actions
        for option in action.option_strings
        if option not in ("-h", "--help")
    )


@pytest.mark.parametrize("command,option", _options())
def test_every_cli_option_is_in_the_readme(readme, command, option):
    assert re.search(re.escape(option) + r"(?![\w-])", readme), f"{command} {option}"


def test_top_level_names_are_the_documented_exports(readme):
    section = readme.split("## Library use", 1)[1].split("\n## ", 1)[0]
    paragraph = section.split(EXPORTS_LEAD, 1)[1].split("\n\n", 1)[0]
    documented = set(re.findall(r"`(\w+)`", paragraph))
    exported = {
        name
        for name, value in vars(polywsd).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert exported == documented
