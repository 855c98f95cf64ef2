"""tools/tree_digests.py: every digest equals the committed table."""

import importlib.util
import os

import pytest

TOOLS = os.path.join(os.path.dirname(__file__), os.pardir, "tools")


def load_tool():
    spec = importlib.util.spec_from_file_location(
        "tree_digests", os.path.join(TOOLS, "tree_digests.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_outputs_match_the_committed_table():
    tool = load_tool()
    with open(os.path.join(TOOLS, "tree_digests.txt")) as fh:
        header, *table = fh.read().splitlines()
    if header != tool.versions():
        pytest.skip(f"table made with {header[2:]}, not {tool.versions()[2:]}")
    assert [line.split("  ")[1] for line in table] == (
        list(tool.cases()) + ["draws-raw", "draws-raw-registered"])
    assert tool.digests() == table


def test_matrix_covers_blur_churn_and_registration():
    names = set(load_tool().cases())
    assert {"simulate-map", "simulate-map-blur", "sample-churn0", "sample-churn0.4"} <= names
    assert len([n for n in names if n.startswith("guide-")]) == 8
