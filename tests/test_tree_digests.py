"""tools/tree_digests.py: its listing repeats exactly from run to run."""

import importlib.util
import os
import re

TOOL = os.path.join(os.path.dirname(__file__), os.pardir, "tools", "tree_digests.py")


def load_tool():
    spec = importlib.util.spec_from_file_location("tree_digests", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_two_cases_repeat_their_digests():
    tool = load_tool()
    names = ["simulate-map", "guide-blur0-churn0.4-register0"]
    first = tool.digests(names)
    assert [line.split("  ")[1] for line in first] == names
    assert all(re.fullmatch(r"[0-9a-f]{64}  \S+", line) for line in first)
    assert tool.digests(names) == first


def test_matrix_covers_blur_churn_and_registration():
    names = set(load_tool().cases())
    assert {"simulate-map", "simulate-map-blur", "sample-churn0", "sample-churn0.4"} <= names
    assert len([n for n in names if n.startswith("guide-")]) == 8
