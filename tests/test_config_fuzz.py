"""Hostile edits of the shipped configs: ``load_config`` returns or raises ``ConfigError``.

A hostile value in any field may load or fail; a misspelt key always fails.
"""
import copy
from pathlib import Path

import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

from silkin import cli

CONFIGS = sorted((Path(__file__).resolve().parent.parent / "configs").glob("*.yaml"))
HOSTILE = (None, "a string", -1, 0, 1e308, [], {}, True, [1, "a", None], float("nan"))


def _paths(node, prefix=()):
    """Every key and list index of a YAML document, parents before children."""
    children = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in children:
        yield prefix + (key,)
        yield from _paths(child, prefix + (key,))


def _replaced(doc, path, value):
    doc = copy.deepcopy(doc)
    node = doc
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return doc


def _renamed(doc, path):
    """``doc`` with the key at ``path`` misspelt by a ``_x`` suffix."""
    doc = copy.deepcopy(doc)
    node = doc
    for key in path[:-1]:
        node = node[key]
    node[f"{path[-1]}_x"] = node.pop(path[-1])
    return doc


@pytest.mark.parametrize("config", CONFIGS, ids=lambda p: p.stem)
def test_load_config_rejects_hostile_fields_as_config_errors(config, tmp_path_factory):
    doc = yaml.safe_load(config.read_text(encoding="utf-8"))
    paths = list(_paths(doc))
    target = tmp_path_factory.mktemp(config.stem) / "mutated.yaml"

    @settings(max_examples=400, deadline=None, database=None, derandomize=True)
    @given(path=st.sampled_from(paths), value=st.sampled_from(HOSTILE))
    def check(path, value):
        target.write_text(yaml.safe_dump(_replaced(doc, path, value)), encoding="utf-8")
        try:
            cli.load_config(str(target))
        except cli.ConfigError:
            pass

    check()


@pytest.mark.parametrize("config", CONFIGS, ids=lambda p: p.stem)
def test_load_config_rejects_renamed_keys(config, tmp_path_factory):
    doc = yaml.safe_load(config.read_text(encoding="utf-8"))
    keys = [path for path in _paths(doc) if isinstance(path[-1], str)]
    target = tmp_path_factory.mktemp(config.stem) / "renamed.yaml"

    @settings(max_examples=100, deadline=None, database=None, derandomize=True)
    @given(path=st.sampled_from(keys))
    def check(path):
        target.write_text(yaml.safe_dump(_renamed(doc, path)), encoding="utf-8")
        with pytest.raises(cli.ConfigError):
            cli.load_config(str(target))

    check()
