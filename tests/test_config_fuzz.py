"""Hostile edits of the shipped configs: ``load_config`` returns or raises ``ConfigError``,
and ``cli.main`` ends with an exit code.

A hostile value in any field may load or fail; a misspelt key always fails.
Run in-process on small-n copies with a small step budget, ``cli.main``
ends every hostile config with exit 0, 1, 2 or 3 within a time bound,
prints no traceback, and names an exit-2 or exit-3 failure in one stderr
line.

A deterministic sweep sets each numeric field of the same small copies to
``TINY``, one at a time: no hostile value is a tiny positive number, and such
values reach zero-length steps, spans and growth constants.  It runs a second
time with ``integrator.method: bdf``, each case within the time bound.  A second sweep
sets each integer field to ``HUGE``, a truncation order or sample count no
machine can allocate arrays for.
"""
import copy
import sys
import time
from pathlib import Path

import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

from silkin import cli, integrator

ROOT = Path(__file__).resolve().parent.parent
sys.path.append(str(ROOT / "perfbench"))
from workloads import CLI_CONFIGS  # noqa: E402

CONFIGS = sorted((ROOT / "configs").glob("*.yaml"))
HOSTILE = (None, "a string", -1, 0, 1e308, [], {}, True, [1, "a", None], float("nan"))
TINY = 1e-300
HUGE = 10 ** 18  # 8 EB per float array: numpy refuses at once, nothing is allocated
COMMAND = dict(CLI_CONFIGS)  # the subcommand each shipped config is written for
SMALL_RUN = {"n": 8, "n_ladder": [8, 16]}
FUZZ_STEPS = 400  # step budget of a fuzzed run; the unmutated small configs take at most 263 steps
SECONDS_PER_EXAMPLE = 5.0


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


def _small(doc):
    """``doc`` at truncation order 8 (ladder 8, 16); configs already that small keep their order."""
    doc = copy.deepcopy(doc)
    for key, value in SMALL_RUN.items():
        if key in doc["run"] and (key != "n" or doc["run"]["n"] > value):
            doc["run"][key] = value
    return doc


@pytest.mark.parametrize("config", CONFIGS, ids=lambda p: p.stem)
def test_main_ends_every_hostile_config_with_an_exit_code(config, tmp_path_factory, capsys, monkeypatch):
    monkeypatch.setattr(integrator, "MAX_STEPS", FUZZ_STEPS)
    command = COMMAND[config.stem]
    doc = _small(yaml.safe_load(config.read_text(encoding="utf-8")))
    paths = list(_paths(doc))
    work = tmp_path_factory.mktemp(config.stem)
    target = work / "mutated.yaml"
    argv = [command, "--config", str(target), "--out", str(work / "out")]

    @settings(max_examples=80, deadline=None, database=None, derandomize=True)
    @given(path=st.sampled_from(paths), value=st.sampled_from(HOSTILE))
    def check(path, value):
        target.write_text(yaml.safe_dump(_replaced(doc, path, value)), encoding="utf-8")
        start = time.perf_counter()
        code = cli.main(argv)
        elapsed = time.perf_counter() - start
        out, err = capsys.readouterr()
        assert "Traceback" not in out + err
        assert code in (cli.EXIT_OK, cli.EXIT_CHECK_FAILED, cli.EXIT_CONFIG, cli.EXIT_NUMERICAL)
        if code in (cli.EXIT_CONFIG, cli.EXIT_NUMERICAL):
            assert len(err.splitlines()) == 1, err
        assert elapsed < SECONDS_PER_EXAMPLE

    target.write_text(yaml.safe_dump(doc), encoding="utf-8")
    # the small copy runs to its checks (ladder's final gap fails at orders this low)
    assert cli.main(argv) in (cli.EXIT_OK, cli.EXIT_CHECK_FAILED)
    capsys.readouterr()
    check()


def _numeric_paths(doc, types):
    """Paths of the leaves of ``doc`` that are instances of ``types`` (never ``bool``)."""
    for path in _paths(doc):
        node = doc
        for key in path:
            node = node[key]
        if isinstance(node, types) and not isinstance(node, bool):
            yield path


def _sweep(config, value, types, tmp_path, capsys, method=None):
    """Set each leaf of type ``types`` of the small copy of ``config`` to ``value`` in turn and run ``cli.main``.

    With a ``method``, the copy integrates with it; its own fields are swept too.
    """
    doc = _small(yaml.safe_load(config.read_text(encoding="utf-8")))
    if method is not None:
        doc["integrator"] = dict(doc.get("integrator") or {}, method=method)
    target = tmp_path / "extreme.yaml"
    argv = [COMMAND[config.stem], "--config", str(target), "--out", str(tmp_path / "out")]
    for path in _numeric_paths(doc, types):
        target.write_text(yaml.safe_dump(_replaced(doc, path, value)), encoding="utf-8")
        start = time.perf_counter()
        code = cli.main(argv)
        elapsed = time.perf_counter() - start
        out, err = capsys.readouterr()
        assert "Traceback" not in out + err, path
        assert code in (cli.EXIT_OK, cli.EXIT_CHECK_FAILED, cli.EXIT_CONFIG, cli.EXIT_NUMERICAL), path
        if code in (cli.EXIT_CONFIG, cli.EXIT_NUMERICAL):
            assert len(err.splitlines()) == 1, (path, err)
        if method is not None:
            assert elapsed < SECONDS_PER_EXAMPLE, path


@pytest.mark.parametrize("config", CONFIGS, ids=lambda p: p.stem)
def test_main_ends_every_tiny_value_with_an_exit_code(config, tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(integrator, "MAX_STEPS", FUZZ_STEPS)
    _sweep(config, TINY, (int, float), tmp_path, capsys)


@pytest.mark.parametrize("config", CONFIGS, ids=lambda p: p.stem)
def test_main_ends_every_tiny_value_under_bdf_with_an_exit_code(config, tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(integrator, "MAX_STEPS", FUZZ_STEPS)
    _sweep(config, TINY, (int, float), tmp_path, capsys, method="bdf")


@pytest.mark.parametrize("config", CONFIGS, ids=lambda p: p.stem)
def test_main_ends_every_huge_integer_with_an_exit_code(config, tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(integrator, "MAX_STEPS", FUZZ_STEPS)
    _sweep(config, HUGE, int, tmp_path, capsys)
