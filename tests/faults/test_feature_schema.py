"""The eight scenario feature keys: one schema, one parser, one error path.

``repro.faults.scenario.FEATURES`` maps every optional feature key to
its config dataclass and ``parse_config`` is the one reader of their
fields.  These tests hold that contract at the CLI surface (every bad
input exits 1 with a named error, never a traceback), at the parser
(strict types, unknown names), and in the docs (a lint keeps the
``docs/fault_injection.md`` key table in step with the schema).
"""

import copy
import dataclasses
import glob
import json
import os
import re

import pytest

from repro.cli import main
from repro.control.controller import ControllerConfig
from repro.control.overload import OverloadConfig
from repro.faults.scenario import (
    FEATURES,
    AuditConfig,
    OAMConfig,
    Scenario,
    ScenarioError,
    config_fields,
    parse_config,
)
from repro.security import SecurityConfig

ROOT = os.path.join(os.path.dirname(__file__), os.pardir, os.pardir)
EXAMPLES_DIR = os.path.join(ROOT, "examples")
SMOKE = os.path.join(EXAMPLES_DIR, "chaos_smoke.json")


def _smoke():
    with open(SMOKE) as handle:
        return json.load(handle)


#: (feature keys merged into chaos_smoke.json, extra CLI args, the name
#: the error must carry).  The first block is the bad input that used
#: to escape as a ValueError traceback or run silently; the second is
#: one unknown field per key; the third one wrong type per field kind.
MUTANTS = [
    ({"overload": {"typo": 1}}, [], "unknown overload key(s): typo"),
    ({"overload": {"queue_capacity": 0}}, [], "overload"),
    ({"topo": {"snapshot_every": 0}}, [], "topo"),
    ({"oam": {"period": 0}}, [], "oam"),
    ({"audit": {"period": "fast"}}, [], "audit.period"),
    ({"audit": {"perod": 0.1}}, [], "unknown audit key(s): perod"),
    ({"flows": {"capacity": "big"}}, [], "flows.capacity"),
    ({"flows": {}, "alerts": {"rules": [5]}}, [], "alerts.rules"),
    ({}, ["--audit", "0"], "audit"),
] + [
    (
        {key: {"typo": 1}, **({"flows": {}} if key == "alerts" else {})},
        [],
        f"unknown {key} key(s): typo",
    )
    for key in FEATURES
] + [
    ({"overload": {"enabled": "false"}}, [], "overload.enabled"),
    ({"security": {"enabled": "false"}}, [], "security.enabled"),
    ({"audit": {"repair": 1}}, [], "audit.repair"),
    ({"controller": {"queue_capacity": 32.9}}, [], "controller.queue_capacity"),
    ({"oam": {"period": True}}, [], "oam.period"),
]


@pytest.mark.parametrize(
    "features,args,named", MUTANTS, ids=[m[2] for m in MUTANTS]
)
def test_bad_feature_input_is_a_named_error(
    features, args, named, tmp_path, capsys
):
    raw = _smoke()
    raw.update(copy.deepcopy(features))
    path = tmp_path / "mutant.json"
    path.write_text(json.dumps(raw))
    # an uncaught exception would fail the test outright
    assert main(["chaos", str(path), "--seed", "7", *args]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert named in captured.err
    assert "Traceback" not in captured.err


class TestStrictTypes:
    """Each field kind rejects what the old per-key parsers coerced."""

    def test_bool_rejects_a_string(self):
        with pytest.raises(ScenarioError, match=r"overload\.enabled"):
            parse_config(OverloadConfig, {"enabled": "false"}, "overload")
        with pytest.raises(ScenarioError, match=r"security\.enabled"):
            parse_config(SecurityConfig, {"enabled": "false"}, "security")

    def test_bool_rejects_an_int(self):
        with pytest.raises(ScenarioError, match=r"audit\.repair"):
            parse_config(AuditConfig, {"repair": 1}, "audit")

    def test_int_rejects_a_float_and_a_bool(self):
        for value in (32.9, 32.0, True):
            with pytest.raises(
                ScenarioError, match=r"controller\.queue_capacity"
            ):
                parse_config(
                    ControllerConfig, {"queue_capacity": value}, "controller"
                )

    def test_float_rejects_a_bool_and_non_finite(self):
        for value in (True, float("nan"), float("inf"), "0.05"):
            with pytest.raises(ScenarioError, match=r"oam\.period"):
                parse_config(OAMConfig, {"period": value}, "oam")

    def test_float_widens_an_int(self):
        cfg = parse_config(OAMConfig, {"period": 1, "timeout": None}, "oam")
        assert cfg.period == 1.0 and isinstance(cfg.period, float)
        assert cfg.timeout is None

    def test_horizon_is_the_runs_not_the_documents(self):
        with pytest.raises(ScenarioError, match="unknown overload key"):
            parse_config(OverloadConfig, {"horizon": 5.0}, "overload")
        raw = _smoke()
        raw["overload"] = {"enabled": False}
        raw["controller"] = {}
        configs = Scenario.from_dict(raw).configs()
        assert configs["overload"].horizon == raw["duration"]
        assert configs["controller"].horizon == raw["duration"]
        assert set(configs) == {"overload", "controller"}

    def test_a_feature_key_must_be_an_object(self):
        raw = _smoke()
        raw["topo"] = [64]
        with pytest.raises(ScenarioError, match="'topo' must be an object"):
            Scenario.from_dict(raw)


def test_examples_parse_without_coercion():
    """Every example's feature keys already carry the strict types."""
    paths = sorted(glob.glob(os.path.join(EXAMPLES_DIR, "chaos_*.json")))
    assert paths
    for path in paths:
        Scenario.load(path).configs()


# -- lint: the docs table and the CI matrix follow the schema ---------------

_DOC_ROW = re.compile(
    r"^\| `(?P<key>[a-z_]+)` \| `(?P<field>[a-z_]+)` \| (?P<type>[a-z ]+) "
    r"\| `(?P<default>[^`]*)` \|",
    re.MULTILINE,
)


def _doc_rows():
    path = os.path.join(ROOT, "docs", "fault_injection.md")
    with open(path, encoding="utf-8") as handle:
        text = handle.read()
    return {
        (m["key"], m["field"]): (m["type"], m["default"])
        for m in _DOC_ROW.finditer(text)
    }


def _doc_type(hint):
    text = repr(hint)
    kind = (
        "boolean" if hint is bool
        else "integer" if hint is int
        else "list" if "List" in text
        else "number"
    )
    return kind + (" or null" if "Optional" in text else "")


def test_docs_table_every_feature_key_and_field():
    rows = _doc_rows()
    assert len(rows) > 40  # the regex really sees the table
    problems = []
    for key, cls in FEATURES.items():
        defaults = {
            f.name: (
                f.default
                if f.default is not dataclasses.MISSING
                else f.default_factory()
            )
            for f in dataclasses.fields(cls)
        }
        for name, hint in config_fields(cls).items():
            row = rows.pop((key, name), None)
            want = (_doc_type(hint), json.dumps(defaults[name]))
            if row is None:
                problems.append(f"{key}.{name} is missing from the table")
            elif row != want:
                problems.append(f"{key}.{name}: table says {row}, schema {want}")
    problems += [f"{k}.{f} is not in the schema" for k, f in sorted(rows)]
    assert not problems, "\n".join(problems)


def test_ci_matrix_runs_every_example():
    path = os.path.join(ROOT, ".github", "workflows", "ci.yml")
    with open(path, encoding="utf-8") as handle:
        text = handle.read()
    listed = set(re.findall(r"^\s+- (chaos_[a-z_]+)$", text, re.MULTILINE))
    examples = {
        os.path.splitext(os.path.basename(p))[0]
        for p in glob.glob(os.path.join(EXAMPLES_DIR, "chaos_*.json"))
    }
    assert examples and listed == examples
