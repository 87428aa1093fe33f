"""Every parser either parses its input or raises `ResweaveError`.

Inputs are the fixtures with a few random edits, and arbitrary JSON values
for the JSON formats. Any other exception escaping a parser would end the
CLI in a traceback instead of exit 2 with one line.
"""

from __future__ import annotations

import json

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from resweave import cli, verify
from resweave.errors import ResweaveError
from resweave.model import parse_model
from resweave.resources import parse_resource_map, parse_schedule
from resweave.sim import parse_scenario

from conftest import fixture_text

_SETTINGS = settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])

_json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False) | st.text(max_size=12),
    lambda children: st.lists(children, max_size=4) | st.dictionaries(st.text(max_size=10), children, max_size=4),
    max_leaves=20,
)


@st.composite
def edited(draw, text: str) -> str:
    """`text` with up to four cuts and insertions, some of them copied from elsewhere in it."""
    for _ in range(draw(st.integers(0, 4))):
        at = draw(st.integers(0, len(text)))
        cut = draw(st.integers(0, 12))
        if draw(st.booleans()):
            start = draw(st.integers(0, len(text)))
            insert = text[start:start + draw(st.integers(0, 16))]
        else:
            insert = draw(st.text(max_size=6))
        text = text[:at] + insert + text[at + cut:]
    return text


def _keys_edited(text: str):
    """A JSON document whose values are, at one key, replaced by arbitrary JSON."""
    root = json.loads(text)

    @st.composite
    def strategy(draw):
        document = json.loads(text)
        key = draw(st.sampled_from(sorted(root)))
        document[key] = draw(_json_values)
        return json.dumps(document)

    return strategy()


def parses_or_refuses(parse, text: str) -> None:
    try:
        parse(text)
    except ResweaveError:
        pass


_TEXT_PARSERS = {
    "model": (parse_model, "stroke_extended.json"),
    "map": (parse_resource_map, "stroke_extended.map"),
    "schedule": (parse_schedule, "schedule_extended.txt"),
    "scenario": (parse_scenario, "scenario_extended.json"),
}


@pytest.mark.parametrize("name", sorted(_TEXT_PARSERS))
def test_parser_on_edited_fixture(name):
    parse, fixture = _TEXT_PARSERS[name]

    @_SETTINGS
    @given(edited(fixture_text(fixture)))
    def run(text):
        parses_or_refuses(parse, text)

    run()


@pytest.mark.parametrize("name", ["model", "scenario"])
def test_json_parser_on_arbitrary_values(name):
    parse, fixture = _TEXT_PARSERS[name]

    @_SETTINGS
    @given(_json_values.map(json.dumps) | _keys_edited(fixture_text(fixture)))
    def run(text):
        parses_or_refuses(parse, text)

    run()


def test_properties_on_edited_fixture(extended_composition):
    @_SETTINGS
    @given(edited(fixture_text("props_extended.txt")))
    def run(text):
        parses_or_refuses(lambda t: verify.parse_properties(t, extended_composition), text)
        parses_or_refuses(verify.parse_properties, text)

    run()


def test_manifest_on_edits(tmp_path, extended_composition):
    cli.write_manifest(extended_composition, tmp_path, {})
    manifest = (tmp_path / "composition.json").read_text(encoding="utf-8")
    path = tmp_path / "edited.json"

    @_SETTINGS
    @given(edited(manifest) | _keys_edited(manifest) | _json_values.map(json.dumps))
    def run(text):
        path.write_text(text, encoding="utf-8")
        parses_or_refuses(lambda _: cli.load_manifest(str(path)), text)

    run()
