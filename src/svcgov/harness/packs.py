"""Shipped scenario packs: hospital delivery and retail guidance.

Each pack is a directory with an ontology document, a scenario file, and
a run configuration.  Packs load through the same parsers and validators
as user-supplied files.

A pack's files are read and parsed once per process, at its first use:
its scenario document as text, its ontology as one ``OntologySchema`` and
its configuration as the parsed fields that ``OrchestratorConfig`` takes.
Every scenario built from the pack's (possibly edited) document is then
built and checked by ``scenario_from_data``'s own path on that schema, and
every configuration by ``OrchestratorConfig``'s constructor, so the
scenarios that the bench families generate from one pack share one schema,
and with it its memo of soundness reports and transitions.  The cache
holds at most one entry per name in ``PACK_NAMES``, and nothing of a pack
whose files do not load.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from importlib import resources
from types import MappingProxyType
from typing import TYPE_CHECKING, Mapping

from ..errors import ConfigError, ParseError
from ..fields import decode
from ..ontology import OntologySchema, load_schema
from ..orchestrator import OrchestratorConfig
from .scenario import Scenario, _config_fields, _read, _scenario_from_data

if TYPE_CHECKING:  # pragma: no cover
    from importlib.resources.abc import Traversable

PACK_NAMES = ("hospital", "retail")

#: The ontology file of every pack, as its scenario document names it.
ONTOLOGY = "ontology.txt"


def pack_dir(name: str) -> Traversable:
    """The pack's directory inside the installed package, which may be zipped."""
    if name not in PACK_NAMES:
        raise ConfigError(f"unknown pack {name!r}; expected one of {', '.join(PACK_NAMES)}")
    return resources.files("svcgov") / "packs" / name


@dataclass(frozen=True)
class _Pack:
    """A pack's files as read and parsed once."""

    directory: Traversable
    document: str  # the scenario document's text, decoded afresh for each caller
    schema: OntologySchema  # of the pack's ``ONTOLOGY`` file
    config: Mapping[str, object]  # the configuration's fields but the schema and assertion base

    def schema_at(self, path: str) -> OntologySchema:
        """The schema of the ontology file ``path`` in the pack's directory."""
        return self.schema if path == ONTOLOGY else load_schema(_read(self.directory / path, "ontology"))


@lru_cache(maxsize=len(PACK_NAMES))
def _pack(name: str) -> _Pack:
    """The pack ``name``, read at its first use; a pack that does not load
    raises and is read again at its next use."""
    base = pack_dir(name)
    document = _read(base / "scenario.json", "scenario JSON")
    schema = load_schema(_read(base / ONTOLOGY, "ontology"))
    config = _config_fields(_read(base / "config.json", "config JSON", as_json=True))
    return _Pack(base, document, schema, MappingProxyType(config))


def pack_data(name: str) -> dict:
    """A pack's scenario document, for a caller to edit before ``pack_scenario``."""
    return decode(ParseError, "scenario JSON", _pack(name).document)


def pack_scenario(name: str, data: Mapping) -> tuple[Scenario, OrchestratorConfig]:
    """The scenario of a pack's (possibly edited) scenario document, and the
    pack's run configuration on its schema and assertions."""
    pack = _pack(name)
    scenario = _scenario_from_data(data, pack.schema_at)
    return scenario, OrchestratorConfig(scenario.schema, scenario.assertions, **pack.config)


def load_pack(name: str) -> tuple[Scenario, OrchestratorConfig]:
    return pack_scenario(name, pack_data(name))
