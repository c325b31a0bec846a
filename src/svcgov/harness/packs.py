"""Shipped scenario packs: hospital delivery and retail guidance.

Each pack is a directory with an ontology document, a scenario file, and
a run configuration.  Packs load through the same parsers and validators
as user-supplied files.
"""

from __future__ import annotations

from importlib import resources
from typing import TYPE_CHECKING, Mapping

from ..errors import ConfigError
from ..orchestrator import OrchestratorConfig
from .scenario import Scenario, _read, config_from_data, scenario_from_data

if TYPE_CHECKING:  # pragma: no cover
    from importlib.resources.abc import Traversable

PACK_NAMES = ("hospital", "retail")


def pack_dir(name: str) -> Traversable:
    """The pack's directory inside the installed package, which may be zipped."""
    if name not in PACK_NAMES:
        raise ConfigError(f"unknown pack {name!r}; expected one of {', '.join(PACK_NAMES)}")
    return resources.files("svcgov") / "packs" / name


def pack_data(name: str) -> dict:
    """A pack's scenario document, for a caller to edit before ``pack_scenario``."""
    return _read(pack_dir(name) / "scenario.json", "scenario JSON", as_json=True)


def pack_scenario(name: str, data: Mapping) -> tuple[Scenario, OrchestratorConfig]:
    """The scenario of a pack's (possibly edited) scenario document, and the
    pack's run configuration loaded against its schema and assertions."""
    base = pack_dir(name)
    scenario = scenario_from_data(data, base_dir=base)
    config = _read(base / "config.json", "config JSON", as_json=True)
    return scenario, config_from_data(config, scenario.schema, scenario.assertions)


def load_pack(name: str) -> tuple[Scenario, OrchestratorConfig]:
    return pack_scenario(name, pack_data(name))
