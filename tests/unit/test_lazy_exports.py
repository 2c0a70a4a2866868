"""The packages that re-export their names lazily (PEP 562)."""

import importlib

import pytest

LAZY_PACKAGES = (
    "repro",
    "repro.kernel",
    "repro.analysis",
    "repro.campaign",
    "repro.campaign.orchestrator",
    "repro.telemetry",
)


@pytest.mark.parametrize("name", LAZY_PACKAGES)
def test_every_exported_name_resolves_and_is_listed(name):
    package = importlib.import_module(name)
    listed = dir(package)
    for export in package.__all__:
        getattr(package, export)
        assert export in listed, f"{name}.{export} missing from dir()"


@pytest.mark.parametrize("name", LAZY_PACKAGES)
def test_unknown_names_raise_attribute_error(name):
    package = importlib.import_module(name)
    with pytest.raises(AttributeError, match="no_such_name"):
        package.no_such_name


def test_from_imports_work_as_before():
    from repro import Simulator, SmartFifo, ns
    from repro.campaign import CampaignRunner, default_campaign
    from repro.kernel.simulator import Simulator as DefiningSimulator

    assert Simulator is DefiningSimulator
    assert SmartFifo.__name__ == "SmartFifo"
    assert ns is not None
    assert CampaignRunner.__module__ == "repro.campaign.runner"
    assert default_campaign()
