import os

import pytest
from hypothesis import settings

# one derandomized profile for every property test, so the suite is deterministic
settings.register_profile("jetres", derandomize=True, max_examples=60, deadline=None)
settings.load_profile("jetres")


def pytest_configure(config):
    # the tests that start `python -m jetres.cli` in a subprocess find the
    # package in src, as this process does through the pythonpath ini option
    src = str(config.rootpath / "src")
    os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))


def pytest_collection_modifyitems(config, items):
    if os.environ.get("JETRES_RUN_SLOW") == "1":
        return
    skip = pytest.mark.skip(reason="slow check; set JETRES_RUN_SLOW=1 to run")
    for item in items:
        if "slow" in item.keywords:
            item.add_marker(skip)
