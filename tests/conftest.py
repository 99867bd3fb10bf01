import pathlib

import numpy as np
import pytest

from bihsurf.immersion import build, from_structure, sasahara_data


@pytest.fixture(scope="session")
def sasahara_immersion():
    return build(sasahara_data())


@pytest.fixture(scope="session")
def structure_grid():
    """A small (h, rho) sample reused by the slower geometric tests."""
    out = []
    for h in (0.1, 0.5, 0.9):
        from bihsurf.parameters import rho_max

        for rho in (0.0, 0.4 * rho_max(h), rho_max(h)):
            out.append((h, rho, from_structure(h, rho)))
    return out


@pytest.fixture()
def rng():
    return np.random.default_rng(20240817)


# hypothesis imports libcst to report a failing example, and libcst's import
# warns through mypy_extensions; that warning is not the test's own
_ERROR_ON_WARNINGS = pytest.mark.filterwarnings(
    "error", "ignore:mypy_extensions.TypedDict is deprecated:DeprecationWarning"
)


def pytest_collection_modifyitems(config, items):
    """Any warning raised by a test under tests/ fails it."""
    here = pathlib.Path(__file__).parent
    for item in items:
        if here in item.path.parents:
            item.add_marker(_ERROR_ON_WARNINGS, append=False)
