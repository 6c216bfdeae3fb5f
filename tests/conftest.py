import pytest
from hypothesis import settings

from cpsrecover import config as cfgmod
from cpsrecover import sim

# tier-1 draws the same examples on every run and keeps none between runs;
# ``--hypothesis-profile=explore`` (with ``--hypothesis-seed``) draws fresh
# ones and replays the failures its example database kept
settings.register_profile("tier1", derandomize=True, database=None)
settings.register_profile("explore", settings.get_profile("default"))


def pytest_configure(config):
    if config.getoption("--hypothesis-profile") is None:
        settings.load_profile("tier1")


@pytest.fixture(scope="session")
def case_result():
    """One default case-study run shared by read-only tests."""
    return sim.run_scenario(cfgmod.build_case_study(seed=42))


@pytest.fixture(scope="session")
def case_models():
    return cfgmod.build_models(cfgmod.default_config())
