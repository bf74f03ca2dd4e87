import pytest
from hypothesis import HealthCheck, settings

from stablesq.suites import SUITES, SuiteOptions

settings.register_profile(
    "suite",
    max_examples=60,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("suite")


@pytest.fixture(scope="session")
def default_suite_results():
    """Every suite's CheckResults at SuiteOptions() (seed 0), run once for
    the acceptance criteria and the seed-0 pin."""
    return {name: SUITES[name](SuiteOptions()) for name in SUITES}
