import pytest
from hypothesis import HealthCheck, settings

settings.register_profile(
    "suite",
    max_examples=60,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("suite")


@pytest.fixture(scope="session")
def demo():
    from vass import instances

    return instances.demo_guarded()


@pytest.fixture(scope="session")
def plain():
    from vass import instances

    return instances.demo_plain()
