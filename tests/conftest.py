import pytest
import scipy.optimize

from infcone.config import RunConfig


@pytest.fixture(scope="session")
def cfg():
    """Default configuration (acceptance-grade budgets)."""
    return RunConfig()


@pytest.fixture(scope="session")
def fast_cfg():
    # reduced budgets for unit tests that only need coarse answers
    return RunConfig(shells=6, samples_per_shell=600, probes_per_level=80)


@pytest.fixture
def slsqp_statuses(monkeypatch):
    """Exit status of every SLSQP solve made by a test, in call order."""
    statuses = []
    minimize = scipy.optimize.minimize

    def recorded(*args, **kwargs):
        res = minimize(*args, **kwargs)
        statuses.append(int(res.status))
        return res

    monkeypatch.setattr(scipy.optimize, "minimize", recorded)
    return statuses
