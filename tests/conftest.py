import pytest

from sketchbound import expectation


@pytest.fixture
def projection_calls(monkeypatch):
    """Arguments of each ``expectation.project_covariance`` call made in the test."""
    calls = []
    original = expectation.project_covariance

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(expectation, 'project_covariance', counting)
    return calls
