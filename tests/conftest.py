import pytest

from snhurwitz.characters import CharCache


@pytest.fixture(scope="session")
def cache():
    return CharCache()
