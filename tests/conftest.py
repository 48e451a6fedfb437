import pytest

from loclab import corpus
from loclab.fincat import FinCat


@pytest.fixture(scope="session")
def cats():
    """All bundled categories by name, loaded once."""
    return {name: FinCat.from_json_dict(corpus.load_json(name)) for name in corpus.CATEGORIES}


@pytest.fixture(scope="session")
def lattices(cats):
    return {name: cats[name] for name in corpus.LATTICES}


@pytest.fixture(scope="session")
def chain3(cats):
    return cats["chain3"]


@pytest.fixture(scope="session")
def chain2(cats):
    return cats["chain2"]


@pytest.fixture(scope="session")
def diamond(cats):
    return cats["diamond"]
