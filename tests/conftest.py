import pytest

from loclab import corpus
from loclab.fincat import FinCat, opposite


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


def poset_category(name, elements, leq) -> FinCat:
    """The thin category of a finite order, with ids m_<a>_<b> as the bench writes them."""
    arrows = [(a, b) for a in elements for b in elements if a != b and leq(a, b)]
    mor = {(a, b): f"m_{a}_{b}" for a, b in arrows}
    mor.update({(a, a): f"id_{a}" for a in elements})
    compose = [{"g": mor[(b, c)], "f": mor[(a, b)], "gf": mor[(a, c)]}
               for (a, b) in arrows for (b2, c) in arrows if b2 == b]
    return FinCat.from_json_dict({
        "name": name, "objects": list(elements),
        "morphisms": [{"id": mor[arrow], "src": arrow[0], "dst": arrow[1]} for arrow in arrows],
        "compose": compose})


@pytest.fixture(scope="session")
def make_poset():
    """`poset_category`, for tests that generate their own orders."""
    return poset_category


@pytest.fixture(scope="session")
def bench_lattices():
    """The 8-element lattices of the lattice-8 benchmark: chain8, B3 and grid2x4."""
    chain = [str(i) for i in range(8)]
    cube = [format(i, "03b") for i in range(8)]
    grid = [f"{i}{j}" for i in range(2) for j in range(4)]
    below = lambda a, b: all(x <= y for x, y in zip(a, b))
    return {"chain8": poset_category("chain8", chain, lambda a, b: int(a) <= int(b)),
            "B3": poset_category("B3", cube, below),
            "grid2x4": poset_category("grid2x4", grid, below)}


@pytest.fixture(scope="session")
def row_categories(cats, bench_lattices):
    """(name, category) for every bundled category and bench lattice and for
    the opposite of each."""
    named = {**cats, **bench_lattices}
    return [(name, cat) for base, cat in sorted(named.items())
            for name, cat in ((base, cat), (f"{base}^op", opposite(cat)))]


@pytest.fixture(scope="session")
def discrete():
    """Builds the discrete structure of a category (all maps cofibrations and
    fibrations, the isomorphisms weak equivalences) as its localization at the
    whole category, whose reflector inverts exactly the isomorphisms."""
    from loclab.modelstruct import localization_from_reflector
    from loclab.reflect import find_reflector

    return lambda cat: localization_from_reflector(find_reflector(cat, cat.objects).reflector)


@pytest.fixture(scope="session")
def certified_families(lattices, bench_lattices):
    """(localizations, colocalizations) of every bundled lattice and bench lattice."""
    from loclab.modelstruct import colocalizations_via_op, enumerate_localizations

    return {name: (enumerate_localizations(cat), colocalizations_via_op(cat))
            for name, cat in sorted({**lattices, **bench_lattices}.items())}
