import pytest

from tests.strategies import TILES, tiled


@pytest.fixture(params=TILES)
def tile(request):
    """The walk's tile for the whole test (``tests.strategies.tiles``)."""
    with tiled(request.param):
        yield request.param
