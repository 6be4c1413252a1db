import pytest

from threepage.braids import BraidWord
from threepage.diagram import braid_closure_diagram
from threepage.torus import HOPF, UNKNOT_TRIANGLE


@pytest.fixture
def hopf():
    return HOPF


@pytest.fixture
def unknot_triangle():
    return UNKNOT_TRIANGLE


@pytest.fixture
def trefoil_diagram():
    return braid_closure_diagram(BraidWord.of(2, [(1, 1)] * 3))


@pytest.fixture
def hopf_braid_diagram():
    return braid_closure_diagram(BraidWord.of(2, [(1, 1)] * 2))
