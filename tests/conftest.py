import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from mafnet import using


@pytest.fixture(autouse=True)
def checked_mode():
    with using(checked=True):
        yield
