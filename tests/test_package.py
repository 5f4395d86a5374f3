import pytest

import gf2bup
from gf2bup import bup_search, divisor_sums, factor, gf2poly, mersenne


@pytest.mark.parametrize(
    "module", [gf2poly, factor, divisor_sums, mersenne, bup_search],
    ids=lambda module: module.__name__)
def test_package_exports_every_public_name(module):
    # each module's __all__ is its public API, and the package its union
    for name in module.__all__:
        assert getattr(gf2bup, name, None) is getattr(module, name), name
