import sys
import time
from fractions import Fraction as QQ
from functools import cache
from pathlib import Path
from types import SimpleNamespace

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from projpoly.io import SystemFile
from projpoly.linalg import QMatrix
from projpoly.pipeline import analyze_system, construct_system, verify_system
from projpoly.polytope import HPolytope

# The desk-scale grid every geometric claim is exercised on.
GRID = [(4, 2), (6, 2), (8, 2), (4, 3), (6, 3), (4, 4)]

# Systems constructed with explicit (eps, M) that pass the construction
# gates but fail verify: (4,3) and (4,4) lose edges, and at (6,3) the
# 3-faces kept are not closed, so the local certificate refuses.
PASS_GATES_FAIL_VERIFY = {
    "4x3-1/16-2^32": (4, 3, QQ(1, 16), QQ(2**32)),
    "4x3-1/8-256": (4, 3, QQ(1, 8), QQ(256)),
    "4x4-1/16-2^32": (4, 4, QQ(1, 16), QQ(2**32)),
    "6x3-1/16-2^16": (6, 3, QQ(1, 16), QQ(2**16)),
}

_cache: dict[tuple[int, int], SimpleNamespace] = {}


def run_case(n: int, r: int) -> SimpleNamespace:
    """Construct, verify, and analyze one (n, r) case; cached per session."""
    if (n, r) not in _cache:
        start = time.monotonic()
        system = construct_system(n, r)
        verification = verify_system(system)
        analysis = analyze_system(system)
        _cache[(n, r)] = SimpleNamespace(
            system=system,
            verify=verification,
            analyze=analysis,
            seconds=time.monotonic() - start,
        )
    return _cache[(n, r)]


@cache
def zero_pattern_system() -> SystemFile:
    """(4,3) with 1/10^30 at column 3 of row (1, 0), so a row of block 1
    reads block 2.  It is still a product, but ``product_vertices`` refuses
    it: its vertices come from the double description method, whose order
    is not code order, and ``product_labeling`` sorts them."""
    h = construct_system(4, 3).h
    rows = list(h.A.entries)
    rows[0] = rows[0][:2] + (QQ(1, 10**30),) + rows[0][3:]
    return SystemFile(HPolytope(QMatrix(tuple(rows)), h.b, h.labels))


@pytest.fixture(scope="session")
def grid_case():
    return run_case
