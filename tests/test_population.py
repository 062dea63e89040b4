"""The benchmark population's outcomes, pinned exactly.

The benchmark only checks that every batch of a run ends like its first, so
a kernel change that alters an outcome would pass it.  This test runs the
40 seed-1 collections of `perfbench/inputs.py` with the benchmark's budgets
and pins each one's stop status, iteration count and the sha256 prefix of
its answer's canonical vertex text ("x,y;x,y;..." with each coordinate
written as `str(Fraction)` writes it).
"""

import hashlib
import importlib.util
from pathlib import Path

from errdiff.geometry import ORIGIN, ConvexPolygon
from errdiff.operators import IterationConfig, iterate_to_invariance
from errdiff.serialize import parse_collection

INPUTS = Path(__file__).resolve().parent.parent / "perfbench" / "inputs.py"

# (status, iterations, vertex-text digest) of each seed-1 collection in order.
PINNED = [
    ("bits", 19, "bf00334e39132479"),
    ("converged", 3, "1b73ead634efef2d"),
    ("bits", 44, "65b3d07665aa346b"),
    ("bits", 8, "2f9e62f2efcc29ba"),
    ("converged", 0, "7334821429a99561"),
    ("bits", 8, "6e72094792de763f"),
    ("extrapolated", 17, "d1af3ee75a0e8700"),
    ("converged", 2, "d8f9021a773e5fc5"),
    ("bits", 27, "f5ea5a793b7ec2a9"),
    ("converged", 0, "7334821429a99561"),
    ("bits", 11, "2057f5ec5d376254"),
    ("bits", 8, "6b187b2d6e729016"),
    ("converged", 0, "7334821429a99561"),
    ("converged", 1, "a10f6fd399d86eb5"),
    ("converged", 0, "7334821429a99561"),
    ("bits", 23, "c16a1a51d13a776f"),
    ("bits", 14, "dae93bca8f461179"),
    ("converged", 1, "fbeff9f690d7f190"),
    ("converged", 0, "7334821429a99561"),
    ("extrapolated", 9, "c0959493a576db02"),
    ("bits", 18, "dba149b941917a2f"),
    ("bits", 17, "168d162596112b48"),
    ("bits", 40, "6f1e6f492053545b"),
    ("extrapolated", 8, "359960d99354425a"),
    ("converged", 0, "7334821429a99561"),
    ("bits", 12, "e1548928b434664e"),
    ("bits", 13, "0386b553f531e367"),
    ("bits", 8, "e9887aa3153588e3"),
    ("converged", 0, "7334821429a99561"),
    ("bits", 35, "796e745e15ebbc8e"),
    ("bits", 10, "d5bc9c34bb10ce58"),
    ("bits", 7, "ed64bd368e8cecf6"),
    ("converged", 0, "7334821429a99561"),
    ("converged", 1, "392181e1a59e0db2"),
    ("converged", 1, "553785d0f4ecacae"),
    ("bits", 8, "2ce0df1bf273073e"),
    ("bits", 20, "da0688d3cc4e9319"),
    ("bits", 9, "a559990c8c8c93dd"),
    ("bits", 30, "7268cb4ee6c23d50"),
    ("converged", 1, "8f5af24404ed8da5"),
]


def _load_inputs():
    spec = importlib.util.spec_from_file_location("perfbench_inputs", INPUTS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _digest(poly: ConvexPolygon) -> str:
    text = ";".join(f"{v.x},{v.y}" for v in poly.vertices)
    return hashlib.sha256(text.encode("ascii")).hexdigest()[:16]


def test_seed1_population_outcomes_are_pinned():
    documents = _load_inputs().random_collection_documents(1, len(PINNED))
    config = IterationConfig(max_iterations=250, max_coordinate_bits=192)
    seed = ConvexPolygon((ORIGIN,))
    got = []
    for doc in documents:
        result = iterate_to_invariance(parse_collection(doc), seed, config)
        got.append((result.status, result.iterations, _digest(result.invariant_set)))
    assert got == PINNED
