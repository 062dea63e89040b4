"""Seeded inputs for the benchmark workloads, as plain JSON documents.

Nothing here imports errdiff: the program under test only ever sees the
documents these functions return, written to files or parsed by its own
loaders.

The seed of a run draws coordinates, not problems.  Every seed poses the
same fixed population of collections (drawn once from ``POPULATION_SEED``)
and the paper's three-set family, each moved by transformations under
which the iteration is exactly equivariant:

* swapping the x and y axes (an isometry fixing the origin, and the
  per-coordinate rounding treats both axes alike);
* in perfect mode, translating each member set by its own integer vector
  (the error-set operator subtracts the site it clipped around, so the
  iterates do not move at all);
* listing the members and their points in another order.

So the arithmetic differs from seed to seed while the stop status, the
iteration count and the answer (up to the axis swap) stay fixed, which
keeps ``certified_ratio`` a property of the program rather than of the
draw.  Reflections are left out on purpose: rounding snaps a coordinate
just above an integer but not one just below, so negating an axis is not
an exact symmetry of the iteration.
"""

from __future__ import annotations

import random
from fractions import Fraction

POPULATION_SEED = "errdiff-random-collections-v1"

FAMILY3_RING = [(-1, -1), (0, -1), (1, -1), (1, 0), (1, 1), (0, 1), (-1, 1), (-1, 0)]


def family3_sets() -> list[list[tuple[int, int]]]:
    """The paper's three-set ring family: the ring, minus one, minus two."""
    ring = FAMILY3_RING
    return [
        list(ring),
        [c for c in ring if c != (0, -1)],
        [c for c in ring if c not in ((0, -1), (-1, -1))],
    ]


def _random_point(rng: random.Random, radius: int) -> tuple[int, int]:
    return (rng.randint(-radius, radius), rng.randint(-radius, radius))


def _population_member(rng: random.Random) -> tuple[str, list[tuple[int, int]]]:
    if rng.random() < 0.5:
        return "points", [_random_point(rng, 6) for _ in range(rng.randint(1, 6))]
    # A convex member: a point, a segment or a triangle (possibly degenerate).
    return "polygon", [_random_point(rng, 4) for _ in range(rng.randint(1, 3))]


def population(count: int) -> list[dict]:
    """The fixed population: ``count`` collections as (mode, members) records."""
    rng = random.Random(POPULATION_SEED)
    out = []
    for idx in range(count):
        mode = "perfect" if idx % 2 == 0 else "persistent"
        members = [_population_member(rng) for _ in range(rng.randint(1, 3))]
        out.append({"mode": mode, "members": members})
    return out


class Placement:
    """The seed's draw of axis swap, translations and orderings."""

    def __init__(self, seed: int, label: str):
        self.rng = random.Random(f"{label}:{seed}")
        self.swap = self.rng.random() < 0.5

    def point(self, p: tuple[int, int], shift: tuple[int, int]) -> tuple[int, int]:
        x, y = p[0] + shift[0], p[1] + shift[1]
        return (y, x) if self.swap else (x, y)

    def collection(self, mode: str, members: list[tuple[str, list[tuple[int, int]]]]) -> dict:
        members = list(members)
        self.rng.shuffle(members)
        sets = []
        for kind, points in members:
            shift = (0, 0)
            if mode == "perfect":
                shift = (self.rng.randint(-20, 20), self.rng.randint(-20, 20))
            placed = [self.point(p, shift) for p in points]
            self.rng.shuffle(placed)
            sets.append({kind: [[str(x), str(y)] for x, y in placed]})
        return {"mode": mode, "sets": sets}


def family3_document(seed: int) -> tuple[dict, bool]:
    """The family3 collection placed by ``seed``, and whether axes are swapped."""
    placement = Placement(seed, "family3")
    members = [("points", s) for s in family3_sets()]
    return placement.collection("perfect", members), placement.swap


def random_collection_documents(seed: int, count: int) -> list[dict]:
    placement = Placement(seed, "random-collections")
    return [placement.collection(c["mode"], c["members"]) for c in population(count)]


def scenario_document(seed: int, horizon: int) -> dict:
    """The closed-loop scenario: a heater bank and two PV units.

    * ``heaters``: three heaters of 1, 2 and 3 kW with lock timers, perfect
      prediction over finite setpoint sets;
    * ``pv_square``: a PV unit whose cap follows a square wave, persistent
      prediction;
    * ``pv_random``: a PV unit with random availability on a 1/32 grid, so
      persistent prediction meets many distinct triangles.

    The seed draws the starting temperatures, the heater cost centre, the
    square-wave period and the random-availability stream.
    """
    rng = random.Random(f"closed-loop:{seed}")
    temps = [str(Fraction(rng.randint(38, 44), 2)) for _ in range(3)]
    center = str(-rng.randint(2, 4))
    return {
        "horizon": horizon,
        "seed": seed,
        "step_ms": 100,
        "resources": [
            {
                "id": "heaters",
                "kind": "heater",
                "prediction": "perfect",
                "powers": ["1", "2", "3"],
                "t_min": "19",
                "t_max": "22",
                "lock_steps": 5,
                "thermal": {"leak": "1/100", "gain": "1/6", "t_out": "8"},
                "initial_temps": temps,
                "policy": {
                    "cost": {"kind": "quadratic", "center": [center, "0"], "curvature": "1"},
                    "step_size": "1/4",
                },
            },
            {
                "id": "pv_square",
                "kind": "pv",
                "prediction": "persistent",
                "p_max": "1",
                "tan_phi": "1",
                "availability": {
                    "kind": "square",
                    "period": rng.choice([4, 6, 8]),
                    "low": "0",
                    "high": "1",
                },
                "policy": {"cost": {"kind": "maximize_p"}, "step_size": "1/4"},
            },
            {
                "id": "pv_random",
                "kind": "pv",
                "prediction": "persistent",
                "p_max": "4",
                "tan_phi": "1/4",
                "availability": {"kind": "random", "low": "0", "high": "4", "denominator": 32},
                "policy": {"cost": {"kind": "maximize_p"}, "step_size": "1/4"},
            },
        ],
    }
