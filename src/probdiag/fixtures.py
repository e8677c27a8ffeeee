"""Coordinate fixtures used by the CLI, the demo and the test suite."""
from __future__ import annotations

from .categories import build_category, standard_category
from .diagrams import MAX_COORDINATE_BITS, Diagram, FanIndices, coordinate_diagram
from .errors import BadParamError, TooLargeError


def parse_coords(text: str) -> tuple[int, ...]:
    """Coordinate sets from "a..b" ranges or comma lists like "1,3,5".  A
    range is bounded before it is built: no coordinate diagram has more than
    MAX_COORDINATE_BITS coordinates, so no longer range can be valid."""
    text = text.strip()
    if ".." in text:
        lo, _, hi = text.partition("..")
        lo, hi = int(lo), int(hi)
        if hi - lo >= MAX_COORDINATE_BITS:
            raise TooLargeError(f"range {lo}..{hi} spans more than the cap of "
                                f"{MAX_COORDINATE_BITS} coordinates")
        return tuple(range(lo, hi + 1))
    return tuple(int(part) for part in text.split(",") if part.strip())


def coord_two_fan(ell: int, left_coords, right_coords) -> tuple[Diagram, FanIndices]:
    """Uniform-bit two-fan: top carries all ell coordinates, the feet carry
    the given subsets; mutual information between the feet is the overlap
    size times ln 2."""
    cat = standard_category("two_fan")
    coord_sets = {"top": range(1, ell + 1), "left": left_coords, "right": right_coords}
    diagram = coordinate_diagram(cat, coord_sets, ell)
    return diagram, FanIndices(x_obj="left", z_obj="top", u_obj="right")


LAMBDA3_OBJECTS = ["z", "x", "z1", "z2", "x1", "x2", "u"]
LAMBDA3_COVERS = [
    ("z", "x"), ("z", "z1"), ("z", "z2"),
    ("x", "x1"), ("x", "x2"),
    ("z1", "x1"), ("z1", "u"),
    ("z2", "x2"), ("z2", "u"),
]


def coord_lambda3(left_coords=(1, 2), right_coords=(2, 3), u_coords=(3, 4, 5),
                  ell: int | None = None) -> tuple[Diagram, FanIndices]:
    """Full three-feet fixture: x over x1 and x2, u the third foot, with the
    pairwise joints z1 = x1+u and z2 = x2+u filled in.

    The designated fan (x <- z -> u) is admissible; overlapping coordinate
    sets give the feet positive mutual information."""
    a, b, c = set(left_coords), set(right_coords), set(u_coords)
    union = a | b | c
    if ell is None:
        ell = max(union)
    if ell > MAX_COORDINATE_BITS:
        raise TooLargeError(f"ell = {ell} exceeds the cap of {MAX_COORDINATE_BITS} coordinates")
    if union != set(range(1, ell + 1)):
        raise BadParamError("feet coordinates must cover 1..ell")
    cat = build_category(LAMBDA3_OBJECTS, LAMBDA3_COVERS)
    coord_sets = {
        "z": union, "x": a | b, "z1": a | c, "z2": b | c,
        "x1": a, "x2": b, "u": c,
    }
    diagram = coordinate_diagram(cat, coord_sets, ell)
    return diagram, FanIndices(x_obj="x", z_obj="z", u_obj="u")


def reduced_two_fan(ell: int, u_coords) -> tuple[Diagram, FanIndices]:
    """Two-fan whose x foot carries every coordinate, so the top arrow is an
    isomorphism and the fan is reduced; the natural expansion input."""
    return coord_two_fan(ell, range(1, ell + 1), u_coords)


def reduced_lambda3(split: int, ell: int, u_coords) -> tuple[Diagram, FanIndices]:
    """Reduced three-feet fixture: x1 and x2 partition all ell coordinates at
    the split point, making z -> x an isomorphism."""
    return coord_lambda3(range(1, split + 1), range(split + 1, ell + 1), u_coords, ell=ell)
