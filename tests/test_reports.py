import io
import json
import math

import numpy as np
from hypothesis import given, settings, strategies as st

from noumenal import matrix_to_json
from noumenal.reports import WRITE_CHARS, _float_block, dump_json

# json.dumps(indent=2) is the reference oracle for every test below.

EDGE_FLOATS = (0.0, -0.0, 1e16, 1e-5, 5e-324, 2.2e-308, 1.5e300, math.nan, math.inf, -math.inf)
floats = st.floats() | st.sampled_from(EDGE_FLOATS)
finite_floats = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(EDGE_FLOATS[:7])
# One character of each class json escapes differently, non-ASCII included.
text = st.text(st.sampled_from('a"\\/\n\t\x00\x7fé☃\U0001f600\ud800'), max_size=6)
scalars = st.none() | st.booleans() | st.integers() | floats | text


def dumps_json(value) -> str:
    stream = io.StringIO()
    dump_json(value, stream)
    return stream.getvalue()


def _nest(flat, shape):
    for width in reversed(shape[1:]):
        flat = [flat[i : i + width] for i in range(0, len(flat), width)]
    return flat


def rectangular(leaves):
    """Non-empty rectangular nested lists of the given leaves, up to rank 3."""
    return st.lists(st.integers(1, 3), min_size=1, max_size=3).flatmap(
        lambda shape: st.lists(
            leaves, min_size=math.prod(shape), max_size=math.prod(shape)
        ).map(lambda flat: _nest(flat, shape))
    )


grids = (
    rectangular(finite_floats)
    | rectangular(floats)
    | rectangular(finite_floats | st.integers())
    | rectangular(finite_floats.map(np.float64))
)
json_values = st.recursive(
    scalars | grids,
    lambda children: st.lists(children, max_size=4)
    | st.lists(children, max_size=4).map(tuple)
    | st.dictionaries(text, children, max_size=4)
    | st.dictionaries(st.integers() | floats | st.booleans() | st.none(), children, max_size=3),
    max_leaves=10,
)


@settings(deadline=None)
@given(json_values)
def test_dumps_json_matches_json_dumps(value):
    assert dumps_json(value) == json.dumps(value, indent=2)


@given(rectangular(finite_floats), st.integers(0, 3))
def test_finite_float_grids_take_the_level_renderer(grid, depth):
    expected = json.dumps(grid, indent=2).replace("\n", "\n" + "  " * depth)
    assert _float_block(grid, depth) == expected


def test_serialized_matrix_takes_the_level_renderer():
    grid = matrix_to_json(np.arange(8).reshape(2, 2, 2) * (1 + 0.5j))
    assert _float_block(grid, 1) is not None
    assert dumps_json({"grid": grid}) == json.dumps({"grid": grid}, indent=2)


def test_dump_json_writes_a_large_grid_in_bounded_pieces():
    payload = {"entries": matrix_to_json(np.arange(2 * 2 * 64 * 64).reshape(2, 2, 64, 64) / 7j)}
    # Rows that fall back to json.dumps inside a grid walked row by row.
    payload["entries"][0][1][5][3][0] = math.nan
    payload["entries"][1][1][0][0][1] = 3

    class Pieces(list):
        write = list.append

    pieces = Pieces()
    dump_json(payload, pieces)
    assert "".join(pieces) == json.dumps(payload, indent=2)
    assert len(pieces) > 10
    assert max(map(len, pieces)) < 2 * WRITE_CHARS
