import io
import json
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from noumenal import matrix_to_json, reports
from noumenal.reports import BLOCK_FLOATS, _runs, dump_json


def oracle(value) -> str:
    """The reference for every test below: the stdlib encoder, arrays as lists,
    refusing NaN and infinities with ``ValueError``."""
    return json.dumps(value, indent=2, default=np.ndarray.tolist, allow_nan=False)


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


class Writes(io.TextIOBase):
    """A text stream that keeps each string written to it, as stdout's
    replacement in the benchmark harness does."""

    def __init__(self):
        self.pieces = []

    def write(self, text):
        self.pieces.append(text)
        return len(text)


def written(payload):
    """``dump_json``'s writes of ``payload``, and the runs among them, each
    without the ``"["`` or ``","`` written in front of it."""
    stream, runs = Writes(), []

    def spy(value, depth):
        chunks = list(_runs(value, depth))
        runs.extend(chunk[1:] for chunk in chunks[:-1])
        yield from chunks

    with mock.patch.object(reports, "_runs", spy):
        dump_json(payload, stream)
    return stream.pieces, runs


def run_leaves(run: str) -> int:
    """The leaves of a run's text."""
    return np.size(json.loads("[" + run + "]"))


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


array_shapes = hnp.array_shapes(min_dims=0, max_dims=3, min_side=0, max_side=3)
grids = (
    rectangular(finite_floats)
    | rectangular(floats)
    | rectangular(finite_floats | st.integers())
    | rectangular(finite_floats.map(np.float64))
    | hnp.arrays(np.float64, array_shapes, elements=finite_floats)
    | hnp.arrays(np.float64, array_shapes, elements=floats)
    | hnp.arrays(np.int64, array_shapes)
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
@example(np.array(0.5))
@example({"empty": np.empty((2, 0))})
@example(np.array([{"a": [1, None]}] * (BLOCK_FLOATS + 1) + [None], dtype=object))
def test_dumps_json_matches_json_dumps(value):
    try:
        expected = oracle(value)
    except ValueError:  # a NaN or an infinity
        with pytest.raises(ValueError):
            dumps_json(value)
        return
    assert dumps_json(value) == expected


@pytest.mark.parametrize(
    "payload",
    [{"x": math.nan}, {"y": np.array([1.0, math.inf])}, {"z": np.full((2, BLOCK_FLOATS), -math.inf)}, [1.0, [math.nan]]],
)
def test_dump_json_refuses_non_finite_floats(payload):
    with pytest.raises(ValueError, match="not JSON compliant"):
        dump_json(payload, io.StringIO())


@given(rectangular(finite_floats), st.integers(0, 3))
def test_finite_float_grids_take_the_level_renderer(grid, depth):
    expected = json.dumps(grid, indent=2).replace("\n", "\n" + "  " * depth)
    assert "".join(_runs(np.array(grid), depth)) == expected


def test_serialized_matrix_takes_the_level_renderer(monkeypatch):
    grid = matrix_to_json(np.arange(8).reshape(2, 2, 2) * (1 + 0.5j))
    shapes = []
    monkeypatch.setattr(reports, "_runs", lambda value, depth: shapes.append(value.shape) or _runs(value, depth))
    assert dumps_json({"grid": grid}) == oracle({"grid": grid})
    assert shapes == [grid.shape]


def test_dump_json_writes_a_large_grid_in_bounded_pieces():
    entries = matrix_to_json(np.arange(2 * 2 * 64 * 64).reshape(2, 2, 64, 64) / 7j)
    # The same rows as lists, with an int leaf, take the generic walk.
    rows = entries[1].tolist()
    rows[1][0][0][1] = 3
    # Large 1-D and integer arrays are walked too.
    payload = {
        "entries": entries,
        "rows": rows,
        "flat": np.linspace(0, 1, 3 * BLOCK_FLOATS),
        "ints": np.arange(4 * BLOCK_FLOATS).reshape(2, -1),
        "zeros": np.zeros((5, 300, 2)),
    }
    pieces, runs = written(payload)
    assert "".join(pieces) == oracle(payload)
    assert len(pieces) > 10
    # No write is longer than one run's text and its separator, and no run holds more than BLOCK_FLOATS leaves.
    assert len(runs) == _run_count(entries.shape) + _run_count((3 * BLOCK_FLOATS,)) + 5
    assert max(map(len, pieces)) == max(map(len, runs)) + 1
    assert max(map(run_leaves, runs)) == BLOCK_FLOATS
    # Each all-zero run is one write, the cached body after its separator: a new string, never the body itself.
    body = reports._zero_text((1, 300, 2), 1)[0]
    assert sum(piece in ("[" + body, "," + body) for piece in pieces) == 5
    assert all(piece is not body for piece in pieces)
    # A row holding a NaN inside a grid walked row by row, and a large infinite array, are refused.
    entries[0, 1, 5, 3, 0] = math.nan
    for refused in ({"entries": entries}, {"infinite": np.full(BLOCK_FLOATS + 1, -math.inf)}):
        with pytest.raises(ValueError):
            dump_json(refused, io.StringIO())


# Values a sparse grid holds besides +0.0; each must reach repr, -0.0 included.
SPARSE_VALUES = st.sampled_from((-0.0, 5e-324, 1e16, 1e-5)) | finite_floats


@st.composite
def sparse_blocks(draw):
    """Float64 arrays of rank 1-3 and at most BLOCK_FLOATS entries, mostly +0.0."""
    shape, room = [], BLOCK_FLOATS
    for _ in range(draw(st.integers(1, 3))):
        shape.append(draw(st.integers(1, room)))
        room //= shape[-1]
    flat = np.zeros(math.prod(shape))
    places = draw(st.lists(st.integers(0, flat.size - 1), max_size=12))
    flat[places] = draw(st.lists(SPARSE_VALUES, min_size=len(places), max_size=len(places)))
    return flat.reshape(shape)


def _last_leaf_only(shape):
    block = np.zeros(shape)
    block.flat[-1] = 1e-5
    return block


@settings(deadline=None)
@given(sparse_blocks(), st.integers(0, 5))
# One shape at two depths, so a cache that ignores the depth fails.
@example(np.zeros((3, 4)), 0)
@example(np.full((3, 4), -0.0), 2)
@example(_last_leaf_only((2, 3, 4)), 5)
@example(np.random.default_rng(0).standard_normal((4, 16, 16)), 1)
def test_sparse_blocks_render_like_json_dumps(block, depth):
    assert "".join(_runs(block, depth)) == oracle(block).replace("\n", "\n" + "  " * depth)
    # The same leaves in a grid of more than BLOCK_FLOATS floats, walked to blocks.
    entries = np.zeros(2 * 2 * 16 * 16, dtype=complex)
    entries.real[: block.size] = block.ravel()
    entries.imag[-block.size :] = block.ravel()
    grid = matrix_to_json(entries.reshape(2, 2, 16, 16))
    assert grid.size > BLOCK_FLOATS
    assert dumps_json({"entries": grid}) == oracle({"entries": grid})


def test_zero_text_cache_is_bounded_and_holds_one_text_per_key():
    assert reports._zero_text.cache_info().maxsize == 128
    for shape in [(BLOCK_FLOATS,), (32, 32), (4, 16, 16), (2, 2, 2, 2, 2)]:
        body, offsets = reports._zero_text(shape, 3)
        assert reports._zero_text(shape, 3)[0] is body
        # The body is the text inside the outer brackets.
        assert "[" + body + "\n" + "  " * 3 + "]" == oracle(np.zeros(shape)).replace("\n", "\n" + "  " * 3)
        assert offsets.shape == (math.prod(shape),) and not offsets.flags.writeable
        assert (np.diff(offsets) > 0).all()
        assert {body[at : at + 3] for at in offsets.tolist()} == {"0.0"}
        # An all-zero array is one run, written from the cached body as a new string.
        chunks = list(_runs(np.zeros(shape), 3))
        assert len(chunks) == 2 and chunks[0] == "[" + body
    # One body per shape and depth: a full run and a shorter last one, however often rendered.
    reports._zero_text.cache_clear()
    for _ in range(2):
        dumps_json(np.zeros(2 * BLOCK_FLOATS + 5))
    assert reports._zero_text.cache_info().currsize == 2


def test_finiteness_and_leaves_are_found_once_per_array():
    array = matrix_to_json(np.arange(64 * 64).reshape(64, 64) / 7j)
    assert _run_count(array.shape) == 8
    with mock.patch.object(np, "isfinite", wraps=np.isfinite) as finite, mock.patch.object(
        np, "flatnonzero", wraps=np.flatnonzero
    ) as search:
        assert dumps_json({"grid": array}) == oracle({"grid": array})
    assert [call.args[0].size for call in finite.call_args_list] == [array.size]
    assert [call.args[0].size for call in search.call_args_list if call.args[0].dtype == np.uint64] == [array.size]


def _run_count(shape):
    """The runs of whole rows that a finite float64 array is written in."""
    if math.prod(shape) <= BLOCK_FLOATS:
        return 1
    row = math.prod(shape[1:])
    if row <= BLOCK_FLOATS:
        return -(-shape[0] // (BLOCK_FLOATS // row))
    return shape[0] * _run_count(shape[1:])


@st.composite
def sparse_row_arrays(draw):
    """Float64 arrays of more than BLOCK_FLOATS entries, mostly +0.0, with one
    -0.0 leaf: rows that fit a run several times, or rows of more than
    BLOCK_FLOATS floats (D > 512), and a leaf to hold a NaN."""
    lead, row = (draw(st.integers(1, 3)), draw(st.integers(1, 2))), draw(st.sampled_from([40, 64, 513, 600]))
    rows = max(2, BLOCK_FLOATS // (math.prod(lead) * row * 2) + 1)
    shape = (*lead, draw(st.integers(rows, rows + 10)), row, 2)
    flat = np.zeros(math.prod(shape))
    places = draw(st.lists(st.integers(0, flat.size - 1), min_size=1, max_size=40))
    flat[places] = draw(st.lists(SPARSE_VALUES, min_size=len(places), max_size=len(places)))
    flat[places[0]] = -0.0
    return flat.reshape(shape), draw(st.integers(0, flat.size - 1))


@settings(deadline=None, max_examples=25)
@given(sparse_row_arrays())
@example((_last_leaf_only((1, 1, 8, 600, 2)), 3000))
@example((np.full((3, 2, 12, 40, 2), -0.0), 0))
def test_arrays_render_in_runs_of_rows(drawn):
    array, nan_at = drawn
    assert array.size > BLOCK_FLOATS
    pieces, runs = written({"entries": array})
    assert "".join(pieces) == oracle({"entries": array})
    assert len(runs) == _run_count(array.shape)
    assert all(run_leaves(run) <= BLOCK_FLOATS for run in runs)
    # The array or row that holds a NaN falls back to json.dumps, which refuses it.
    with_nan = array.copy()
    with_nan.flat[nan_at] = math.nan
    with pytest.raises(ValueError):
        dumps_json({"entries": with_nan})
