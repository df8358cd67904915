"""Bit-parity of ``COOMatrix.canonical`` against the sort-then-scatter form.

``canonical`` skips the sort for already ordered input and the
scatter-add for duplicate-free input.  The reference below is the
unconditional lexsort + ``np.add.at`` implementation; both must agree on
``rows``, ``cols`` and the data *bytes* (so ``-0.0`` handling and NaN
payloads count) for every input arrangement.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sparse import COOMatrix


def reference_canonical(coo):
    """Unconditional lexsort + scatter-add canonicalization."""
    order = np.lexsort((coo.cols, coo.rows))
    rows, cols, data = coo.rows[order], coo.cols[order], coo.data[order]
    new_group = np.empty(len(rows), dtype=bool)
    new_group[0] = True
    new_group[1:] = (rows[1:] != rows[:-1]) | (cols[1:] != cols[:-1])
    group_ids = np.cumsum(new_group) - 1
    summed = np.zeros(group_ids[-1] + 1, dtype=data.dtype)
    np.add.at(summed, group_ids, data)
    keep_rows = rows[new_group]
    keep_cols = cols[new_group]
    nonzero = summed != 0
    return keep_rows[nonzero], keep_cols[nonzero], summed[nonzero]


VALUES = st.one_of(
    st.sampled_from([0.0, -0.0, float("nan"), 1.0, -1.0, 2.5]),
    st.floats(allow_nan=True, allow_infinity=True, width=32),
)


@st.composite
def coo_inputs(draw):
    n_rows = draw(st.integers(1, 6))
    n_cols = draw(st.integers(1, 6))
    triplets = draw(
        st.lists(
            st.tuples(
                st.integers(0, n_rows - 1), st.integers(0, n_cols - 1), VALUES
            ),
            min_size=1,
            max_size=40,
        )
    )
    if draw(st.booleans()):  # append cancelling duplicates of a prefix
        k = draw(st.integers(0, len(triplets)))
        triplets += [(r, c, -v) for r, c, v in triplets[:k]]
    layout = draw(st.sampled_from(["drawn", "sorted", "reversed", "unique"]))
    if layout == "unique":
        triplets = list({(r, c): (r, c, v) for r, c, v in triplets}.values())
    if layout in ("sorted", "unique"):
        triplets.sort(key=lambda t: (t[0], t[1]))
    elif layout == "reversed":
        triplets.sort(key=lambda t: (t[0], t[1]), reverse=True)
    dtype = draw(st.sampled_from([np.float64, np.float32]))
    rows, cols, vals = zip(*triplets)
    return COOMatrix((n_rows, n_cols), rows, cols, np.array(vals, dtype=dtype))


@given(coo_inputs())
@settings(max_examples=300, deadline=None)
def test_canonical_matches_reference_bit_for_bit(coo):
    with np.errstate(invalid="ignore"):  # inf + -inf duplicates
        canon = coo.canonical()
        rows, cols, data = reference_canonical(coo)
    np.testing.assert_array_equal(canon.rows, rows)
    np.testing.assert_array_equal(canon.cols, cols)
    assert canon.data.dtype == data.dtype
    assert canon.data.tobytes() == data.tobytes()


def test_sorted_unique_input_is_copied_not_aliased():
    coo = COOMatrix((2, 2), [0, 1], [1, 0], [1.0, 2.0])
    canon = coo.canonical()
    assert not np.shares_memory(canon.data, coo.data)
    assert not np.shares_memory(canon.rows, coo.rows)
