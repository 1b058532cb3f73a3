"""Arrays that callers hand in go through one gate, ``banded.checked``: a
read-only float view of the expected shape with finite entries, or a
ValueError naming the array."""

import json
import re

import numpy as np
import pytest

from conftest import random_generators
from greenband import (
    GreenGenerators,
    TransformProduct,
    check_green_rank,
    dense_invert,
    elementary_factors_from_entrywise,
    multiply_upper_triangular,
    numerical_rank,
    read_generators,
    transforms_from_generators,
    write_generators,
)
from greenband.banded import checked


def held(field, value):
    """The array that a container holds for ``field`` when built from
    ``value`` and arrays of ones for its other fields (n = 6, r = 2)."""
    n, r = 6, 2
    if field in ("factors", "last"):
        arrays = {"factors": np.ones((n - r, r + 1, r + 1)), "last": np.ones((r, r)), field: value}
        return getattr(TransformProduct(n, r, **arrays), field)
    arrays = {"p": np.ones((n - r, r)), "q": np.ones((n - r, r)), "a": np.ones((n - r, r, r)),
              "p_last": np.ones((r, r)), field: value}
    return getattr(GreenGenerators(n, r, **arrays), field)


SHAPES = {"p": (4, 2), "q": (4, 2), "a": (4, 2, 2), "p_last": (2, 2), "factors": (4, 3, 3),
          "last": (2, 2)}


@pytest.mark.parametrize("kind", ["float", "list", "int", "fortran"])
@pytest.mark.parametrize("field", list(SHAPES))
def test_containers_share_only_c_contiguous_float_input_and_hold_it_read_only(field, kind):
    values = np.arange(np.prod(SHAPES[field])).reshape(SHAPES[field]) % 5 + 1
    given = {"float": values.astype(float), "list": values.tolist(), "int": values,
             "fortran": np.asfortranarray(values, dtype=float)}[kind]
    out = held(field, given)
    assert out.dtype == float and out.flags.c_contiguous and np.array_equal(out, values)
    assert np.shares_memory(out, given) == (kind == "float")
    with pytest.raises(ValueError, match="read-only"):
        out.flat[0] = 7.0
    if kind != "list":
        given.flat[0] = 7.0  # the caller's array stays writable
        assert (out.flat[0] == 7.0) == (kind == "float")


def test_checked_names_the_array_in_each_error():
    with pytest.raises(ValueError, match=re.escape("x must be (2, 2), got (4,)")):
        checked(np.ones(4), (2, 2), "x")
    with pytest.raises(ValueError, match="x entries must be finite"):
        checked([[1.0, np.nan], [0.0, 1.0]], (2, 2), "x")


def eye_with(bad, i, j, n=6):
    """The n x n identity with ``bad`` at (i, j)."""
    mat = np.eye(n)
    mat[i, j] = bad
    return mat


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize(
    "call, array",
    [
        (lambda g, bad: dense_invert(eye_with(bad, 2, 1)), "M"),
        (lambda g, bad: numerical_rank(eye_with(bad, 2, 1)[:, :4], 1e-8), "M"),
        (lambda g, bad: check_green_rank(eye_with(bad, 2, 1), 2, 1e-8), "B"),
        (lambda g, bad: multiply_upper_triangular(eye_with(bad, 1, 3), g), "S"),
        (lambda g, bad: multiply_upper_triangular(eye_with(bad, 3, 1), g), "S"),
        (lambda g, bad: transforms_from_generators(g, eye_with(bad, 2, 2, 4).diagonal()), "d"),
        # in the band of order 2, below the leading corner
        (lambda g, bad: elementary_factors_from_entrywise(eye_with(bad, 4, 2), 2), "L"),
    ],
    ids=["dense_invert", "numerical_rank", "check_green_rank", "multiply_upper_triangular",
         "multiply_upper_triangular-below-diagonal", "transforms_from_generators",
         "elementary_factors_from_entrywise"],
)
def test_dense_inputs_with_a_nonfinite_entry_are_rejected(call, array, bad):
    with pytest.raises(ValueError, match=f"^{array} entries must be finite$"):
        call(random_generators(6, 2, seed=3), bad)


@pytest.mark.parametrize(
    "field, nest, message",
    [
        ("p", lambda p, m, r: [v for row in p for v in row], "p must be (5, 2), got (10,)"),
        ("a", lambda a, m, r: np.reshape(a, (m, r, r)).tolist(), "a must be (5, 4), got (5, 2, 2)"),
        ("p_last", lambda p_last, m, r: np.reshape(p_last, (r, r)).tolist(),
         "p_last must be (4,), got (2, 2)"),
    ],
    ids=["flat-p", "nested-a", "nested-p_last"],
)
def test_generator_file_fields_must_have_the_written_shape(tmp_path, field, nest, message):
    # a field re-nested to other dimensions holds the right number of values,
    # but not the shape that write_generators writes
    n, r = 7, 2
    path = tmp_path / "g.json"
    write_generators(path, random_generators(n, r, seed=4))
    data = json.loads(path.read_text())
    data[field] = nest(data[field], n - r, r)
    path.write_text(json.dumps(data))
    with pytest.raises(ValueError, match=re.escape(f"{path}: malformed generator file: {message}")):
        read_generators(path)


@pytest.mark.parametrize(
    "field, name, shape",
    [("p", "p", (5, 2)), ("q", "q", (4, 3)), ("a", "a", (4, 2, 3)), ("p_last", "p_last", (2,)),
     ("factors", "factors", (4, 3)), ("last", "trailing block", (3, 3))],
)
def test_containers_reject_an_array_of_the_wrong_shape(field, name, shape):
    with pytest.raises(ValueError, match=re.escape(f"{name} must be {SHAPES[field]}, got {shape}")):
        held(field, np.ones(shape))


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda g: dense_invert(np.ones((3, 4))), "M must be (3, 3), got (3, 4)"),
        (lambda g: check_green_rank(np.ones((5, 4)), 2, 1e-8), "B must be (5, 5), got (5, 4)"),
        (lambda g: multiply_upper_triangular(np.eye(5), g), "S must be (6, 6), got (5, 5)"),
        (lambda g: transforms_from_generators(g, np.ones(5)), "d must be (4,), got (5,)"),
        (lambda g: elementary_factors_from_entrywise(np.eye(6)[:, :5], 2),
         "L must be (6, 6), got (6, 5)"),
    ],
    ids=["dense_invert", "check_green_rank", "multiply_upper_triangular",
         "transforms_from_generators", "elementary_factors_from_entrywise"],
)
def test_dense_inputs_of_the_wrong_shape_are_rejected(call, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        call(random_generators(6, 2, seed=3))
