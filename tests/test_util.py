"""Canonical JSON: the array fast path agrees with the per-value path."""

import numpy as np
import pytest

from augqual.util import ValidationError, dumps_canonical

# signed zero, integer values on both sides of the 1e16 cut, a value with no
# short decimal, a subnormal and a huge magnitude
EDGE_VALUES = [-0.0, 3.0, 1e16 - 2, 1e16, 0.1, 1e-310, 1e300]


class TestFloatArrays:
    @pytest.mark.parametrize("indent", (0, 1, 2))
    def test_array_path_equals_recursive_path(self, indent):
        arr = np.array(EDGE_VALUES)
        assert dumps_canonical(arr, indent=indent) == \
            dumps_canonical(list(EDGE_VALUES), indent=indent)
        assert dumps_canonical(-arr, indent=indent) == \
            dumps_canonical([-v for v in EDGE_VALUES], indent=indent)

    def test_edge_value_text(self):
        assert dumps_canonical(np.array(EDGE_VALUES)) == (
            "[-0.0,3.0,9999999999999998.0,10000000000000000,"
            "0.10000000000000001,9.9999999999999694e-311,"
            "1.0000000000000001e+300]")

    @pytest.mark.parametrize("indent", (0, 1))
    def test_nested_arrays_in_documents(self, indent):
        rng = np.random.default_rng(4)
        block = rng.standard_normal((3, 2, 4)) * 10.0 ** rng.integers(-5, 5, (3, 2, 4))
        block[0, 0, :2] = (7.0, -0.0)
        doc = {"w": block, "b": np.zeros(3), "empty": np.zeros((2, 0)),
               "scalar": np.array(2.5), "ints": np.arange(3), "nest": [block[1]]}
        plain = {"w": block.tolist(), "b": [0.0, 0.0, 0.0], "empty": [[], []],
                 "scalar": 2.5, "ints": [0, 1, 2], "nest": [block[1].tolist()]}
        assert dumps_canonical(doc, indent=indent) == \
            dumps_canonical(plain, indent=indent)

    @pytest.mark.parametrize("bad", (np.nan, np.inf, -np.inf))
    def test_non_finite_rejected(self, bad):
        with pytest.raises(ValidationError, match="non-finite"):
            dumps_canonical(np.array([1.0, bad]))
        with pytest.raises(ValidationError, match="non-finite"):
            dumps_canonical([1.0, bad])
