import math

import numpy as np
import pytest

from nli_polarimetry.angles import wrap_axis, wrap_half_pi, wrap_pi

# the numpy formulas the helpers evaluated on every input before they took
# Python floats through Python float arithmetic
REFERENCE = {
    wrap_pi: lambda x: np.pi - (np.pi - np.asarray(x)) % (2.0 * np.pi),
    wrap_half_pi: lambda x: 0.5 * np.pi - (0.5 * np.pi - np.asarray(x)) % np.pi,
    wrap_axis: lambda x: np.asarray(x) % np.pi,
}
HELPERS = pytest.mark.parametrize("helper", list(REFERENCE), ids=lambda f: f.__name__)


def edge_values():
    """+-0, +-pi, multiples of pi/2, pi and 2*pi, each with its two
    neighbouring doubles, and +-1e300."""
    values = [0.0, -0.0, math.pi, -math.pi, 1e300, -1e300]
    for k in range(-16, 17):
        for unit in (0.5 * math.pi, math.pi, 2.0 * math.pi):
            values += [k * unit, math.nextafter(k * unit, math.inf),
                       math.nextafter(k * unit, -math.inf)]
    return values


def random_values():
    """10**5 seeded doubles: phases, sums of phases and wide magnitudes."""
    rng = np.random.default_rng(20)
    return np.concatenate([rng.uniform(-4.0 * math.pi, 4.0 * math.pi, 40_000),
                           rng.normal(0.0, 1e3, 30_000),
                           rng.choice([-1.0, 1.0], 30_000) * 10.0 ** rng.uniform(-300, 300, 30_000)])


@HELPERS
def test_floats_match_numpy_formula_bitwise(helper):
    reference = REFERENCE[helper]
    for x in edge_values() + random_values().tolist():
        got = helper(x)
        assert type(got) is float
        assert got.hex() == float(reference(x)).hex(), x


@HELPERS
def test_arrays_match_numpy_formula_bitwise(helper):
    reference = REFERENCE[helper]
    values = np.concatenate([edge_values(), random_values()])
    for x in (values, values[1:].reshape(-1, 2), np.float64(values[7])):
        got = helper(x)
        assert np.shape(got) == np.shape(x)
        assert np.asarray(got).tobytes() == np.asarray(reference(x)).tobytes()

