import math

import numpy as np
import pytest

from nli_polarimetry.angles import wrap_axis, wrap_half_pi, wrap_pi



def included(wrapped, end, to):
    """The numpy formula's result with its excluded ``end`` mapped to ``to``."""
    return np.where(wrapped == end, to, wrapped)


# the numpy formulas the helpers evaluated on every input before they took
# Python floats through Python float arithmetic, with a result at the
# excluded end of the range mapped onto the included one
REFERENCE = {
    wrap_pi: lambda x: included(np.pi - (np.pi - np.asarray(x)) % (2.0 * np.pi), -np.pi, np.pi),
    wrap_half_pi: lambda x: included(0.5 * np.pi - (0.5 * np.pi - np.asarray(x)) % np.pi,
                                     -0.5 * np.pi, 0.5 * np.pi),
    wrap_axis: lambda x: included(np.asarray(x) % np.pi, np.pi, 0.0),
}
HELPERS = pytest.mark.parametrize("helper", list(REFERENCE), ids=lambda f: f.__name__)
# each helper's range (lower end, upper end, whether the upper end is the
# included one) and period
RANGES = {
    wrap_pi: (-math.pi, math.pi, True, 2.0 * math.pi),
    wrap_half_pi: (-0.5 * math.pi, 0.5 * math.pi, True, math.pi),
    wrap_axis: (0.0, math.pi, False, math.pi),
}


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



def boundary_values(helper):
    """Each end of the helper's range shifted by -2..2 periods, each with
    its two neighbouring doubles, plus the doubles nearest zero."""
    lower, upper, _, period = RANGES[helper]
    values = [-0.0, 5e-324, -5e-324, 1e-17, -1e-17]
    for end in (lower, upper):
        for k in range(-2, 3):
            edge = end + k * period
            values += [edge, math.nextafter(edge, math.inf), math.nextafter(edge, -math.inf)]
    return values


def in_range(helper, value) -> bool:
    lower, upper, upper_included, _ = RANGES[helper]
    return lower < value <= upper if upper_included else lower <= value < upper


@HELPERS
def test_boundary_neighbours_stay_in_the_half_open_range(helper):
    # the excluded end never comes back, as a float or in an array, and the
    # result is the input modulo the period within a few ulps of the period
    period = RANGES[helper][3]
    values = boundary_values(helper)
    array = helper(np.array(values))
    for x, in_array in zip(values, array.tolist()):
        got = helper(x)
        assert type(got) is float
        assert got.hex() == in_array.hex(), x
        assert in_range(helper, got), (x, got)
        assert abs(math.remainder(got - x, period)) <= 4.0 * math.ulp(period), (x, got)


def test_named_boundary_cases():
    # a tiny negative axis and the doubles just past pi and pi/2 wrap onto
    # the included end, not the excluded one
    assert wrap_axis(-1e-17) == 0.0
    assert wrap_pi(math.nextafter(math.pi, 4)) == math.pi
    assert wrap_half_pi(math.nextafter(0.5 * math.pi, 4)) == 0.5 * math.pi
    for helper, x, want in ((wrap_axis, -1e-17, 0.0),
                            (wrap_pi, math.nextafter(math.pi, 4), math.pi),
                            (wrap_half_pi, math.nextafter(0.5 * math.pi, 4), 0.5 * math.pi)):
        assert helper(np.array([x, x])).tolist() == [want, want]
