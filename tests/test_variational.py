import pytest

from horncalc.errors import BudgetError, DomainError
from horncalc.subsets import CardSubset
from horncalc.variational import MAX_TRIAL_WORK, variational_check


def test_full_subset_is_exact_trace():
    xi = [2.0, 1.0, 0.5, -0.25]
    report = variational_check(xi, CardSubset(4, (1, 2, 3, 4)), trials=5, tolerance=1e-9, seed=1)
    assert report.ok
    assert abs(report.lower_bound - sum(xi)) < 1e-12


def test_eigenvector_equality_case():
    xi = [1.5, 0.25, -0.5, -2.0]
    report = variational_check(xi, CardSubset(4, (2, 4)), trials=0, tolerance=1e-9, seed=2)
    assert report.equality_error <= 1e-9


def test_random_cell_samples_respect_bound():
    xi = [3.0, 1.0, 0.5, 0.25, -1.0, -2.5]
    for j in ((2, 4, 6), (1, 6), (6,)):
        report = variational_check(xi, CardSubset(6, j), trials=50, tolerance=1e-9, seed=3)
        assert report.ok, report.failures
        assert report.min_trace >= report.lower_bound - 1e-9


def test_monotone_spectrum_required():
    with pytest.raises(DomainError):
        variational_check([0.0, 1.0], CardSubset(2, (1,)), trials=1, tolerance=1e-9, seed=4)


@pytest.mark.parametrize(
    "xi, trials, tolerance",
    [
        ([float("inf"), 0.0, 0.0], 1, 1e-9),
        ([float("nan"), 0.0, 0.0], 1, 1e-9),
        # finite entries whose traces overflow to inf
        ([1e308, 1e308, 0.0], 1, 1e-9),
        ([1.0, 0.0, -1.0], 1, float("nan")),
        ([1.0, 0.0, -1.0], 1, float("inf")),
        ([1.0, 0.0, -1.0], 1, -1e-9),
        ([1.0, 0.0, -1.0], -1, 1e-9),
    ],
)
def test_bad_inputs_rejected(xi, trials, tolerance):
    with pytest.raises(DomainError):
        variational_check(xi, CardSubset(3, (1,)), trials=trials, tolerance=tolerance, seed=6)


def test_tolerance_scales_with_the_spectrum():
    # rounding at the 1e300 scale is far above an absolute 1e-9
    report = variational_check([1e300, 1e300, -1e300], CardSubset(3, (1, 2)), trials=20, tolerance=1e-9, seed=7)
    assert report.equality_error > 1e-9
    assert report.ok, report.failures
    # a tolerance of zero still flags the same rounding
    assert not variational_check([1e300, 1e300, -1e300], CardSubset(3, (1, 2)), trials=0, tolerance=0.0, seed=7).ok


@pytest.mark.parametrize("xi, trials", [([1.0, 0.0], 10**8), ([float(-k) for k in range(101)], 0)])
def test_trial_budget(xi, trials):
    with pytest.raises(BudgetError):
        variational_check(xi, CardSubset(len(xi), (1,)), trials=trials, tolerance=1e-9, seed=6)


def test_default_trials_admitted_up_to_r26():
    # the CLI's default of 50 trials: 51 * 26^3 is inside the budget, 51 * 27^3 is not
    assert 51 * 26 ** 3 <= MAX_TRIAL_WORK < 51 * 27 ** 3
    xi = [float(-k) for k in range(27)]
    assert variational_check(xi[:26], CardSubset(26, (1,)), trials=50, tolerance=1e-9, seed=6).ok
    with pytest.raises(BudgetError):
        variational_check(xi, CardSubset(27, (1,)), trials=50, tolerance=1e-9, seed=6)


def test_deterministic_given_seed():
    xi = [1.0, 0.0, -1.0]
    a = variational_check(xi, CardSubset(3, (2,)), trials=10, tolerance=1e-9, seed=5)
    b = variational_check(xi, CardSubset(3, (2,)), trials=10, tolerance=1e-9, seed=5)
    assert a.min_trace == b.min_trace and a.equality_error == b.equality_error
