"""A fit's covariance is formed in one place, and its small systems are
solved in one.

estimation._covariance inverts the Gram matrix J^T J and maps it by the
delta method, and its fallback reports a parameter the data cannot
determine as sigma inf.  Under src/cliptrap it is called only by the two
functions that build a FitResult, least_squares and fit_tof, and no
module inverts a matrix with numpy's inv or pinv: a second copy of the
covariance would skip that rule, and FitResult's correlation, read off
the covariance, would then describe a different matrix.  The covariance,
the Gauss-Newton step and the linear fits all go through
estimation._solve, the one place that decides what a singular system's
solution is: no module calls numpy's lstsq or solve, and only _solve
calls eigh.
"""

from test_volume_rule import package_sites, reference_sites

FIT_SITES = ["estimation.least_squares", "estimation.fit_tof"]


def test_the_covariance_has_one_home():
    assert package_sites("_covariance", calls=True) == FIT_SITES
    assert package_sites("FitResult", calls=True) == FIT_SITES
    assert package_sites("inv") == []
    assert package_sites("pinv") == []
    assert package_sites("lstsq") == []
    assert package_sites("solve") == []
    assert package_sites("eigh") == ["estimation._solve"]


def test_a_copied_covariance_is_reported():
    # an annotation names FitResult without building one
    probe = '''
import numpy as np
from numpy.linalg import inv as invert
from numpy.linalg import lstsq as ls
from .estimation import FitResult, _covariance

def fit_loading_curve(series, a) -> FitResult:
    cov = _covariance((a.T @ a).tolist(), [1.0, 1.0])
    return FitResult(("n0", "rate"), series.y[:2], cov, 0.0, 1, True)

def covariance_of(gram):
    return np.linalg.pinv(gram), invert(gram), np.linalg.inv(gram)

def step_of(lhs, rhs):
    return ls(lhs, rhs)[0], np.linalg.solve(lhs, rhs), np.linalg.eigh(lhs)
'''
    assert reference_sites(probe, "dynamics", "_covariance", calls=True) == [
        "dynamics.fit_loading_curve"]
    assert reference_sites(probe, "dynamics", "FitResult", calls=True) == [
        "dynamics.fit_loading_curve"]
    assert reference_sites(probe, "dynamics", "pinv") == [
        "dynamics.covariance_of"]
    assert reference_sites(probe, "dynamics", "inv") == [
        "dynamics.covariance_of"] * 2
    for name in ("lstsq", "solve", "eigh"):
        assert reference_sites(probe, "dynamics", name) == ["dynamics.step_of"]
