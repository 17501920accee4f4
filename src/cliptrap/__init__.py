"""Continuously loaded Ioffe-Pritchard trap toolkit.

Rate-equation modelling of optical loading of a magnetic trap from a MOT,
trap and cloud geometry, and least-squares estimation of the inelastic
loss coefficients.
"""

from .bessel import bessel_k1
from .cloud import (GaussianCloud, QuadratureError, ThermalCloud,
                    column_density, effective_volume, make_thermal_cloud,
                    mt_density, occupied_volume, tof_radius)
from .dynamics import (LoadingScenario, RateCoefficients,
                       accumulation_efficiency, decay, effective_loading_time,
                       evolve, gamma_ed_loss, kappa_of_abscissa, loading_rate,
                       mt_temperature_prediction, steady_state)
from .estimation import (DataSet, FitResult, fit_column_profile, fit_decay,
                         fit_kappa, fit_loading_rate, fit_tof, least_squares)
from .species import (MotBeamParams, Species, chromium_52, excited_fraction,
                      load_species)
from .sweeps import SweepSpec, run_sweep, synthesize_measurements
from .trap import IpTrapConfig, majorana_safe

__version__ = "0.1.0"
