import math
import sys

from cliptrap.dynamics import LoadingScenario, RateCoefficients
from cliptrap.species import MotBeamParams, chromium_52
from cliptrap.trap import IpTrapConfig


def make_scenario(eta=0.3, beta_ed=6e-16, beta_dd=1.3e-17, gamma_d=0.0,
                  n_mot=5e6, v_mt=5.3959e-9, v_eff=None, t_mt=100e-6,
                  b_prime=12.5, b_dprime=10.5,
                  saturation=math.inf) -> LoadingScenario:
    """Optimum operating point unless overridden; volumes in m^3.  A None
    volume or t_mt is left for the scenario to compute."""
    species = chromium_52()
    trap = IpTrapConfig(b_prime * 1e-2, b_dprime)
    mot = MotBeamParams(total_saturation=saturation,
                        detuning=-2 * species.gamma_eg, n_mot=n_mot,
                        temperature=140e-6, sigma_radial=1e-4,
                        sigma_axial=1e-4)
    coefficients = RateCoefficients(eta=eta, beta_ed=beta_ed,
                                    beta_dd=beta_dd, gamma_d=gamma_d)
    return LoadingScenario(species=species, trap=trap,
                           coefficients=coefficients, mot=mot,
                           mt_temperature=t_mt, v_mt=v_mt, v_eff=v_eff)


def root_bracket(logs) -> float | None:
    """m = exp(min(logs)) for a root in [m / 2, m] whose bounds are given
    as natural logarithms, or None unless m is a normal float.  Formed in
    log space, m is exact to about 1e-13 wherever it is a float."""
    log_m = min(logs, default=math.inf)
    if not _NORMAL_LOGS[0] <= log_m <= _NORMAL_LOGS[1]:
        return None
    return math.exp(log_m)


_NORMAL_LOGS = (math.log(sys.float_info.min), math.log(sys.float_info.max))
_criterion_outcomes: dict[str, str] = {}


def pytest_runtest_logreport(report):
    if "test_acceptance.py" in report.nodeid and report.when == "call":
        name = report.nodeid.split("::")[-1]
        _criterion_outcomes[name] = report.outcome


def pytest_terminal_summary(terminalreporter):
    if not _criterion_outcomes:
        return
    terminalreporter.write_line("")
    terminalreporter.write_line("acceptance criteria:")
    for name in sorted(_criterion_outcomes):
        word = "PASS" if _criterion_outcomes[name] == "passed" else "FAIL"
        terminalreporter.write_line(f"  {word} {name}")
