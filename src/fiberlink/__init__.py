"""fiberlink: simulation and analysis toolkit for phase-compensated RF
frequency dissemination over optical fiber, with the femtosecond-comb
counting chain that compares an optical standard against the disseminated
microwave reference."""

__version__ = "0.1.0"

from .errors import (ConfigError, DivergenceError, FiberLinkError,
                     InvalidInputError, ScenarioValidationError)
from .series import AdevCurve, FracFreqSeries, PhaseSeries, PsdEstimate
from .stability import (allan_deviation, allan_deviation_phase,
                        fit_power_law, one_way_from_round_trip,
                        phase_to_frac_freq, psd_welch)
from .noise import (BurstSpec, NoiseSpec, fiber_pair, gen_bursts, gen_diurnal,
                    gen_power_law_phase, white_fm_level_for)
from .link import (ActuatorState, Carrier, DetectorConfig, measurement_lowpass,
                   sample_every, to_radians)
from .control import (ControllerConfig, LinkLoopConfig, LoopRunResult,
                      critical_frequency, loop_suppression, run_closed_loop)
from .comb import (BudgetEntry, BudgetResult, CombParams, CounterChainConfig,
                   FreqSeries, MeasurementRecord, absolute_freq_estimate,
                   count_chain, optical_from_rep_rate, rep_rate_from_optical,
                   rep_rate_lock, stability_budget)
from .scenario import RunReport, Scenario, compare_curves, load_scenario, run

__all__ = [name for name in dir() if not name.startswith("_")]
