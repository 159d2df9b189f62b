"""hystlab: a desk-scale MOS circuit simulator and comparator workbench.

Square-law device models, modified nodal analysis with damped Newton
DC solution and a pseudo-transient continuation fallback, swept-DC and
trapezoidal transient engines, hysteresis and delay measurements,
comparator netlist generation, and the matching closed-form
transition-current algebra.
"""

from .devices import (DeviceEval, MosGeometry, MosModel, MosPolarity,
                      NMOS_DEFAULT, PMOS_DEFAULT, Region, kfactor, mos_eval)
from .errors import (ConfigError, ConvergenceError, DomainError, ExtractionError,
                     HystlabError, MeasurementError, ModelError, NetlistError,
                     SingularityError)
from .netlist import (Capacitor, DcSpec, ISource, Mosfet, Netlist, PulseSpec,
                      Resistor, VSource, parse_netlist, parse_value)
from .solver import Solution, SolverOptions, dc_solve
from .audit import device_evals, kcl_residuals, verify_kcl
from .analysis import (DelayReport, HysteresisReport, Trace, branch_solution_at,
                       dc_sweep, hysteresis_walk, measure_delay, measure_hysteresis,
                       source_trace, trace_csv, transient)
from .comparator import (ComparatorConfig, ComparatorVariant, LatchOperatingPoint,
                         build_comparator, build_latch_testbench,
                         extract_operating_point, table_sizing)
from .analytics import (RatioDirection, TransitionResult,
                        current_ratio, latch_current_ratio_from_devices,
                        latch_voltages_large_signal, latch_voltages_small_signal,
                        node_squares, transition_currents)

__all__ = [name for name in dir() if not name.startswith("_")]
