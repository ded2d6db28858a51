"""Dimensionally split relaxing-TVD MHD solver with constrained transport,
plus an operation/bandwidth accounting harness for cross-machine comparison."""

from .fluid import PositivityError, cfl_timestep, fluid_sweep, vanleer
from .grid import (ConservedState, GridShape, SchemeParams, allocate_state,
                   discrete_divergence, face_to_center, totals, transpose)
from .ic import init_condition
from .magnetic import magnetic_sweep
from .parallel import SlabPartition, parallel_for, partition
from .perf import (CriteriaReport, MachineSpec, OpCountModel, TrafficModel,
                   bytes_per_step, criteria, flops_per_step, load_machines)
from .snapshot import read_snapshot, slice_export, write_snapshot
from .stepper import StepReport, run, step_cycle

__version__ = "0.1.0"

__all__ = [
    "ConservedState", "GridShape", "SchemeParams", "allocate_state",
    "discrete_divergence", "face_to_center", "totals", "transpose",
    "PositivityError", "cfl_timestep", "fluid_sweep", "vanleer",
    "magnetic_sweep",
    "SlabPartition", "parallel_for", "partition",
    "CriteriaReport", "MachineSpec", "OpCountModel", "TrafficModel",
    "bytes_per_step", "criteria", "flops_per_step", "load_machines",
    "read_snapshot", "slice_export", "write_snapshot",
    "StepReport", "run", "step_cycle",
    "init_condition",
    "__version__",
]
