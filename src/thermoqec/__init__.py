"""Quantum-trajectory simulation of a three-qubit bit-flip repetition code
operating between a hot (error-inducing) and a cold (ancilla-resetting)
thermal reservoir, with an exact master-equation oracle (per-step channels
on disjoint qubit groups) and closed-form rate models."""

__version__ = "0.1.0"

from .compiler import (
    ControlTerm,
    GateSchedule,
    Step,
    build_measured_round,
    build_measurement_free_round,
    compile_cnot,
    compile_toffoli,
    phase_aligned_distance,
    schedule_net_unitary,
)
from .dynamics import (
    EnsembleAccumulator,
    NoiseParams,
    TrajectoryRecord,
    evolve_master_equation,
    run_ensemble,
    trajectory_stream,
)
from .metrics import RoundMetrics, compute_step_metrics
from .qstate import (
    DensityMatrix,
    StateVector,
    partial_trace,
    squared_fidelity,
    trace_distance,
    von_neumann_entropy,
)

__all__ = [
    "ControlTerm",
    "DensityMatrix",
    "EnsembleAccumulator",
    "GateSchedule",
    "NoiseParams",
    "RoundMetrics",
    "StateVector",
    "Step",
    "TrajectoryRecord",
    "build_measured_round",
    "build_measurement_free_round",
    "compile_cnot",
    "compile_toffoli",
    "compute_step_metrics",
    "evolve_master_equation",
    "partial_trace",
    "phase_aligned_distance",
    "run_ensemble",
    "schedule_net_unitary",
    "squared_fidelity",
    "trace_distance",
    "trajectory_stream",
    "von_neumann_entropy",
]
