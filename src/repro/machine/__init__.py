"""Simulated distributed-memory machine with exact alpha-beta-gamma accounting.

This package implements the parallel machine model of Section 3 of the
paper: ``P`` processors with unbounded local memories exchanging
point-to-point asynchronous messages.  Every arithmetic operation costs
``gamma``; a message of ``w`` words costs ``alpha + w*beta`` at each
endpoint; runtime is the maximum-weight path through the task DAG.

The simulator tracks the three critical-path metrics the paper reports
(#operations, #words, #messages) exactly and independently, plus the
combined modeled time.

Paper anchor: Section 3 (machine model).
"""

from repro.machine.clocks import METRICS, ClockSet
from repro.machine.cost_model import MACHINE_PROFILES, CostParams, CostReport
from repro.machine.exceptions import (
    DistributionError,
    FaultRecoveryError,
    MachineError,
    OwnershipError,
    ParameterError,
    RankFailure,
    ReproError,
)
from repro.machine.machine import Counted, Machine, Meta, takes_out, transfer_list, words_of
from repro.machine.tracing import Trace, TraceEvent

__all__ = [
    "METRICS",
    "MACHINE_PROFILES",
    "ClockSet",
    "CostParams",
    "Counted",
    "CostReport",
    "DistributionError",
    "FaultRecoveryError",
    "Machine",
    "MachineError",
    "Meta",
    "OwnershipError",
    "ParameterError",
    "RankFailure",
    "ReproError",
    "Trace",
    "TraceEvent",
    "takes_out",
    "transfer_list",
    "words_of",
]
