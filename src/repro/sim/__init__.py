"""Measurement and experiment infrastructure.

* :mod:`repro.sim.trace` - activation recording;
* :mod:`repro.sim.deadline` - rate / deadline monitors for the Table 1
  real-time evaluation;
* :mod:`repro.sim.footprint` - the Table 8 memory-consumption model;
* :mod:`repro.sim.workloads` - synthetic task-image generators used by
  the Table 4/5/7 benches.
"""

from repro.sim.trace import ActivationRecorder
from repro.sim.deadline import RateMonitor, RateReport
from repro.sim.footprint import (
    ComponentFootprint,
    freertos_footprint,
    tytan_footprint,
    total_bytes,
    overhead_percent,
)
from repro.sim.workloads import (
    synthetic_image,
    periodic_sender_source,
    busy_loop_source,
    counter_task_source,
)
from repro.sim.analysis import (
    cpu_shares,
    jitter_stats,
    response_times,
    utilization_bound_rm,
)
from repro.sim.vcd import VcdRecorder

__all__ = [
    "ActivationRecorder",
    "RateMonitor",
    "RateReport",
    "ComponentFootprint",
    "freertos_footprint",
    "tytan_footprint",
    "total_bytes",
    "overhead_percent",
    "synthetic_image",
    "periodic_sender_source",
    "busy_loop_source",
    "counter_task_source",
    "cpu_shares",
    "jitter_stats",
    "response_times",
    "utilization_bound_rm",
    "VcdRecorder",
]
