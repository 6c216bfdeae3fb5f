"""Consistent checkpointing and roll-forward recovery of state estimates
for hierarchical control loops under sensor anomalies.

Modules:

* ``models`` - sub-system dynamics/measurement models and noise sampling
* ``estimator`` - extended Kalman filter step; linear models share
  their covariance recursion through a gain table
* ``anomaly`` - anomaly injection and the detector abstraction
* ``store`` - append-only integrity-tagged checkpoint and control logs
* ``framework`` - the per-tick checkpoint/recovery step and checkpoint
  selection
* ``analysis`` - recovered-error bounds, tolerable duration, gap bound
* ``robot`` - differential-drive ground-robot case study; the one
  description of its loops, their trace columns and their wiring
* ``config``/``sim``/``cli`` - scenario schema and the builder of a run's
  loops, a scheduler that runs the loops it is given and the CSV writer,
  command line
"""

from .estimator import EstimatorState, estimator_step
from .framework import (SubsystemRuntime, UnrecoverableError,
                        classify_checkpoint_set,
                        most_recent_consistent_checkpoint,
                        roll_forward_recover, subsystem_tick)
from .models import SubsystemModel, sample_noise, step_dynamics
from .store import Checkpoint, ControlRecord, SecureStore

__all__ = [
    "Checkpoint", "ControlRecord", "EstimatorState", "SecureStore",
    "SubsystemModel", "SubsystemRuntime", "UnrecoverableError",
    "classify_checkpoint_set", "estimator_step",
    "most_recent_consistent_checkpoint", "roll_forward_recover",
    "sample_noise", "step_dynamics", "subsystem_tick",
]

__version__ = "0.1.0"
