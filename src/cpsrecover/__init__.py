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

The package root re-exports nothing: import a module by its path, as in
``from cpsrecover import sim`` or ``from cpsrecover.store import
SecureStore``.
"""

__version__ = "0.1.0"
