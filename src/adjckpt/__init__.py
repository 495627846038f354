"""Checkpoint/recompute scheduling with lossy checkpoint compression.

The package bundles five pieces that together let you run and reason about
memory-constrained adjoint (forward-then-reverse) computations:

* ``schedule``   Revolve (binomial) checkpoint schedules and their accounting,
* ``perfmodel``  an analytical wall-time model for checkpointing with and
  without compressed checkpoints, plus sweep generation,
* ``codecs``     the checkpoint compression contract and three codecs,
* ``store``      a byte-budgeted checkpoint slot manager,
* ``driver``     a schedule executor and a toy acoustic wave operator used
  for end-to-end verification and calibration.
"""

from . import codecs, driver, perfmodel, schedule, store  # noqa: F401

__version__ = "0.1.0"
