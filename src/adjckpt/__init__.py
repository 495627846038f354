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

``import adjckpt`` loads none of them: each submodule loads on first use,
as ``adjckpt.codecs`` or ``from adjckpt import driver``.  Planning
(``schedule``, ``perfmodel``) runs without numpy, which loads with
``codecs``, ``store`` or ``driver``, or for a multi-point sweep.
"""

import importlib

__version__ = "0.1.0"

_SUBMODULES = frozenset({"codecs", "driver", "errors", "perfmodel", "schedule", "store"})


def __getattr__(name: str):
    # importing a submodule binds it on the package, so this runs once per name
    if name in _SUBMODULES:
        return importlib.import_module(f"{__name__}.{name}")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
