"""Batched vectorized simulation kernel.

Steps whole campaigns instead of single runs: ``B`` closed-loop runs advance
in lockstep through one set of vectorized plant/controller/channel updates
per integration step, amortizing the Python interpreter cost of the serial
hot path across the batch while staying bitwise-identical to
:class:`~repro.process.simulator.ClosedLoopSimulator` per run.
"""

from repro.batch.simulator import BatchSimulator, run_specs_batched

__all__ = ["BatchSimulator", "run_specs_batched"]
