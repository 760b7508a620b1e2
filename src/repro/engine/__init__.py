"""Parallel batch analysis over the {program × variant × model} matrix.

Analysis facts themselves live in :mod:`repro.query`: every consumer
asks the program's :class:`~repro.query.engine.QueryEngine` for them.
"""

from repro.engine.batch import (
    ENGINE_VERSION,
    BatchJob,
    BatchResult,
    BatchRunner,
    FunctionResult,
    execute_job,
    execute_job_group,
    parallel_map,
)

__all__ = [
    "BatchJob",
    "BatchResult",
    "BatchRunner",
    "ENGINE_VERSION",
    "FunctionResult",
    "execute_job",
    "execute_job_group",
    "parallel_map",
]
