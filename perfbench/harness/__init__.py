"""Benchmark harness for the conditional-deep-learning serving stack.

The harness owns its clock, arrival generator, tracer and statistics; it
drives the program under test only through ``repro``'s public API.  The
entry point is ``perfbench/run.py``.
"""

#: BLAS thread variables the entry point pins to one thread before numpy
#: loads.  The serving worker and the request generator already share the
#: machine; BLAS threads beside them would measure the scheduler, not the
#: program.
BLAS_ENV_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
