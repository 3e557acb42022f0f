"""Simulator and analysis toolkit for a two-node trapped-ion quantum network.

Importing the package sizes the BLAS and OpenMP thread pools to one thread:
the node pipeline multiplies 4x4 complex and 8x8 real matrices, which run
slower when handed off between threads.  A value the environment already
sets is kept.  The pools read these variables when numpy first loads, so
this holds for the ``ionnet`` command and for programs that import ionnet
before numpy; a program that imported numpy first keeps the pools it has.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ.setdefault(_var, "1")
del _var

__version__ = "0.1.0"
