"""Simulator and analysis toolkit for a two-node trapped-ion quantum network.

Importing the package sizes the BLAS and OpenMP thread pools to one thread:
the node pipeline multiplies 4x4 complex and 8x8 real matrices, which run
slower when handed off between threads.  A value the environment already
sets is kept.  The pools read these variables when numpy first loads, so
this holds for the ``ionnet`` command and for programs that import ionnet
before numpy; a program that imported numpy first keeps the pools it has.

BLAS stays at one thread, but ``netsim.simulate_attempts`` and the click
file's ``ClickRecords.to_csv`` and ``ClickRecords.from_csv`` use up to two
Python worker threads, one per usable CPU, for their numpy work; the
threads end before the call returns, and its output does not depend on
them.  A ``simulate_attempts`` worker draws and simulates a batch of
attempts from that batch's own random stream, spawned from the seed, and
the calling thread puts the batches in order.  A ``to_csv`` worker
formats a chunk of rows, which the calling thread writes in order.  A
``from_csv`` worker reads a block of the body from the file itself and
parses it; the calling thread reads the header and puts the blocks' rows
in order.  It reads the whole file at once, as text, where the header
lacks the detector list or the origin column, or any row is outside the
writer's grammar.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ.setdefault(_var, "1")
del _var

__version__ = "0.1.0"
