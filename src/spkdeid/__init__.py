"""Speaker de-identification toolkit for fixed-length speaker embeddings.

Synthetic labelled corpora stand in for real x-vector extractions; an
adversarial autoencoder scrubs speaker characteristics from the embeddings,
and a verification-style harness (EER / Cllr / minCllr / attribute probes)
measures how much identity information survives.

The bits of a BLAS product depend on its thread count, so importing the
package sets each unset BLAS and OpenMP thread variable to 1 and the
outputs are the same on any core count.  This takes effect only if numpy
has not been imported yet; a variable the caller set is kept.
"""

import os

__version__ = "0.1.0"

# the environment variables that set the BLAS and OpenMP thread counts
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                    "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ.setdefault(_var, "1")
