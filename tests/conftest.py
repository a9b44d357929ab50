"""Run the suite under one BLAS thread, as training and the benchmark do.

OpenBLAS and MKL read these variables when numpy loads, which happens after
pytest imports this file; ``setdefault`` keeps any value already set.
"""

import os

for _name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_name, "1")
