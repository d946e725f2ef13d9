"""Locate the checkout, pin the load shape and import `wavesieve` from source.

Import this module before anything that imports numpy: it fixes the BLAS
thread count, which numpy reads once at import.
"""

import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_out"
BLAS_THREADS = 1

# one sequential caller and one BLAS thread, so that the process's CPU time,
# which the benchmark reports, is the program's own work: spinning BLAS
# helper threads would add to it, and wall time on a shared host adds the
# time the hypervisor gives the core to others
os.environ.pop("WAVESIEVE_WORKERS", None)
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)


class MissingProgram(RuntimeError):
    """The checkout does not hold the wavesieve sources."""


def import_wavesieve():
    """Import the package from ROOT/src, never from an installed copy."""
    package = SRC / "wavesieve"
    if not (package / "__init__.py").is_file():
        raise MissingProgram(f"no wavesieve sources under {package}")
    sys.path.insert(0, str(SRC))
    import wavesieve
    if Path(wavesieve.__file__).resolve().parent != package.resolve():
        raise MissingProgram(f"wavesieve imported from {wavesieve.__file__}, "
                             f"not from {package}")
    return wavesieve
