"""nevo: two-stage neural network training.

Stage one trains a network with minibatch Adam and retains a ring of
end-of-epoch parameter vectors.  Stage two fine-tunes the flattened
parameter vector with differential evolution seeded from that ring.
Evaluation covers clean accuracy, corruption error / mCE aggregation,
and a cost model whose operation counts are derived from layer shapes.
"""

import os
import sys

# Pin BLAS to one thread unless the caller configured otherwise.  All
# user-facing parallelism happens at the Python level (per-individual
# fitness evaluation), so results stay bitwise reproducible no matter
# how many workers are requested.
for _var in ("OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "OMP_NUM_THREADS",
             "NUMEXPR_NUM_THREADS"):
    os.environ.setdefault(_var, "1")
del _var


def _loaded_openblas(name: str):
    """The OpenBLAS function `name` (such as "get_num_threads") in the
    library bundled with the imported numpy, looked up without loading
    anything new, or None when no such library or symbol is found."""
    import ctypes
    import glob

    import numpy

    libs = os.path.join(os.path.dirname(os.path.dirname(numpy.__file__)),
                        "numpy.libs")
    for path in sorted(glob.glob(os.path.join(libs, "*openblas*"))):
        try:
            lib = ctypes.CDLL(path, mode=getattr(os, "RTLD_NOLOAD", 0))
        except OSError:
            continue
        for symbol in (f"scipy_openblas_{name}64_", f"openblas_{name}64_",
                       f"openblas_{name}"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                return fn
    return None


def _pin_loaded_openblas():
    """Apply OPENBLAS_NUM_THREADS to the OpenBLAS bundled with an
    already-imported numpy, which read the variable when it loaded.
    Warns once, and never fails, when that library cannot be found."""
    import ctypes
    import warnings

    try:
        threads = int(os.environ["OPENBLAS_NUM_THREADS"])
        fn = _loaded_openblas("set_num_threads")
    except ValueError:
        fn = None
    if fn is None:
        warnings.warn(
            "nevo could not set the BLAS thread count of the numpy imported "
            "before it; import nevo first, or set OPENBLAS_NUM_THREADS=1, "
            "for bitwise-reproducible results", RuntimeWarning, stacklevel=2)
        return
    fn.argtypes = [ctypes.c_int]
    fn.restype = None
    fn(threads)


def blas_threads():
    """Thread count of the OpenBLAS that numpy uses, or None when it
    cannot be read."""
    import ctypes

    fn = _loaded_openblas("get_num_threads")
    if fn is None:
        return None
    fn.argtypes = []
    fn.restype = ctypes.c_int
    return int(fn())


# once numpy has loaded OpenBLAS, only a runtime call changes its count
if "numpy" in sys.modules:
    _pin_loaded_openblas()

# `import nevo` loads every module, in this order: heap layout follows
# import order, and dropping or reordering this line moved peak RSS
from . import (errors, rng, network, training, evolution, data,  # noqa: E402,F401
               evaluation, persistence, cli)

__version__ = "0.1.0"
