"""Shared by the narrow-type checks of the kernels and the windows: the
limits at which `_kernels.exact_type` changes type, and a mutant of it that
those checks must catch."""
import numpy as np

# The largest magnitudes of int8, int16 and int32: exact_type changes type
# just above each.
THRESHOLDS = (127, 32767, 2**31 - 1)


def one_size_too_narrow(real):
    """A mutant of exact_type: the next narrower type, int8 staying int8."""
    narrower = {np.int16: np.int8, np.int32: np.int16, np.int64: np.int32}
    return lambda reach: narrower.get(real(reach), np.int8)


def holds(check) -> bool:
    """Whether check() returns True; raising counts as failing."""
    try:
        return bool(check())
    except Exception:
        return False
