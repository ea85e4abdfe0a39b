"""Exception types shared across the package, and the one check that an
array holds real numbers."""


class VoxcrfError(Exception):
    """Base class for all package errors."""


class InputError(VoxcrfError, ValueError):
    """Invalid or inconsistent input data (bad dimensions, bad values)."""


class ConfigError(VoxcrfError, ValueError):
    """Invalid configuration or hyperparameter."""


class FormatError(VoxcrfError, ValueError):
    """Malformed file content (manifest, UNRY, PGM/PPM, PLY)."""


class SizeLimitError(VoxcrfError, ValueError):
    """Instance exceeds a hard size limit (e.g. exhaustive enumeration)."""


class NumericalError(VoxcrfError, ArithmeticError):
    """Non-finite value produced during computation; message names the stage."""


def check_real(data, what: str) -> None:
    """``InputError`` naming ``what`` and its dtype unless ``data`` (an
    ndarray) holds real numbers: a cast would drop a complex part, parse
    numerals from strings or turn objects into NaN."""
    if data.dtype.kind not in "biuf":
        raise InputError(f"{what} of dtype {data.dtype}, expected real numbers")
