"""Exception hierarchy shared across the package, and the JSON file helpers.

Every error carries a short machine-parsable ``code`` that the CLI prints as
``error[<code>]: <message>`` on a single line before exiting nonzero. Every
JSON file the package reads or writes goes through ``load_json`` and
``save_json``, and every decoder reads its fields through ``Fields``, so a
malformed file always ends in a SchemaError naming the file and the field.
"""

from __future__ import annotations

import functools
import json
from pathlib import Path

import numpy as np


class ProcamError(Exception):
    """Base class for all package-specific errors."""

    code = "error"


class SchemaError(ProcamError):
    """A config or data file does not match its documented schema."""

    code = "schema"


class LimitError(ProcamError):
    """A pan/tilt state outside the mechanical limits, or an image over the pixel budget."""

    code = "limit"


class EmptyObservationError(ProcamError):
    """An observation produced no usable samples (e.g. no visible corners)."""

    code = "empty-observation"


class DegenerateConfigurationError(ProcamError):
    """Input data admits no unique solution (collinear, coplanar, on-axis...)."""

    code = "degenerate"


class UnderdeterminedError(ProcamError):
    """Fewer independent constraints than unknowns."""

    code = "underdetermined"


class DecompositionError(ProcamError):
    """A matrix factorization produced a physically invalid result."""

    code = "decomposition"


class ConvergenceError(ProcamError):
    """Iterative refinement did not converge within the iteration cap."""

    code = "convergence"


class EyeOnScreenPlaneError(ProcamError):
    """The eye lies on the virtual screen plane, so no projection exists."""

    code = "eye-on-screen"


class ImageFormatError(ProcamError):
    """An image file format is malformed or unsupported in this install."""

    code = "image-format"


class EmptyIntersectionError(ProcamError):
    """Two corner sets share no corner indices."""

    code = "empty-intersection"


class StageError(ProcamError):
    """A calibration pipeline stage failed; the message names the stage.

    ``cause`` is the failure, or a message when the stage lacks its input;
    a failure is raised ``from`` it, so it is also ``__cause__``. A cause
    that is itself a ProcamError lends its code, so a stage that hits, say,
    the iteration cap reports ``convergence``.
    """

    code = "stage"

    def __init__(self, stage: str, cause: Exception | str):
        if isinstance(cause, ProcamError):
            self.code = cause.code
        super().__init__(f"stage '{stage}' failed: {cause}")


# Largest image side any input may ask for: images fit in 4096 x 4096, which admits 4K UHD.
MAX_IMAGE_SIDE = 4096

# Largest magnitude of any number in an input file. Inputs are meters,
# pixels and degrees, far inside it, and products of a few of them stay far
# from the float limit, where values near it would overflow.
MAX_MAGNITUDE = 1e9


def check_pixel_budget(width: int, height: int, what: str) -> None:
    """Raise LimitError unless a ``width`` x ``height`` image fits in 4096 x 4096."""
    if width > MAX_IMAGE_SIDE or height > MAX_IMAGE_SIDE:
        raise LimitError(f"{what}: {width}x{height} exceeds the image budget of 4096x4096")


_REQUIRED = object()


class Fields:
    """A JSON object read field by field into checked values.

    ``path`` is the object's dotted path in its file, such as
    ``devices.projector``. A getter returns ``default`` for a field that is
    absent or null; with no default the field is required. A bad field
    raises SchemaError naming its path, and an image over the budget
    LimitError. Range checks stay with the objects, which code builds too; a
``decoder`` names the path of the object whose check failed.
    """

    def __init__(self, data, path: str = ""):
        if not isinstance(data, dict):
            prefix = f"{path}: " if path else ""
            raise SchemaError(f"{prefix}expected an object, got {json.dumps(data)[:40]}")
        self.data = data
        self.path = path

    def __contains__(self, key) -> bool:
        return key in self.data

    def where(self, key) -> str:
        """The dotted path of the field ``key``."""
        return f"{self.path}.{key}" if self.path else key

    def _read(self, key, default, expected: str, convert):
        """``convert(value)`` of the field; ``convert`` returns None for a value it rejects."""
        value = self.data.get(key)
        if value is None and default is not _REQUIRED:
            return default
        result = convert(value)
        if result is None:
            got = json.dumps(value)[:40] if key in self.data else "nothing"
            raise SchemaError(f"{self.where(key)}: expected {expected}, got {got}")
        return result

    def check_version(self, kind: str) -> None:
        """Raise SchemaError unless the object holds ``schema_version`` 1."""
        if self.integer("schema_version") != 1:
            raise SchemaError(f"unsupported {kind} schema_version {self.data['schema_version']}")

    def number(self, key, default=_REQUIRED) -> float:
        """A finite number within +-MAX_MAGNITUDE; booleans are not numbers."""

        def convert(v):
            return float(v) if type(v) in (int, float) and abs(v) <= MAX_MAGNITUDE else None

        return self._read(key, default, "a number within +-1e9", convert)

    def integer(self, key, default=_REQUIRED) -> int:
        """An integer >= 0; an integral float such as 2.0 counts."""

        def convert(v):
            v = int(v) if type(v) is float and v.is_integer() else v
            return v if type(v) is int and v >= 0 else None

        return self._read(key, default, "an integer >= 0", convert)

    def grid_size(self, width_key, height_key, default=(_REQUIRED, _REQUIRED)):
        """An image's or a grid's (width, height): integers within 4096 x 4096."""
        width = self.integer(width_key, default[0])
        height = self.integer(height_key, default[1])
        check_pixel_budget(width, height, f"{self.where(width_key)}/{height_key}")
        return width, height

    def array(self, key, shape: tuple, default=_REQUIRED, integer: bool = False) -> np.ndarray:
        """An array of ``shape`` of numbers (integers with ``integer``) within +-MAX_MAGNITUDE.

        A None in ``shape`` matches any length; ``[]`` reads as an empty array.
        """
        dtype = np.int64 if integer else float

        def convert(value):
            try:
                arr = np.asarray(value)
            except (ValueError, OverflowError):  # ragged nesting, or an integer past 64 bits
                return None
            if arr.size == 0 and None in shape:
                return np.zeros([n or 0 for n in shape], dtype)
            fits = arr.ndim == len(shape) and all(n in (None, m) for n, m in zip(shape, arr.shape))
            if fits and arr.dtype.kind in ("iu" if integer else "iuf"):
                bounded = (np.abs(arr, dtype=float) <= MAX_MAGNITUDE).all()
                return arr.astype(dtype) if bounded else None

        kind = "integers" if integer else "numbers"
        expected = f"a {shape} array of {kind} within +-1e9".replace("None", "N")
        return self._read(key, default, expected, convert)

    def text(self, key, default=_REQUIRED, choices=None) -> str:
        """A string, one of ``choices`` when given."""
        expected = f"one of {', '.join(map(json.dumps, choices))}" if choices else "a string"
        return self._read(
            key, default, expected,
            lambda v: v if isinstance(v, str) and (choices is None or v in choices) else None,
        )

    def texts(self, key, default) -> tuple:
        """A non-empty list of distinct strings, as a tuple."""

        def convert(v):
            names = isinstance(v, list) and all(isinstance(s, str) for s in v)
            return tuple(v) if names and 0 < len(v) == len(set(v)) else None

        return self._read(key, default, "a non-empty list of distinct strings", convert)

    def obj(self, key, default=_REQUIRED) -> "Fields | None":
        """The object at ``key``; a dict ``default`` reads as an object, None as None."""
        value = self._read(key, default, "an object", lambda v: v if isinstance(v, dict) else None)
        return None if value is None else Fields(value, self.where(key))

    def objs(self, key, default=_REQUIRED) -> list | None:
        """The objects of the list at ``key``, with paths such as ``surfaces[2]``."""
        values = self._read(key, default, "a list", lambda v: v if isinstance(v, list) else None)
        if values is None:
            return None
        return [Fields(v, f"{self.where(key)}[{i}]") for i, v in enumerate(values)]


def decoder(decode):
    """Decorate a decoder of a Fields argument ``r``: a ValueError raised while
    it builds objects, such as a constructor's range check, becomes a
    SchemaError prefixed with ``r.path``."""

    @functools.wraps(decode)
    def wrapper(*args, **kwargs):
        try:
            return decode(*args, **kwargs)
        except ValueError as exc:
            path = next(a.path for a in args if isinstance(a, Fields))
            raise SchemaError(f"{path}: {exc}" if path else str(exc)) from exc

    return wrapper


def save_json(path, data) -> None:
    """Write ``data`` as JSON with sorted keys, two-space indent and a final newline."""
    Path(path).write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")


def load_json(path, decode):
    """Decode the JSON object in the file at ``path`` with ``decode(Fields(data))``.

    This is where a file's path joins its errors: invalid JSON, and a
    SchemaError or ValueError raised while decoding, raise SchemaError
    prefixed with the path; a LimitError keeps its code and gains the path.
    """
    path = Path(path)
    try:
        return decode(Fields(json.loads(path.read_text())))
    except LimitError as exc:
        raise LimitError(f"{path}: {exc}") from exc
    except (SchemaError, ValueError) as exc:  # json.JSONDecodeError is a ValueError
        raise SchemaError(f"{path}: {exc}") from exc
