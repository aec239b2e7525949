"""Exception hierarchy shared across the package, and the JSON file helpers.

Every error carries a short machine-parsable ``code`` that the CLI prints as
``error[<code>]: <message>`` on a single line before exiting nonzero. Every
JSON file the package reads or writes goes through ``load_json`` and
``save_json``, so a malformed file always ends in a SchemaError naming it.
"""

from __future__ import annotations

import json
from pathlib import Path


class ProcamError(Exception):
    """Base class for all package-specific errors."""

    code = "error"


class SchemaError(ProcamError):
    """A config or data file does not match its documented schema."""

    code = "schema"


class BehindDeviceError(ProcamError):
    """A point with non-positive depth was projected through a pinhole."""

    code = "behind-device"


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
    """A calibration pipeline stage failed; names the stage and wraps the cause.

    A cause that is itself a ProcamError lends its code, so a stage that
    hits, say, the iteration cap reports ``convergence``.
    """

    code = "stage"

    def __init__(self, stage: str, cause: Exception | str):
        self.stage = stage
        self.cause = cause if isinstance(cause, Exception) else None
        if isinstance(cause, ProcamError):
            self.code = cause.code
        super().__init__(f"stage '{stage}' failed: {cause}")


def check_schema_version(data, kind: str) -> None:
    """Raise SchemaError unless ``data`` is a JSON object with schema_version 1."""
    if not isinstance(data, dict):
        raise SchemaError(f"{kind} record must be a JSON object, got {type(data).__name__}")
    if data.get("schema_version") != 1:
        raise SchemaError(f"unsupported {kind} schema_version {data.get('schema_version')!r}")


def save_json(path, data) -> None:
    """Write ``data`` as JSON with sorted keys, two-space indent and a final newline."""
    Path(path).write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")


def load_json(path, decode):
    """Decode the JSON file at ``path`` with ``decode(data)``.

    A file that is not valid JSON, or whose content ``decode`` rejects with
    a SchemaError, raises SchemaError prefixed with the path. ``decode``
    checks that the content is an object (see ``check_schema_version``).
    """
    path = Path(path)
    try:
        data = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise SchemaError(f"{path}: invalid JSON: {exc}") from exc
    try:
        return decode(data)
    except SchemaError as exc:
        raise SchemaError(f"{path}: {exc}") from exc
