"""Exception types, shared tolerance handling and the JSON document reader.

All numerical tolerances in the package default to 1e-10 and can be overridden
globally through the UM_TOL environment variable (read at call time, so tests
may monkeypatch the environment).
"""

import json
import os
from pathlib import Path

DEFAULT_TOL = 1e-10


def default_tol() -> float:
    """Package-wide default tolerance, honouring the UM_TOL override."""
    raw = os.environ.get("UM_TOL")
    if raw is None:
        return DEFAULT_TOL
    try:
        value = float(raw)
    except ValueError as exc:
        raise ConfigError(f"UM_TOL must parse as a float, got {raw!r}") from exc
    if not value > 0.0:
        raise ConfigError(f"UM_TOL must be positive, got {value}")
    return value


class DimensionError(ValueError):
    """Array shapes or block dimensions are inconsistent."""


class UnknownPreset(KeyError):
    """Requested preset name is not registered."""


class SingularInertia(ValueError):
    """Inertia operator is not symmetric positive definite."""


class NonFiniteState(FloatingPointError):
    """Integration produced a NaN or infinity.

    .step is the step that produced it (0: the initial state), .component
    the label of the first non-finite entry and .last_finite the state
    before that step (None when unknown or at step 0)."""

    def __init__(self, step: int, message: str | None = None, *,
                 component: str | None = None, last_finite=None):
        self.step = step
        self.component = component
        self.last_finite = last_finite
        where = f" in component {component}" if component is not None else ""
        super().__init__(message or f"non-finite state after step {step}{where}")


class NotASubalgebra(ValueError):
    """The trailing coordinates of an algebra do not close under its bracket;
    .witness is the worst (m; h, h) label triple, .residual its size."""

    def __init__(self, witness: tuple[str, str, str], residual: float, threshold: float):
        self.witness, self.residual = witness, residual
        super().__init__(f"h is not a subalgebra: [{witness[1]}, {witness[2]}] has {witness[0]}"
                         f"-component {residual:.3g} (threshold {threshold:.3g})")


class TrajectoryTooLarge(ValueError):
    """The array holding every state of a run could not be allocated."""


class GroupMismatch(ValueError):
    """Jets living in different groups (or of different order) were combined."""


class JetValidationError(ValueError):
    """A jet's base lies off its group, or a slot off its Lie algebra.

    .where is "base" or the index of the first bad slot, .residual the
    residual that failed its tolerance (inf for a non-finite entry).  The
    message is the place followed by `problem`."""

    def __init__(self, where: str | int, residual: float, problem: str):
        self.where = where
        self.residual = residual
        super().__init__(f"{where if where == 'base' else f'slot {where}'} {problem}")


class SingularMatrix(ValueError):
    """A group element could not be inverted."""


class FactorizationError(ValueError):
    """Jet factorization failed to reproduce the input within tolerance."""


class SingularFiberMap(ValueError):
    """Matrix basis is linearly dependent; coordinates are not well defined."""


class TooFewPoints(ValueError):
    """Not enough trajectory samples for the requested finite-difference stencil."""


class ConfigError(ValueError):
    """Run configuration is missing keys, has bad values, or failed to parse."""


def parse_json(text: str, source) -> object:
    """The JSON value in `text`; invalid JSON raises ConfigError as
    "SOURCE: invalid JSON at line L, column C (problem)"."""
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(
            f"{source}: invalid JSON at line {exc.lineno}, column {exc.colno} ({exc.msg})"
        ) from exc


def load_json(path) -> dict:
    """The JSON object stored at `path`.  A missing or unreadable file,
    invalid JSON and a document that is not an object all raise ConfigError
    as "PATH: problem"."""
    try:
        text = Path(path).read_text()
    except FileNotFoundError as exc:
        raise ConfigError(f"{path}: no such file") from exc
    except OSError as exc:
        raise ConfigError(f"{path}: cannot read ({exc.strerror})") from exc
    doc = parse_json(text, path)
    if not isinstance(doc, dict):
        raise ConfigError(f"{path}: expected a JSON object, got {type(doc).__name__}")
    return doc
