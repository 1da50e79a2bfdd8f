"""Exception types, the scalar, array and label judges, tolerance handling and
the JSON reader.

`real`, `positive` and `integer` judge every scalar argument by one rule: a bool
is refused, numpy scalars are accepted, and a bad value raises ConfigError
naming the argument.  `floats` judges every array argument by the same rule,
entry by entry: a bool, None, string, complex or other non-real entry is a
ConfigError naming the argument, and a wrong shape a DimensionError.  NaN and
inf are real numbers here; finiteness is each caller's own check.  `labels`
judges every list of coordinate names: a bare string or a non-string entry is
a ConfigError naming the argument, a wrong count a DimensionError.

There is one tolerance, `default_tol()`: 1e-10, or the UM_TOL environment
variable, which must be finite and > 0.  Every check reads it at the moment
it judges, and no constructor or function takes a tolerance of its own; this
module is the only reader of UM_TOL."""

import json
import math
import numbers
import os
from pathlib import Path

import numpy as np

DEFAULT_TOL = 1e-10
_FLOAT64 = np.dtype(float)


def real(value, name: str, finite: bool = False):
    """`value` if it is a real number, and finite if `finite`."""
    kind = type(value)
    if kind is float or kind is int or kind is not bool and isinstance(value, numbers.Real):
        if not finite or -math.inf < value < math.inf:
            return value
    raise ConfigError(f"{name} must be a {'finite ' if finite else ''}real number, got {value!r}")


def positive(value, name: str, zero: bool = False):
    """`value` if it is a real number, finite and > 0 (>= 0 if `zero`)."""
    if type(value) is not float:
        real(value, name)
    if 0.0 < value < math.inf or zero and value == 0.0:
        return value
    raise ConfigError(f"{name} must be finite and {'>=' if zero else '>'} 0, got {value!r}")


def integer(value, name: str, low: int = 0) -> int:
    """`value` as an int if it is an integer >= `low` (numpy's too), not a float."""
    kind = type(value)
    if (kind is int or kind is not bool and isinstance(value, numbers.Integral)) and value >= low:
        return value if kind is int else int(value)
    raise ConfigError(f"{name} must be an integer >= {low}, got {value!r}")


def floats(value, name: str, shape: tuple | None = None) -> np.ndarray:
    """`value` as a float64 array if every entry is a real number, of `shape`
    if given (a None in it matches any length).

    A float64 ndarray is returned as it is, with no copy or scan; any other
    array is judged by its dtype (integers and floats of any width or byte
    order pass) and converted into a new array.  Lists, tuples and object
    arrays are walked entry by entry with `real`, so ragged nesting fails at
    its first sub-list.  A bad entry raises ConfigError naming `name`, a
    wrong shape DimensionError as "NAME has shape (6,), expected (9,)", a
    free length printed as *."""
    if type(value) is not np.ndarray or value.dtype is not _FLOAT64:
        try:
            arr = value if isinstance(value, np.ndarray) else np.asarray(value, dtype=object)
        except ValueError as exc:  # nested arrays that numpy cannot stack
            raise ConfigError(f"{name} must be an array of real numbers ({exc})") from exc
        if arr.dtype.kind not in "fiu":  # bools, complex numbers, strings, objects
            for entry in arr.astype(object).flat:
                real(entry, name)
        value = np.array(arr, dtype=float)
    if shape is not None and value.shape != shape and not (
            len(value.shape) == len(shape)
            and all(want is None or got == want for got, want in zip(value.shape, shape))):
        raise DimensionError(
            f"{name} has shape {value.shape}, expected {str(shape).replace('None', '*')}")
    return value


def labels(value, name: str, n: int, prefix: str) -> tuple[str, ...]:
    """`value` as a tuple if it is a list or tuple of n strings, and
    PREFIX1..PREFIXn if it is empty.  A bare string or a non-string entry
    raises ConfigError naming `name`, a wrong count DimensionError as
    "NAME has 2 labels, expected 3"."""
    kind = type(value)
    if (kind is tuple or kind is list) and all(isinstance(s, str) for s in value):
        if len(value) == n:
            return value if kind is tuple else tuple(value)
        if not value:
            return tuple(f"{prefix}{i + 1}" for i in range(n))
        raise DimensionError(f"{name} has {len(value)} labels, expected {n}")
    raise ConfigError(f"{name} must be a list of strings, got {value!r}")


def default_tol() -> float:
    """The package's one tolerance: UM_TOL if set, else 1e-10, read anew on
    each call."""
    raw = os.environ.get("UM_TOL")
    if raw is None:
        return DEFAULT_TOL
    try:
        value = float(raw)
    except ValueError as exc:
        raise ConfigError(f"UM_TOL must parse as a float, got {raw!r}") from exc
    return positive(value, "UM_TOL")


class DimensionError(ValueError):
    """Array shapes or block dimensions are inconsistent."""


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


class NonUniformGrid(ValueError):
    """A trajectory's time steps are not all equal; .step is the index of
    the first off-grid step (times[step] -> times[step + 1]), .size its size."""

    def __init__(self, step: int, size: float, expected: float):
        self.step, self.size = step, size
        super().__init__(f"time step {step} has size {size:.6g}, expected {expected:.6g}: "
                         "the identity check needs a uniform time grid")


class ConfigError(ValueError):
    """Run configuration is missing keys, has bad values, or failed to parse."""


class UnknownPreset(ConfigError):
    """Requested preset name is not registered."""


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
