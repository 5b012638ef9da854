"""Exception types shared across the package, the JSON parser, and the
number checks that guard its JSON inputs."""

import io
import json
import sys


class HolostarkError(ValueError):
    """Base class for all holostark errors."""


class UnknownMaterial(HolostarkError):
    """The (material, dopant) pair is absent from the material table."""


class DegeneratePoint(HolostarkError):
    """Band gap closed at a field point: no band decomposition exists."""


class NotClosed(HolostarkError):
    """Field path does not return to its starting point."""


class InvalidAngle(HolostarkError):
    """Angle outside the valid range of a loop construction."""


class NonPositiveMagnitude(HolostarkError):
    """Field magnitude must be positive and finite."""


class NotConstantMagnitude(HolostarkError):
    """Path samples do not keep |E| constant within tolerance."""


class NotUnitary(HolostarkError):
    """Matrix fails the unitarity tolerance of the receiving operation."""


class InvalidInput(HolostarkError):
    """Argument outside the domain of the requested operation."""


class _ArgumentError(InvalidInput):
    """InvalidInput caused by the value of one named argument, so that the
    command line can name the flag that set it."""

    def __init__(self, argument, message):
        super().__init__(message)
        self.argument = argument


def is_finite_number(value):
    """True for an int or float that converts to a finite float (bools and
    integers beyond float range are not)."""
    return type(value) in (int, float) and abs(value) <= sys.float_info.max


def is_number_tree(value):
    """True for a finite number or a list, nested to any depth, of them."""
    stack = [value]
    while stack:
        v = stack.pop()
        if isinstance(v, list):
            stack.extend(v)
        elif not is_finite_number(v):
            return False
    return True


def _parse_json(path, raw):
    """The JSON of ``raw``, the bytes of ``path``, read as a UTF-8 text file;
    text that does not parse is invalid input naming the file."""
    try:
        return json.load(io.TextIOWrapper(io.BytesIO(raw), encoding="utf-8"))
    except RecursionError:
        raise InvalidInput(f"{path}: JSON nested too deeply to parse") from None
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise InvalidInput(f"{path}: {exc}") from None
