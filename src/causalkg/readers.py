"""Strict readers for JSON documents and the files that hold them.

Every loader reads its input through these, so one contract holds for all
of them: a JSON integer is an int that is not a bool; a JSON number is an
int or a float that is not a bool and that a float can hold; nothing is
coerced.  A field reader takes the caller's label for the value and the
loader's error (a CausalKgError subclass, or a function from the message
to one) and raises `error(f"{label} must be {expected}, got {value!r}")`;
`obj` and `array` name the type of a wrong value, which may be a whole
document.  The file helpers raise an InputError naming the file.
"""

from __future__ import annotations

import json
from typing import Callable, Collection, Mapping

from .errors import CausalKgError, InputError

Error = Callable[[str], CausalKgError]


def obj(value, label: str, error: Error, keys: Collection[str] | None = None, expected="an object"):
    """The value as a JSON object; given `keys`, it may hold no other key."""
    if not isinstance(value, Mapping):
        raise error(f"{label} must be {expected}, got {type(value).__name__}")
    unknown = sorted(value.keys() - keys) if keys is not None else ()
    if unknown:
        raise error(f"unknown {label} field(s): {', '.join(unknown)}")
    return value


def required(data: Mapping, key: str, label: str, error: Error, read: Callable | None = None):
    """data[key], through the reader `read` if one is given."""
    if key not in data:
        raise error(f"{label} is missing")
    return data[key] if read is None else read(data[key], label, error)


def integer(value, label: str, error: Error) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise error(f"{label} must be an integer, got {value!r}")
    return value


def real(value, label: str, error: Error) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise error(f"{label} must be a number, got {value!r}")
    try:
        return float(value)
    except OverflowError:
        bits = value.bit_length()
        raise error(f"{label} must be a number a float can hold, got an integer of {bits} bits") from None


def string(value, label: str, error: Error) -> str:
    if not isinstance(value, str):
        raise error(f"{label} must be a string, got {value!r}")
    return value


def array(value, label: str, error: Error) -> list:
    if not isinstance(value, list):
        raise error(f"{label} must be a list, got {type(value).__name__}")
    return value


def strings(value, label: str, error: Error, expected: str = "a list of strings") -> tuple[str, ...]:
    """A JSON list of strings as a tuple; the error names the first bad item."""
    if not isinstance(value, list):
        raise error(f"{label} must be {expected}, got {value!r}")
    for i, item in enumerate(value):
        if not isinstance(item, str):
            raise error(f"{label} must be {expected}: {label}[{i}] must be a string, got {item!r}")
    return tuple(value)


def within(where: str, load: Callable, *args):
    """load(*args); a CausalKgError it raises gets `where` (a file, say) before its message."""
    try:
        return load(*args)
    except CausalKgError as exc:
        raise type(exc)(f"{where}: {exc}") from exc


def cannot(action: str, path: str, exc: Exception, error: Error = InputError) -> CausalKgError:
    """The error for an OSError or UnicodeDecodeError that kept `action` from the file."""
    reason = exc.strerror if isinstance(exc, OSError) and exc.strerror else exc
    return error(f"cannot {action} {path}: {reason}")


def read_text(path: str) -> str:
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise cannot("read", path, exc) from exc


def write_text(path: str, text: str) -> None:
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise cannot("write", path, exc) from exc


def parse_json(text: str, where: str, error: Error = InputError):
    try:
        return json.loads(text)
    except (ValueError, RecursionError) as exc:  # ValueError: bad JSON, or an integer too long to convert
        raise error(f"{where} is not valid JSON: {exc}") from exc


def load_json(path: str):
    return parse_json(read_text(path), path)
