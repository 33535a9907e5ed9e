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
import os
from typing import Callable, Collection, Mapping

import orjson

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
    """The error for an OSError, Unicode error or unusable path that kept `action` from the file."""
    reason = exc.strerror if isinstance(exc, OSError) and exc.strerror else exc
    return error(f"cannot {action} {path}: {reason}")


# The first read's size: a smaller file is one read and the empty read that
# ends it, with no fstat.
_FIRST_READ = 1 << 16


def read_text(path: str) -> str:
    """The file's text, as a text-mode read in strict UTF-8 returns it: a BOM
    is kept, and each "\r\n" and then each lone "\r" becomes "\n".  The
    bytes come from raw reads and are decoded once, so a decode error names
    the same position.  A file that fills the first read is larger: fstat
    sizes one read for the rest, as a buffered read() sizes it.  Reads go on
    until one returns nothing, so a short read or a file that grows is still
    read whole."""
    try:
        fd = os.open(path, os.O_RDONLY | getattr(os, "O_BINARY", 0))
        try:
            chunks = [os.read(fd, _FIRST_READ)]
            if len(chunks[0]) == _FIRST_READ:
                chunks.append(os.read(fd, max(os.fstat(fd).st_size - _FIRST_READ, 1)))
            while chunks[-1]:
                chunks.append(os.read(fd, _FIRST_READ))
        finally:
            os.close(fd)
        text = b"".join(chunks).decode("utf-8")
    except (OSError, ValueError) as exc:  # ValueError: a path with a NUL or a lone surrogate, or bytes not UTF-8
        raise cannot("read", path, exc) from exc
    return text.replace("\r\n", "\n").replace("\r", "\n") if "\r" in text else text


def write_text(path: str, text: str) -> None:
    """Write the text in UTF-8 through a text-mode file.  Text that UTF-8
    cannot encode (a lone surrogate) is refused before the file is opened,
    so a file already there is left as it was."""
    try:
        text.encode("utf-8")
    except UnicodeEncodeError as exc:
        raise cannot("write", path, exc) from exc
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise cannot("write", path, exc) from exc


# parse_json tests both of its rules in one translate: digits to "0", "{" to "[".
_MARKS = bytes.maketrans(b"123456789{", b"000000000[")
_LONG_DIGITS = b"0" * 19
_FEW_CONTAINERS = 512


def parse_json(text: str, where: str, error: Error = InputError):
    """json.loads(text); a failure raises `error` naming `where`.

    orjson parses the text where two rules make its value the stdlib's:
    - No run of 19 or more ASCII digits.  orjson turns an integer outside
      [-2**63, 2**64) into a float, and every such literal has at least 19
      digits; a number of at most 18 digits it parses as the stdlib does.
    - Fewer than _FEW_CONTAINERS "[" and "{" bytes, so nothing nests that
      deep.  orjson 3.8 recurses with no limit and crashes the process on
      deep nesting; the stdlib raises RecursionError at the interpreter's
      recursion limit (1000 by default, the caller's frames included).
      A count of "{" on the text alone turns a large one away before it is
      encoded: UTF-8, "surrogatepass" included, writes every code point
      past U+007F in bytes >= 0x80, so the text and its bytes hold as many
      "{".
    Wherever orjson refuses the text, the stdlib parses it, so the result
    is the stdlib's value or names the stdlib's error.  orjson refuses all
    that the stdlib accepts beyond strict JSON (NaN, Infinity, a number
    past a float's range such as 1e400, an escaped lone surrogate), a BOM
    and a raw lone surrogate, whose "surrogatepass" bytes are not UTF-8.
    Both keep a repeated key's last value at its first place.
    """
    if text.count("{") < _FEW_CONTAINERS:
        raw = text.encode("utf-8", "surrogatepass")
        marks = raw.translate(_MARKS)
        if marks.count(b"[") < _FEW_CONTAINERS and _LONG_DIGITS not in marks:
            try:
                return orjson.loads(raw)
            except orjson.JSONDecodeError:
                pass
    try:
        return json.loads(text)
    except (ValueError, RecursionError) as exc:  # ValueError: bad JSON, or an integer too long to convert
        raise error(f"{where} is not valid JSON: {exc}") from exc


def load_json(path: str):
    return parse_json(read_text(path), path)
