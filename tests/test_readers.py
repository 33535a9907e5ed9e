"""The shared strict readers, the loaders built on them, and the rule that
library code raises only CausalKgError subclasses on bad input."""

import ast
import builtins
import copy
import errno
import json
import os
import re
import tempfile
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import causalkg
from causalkg.encoder import EncoderConfig
from causalkg.errors import CausalKgError, GraphError, InputError, InventoryError, QueryError
from causalkg.graphs import Entity, Relation, Relations, Span, assemble_graph, graph_from_dict, graph_to_dict
from causalkg.model import Model, load_model, save_model
from causalkg import readers
from causalkg.readers import (
    array, cannot, integer, obj, parse_json, read_text, real, required, string, strings, within,
)
from causalkg.reasoning import NodePattern
from causalkg.schema import load_schema, schema_from_dict, schema_to_dict
from causalkg.senses import load_glosses
from causalkg.training import TrainConfig, load_dataset

SRC = Path(causalkg.__file__).parent


@pytest.mark.parametrize("read, value, message", [
    (integer, True, "x must be an integer, got True"),
    (integer, 2.0, "x must be an integer, got 2.0"),
    (integer, "2", "x must be an integer, got '2'"),
    (real, False, "x must be a number, got False"),
    (real, "0.5", "x must be a number, got '0.5'"),
    (real, None, "x must be a number, got None"),
    (real, 10**400, "x must be a number a float can hold"),
    (string, 5, "x must be a string, got 5"),
    (array, {"a": 1}, "x must be a list, got dict"),
    (strings, "ab", "x must be a list of strings, got 'ab'"),
    (strings, ["a", 5], "x must be a list of strings: x[1] must be a string, got 5"),
    (obj, [1, 2], "x must be an object, got list"),
])
def test_readers_reject_with_the_field_named(read, value, message):
    with pytest.raises(QueryError) as exc:
        read(value, "x", QueryError)
    assert str(exc.value).startswith(message)


def test_readers_return_the_value_uncoerced():
    assert integer(7, "x", QueryError) == 7
    assert real(3, "x", QueryError) == 3.0 and type(real(3, "x", QueryError)) is float
    assert strings(["a", "b"], "x", QueryError) == ("a", "b")
    assert obj({"a": 1}, "x", QueryError, ("a", "b")) == {"a": 1}
    assert required({"a": 1}, "a", "x", QueryError, integer) == 1


def test_obj_rejects_unknown_keys_and_required_names_a_missing_field():
    with pytest.raises(QueryError, match=r"^unknown x field\(s\): c, d$"):
        obj({"a": 1, "d": 2, "c": 3}, "x", QueryError, ("a",))
    with pytest.raises(QueryError, match="^x 'b' is missing$"):
        required({"a": 1}, "b", "x 'b'", QueryError)


def test_within_names_where_and_keeps_the_class():
    def fail():
        raise InventoryError("line 3: bad")

    with pytest.raises(InventoryError, match="^gloss.tsv: line 3: bad$"):
        within("gloss.tsv", fail)
    with pytest.raises(KeyError):  # anything but a CausalKgError passes through
        within("f", {}.__getitem__, "k")


@pytest.mark.parametrize("text", ["{", "[1,]", "1" * 5000, "[" * 100_000])
def test_parse_json_turns_every_failure_into_the_loader_error(text):
    # an over-long integer literal raises ValueError, deep nesting RecursionError
    with pytest.raises(GraphError, match="^doc is not valid JSON"):
        parse_json(text, "doc", GraphError)


# -- parse_json gives the stdlib's value, or names the stdlib's error --------

def stdlib_parse(text):
    """parse_json's stdlib path, called at the same stack depth as parse_json."""
    try:
        return json.loads(text)
    except (ValueError, RecursionError) as exc:
        raise GraphError(f"doc is not valid JSON: {exc}") from exc


def parsed(parse, text):
    """repr of the value, which shows int against float, the sign of -0.0
    and key order, or the error's class and message."""
    try:
        return repr(parse(text))
    except GraphError as exc:
        return type(exc), str(exc)


def number_text(sign, whole, fraction, exponent):
    return sign + whole + (f".{fraction}" if fraction else "") + (f"e{exponent}" if exponent else "")


# Integers of 17 to 22 digits, most near the ends of orjson's integer range.
BOUNDS = [2**63, -(2**63), 2**64, -(2**64)]
LONG_INTEGERS = (
    st.sampled_from(BOUNDS).flatmap(lambda b: st.integers(b - 2**10, b + 2**10))
    | st.integers(-(10**22) + 1, -(10**16)) | st.integers(10**16, 10**22 - 1)
).map(str)
# Number literals with digit runs up to 24 long in the whole part, the
# fraction and the exponent.
DIGITS = st.text("0123456789", min_size=1, max_size=24)
NUMBERS = st.builds(
    number_text,
    st.sampled_from(["", "-"]),
    st.sampled_from(["0"]) | st.builds(lambda a, b: a + b, st.sampled_from("123456789"), st.text("0123456789", max_size=23)),
    st.none() | DIGITS,
    st.none() | st.builds(lambda s, d: s + d, st.sampled_from(["", "+", "-"]), st.text("0123456789", min_size=1, max_size=5)),
)
ODD_LITERALS = st.sampled_from([
    "NaN", "Infinity", "-Infinity", "1e400", "-1e400", "1e-400", "-0", "-0.0", "0.0", "5e-324",
    '"\\ud800"', '"\\udc00"', '"\\ud800\\u0041"', '"\\ud83d\\ude00"', '"\ud800"', '"\\u0000"', '"\x1f"',
    "true", "false", "null", '"\ufeff"', "01", "1.", ".5", "-", "+1",
])
LITERALS = LONG_INTEGERS | NUMBERS | ODD_LITERALS | st.integers().map(str) | st.floats().map(repr)
KEYS = st.sampled_from(["a", "b", "seed", ""])
DOCUMENTS = st.deferred(lambda: (
    LITERALS
    | st.lists(DOCUMENTS, max_size=4).map(lambda xs: "[" + ", ".join(xs) + "]")
    # repeated keys: the last value wins, at the first key's place
    | st.lists(st.tuples(KEYS, DOCUMENTS), max_size=4).map(
        lambda kv: "{" + ", ".join(f'"{k}": {v}' for k, v in kv) + "}")
))
# Nesting past 1024, and past any recursion limit (Hypothesis raises it to
# about 2000 while a test runs), where the stdlib raises RecursionError.
DEEP = (st.integers(1025, 1100) | st.integers(20_000, 21_000)).flatmap(
    lambda d: st.sampled_from(["[" * d + "]" * d, '{"a":' * d + "0" + "}" * d]))
TEXTS = (
    DOCUMENTS
    | st.builds(lambda pad, doc: pad + doc + pad, st.sampled_from([" ", "\n", "\r\n\t "]), DOCUMENTS)
    | DOCUMENTS.map(lambda doc: "\ufeff" + doc)
    | st.sampled_from(["", " ", "\n\t\r ", "\ufeff"])
    | DEEP
    | st.text('[]{}",: 0123456789.eE+-truflasNIn\\', max_size=30)
)


# What the drawn texts must reach, each by a test on the text.
HARD_CASES = {
    "an integer past 2**64": lambda text: any(int(run) >= 2**64 for run in re.findall(r"(?<![.\d])\d{20,}(?![.\deE])", text)),
    "19 digits or more in a float": lambda text: re.search(r"\d{19,}[.eE]|[.eE]-?\d{19,}", text) is not None,
    "NaN": lambda text: "NaN" in text,
    "an escaped lone surrogate": lambda text: '"\\ud800"' in text,
    "a BOM": lambda text: text.startswith("\ufeff"),
    "a repeated key": lambda text: re.search(r'("\w*"): .*, \1: ', text) is not None,
    "nesting past 1024": lambda text: text.startswith("[" * 1025) or text.startswith('{"a":' * 1025),
    "nesting past the recursion limit": lambda text: text.startswith("[" * 20_000) or text.startswith('{"a":' * 20_000),
    "no text but whitespace": lambda text: not text.strip(" \t\n\r"),
}


def test_parse_json_agrees_with_the_stdlib():
    @settings(max_examples=1500, deadline=None, derandomize=True)
    @given(TEXTS)
    # integers past orjson's range, which it would turn into floats
    @example("18446744073709551616")
    @example("-9223372036854775809")
    @example('{"seed": 18446744073709551616}')
    def check(text):
        assert parsed(lambda t: parse_json(t, "doc", GraphError), text) == parsed(stdlib_parse, text)
        reached.update(kind for kind, shows in HARD_CASES.items() if shows(text))

    reached = set()
    check()
    assert reached == set(HARD_CASES)


def previous_parse_json(text, where, error):
    """parse_json as it was when it counted "{" on the UTF-8 bytes."""
    raw = text.encode("utf-8", "surrogatepass")
    if raw.count(b"{") < readers._FEW_CONTAINERS:
        marks = raw.translate(readers._MARKS)
        if marks.count(b"[") < readers._FEW_CONTAINERS and readers._LONG_DIGITS not in marks:
            try:
                return readers.orjson.loads(raw)
            except readers.orjson.JSONDecodeError:
                pass
    try:
        return json.loads(text)
    except (ValueError, RecursionError) as exc:
        raise error(f"{where} is not valid JSON: {exc}") from exc


# String contents with non-ASCII code points, raw and escaped lone
# surrogates, and braces and brackets that count toward the limits.
FILLERS = st.lists(
    st.sampled_from(["a", "\\u00e9", "\\ud800", "\\\\", "é", "☃", "\U0001f600", "\ud800", "\udfff", "{", "["]),
    max_size=6,
).map("".join)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(
    objects=st.integers(0, 600) | st.integers(500, 520),
    quoted=st.integers(0, 40),
    filler=FILLERS,
    cut=st.booleans(),
)
def test_parse_json_counts_braces_on_the_text_as_on_its_bytes(objects, quoted, filler, cut):
    # up to 600 "{", about the 512 that send a text to the stdlib, among
    # characters of two to four UTF-8 bytes and lone surrogates; a cut text
    # is not JSON
    text = "[" + "".join(f'{{"{filler}": {i}}}, ' for i in range(objects)) + '"' + "{" * quoted + filler + '"]'
    text = text[: len(text) // 2] if cut else text
    assert parsed(lambda t: parse_json(t, "doc", GraphError), text) == parsed(
        lambda t: previous_parse_json(t, "doc", GraphError), text
    )


@pytest.mark.parametrize("text, parser", [
    ('{"tokens": ["a"], "confidence": 0.5, "n": 123456789012345678}', "orjson"),
    ("[" + "{}, " * 509 + "{}]", "orjson"),  # 511 containers
    ("12345678901234567890", "stdlib"),  # 19 digits or more
    ('{"x": "9999999999999999999"}', "stdlib"),  # even in a string
    ("[" + "{}, " * 510 + "{}]", "stdlib"),  # 512 containers or more
    ('"' + "[" * 512 + '"', "stdlib"),
    ("NaN", "both"),  # orjson refuses what the stdlib accepts
    ("\ufeff{}", "both"),
], ids=lambda value: value if len(value) < 70 else f"{value[:20]}...({len(value)} chars)")
def test_parse_json_leaves_to_the_stdlib_only_what_orjson_gets_wrong(text, parser, monkeypatch):
    calls = []
    for module in (readers.json, readers.orjson):
        monkeypatch.setattr(module, "loads", lambda t, loads=module.loads, m=module: calls.append(m.__name__) or loads(t))
    try:
        parse_json(text, "doc")
    except InputError:
        pass
    assert calls == {"orjson": ["orjson"], "stdlib": ["json"], "both": ["orjson", "json"]}[parser]


def test_load_glosses_names_the_line_without_a_tab():
    assert load_glosses("a.n.01\tan a\n\nb.n.01\ta b\tand more\n") == {"a.n.01": "an a", "b.n.01": "a b\tand more"}
    with pytest.raises(InventoryError, match="^gloss line 2: "):
        load_glosses("a.n.01\tan a\nb.n.01 a b\n")


# -- read_text returns what a text-mode read returns ---------------------------

FIRST_READ = readers._FIRST_READ


def text_mode_read(path):
    """The text-mode read that read_text replaces, its errors made as read_text makes them."""
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise cannot("read", path, exc) from exc


def outcome(read, path):
    try:
        return "text", read(path)
    except InputError as exc:
        return "error", str(exc)


def assert_same_read(path) -> str:
    """Check that read_text(path) and a text-mode read give the same text
    or the same error; "text" or "error", as they did."""
    got = outcome(read_text, path)
    same = got == outcome(text_mode_read, path)  # a bool: pytest would diff long texts line by line
    assert same, f"read_text and a text-mode read of {path} differ"
    return got[0]


# line ends, a BOM, one- to four-byte characters, and bytes UTF-8 refuses:
# a stray continuation, a cut-off sequence, an encoded surrogate, 0xff
PIECES = st.sampled_from([
    b"\r", b"\n", b"\r\n", b"\r\r\n", b"\xef\xbb\xbf", b"a", b"\x00", "\u00e9".encode(), "\u20ac".encode(),
    "\U0001f600".encode(), b"\x80", b"\xc3", b"\xe2\x82", b"\xed\xa0\x80", b"\xff",
]) | st.binary(max_size=3)


@st.composite
def file_bytes(draw):
    """Pieces back to back; half the time after padding that puts them across the first read's end."""
    body = b"".join(draw(st.lists(PIECES, max_size=24)))
    if draw(st.booleans()):
        body = b"x" * (FIRST_READ - draw(st.integers(0, 12))) + body
    return body


def test_read_text_returns_what_a_text_mode_read_returns(tmp_path):
    path = str(tmp_path / "f.txt")
    seen = set()

    @settings(max_examples=400, deadline=None, derandomize=True)
    @given(file_bytes())
    def check(data):
        Path(path).write_bytes(data)
        seen.add((assert_same_read(path), len(data) >= FIRST_READ))

    check()
    assert seen == {(kind, large) for kind in ("text", "error") for large in (False, True)}


def test_read_text_translates_a_line_end_split_by_the_first_read(tmp_path):
    path = tmp_path / "big.txt"
    path.write_bytes(b"a" * (FIRST_READ - 1) + b"\r\n" + "z\u20ac\r\n".encode() * 40_000)
    assert path.stat().st_size >= 200 * 1024
    assert assert_same_read(str(path)) == "text"
    translated = read_text(str(path)) == "a" * (FIRST_READ - 1) + "\n" + "z\u20ac\n" * 40_000
    assert translated


def counting(monkeypatch, name, limit=None):
    """Count the calls of os.<name>; an os.read of more than `limit` bytes reads `limit`."""
    calls = []
    real = getattr(os, name)

    def counted(*args):
        calls.append(args)
        if limit is not None:
            args = (args[0], min(args[1], limit))
        return real(*args)

    monkeypatch.setattr(os, name, counted)
    return calls


def test_read_text_reads_whole_files_through_short_reads(tmp_path, monkeypatch):
    small, big = tmp_path / "small.txt", tmp_path / "big.txt"
    small.write_bytes("\ufeffa\r\nb\u20ac\rc\U0001f600\n".encode())
    big.write_bytes(b"x" * (FIRST_READ - 3) + "\u20ac\r\n".encode() * 1000)
    counting(monkeypatch, "read", limit=7)
    for path in (str(small), str(big)):
        assert assert_same_read(path) == "text"


def test_read_text_reads_a_small_file_in_two_reads_and_sizes_a_large_one_by_fstat(tmp_path, monkeypatch):
    reads, stats = counting(monkeypatch, "read"), counting(monkeypatch, "fstat")
    shapes = {}
    for size in (0, 10, FIRST_READ - 1, FIRST_READ, 5 * FIRST_READ + 3):
        path = tmp_path / f"{size}.txt"
        path.write_bytes(b"y" * size)
        reads.clear(), stats.clear()
        whole = read_text(str(path)) == "y" * size
        assert whole
        shapes[size] = (len(reads), len(stats))
    # an empty first read ends a file and a short one is followed by the
    # empty read that ends it; a full one by fstat and one read of the rest,
    # which is the empty read when nothing is left, and then that empty read
    assert shapes == {0: (1, 0), 10: (2, 0), FIRST_READ - 1: (2, 0), FIRST_READ: (2, 1), 5 * FIRST_READ + 3: (3, 1)}


def test_read_text_names_a_missing_file_and_a_directory(tmp_path):
    missing, directory = str(tmp_path / "nope.json"), str(tmp_path)
    for path, reason in ((missing, "No such file or directory"), (directory, "Is a directory")):
        with pytest.raises(InputError) as exc:
            read_text(path)
        assert str(exc.value) == f"cannot read {path}: {reason}" == outcome(text_mode_read, path)[1]


class ShortWrite:
    """A file whose write writes the text's first chunk and then fails, as a full disk does."""

    def __init__(self, fh):
        self.fh = fh

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.fh.close()

    def write(self, text):
        self.fh.write(text[:4])
        self.fh.flush()
        raise OSError(errno.ENOSPC, "No space left on device")


def test_a_failed_write_leaves_the_old_file_and_no_temporary_file(tmp_path, monkeypatch):
    path = tmp_path / "out.json"
    path.write_bytes(b"old contents\n")
    real_open = builtins.open
    monkeypatch.setattr(readers, "open", lambda *args, **kwargs: ShortWrite(real_open(*args, **kwargs)), raising=False)
    with pytest.raises(InputError, match=f"^cannot write {re.escape(str(path))}: No space left on device$"):
        readers.write_text(str(path), "new contents\n")
    monkeypatch.undo()
    assert path.read_bytes() == b"old contents\n"
    assert os.listdir(tmp_path) == ["out.json"]


def test_write_text_replaces_a_file_and_writes_through_what_is_not_one(tmp_path):
    path = tmp_path / "out.json"
    readers.write_text(str(path), "first\n")
    readers.write_text(str(path), "second\r\n")
    umask = os.umask(0)
    os.umask(umask)
    assert path.read_bytes() == b"second\r\n" and path.stat().st_mode & 0o777 == 0o666 & ~umask
    # a symlink is written through, not replaced; a directory is refused
    link = tmp_path / "link.json"
    link.symlink_to(path)
    readers.write_text(str(link), "third\n")
    assert link.is_symlink() and path.read_text() == "third\n"
    with pytest.raises(InputError, match=f"^cannot write {re.escape(str(tmp_path))}: Is a directory$"):
        readers.write_text(str(tmp_path), "x")
    assert sorted(os.listdir(tmp_path)) == ["link.json", "out.json"]


# -- no builtin exception escapes a loader -----------------------------------

LEAVES = (
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=5)
    | st.sampled_from([10**400, -(10**400), 1e308, "", "a", 0, 1, 2, 0.5])
)
JSON = st.recursive(
    LEAVES,
    lambda children: st.lists(children, max_size=4) | st.dictionaries(st.text(max_size=5), children, max_size=4),
    max_leaves=20,
)


def graph_doc():
    return graph_to_dict(assemble_graph(
        ["a", "b"], None,
        [("e0", Span(0, 1), "element", 0.9), ("e1", Span(1, 2), "element", 0.8)],
        attributes=[("e1", "negated", 0.7)],
        relations=[("e0", "e1", "q+", 0.5)],
        senses=[("e0", "a.n.01", 0.25)],
    ))


def model_doc():
    with tempfile.TemporaryDirectory() as d:
        path = os.path.join(d, "model.json")
        save_model(Model.initialize(load_schema("ethno"), EncoderConfig(dimension=2), 2, 1), path)
        return json.loads(Path(path).read_text())


BASES = {
    "graph": graph_doc(),
    "dataset": [{
        "tokens": ["A", "causes", "B"], "lemmas": ["a", "cause", "b"],
        "entities": [{"start": 0, "end": 1, "type": "factor"}, {"start": 2, "end": 3, "type": "factor"}],
        "attributes": [{"entity": 1, "type": "causation"}],
        "relations": [{"head": 1, "tail": 0, "type": "arg0"}], "provenance": "p",
    }],
    "train config": dict(TrainConfig().__dict__),
    "encoder config": EncoderConfig(kind="file", dimension=3, embedding_path="v.txt").to_dict(),
    "schema": schema_to_dict(load_schema("sciclaim")),
    "node pattern": {
        "lemma_any_of": ["a"], "entity_type": "element", "required_attributes": ["negated"],
        "role_constraints": [{"relation": "agent", "pattern": {"entity_type": "element"}}],
    },
    "model": model_doc(),
}


def load_model_text(text):
    with tempfile.TemporaryDirectory() as d:
        path = os.path.join(d, "model.json")
        Path(path).write_text(text)
        return load_model(path)


LOADERS = {
    "graph": graph_from_dict,
    "dataset": lambda doc: load_dataset(json.dumps(doc)),
    "train config": TrainConfig.from_dict,
    "encoder config": EncoderConfig.from_dict,
    "schema": schema_from_dict,
    "node pattern": NodePattern.from_dict,
    "model": lambda doc: load_model_text(json.dumps(doc)),
}


def slots(value):
    """Every (container, key) of a document, nested ones included."""
    if isinstance(value, dict):
        for key, child in value.items():
            yield value, key
            yield from slots(child)
    elif isinstance(value, list):
        for i, child in enumerate(value):
            yield value, i
            yield from slots(child)


@st.composite
def documents(draw):
    """A loader name and either an arbitrary JSON value or its valid base
    document with one field, at any depth, replaced by one."""
    name = draw(st.sampled_from(sorted(LOADERS)))
    if draw(st.booleans()):
        return name, draw(JSON)
    doc = copy.deepcopy(BASES[name])
    # single numbers inside the model's parameter rows are left out, or they
    # would be most of the draws; test_model_parameter_items_are_json_numbers
    # covers them
    places = [(c, k) for c, k in slots(doc) if not (isinstance(c, list) and c and isinstance(c[0], float))]
    container, key = draw(st.sampled_from(places))
    # half the time a value of the field's own JSON type from the same
    # document, so that many edited documents still load
    same_type = [c[k] for c, k in slots(BASES[name]) if type(c[k]) is type(container[key])]
    container[key] = copy.deepcopy(draw(st.sampled_from(same_type) if draw(st.booleans()) else JSON))
    return name, doc


@pytest.mark.parametrize("item", [True, "0.5", None, [0.5], {"a": 0.5}, 10**400, float("nan")])
def test_model_parameter_items_are_json_numbers(item):
    doc = copy.deepcopy(BASES["model"])
    doc["parameters"]["rel_w"][1][2] = item
    with pytest.raises(InputError, match="malformed model file .*model parameter 'rel_w'"):
        load_model_text(json.dumps(doc))


def test_every_base_document_loads():
    for name, load in LOADERS.items():
        load(copy.deepcopy(BASES[name]))


def test_loaders_raise_nothing_but_causalkg_errors():
    outcomes = {"loaded": 0, "rejected": 0}

    @settings(max_examples=1500, deadline=None, derandomize=True)
    @given(documents())
    def check(case):
        name, doc = case
        try:
            LOADERS[name](doc)
        except CausalKgError:
            outcomes["rejected"] += 1
        else:
            outcomes["loaded"] += 1

    check()
    assert min(outcomes.values()) >= 50, outcomes


# -- no builtin exception escapes an in-process graph construction -------------

# a value of any kind a caller might pass: the ids, types, spans and
# confidences a graph takes, and values that are unhashable, not iterable or
# compare to a list as an array
ANY = st.sampled_from([
    "e0", "e1", "q+", "", 0, 1, -1, 0.5, 1.5, float("nan"), True, None, [], ["e0"], [1, 2], {}, {"a": 1},
    np.float64(0.5), np.int64(1), Span(0, 1), Span(1, 2),
])
# each slot of a record holds a value of its own kind half the time, so that
# some graphs are built
SLOTS = {
    "id": st.sampled_from(["e0", "e1"]) | ANY,
    "span": st.sampled_from([Span(0, 1), Span(1, 2)]) | ANY,
    "type": st.sampled_from(["t", "q+"]) | ANY,
    "confidence": st.sampled_from([0.5, 0.9]) | ANY,
}
TOKENS = st.lists(st.sampled_from(["a", "b"]), max_size=3) | ANY


def records(*slots: str):
    """A list of tuples with those slots, or any value in its place."""
    return st.lists(st.tuples(*map(SLOTS.get, slots)) | ANY, max_size=3) | ANY


GRAPH_ARGS = {
    "tokens": ["a", "b", "c"], "lemmas": None,
    "entities": [("e0", Span(0, 1), "t", 0.5), ("e1", Span(1, 2), "t", 0.5)],
    "attributes": [("e0", "a", 0.5)], "relations": [("e0", "e1", "q+", 0.5)], "provenance": "", "senses": [],
}
ARG_VALUES = {
    "tokens": TOKENS,
    "lemmas": TOKENS,
    "entities": records("id", "span", "type", "confidence"),
    "attributes": records("id", "type", "confidence"),
    "relations": records("id", "id", "type", "confidence"),
    "provenance": ANY,
    "senses": records("id", "type", "confidence"),
}
FIELD_VALUES = {
    "tokens": TOKENS,
    "lemmas": TOKENS,
    "entities": st.lists(st.builds(
        Entity, *map(SLOTS.get, ("id", "span", "type", "confidence")),
        records("type", "confidence"), records("type", "confidence"),
    ), max_size=3) | ANY,
    "relations": (
        st.lists(st.builds(Relation, *map(SLOTS.get, ("id", "id", "type", "confidence"))), max_size=3)
        | st.builds(Relations, *[st.lists(ANY, max_size=3) | ANY] * 6) | ANY
    ),
    "provenance": ANY,
}


GRAPH = assemble_graph(**GRAPH_ARGS)
CONSTRUCTIONS = {
    # a valid call with one argument drawn anew
    "assemble_graph": (lambda name, value: assemble_graph(**{**GRAPH_ARGS, name: value}), ARG_VALUES),
    # a valid graph with one field drawn anew
    "replace": (lambda name, value: replace(GRAPH, **{name: value}), FIELD_VALUES),
}


@pytest.mark.parametrize("construction", sorted(CONSTRUCTIONS))
def test_graph_constructions_raise_nothing_but_graph_errors(construction):
    build, values = CONSTRUCTIONS[construction]
    outcomes = {"built": 0, "rejected": 0}

    @settings(max_examples=800, deadline=None, derandomize=True)
    @given(st.sampled_from(sorted(values)).flatmap(lambda name: st.tuples(st.just(name), values[name])))
    def check(change):
        try:
            build(*change)
        except GraphError:
            outcomes["rejected"] += 1
        else:
            outcomes["built"] += 1

    check()
    assert min(outcomes.values()) >= 20, outcomes


# -- every dataclass is frozen --------------------------------------------------


def mutable_dataclasses(source: str) -> list[str]:
    """The classes, in source order, whose @dataclass decorator does not pass frozen=True."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.ClassDef):
            continue
        for decorator in node.decorator_list:
            call = decorator if isinstance(decorator, ast.Call) else None
            func = call.func if call else decorator
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            frozen = call is not None and any(
                kw.arg == "frozen" and isinstance(kw.value, ast.Constant) and kw.value.value is True
                for kw in call.keywords
            )
            if name == "dataclass" and not frozen:
                found.append(node.name)
    return found


def test_the_scan_sees_mutable_dataclasses():
    source = (
        "@dataclass\nclass A:\n    x: int\n\n"
        "@dataclasses.dataclass(order=True)\nclass B:\n    x: int\n\n"
        "@dataclass(frozen=False)\nclass C:\n    x: int\n\n"
        # frozen ones, and a class with another decorator, are not mutable dataclasses
        "@dataclass(frozen=True)\nclass D:\n    x: int\n\n"
        "@dataclasses.dataclass(frozen=True, order=True)\nclass E:\n    x: int\n\n"
        "@total_ordering\nclass F:\n    pass\n"
    )
    assert mutable_dataclasses(source) == ["A", "B", "C"]


def test_every_dataclass_is_frozen():
    found = {
        f"{path.stem}.{name}"
        for path in sorted(SRC.glob("*.py"))
        for name in mutable_dataclasses(path.read_text(encoding="utf-8"))
    }
    assert found == set(), "make the dataclass frozen=True; dataclasses.replace changes a field, through its checks"


# -- the library raises no builtin exception ----------------------------------

def builtin_raises(source: str) -> list[tuple[str, str]]:
    """(enclosing function, exception name) per `raise` of a builtin exception class."""
    found = []

    class Visitor(ast.NodeVisitor):
        def __init__(self):
            self.functions = ["<module>"]

        def visit_FunctionDef(self, node):
            self.functions.append(node.name)
            self.generic_visit(node)
            self.functions.pop()

        visit_AsyncFunctionDef = visit_FunctionDef

        def visit_Raise(self, node):
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            cls = getattr(builtins, exc.id, None) if isinstance(exc, ast.Name) else None
            if isinstance(cls, type) and issubclass(cls, BaseException):
                found.append((self.functions[-1], exc.id))

    Visitor().visit(ast.parse(source))
    return found


def test_the_scan_sees_builtin_raises():
    source = "def f(x):\n    if x:\n        raise ValueError(x)\n    raise KeyError\n\ndef g():\n    raise error('m')\n"
    assert builtin_raises(source) == [("f", "ValueError"), ("f", "KeyError")]


def test_library_raises_builtin_exceptions_only_at_programmer_error_sites():
    found = {
        (path.name, function, name)
        for path in sorted(SRC.glob("*.py"))
        for function, name in builtin_raises(path.read_text(encoding="utf-8"))
    }
    assert found == set(), (
        "a loader or check raises a builtin exception, which causalkg.cli.main does not catch; "
        "raise a CausalKgError subclass (InputError for a bad value) instead"
    )


# -- string ids are formatted only by the codec in graphs.py -----------------

ID_SEPARATORS = {"->", "#", "/", "~"}


def id_fstrings(source: str) -> list[str]:
    """The f-strings that join two formatted values with an id separator, or
    that start with "lemma:", as source text."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.JoinedStr):
            continue
        values = node.values
        joins = any(
            isinstance(sep, ast.Constant) and sep.value in ID_SEPARATORS
            and isinstance(left, ast.FormattedValue) and isinstance(right, ast.FormattedValue)
            for left, sep, right in zip(values, values[1:], values[2:])
        )
        lemma = bool(values) and isinstance(values[0], ast.Constant) and values[0].value.startswith("lemma:")
        if joins or lemma:
            found.append(ast.get_source_segment(source, node))
    return found


def test_the_scan_sees_id_fstrings():
    source = (
        'a = f"{h}->{t}:{r}"\nb = f"{e}#{x}"\nc = f"{p}/{e.id}"\nd = f"{a}~{b}"\ne = f"lemma:{a}"\n'
        # DOT's quoted edges, a file position and plain messages are no ids
        'f = f\'"{h}" -> "{t}"\'\ng = f"{path}:{line_no}"\nh = f"{label}[{i}]"\ni = f"x/{e}"\n'
    )
    assert id_fstrings(source) == [
        'f"{h}->{t}:{r}"', 'f"{e}#{x}"', 'f"{p}/{e.id}"', 'f"{a}~{b}"', 'f"lemma:{a}"',
    ]


def test_ids_are_formatted_only_in_graphs_py():
    found = {
        path.name: segments
        for path in sorted(SRC.glob("*.py"))
        if path.name != "graphs.py" and (segments := id_fstrings(path.read_text(encoding="utf-8")))
    }
    assert found == {}, "format string ids through the codec in graphs.py"


# -- relations are read as columns outside graphs.py -------------------------


def relation_type_reads(source: str) -> list[str]:
    """The reads of an attribute named `relation_type`, as source text."""
    return [
        ast.get_source_segment(source, node)
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Attribute) and node.attr == "relation_type" and isinstance(node.ctx, ast.Load)
    ]


def test_the_scan_sees_relation_type_reads():
    source = (
        "a = r.relation_type\nb = [x.relation_type for x in g.relations]\n"
        # a name, another attribute and a keyword are no reads of a Relation
        "c = relation_type\nd = schema.relation_types\ne = f(relation_type=c)\n"
    )
    assert sorted(relation_type_reads(source)) == ["r.relation_type", "x.relation_type"]


def test_relation_types_are_read_as_attributes_only_in_graphs_py():
    found = {
        path.name: reads
        for path in sorted(SRC.glob("*.py"))
        if path.name != "graphs.py" and (reads := relation_type_reads(path.read_text(encoding="utf-8")))
    }
    assert found == {}, "read a relation's type from the Relations columns: types[code[j]]"


# -- relation columns become arrays only through Relations.arrays ------------

COLUMNS = {"head", "tail", "code", "confidence"}


def column_conversions(source: str) -> list[str]:
    """The calls of np.array or np.asarray on an attribute named head,
    tail, code or confidence, as source text."""
    return [
        ast.get_source_segment(source, node)
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute) and node.func.attr in ("array", "asarray")
        and getattr(node.func.value, "id", None) == "np"
        and node.args and isinstance(node.args[0], ast.Attribute) and node.args[0].attr in COLUMNS
    ]


def test_the_scan_sees_column_conversions():
    source = (
        "a = np.array(relations.head, dtype=np.intp)\nb = np.asarray(g.relations.confidence)\n"
        "class Relations:\n    def other(self):\n        return np.asarray(self.tail)\n"
        # other attributes, names and functions convert no column
        "c = np.array(table.confidences)\nd = np.array(head)\ne = list(r.head)\nf = np.zeros(r.code)\n"
    )
    assert sorted(column_conversions(source)) == [
        "np.array(relations.head, dtype=np.intp)", "np.asarray(g.relations.confidence)", "np.asarray(self.tail)",
    ]


def test_relation_columns_become_arrays_only_through_relations_arrays():
    # Relations.arrays and the graph builder both make the view with
    # graphs._column_arrays, which takes the columns as arguments
    found = {
        path.name: calls
        for path in sorted(SRC.glob("*.py"))
        if (calls := column_conversions(path.read_text(encoding="utf-8")))
    }
    assert found == {}, "read a graph's columns as arrays through Relations.arrays()"


# -- type codes are numbered only by the schema -------------------------------

TYPE_LISTS = {"entity_types", "attribute_types", "relation_types"}


def type_code_tables(source: str) -> list[str]:
    """The expressions that number a schema's type list, as source text:
    enumerate(x.<kind>_types), x.<kind>_types.index(...), and a zip of
    x.<kind>_types with a range."""
    def type_list(node) -> bool:
        return isinstance(node, ast.Attribute) and node.attr in TYPE_LISTS

    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.Call):
            continue
        func, args = node.func, node.args
        name = func.id if isinstance(func, ast.Name) else None
        numbers = (
            (name == "enumerate" and args and type_list(args[0]))
            or (isinstance(func, ast.Attribute) and func.attr == "index" and type_list(func.value))
            or (
                name == "zip"
                and any(map(type_list, args))
                and any(isinstance(a, ast.Call) and getattr(a.func, "id", None) == "range" for a in args)
            )
        )
        if numbers:
            found.append(ast.get_source_segment(source, node))
    return found


def test_the_scan_sees_type_code_tables():
    source = (
        "a = {t: i for i, t in enumerate(schema.entity_types)}\n"
        "b = model.schema.relation_types.index(name)\n"
        "c = dict(zip(s.attribute_types, range(n)))\n"
        # reading the names in order numbers nothing
        "d = zip(schema.attribute_types, scores)\ne = enumerate(graph.relations.types)\n"
        "f = len(schema.relation_types)\n"
    )
    assert sorted(type_code_tables(source)) == [
        "enumerate(schema.entity_types)",
        "model.schema.relation_types.index(name)",
        "zip(s.attribute_types, range(n))",
    ]


def test_type_codes_are_numbered_only_in_schema_py():
    found = {
        path.name: tables
        for path in sorted(SRC.glob("*.py"))
        if path.name != "schema.py" and (tables := type_code_tables(path.read_text(encoding="utf-8")))
    }
    assert found == {}, "read Schema.entity_codes, attribute_codes and relation_codes instead"


# -- graphs and relation columns are built where they are checked -------------

# each constructor and the files that may call it: graphs.py checks what it
# builds, and derives the subgraphs rectify keeps
CONSTRUCTORS = {
    "KnowledgeGraph": {"graphs.py"},
    "CorpusGraph": {"graphs.py"},
    "CorpusIndex": {"graphs.py"},
    "Relations": {"graphs.py"},
}


def construction_faults(source: str, filename: str) -> list[str]:
    """The calls in a file of that name, as source text, that set a field
    of an object other than `self` through object.__setattr__, or that call
    a constructor of CONSTRUCTORS outside its files."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.Call):
            continue
        func, args = node.func, node.args
        name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
        sets_another = (
            name == "__setattr__" and getattr(func.value, "id", None) == "object"
            and not (args and getattr(args[0], "id", None) == "self")
        )
        if sets_another or filename not in CONSTRUCTORS.get(name, {filename}):
            found.append(ast.get_source_segment(source, node))
    return found


def test_the_scan_sees_constructions():
    source = (
        "object.__setattr__(corpus, '_index', index)\ng = KnowledgeGraph(t, l, e, r)\n"
        "c = graphs.CorpusGraph(gs)\nr = Relations(ids, types, h, t, c, f)\n"
        # setting a field of self, a copy and a read of the class build nothing
        "object.__setattr__(self, 'index', index)\ng = replace(graph, relations=r)\nn = KnowledgeGraph.__name__\n"
    )
    setattr_call, graph, corpus, columns = (
        "object.__setattr__(corpus, '_index', index)", "KnowledgeGraph(t, l, e, r)",
        "graphs.CorpusGraph(gs)", "Relations(ids, types, h, t, c, f)",
    )
    assert sorted(construction_faults(source, "cli.py")) == sorted([setattr_call, graph, corpus, columns])
    assert sorted(construction_faults(source, "rectify.py")) == sorted([setattr_call, graph, corpus, columns])
    assert construction_faults(source, "graphs.py") == [setattr_call]


def test_graphs_are_built_only_in_graphs_py():
    found = {
        path.name: calls
        for path in sorted(SRC.glob("*.py"))
        if (calls := construction_faults(path.read_text(encoding="utf-8"), path.name))
    }
    assert found == {}, "build graphs and columns in graphs.py, and set only self's fields"


# -- only the builder reads and writes its state -------------------------------


def builder_state(source: str) -> set[str]:
    """The attributes that `_GraphBuilder.__init__` sets on self."""
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ClassDef) and node.name == "_GraphBuilder":
            init = next(f for f in node.body if isinstance(f, ast.FunctionDef) and f.name == "__init__")
            return {
                t.attr for t in ast.walk(init)
                if isinstance(t, ast.Attribute) and isinstance(t.ctx, ast.Store) and getattr(t.value, "id", None) == "self"
            }
    return set()


def builder_state_uses(source: str, state: set[str]) -> list[str]:
    """Outside class _GraphBuilder, the reads and writes of an attribute in
    `state` through a name bound to `_GraphBuilder(...)`, as source text."""
    def outside(node):
        if not (isinstance(node, ast.ClassDef) and node.name == "_GraphBuilder"):
            yield node
            for child in ast.iter_child_nodes(node):
                yield from outside(child)

    nodes = list(outside(ast.parse(source)))
    builders = {
        target.id
        for node in nodes
        if isinstance(node, (ast.Assign, ast.AnnAssign, ast.NamedExpr))
        and isinstance(node.value, ast.Call)
        and getattr(node.value.func, "id", getattr(node.value.func, "attr", None)) == "_GraphBuilder"
        for target in (node.targets if isinstance(node, ast.Assign) else [node.target])
        if isinstance(target, ast.Name)
    }
    return [
        ast.get_source_segment(source, node)
        for node in nodes
        if isinstance(node, ast.Attribute) and node.attr in state and getattr(node.value, "id", None) in builders
    ]


def test_the_scan_sees_builder_state_uses():
    source = (
        "class _GraphBuilder:\n"
        "    def __init__(self, tokens):\n"
        "        self.tokens = tokens\n"
        "        self.index: dict = {}\n"
        "    def entity(self, ent_id):\n"
        "        self.index[ent_id] = len(self.index)\n"
        "def load(doc):\n"
        "    builder = _GraphBuilder(doc)\n"
        "    n = len(builder.tokens)\n"
        "    builder.index['e'] = n\n"
        "    b: object = graphs._GraphBuilder(doc)\n"
        "    b.tokens = ()\n"
        # a method, another name's attribute and the class's own code are no state uses
        "    builder.entity('e')\n"
        "    other.index = {}\n"
        "    return builder.graph()\n"
    )
    state = builder_state(source)
    assert state == {"tokens", "index"}
    assert builder_state_uses(source, state) == ["builder.tokens", "builder.index", "b.tokens"]


def test_only_the_builder_reads_and_writes_its_state():
    state = builder_state((SRC / "graphs.py").read_text(encoding="utf-8"))
    assert {"index", "spans", "entities", "types", "relation_keys", "head", "confidence"} <= state
    found = {
        path.name: uses
        for path in sorted(SRC.glob("*.py"))
        if (uses := builder_state_uses(path.read_text(encoding="utf-8"), state))
    }
    assert found == {}, "hand each element to the _GraphBuilder method that checks it"


# -- files are opened only by the readers ------------------------------------

# (module, function, callee): read_text's raw descriptor, write_text's
# text-mode file, and the embedding file, read a line at a time
ALLOWED_OPENS = {
    ("readers.py", "read_text", "os.open"),
    ("readers.py", "write_text", "open"),
    ("encoder.py", "load_embedding_file", "open"),
}


def open_calls(source: str) -> list[tuple[str, str]]:
    """(enclosing function, callee as source text) per call of a name or
    attribute `open`: open, os.open, io.open, path.open and the like."""
    found = []

    class Visitor(ast.NodeVisitor):
        def __init__(self):
            self.functions = ["<module>"]

        def visit_FunctionDef(self, node):
            self.functions.append(node.name)
            self.generic_visit(node)
            self.functions.pop()

        visit_AsyncFunctionDef = visit_FunctionDef

        def visit_Call(self, node):
            func = node.func
            if getattr(func, "id", None) == "open" or getattr(func, "attr", None) == "open":
                found.append((self.functions[-1], ast.get_source_segment(source, func)))
            self.generic_visit(node)

    Visitor().visit(ast.parse(source))
    return found


def test_the_scan_sees_open_calls():
    source = (
        "def read_text(path):\n    with open(path, encoding='utf-8') as fh:\n        return fh.read()\n\n"
        "def f(p):\n    fd = os.open(p, os.O_RDONLY)\n    return io.open(p), Path(p).open()\n\n"
        # a read through an open file, and a name that merely holds "open", open nothing
        "def g(fh):\n    return fh.read(), is_open(fh), fh.opened\n"
    )
    assert open_calls(source) == [("read_text", "open"), ("f", "os.open"), ("f", "io.open"), ("f", "Path(p).open")]


def test_files_are_opened_only_by_the_readers():
    found = {
        (path.name, function, callee)
        for path in sorted(SRC.glob("*.py"))
        for function, callee in open_calls(path.read_text(encoding="utf-8"))
    }
    assert found - ALLOWED_OPENS == set(), "read a file through readers.read_text and write one through write_text"
    assert found == ALLOWED_OPENS  # a stale allowlist entry hides nothing but should go
