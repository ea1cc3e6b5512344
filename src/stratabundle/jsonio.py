"""Canonical JSON interchange for every document kind.

Serialization is canonical: sorted keys, two-space indent, a trailing
newline, UTF-8.  Reading a document and writing it back reproduces the
bytes, which keeps golden files and manifest hashes stable.  Writers are
atomic (write to a sibling temp file, then rename).

The bytes are those of ``json.dumps(doc, sort_keys=True, indent=2,
ensure_ascii=False)`` plus a newline, but the writer here does not call it:
with an indent, ``json`` never uses its C encoder and spends a generator
step on every token.  The one encoder is ``canon_chunks``, which yields
the text of a document in pieces of about a block of rows or ``_FLUSH``
characters at most, never one per leaf.  ``write_doc`` streams the pieces
to its temp file and the CLI streams them to stdout, so a command holds
its document's objects and one piece of text, not the whole text on top;
``canon_dumps`` joins them for the callers that need a string.  Small
containers are written whole by ``_encode``; strings are escaped with the
C-backed ``json.encoder.encode_basestring``.

The writer writes documents, not any JSON: tables by their row templates,
and otherwise dicts with string keys, lists, tuples, strings, ints, bools
and ``None``.  Anything else (a float, a key that is no string, a plain
value of a subclass such as an ``IntEnum``) raises ``TypeError``; a ``str``
subclass used as a key or a table leaf is written as its text.

Every engine table is built by this module as one of two private markers:
``_Rows``, a list, or ``_RowsByKey``, a dict from string keys, each with a
``shape`` for its rows and a ``shared`` flag.  A shape is the kind of rows
that are one member each (``str``, ``[str]`` or ``{str: str}``), a row
width, a tuple of widths for rows of flat rows, or a dict from each key of
a dict row to its member's kind (``str``, ``int``, ``[str]``, ``[int]`` or
``{str: str}``).  ``_row_chunks``, the one table writer, writes a table
from ``%``-formats of its rows, one piece per block of rows with the leaves
escaped in one pass; no generator step or join per row.  A row's format
depends on its indent and on its signature, the lengths of its variable
members and the integers it holds, which the format spells out; each
distinct signature's format is made once per table written.  A row that
does not fit the shape (another type, length or key set, a member of
another type, a ``bool`` where an integer is due) raises ``TypeError``
before its table is written.  Any other container, such as a document's
top level, a report or a manifest, is streamed by ``_member_chunks``: each
member that holds a container or is large on its own, the rest gathered
into pieces.

A diagram document holds the same tables at many places: every component
carries the one structure category, and the ``actions`` block repeats each
(g, W) table under every cell with fibre object W.  ``diagram_to_doc``
builds each such table once, ``shared``, and puts that one object at every
place it occurs.  The markers subclass ``list`` and ``dict``, so
``json.dumps`` and ``==`` still see a plain tree; the writer encodes a
shared table at most once per indent and yields the cached text as one
piece.  A table written once caches nothing: keeping its text would hold a
second copy of it until the write ends.  Invariant: a marked table is not
mutated after it is built, or a cached text or a format would go stale;
only this module builds markers, and the documents it returns are
written, not edited.

The read side mirrors this for a diagram.  ``read_diagram`` reads the
text once and walks, in Python, only the objects on the paths to what the
writer shares: top, ``components``, each component, its ``category``; and
top, ``actions``, each morphism.  Every other value, each core member and
each action table is parsed whole by ``json``'s C scanner.  A core member
whose text is byte-identical to the same member of an earlier component,
and a table whose text is that of an earlier table of the same morphism,
is not parsed again: the earlier object is put there.  Only containers are
matched this way, since a container's text ends itself and a number's does
not (``12`` begins ``123``).  Text of any other shape, and any syntax
error, goes to ``json.loads`` whole, which gives the same document or the
same error as ``read_doc``.  ``diagram_from_doc`` then builds one category
for every component whose core is the first component's (an identity test
on a shared core) and converts each parsed table once, so ``d.actions``
shares its tables as ``principal_diagram`` builds them.  On a diagram of
``perm_category(5)`` (10.6 MB) the scanner parses 2.5 MB of the text.  The
shared tree, ``read_shared`` (that of ``json.loads`` for other kinds), is
read by ``read_diagram`` and ``validate``, which edit nothing.  ``read_doc``
returns a plain tree, since its callers edit documents, and an edit of a
shared core would reach every component.

The readers give each id one string object (``_own_strings``): a
complex's faces and a bundle's transitions and fibres name each cell by
the cell's own id string, and a category's ``compose`` table and
``identities`` name each morphism by the morphism's own id string.  A
lookup by the key's own string compares identity, not characters.  They
check each column of a large table in C-level passes and build a refusal's
message only for the value refused.
"""
from __future__ import annotations

import hashlib
import json
import os
from contextlib import contextmanager
from functools import partial
from itertools import chain
from operator import itemgetter
from pathlib import Path

from . import cellbase, fincat
from .cellbase import BaseComplex, Cell, SimplicialMap, Stratification
from .fincat import CatFunctor, FibreFunctor, FiniteCategory
from .funcspace import DiagramBundle, ReconstructResult
from .strabundle import StratBundle, TotalComplex
from .triviality import CoveringCertificate, TrivializeResult, TrivialityCertificate
from .validation import DocumentError


_encode_str = json.encoder.encode_basestring
_int_repr = int.__repr__
_flatten = chain.from_iterable
_BLOCK = 1024  # rows per %-format: enough to amortise the call, few enough to hold no large copy
_FLUSH = 1 << 20  # characters: about the most text a streamed container gathers into one piece
_SMALL = 64  # members: fewer in a flat container or a table's row, and it is written whole
_SCALARS = {str, int, bool, type(None)}


class _Rows(list):
    """A table of rows of one shape; see the module docstring.

    ``shape`` is the kind of rows that are one member each (``str``,
    ``[str]`` or ``{str: str}``), a width k for rows ``[s1, ..., sk]``, a
    tuple of widths for rows of flat rows, such as ``(2, 2)`` for ``[[a, b],
    [c, d]]``, or a dict from each key of rows ``{key: member, ...}``, built
    in sorted key order, to the kind of that member: ``str``, ``int``,
    ``[str]``, ``[int]`` or ``{str: str}``, at least one of them a kind
    of string leaves.  Widths and shapes are not empty.  A ``shared``
    table caches its text per indent.
    """

    __slots__ = ("shape", "encoded")

    def __init__(self, rows, shape, shared=False):
        super().__init__(rows)
        self.shape = shape
        self.encoded: dict[str, str] | None = {} if shared else None  # newline-and-indent -> text


class _RowsByKey(dict):
    """A dict from string keys to rows of a ``shape``, as in ``_Rows``, but never a tuple of widths."""

    __slots__ = ("shape", "encoded")

    def __init__(self, items, shape, shared=False):
        super().__init__(items)
        self.shape = shape
        self.encoded: dict[str, str] | None = {} if shared else None


def canon_chunks(doc):
    """The text of ``canon_dumps(doc)`` as pieces, in order; see the module docstring."""
    yield from _value_chunks(doc, "\n")
    yield "\n"


def canon_dumps(doc) -> str:
    """``json.dumps(doc, sort_keys=True, indent=2, ensure_ascii=False)`` and a newline.

    ``doc`` holds tables and the plain values of the module docstring;
    anything else, and a table row that does not fit its shape, raises
    ``TypeError``.  Documents are trees, so a circular reference is not
    detected.
    """
    return "".join(canon_chunks(doc))


def _value_chunks(o, nl: str):
    """``_encode(o, nl)`` as pieces: containers and unshared tables streamed, the rest whole."""
    t = type(o)
    if t is dict or t is list or t is tuple:
        return _member_chunks(o, nl)
    if (t is _Rows or t is _RowsByKey) and o.encoded is None:
        return _row_chunks(o, nl)
    return (_encode(o, nl),)


def _streams(v) -> bool:
    """True when the member ``v`` of a streamed container is streamed itself.

    Tables stream, and so do plain containers that hold a container or
    ``_SMALL`` members or more; flat small containers and scalars are
    written whole.
    """
    t = type(v)
    if t is dict or t is list or t is tuple:
        return len(v) >= _SMALL or not set(map(type, v.values() if t is dict else v)) <= _SCALARS
    return t is _Rows or t is _RowsByKey


def _member_chunks(o, nl: str):
    """The pieces of a dict, list or tuple that is no table.

    Each member that ``_streams`` is streamed on its own, and the text of
    the others is gathered and flushed at ``_FLUSH`` characters.
    """
    if not o:
        yield "{}" if type(o) is dict else "[]"
        return
    inner = nl + "  "
    sep = "," + inner
    if type(o) is dict:
        items = sorted(o.items())  # the keys are distinct strings
        heads = [_encode_str(k) + ": " for k, _ in items]
        values = [v for _, v in items]
        text, closing = "{" + inner, nl + "}"
    else:
        heads, values, text, closing = None, o, "[" + inner, nl + "]"
    for i, v in enumerate(values):
        if i:
            text += sep
        if heads is not None:
            text += heads[i]
        if _streams(v):
            yield text
            yield from _value_chunks(v, inner)
            text = ""
        else:
            text += _encode_str(v) if type(v) is str else _encode(v, inner)
            if len(text) >= _FLUSH:
                yield text
                text = ""
    yield text + closing


def _encode(o, nl: str) -> str:
    """One value, whole; ``nl`` is a newline and the indent of the line it starts on."""
    t = type(o)
    if t is str:
        return _encode_str(o)
    if t is dict:
        return _encode_dict(o, nl)
    if t is list or t is tuple:
        return _encode_list(o, nl)
    if t is int:
        return _int_repr(o)
    if o is None or t is bool:
        return "null" if o is None else "true" if o else "false"
    if t is _Rows or t is _RowsByKey:  # shared: _value_chunks streams the others
        text = o.encoded.get(nl)
        if text is None:
            text = o.encoded[nl] = "".join(_row_chunks(o, nl))
        return text
    raise TypeError(f"Object of type {t.__name__} is not JSON serializable")


def _join(opening: str, parts: list[str], sep: str, closing: str) -> str:
    """``opening + sep.join(parts) + closing`` for non-empty ``parts``, copying the body once.

    The body is a container written whole or one block of a table; wrapping
    the joined body would copy it a second time.
    """
    parts[0] = opening + parts[0]
    parts[-1] += closing
    return sep.join(parts)


def _container(parts: list[str], nl: str, brackets: str = "[]") -> str:
    """A list, or with ``brackets`` ``{}`` a dict, of the member texts or formats ``parts``.

    ``nl`` is a newline and the indent of the line the container starts on.
    """
    if not parts:
        return brackets
    inner = nl + "  "
    return _join(brackets[0] + inner, parts, "," + inner, nl + brackets[1])


def _encode_list(lst, nl: str) -> str:
    inner = nl + "  "
    return _container([_encode_str(v) if type(v) is str else _encode(v, inner) for v in lst], nl)


def _encode_dict(dct, nl: str) -> str:
    inner = nl + "  "
    parts = [
        _encode_str(k) + ": " + (_encode_str(v) if type(v) is str else _encode(v, inner))
        for k, v in sorted(dct.items())
    ]
    return _container(parts, nl, "{}")


def _row_chunks(rows, nl: str):
    """A table from its row templates, one piece per block of whole rows.

    The first block holds ``_SMALL`` rows, and each later one is sized
    from the blocks before to about ``_FLUSH`` characters and at most
    ``_BLOCK`` rows.  A row that does not fit the table's shape raises
    ``TypeError`` before the first piece, and a leaf or key that is no
    string raises it in the piece that holds it.
    """
    if not rows:
        yield "[]" if type(rows) is _Rows else "{}"
        return
    keys, values = None, rows
    if type(rows) is _RowsByKey:
        keys = sorted(rows)  # json sorts the items; the keys are distinct
        values = list(map(rows.__getitem__, keys))
    signatures, leaves, template = _row_plan(rows.shape, values)
    inner = nl + "  "
    sep = "," + inner
    head = "" if keys is None else "%s: "
    forms = {}  # signature -> row template, made on its first row
    row = head + template((), inner) if signatures is None else None
    text = ("[" if keys is None else "{") + inner
    start, step = 0, _SMALL
    while start < len(values):
        stop = start + step
        part = values[start:stop]
        if signatures is None:  # one row format
            form = sep.join([row] * len(part))
        else:
            sigs = list(signatures(part))
            for sig in set(sigs).difference(forms):
                forms[sig] = head + template(sig, inner)
            form = sep.join(map(forms.__getitem__, sigs))
        if keys is None:
            flat = _flatten(leaves(part))
        else:
            flat = _flatten(map(chain, zip(keys[start:stop]), leaves(part)))
        body = form % tuple(map(_encode_str, flat))
        yield text + body
        text = sep
        step = min(_BLOCK, 2 * step, step * _FLUSH // len(body)) or 1
        start = stop
    yield nl + ("]" if keys is None else "}")


def _row_plan(shape, rows):
    """How to write the non-empty ``rows`` by template; ``TypeError`` if a row does not fit ``shape``.

    Returns ``(signatures, leaves, template)``.  ``leaves(part)`` gives one
    iterable per row (per member for a tuple shape, which no ``_RowsByKey``
    has) that chains to the string leaves in template order; they are typed
    as they are escaped, since ``encode_basestring`` refuses anything but a
    string.  ``template(sig, nl)`` is the ``%``-format of a row with
    signature ``sig`` that starts on the line ``nl``.  ``signatures(part)``
    gives each row's signature: the lengths of its ``[str]`` and ``{str:
    str}`` members and the values of its ``int`` and ``[int]`` members,
    which the template spells out; None when every row's is ``()``.
    """
    if shape in (str, [str], {str: str}):  # rows that are one member each
        if shape is not str and set(map(type, rows)) != {type(shape)}:
            raise _misfit(shape)
        signatures = None if shape is str else partial(_signature_column, shape)
        return signatures, partial(_leaf_column, shape), partial(_member_template, shape)
    if type(shape) is int:
        if set(map(type, rows)) != {list} or set(map(len, rows)) != {shape}:
            raise _misfit(shape)
        return None, iter, lambda sig, nl: _container(["%s"] * shape, nl)
    if type(shape) is tuple:
        n = len(shape)
        if set(map(type, rows)) != {list} or set(map(len, rows)) != {n}:
            raise _misfit(shape)
        members = list(_flatten(rows))
        if set(map(type, members)) != {list} or any(
            set(map(len, members[j::n])) != {k} for j, k in enumerate(shape)
        ):
            raise _misfit(shape)
        return None, _flatten, lambda sig, nl: _container(
            [_container(["%s"] * k, nl + "  ") for k in shape], nl
        )
    kinds = sorted(shape.items())
    if set(map(type, rows)) != {dict} or set(map(tuple, rows)) != {tuple(k for k, _ in kinds)}:
        raise _misfit(shape)
    for key, kind in kinds:
        if kind is not str:
            column = list(map(itemgetter(key), rows))
            types = set(map(type, column))
            if kind is int:
                fits = types == {int}  # not bool, which json spells otherwise
            elif kind == [int]:
                fits = types == {list} and set(map(type, _flatten(column))) <= {int}
            else:
                fits = types == {type(kind)}
            if not fits:
                raise _misfit(shape)
    spelled = [(itemgetter(k), kind) for k, kind in kinds if kind is not str]
    slotted = [(itemgetter(k), kind) for k, kind in kinds if kind is not int and kind != [int]]
    if not spelled:
        return None, partial(map, dict.values), lambda sig, nl: _dict_row_template(kinds, sig, nl)

    def signatures(part):
        return zip(*[_signature_column(kind, map(get, part)) for get, kind in spelled])

    def leaves(part):
        return map(chain, *[_leaf_column(kind, map(get, part)) for get, kind in slotted])

    return signatures, leaves, lambda sig, nl: _dict_row_template(kinds, sig, nl)


def _misfit(shape) -> TypeError:
    """The error for a row that does not fit ``shape``, spelled as in ``_Rows``."""
    spelled = repr(shape).replace("<class '", "").replace("'>", "")
    return TypeError(f"a row does not fit the table shape {spelled}")


def _signature_column(kind, column):
    """Each member's part of its row's signature, for a member of ``kind`` other than ``str``."""
    if kind is int:
        return column
    if kind == [int]:
        return map(tuple, column)
    return map(len, column)


def _leaf_column(kind, column):
    """Each member's leaves in template order, for members of kind ``str``, ``[str]``, ``{str: str}``."""
    if kind is str:
        return zip(column)
    if kind == [str]:
        return column
    return map(_flatten, map(sorted, map(dict.items, column)))  # json writes the items sorted


def _member_template(kind, sig, nl: str) -> str:
    """The ``%``-format of a member of ``kind`` and signature ``sig`` starting on the line ``nl``."""
    if kind is str:
        return "%s"
    if kind is int:
        return _int_repr(sig)
    if kind == [int]:
        return _container(list(map(_int_repr, sig)), nl)
    if kind == [str]:
        return _container(["%s"] * sig, nl)
    return _container(["%s: %s"] * sig, nl, "{}")


def _dict_row_template(kinds, sig, nl: str) -> str:
    """The ``%``-format of a row of the sorted ``kinds`` with signature ``sig``; see ``_row_plan``."""
    inner = nl + "  "
    spelled = iter(sig)
    slots = [
        _encode_str(key).replace("%", "%%")
        + ": "
        + _member_template(kind, None if kind is str else next(spelled), inner)
        for key, kind in kinds
    ]
    return _container(slots, nl, "{}")


def write_doc(path, doc) -> None:
    """The document ``doc`` at ``path``, written by ``write_atomic``."""
    write_atomic(path, canon_chunks(doc))


def write_atomic(path, pieces) -> None:
    """Stream the text ``pieces`` to a sibling temp file, then rename it over ``path``.

    The one writer of files: if making a piece or writing fails, the temp
    file is removed and ``path`` keeps the bytes it had.
    """
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    try:
        with open(tmp, "w", encoding="utf-8") as f:
            f.writelines(pieces)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _read_text(path) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise DocumentError(f"cannot read {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise DocumentError(f"{path} is not UTF-8 text: {exc}") from exc


def _loads(path, text: str) -> dict:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise DocumentError(f"{path} is not valid JSON: {exc}") from exc
    except RecursionError as exc:
        raise DocumentError(f"{path} nests its values too deeply to be read") from exc
    if not isinstance(doc, dict):
        raise DocumentError(f"{path}: top level must be an object")
    return doc


def read_doc(path) -> dict:
    """The document at ``path`` as a plain tree, every container its own object; callers may edit it."""
    return _loads(path, _read_text(path))


def read_diagram(path) -> tuple[DiagramBundle, dict]:
    """The diagram at ``path``, read by ``read_shared``, and its first component's category doc."""
    doc = read_shared(path)
    return diagram_from_doc(doc), next(iter(doc["components"].values()))["category"]


def read_shared(path) -> dict:
    """``read_doc``'s tree, a diagram's recurring containers shared; read-only, text freed on return."""
    text = _read_text(path)
    try:
        return _diagram_tree(text)
    except (ValueError, IndexError, StopIteration, RecursionError):
        return _loads(path, text)


_scan = json.decoder.JSONDecoder().scan_once  # json.loads's own scanner, C-backed
_scanstring = json.decoder.scanstring
_skip = json.decoder.WHITESPACE.match


def _diagram_tree(text: str) -> dict:
    """``json.loads(text)`` for a diagram, with each repeated core member and table parsed once.

    Walks top -> ``components`` -> each component -> ``category``, and top
    -> ``actions`` -> each morphism; every other value is parsed whole by
    ``_scan``.  A category core member is reused from an earlier component
    and an action table from an earlier cell of the same morphism when its
    text recurs (``_recurring``).  Raises ``ValueError``, ``IndexError`` or
    ``StopIteration`` where the text is not an object of objects along
    those paths, or not JSON.
    """
    cores = {k: [] for k in _CATEGORY_CORE}
    tables: dict[str, list] = {}

    def category(key, idx):
        return _recurring(cores[key], text, idx) if key in cores else _scan(text, idx)

    def component(key, idx):
        return _object_at(text, idx, category) if key == "category" else _scan(text, idx)

    def per_cell(m):
        seen = tables.setdefault(m, [])
        return lambda c, idx: _recurring(seen, text, idx)

    def top(key, idx):
        if key == "components":
            return _object_at(text, idx, lambda v, i: _object_at(text, i, component))
        if key == "actions":
            return _object_at(text, idx, lambda m, i: _object_at(text, i, per_cell(m)))
        return _scan(text, idx)

    doc, end = _object_at(text, _skip(text, 0).end(), top)
    if _skip(text, end).end() != len(text):
        raise ValueError(f"text after the document at {end}")
    return doc


def _object_at(text: str, idx: int, member):
    """The object that starts at ``text[idx]`` and the index after it.

    ``member(key, i)`` parses the value of ``key`` that starts at ``i`` and
    returns it with the index after it.  Keys are read by ``scanstring`` and
    whitespace skipped as ``json`` skips it, so the object is the one
    ``json.loads`` gives, a repeated key keeping its first place and last value.
    """
    if text[idx] != "{":
        raise ValueError(f"no object at {idx}")
    obj = {}
    idx = _skip(text, idx + 1).end()
    if text[idx] == "}":
        return obj, idx + 1
    while text[idx] == '"':
        key, idx = _scanstring(text, idx + 1)
        idx = _skip(text, idx).end()
        if text[idx] != ":":
            break
        obj[key], idx = member(key, _skip(text, idx + 1).end())
        idx = _skip(text, idx).end()
        if text[idx] == "}":
            return obj, idx + 1
        if text[idx] != ",":
            break
        idx = _skip(text, idx + 1).end()
    raise ValueError(f"no member of an object at {idx}")


def _recurring(seen: list, text: str, idx: int):
    """The value at ``text[idx]`` and the index after it, reusing a container of ``seen``.

    ``seen`` holds ``(text, value)`` for the containers parsed before at
    the same place.  A container's text ends itself, so where one of those
    texts starts at ``idx`` the value there is that value; a scalar's does
    not (``12`` begins ``123``), so only containers are kept.
    """
    for span, value in seen:
        if text.startswith(span, idx):
            return value, idx + len(span)
    value, end = _scan(text, idx)
    if text[idx] in "[{":
        seen.append((text[idx:end], value))
    return value, end


def _need(doc: dict, keys, kind: str) -> None:
    _object(doc, f"{kind} document")
    missing = [k for k in keys if k not in doc]
    if missing:
        raise DocumentError(f"{kind} document is missing keys {missing}")


def _object(value, what: str) -> dict:
    """A JSON object; lists, strings and numbers are refused rather than coerced."""
    if not isinstance(value, dict):
        raise DocumentError(f"{what} must be an object, not {value!r}")
    return value


def _integer(value, what: str) -> int:
    """A JSON integer; floats, bools and strings are refused rather than coerced."""
    if type(value) is not int:
        raise DocumentError(f"{what} must be an integer, not {value!r}")
    return value


def _string(value, what: str) -> str:
    """A JSON string; numbers, bools and nulls are refused, since ids are compared and sorted."""
    if type(value) is not str:
        raise DocumentError(f"{what} must be a string, not {value!r}")
    return value


def _strings(values, what: str) -> None:
    """``_string`` on every value, in one C-level pass when all of them are strings."""
    if not set(map(type, values)) <= {str}:
        for value in values:
            _string(value, what)


def _refuse_repeats(keys, table: str, name=repr) -> None:
    """Refuse the first key that ``keys`` lists twice.

    A table read into a dict keeps only the last row of a repeated key, so
    each reader calls this only once its dict came out shorter than its rows.
    """
    seen = set()
    for key in keys:
        if key in seen:
            raise DocumentError(f"{table} lists {name(key)} more than once")
        seen.add(key)


def _list(value, what: str) -> list:
    """A JSON list; strings are refused like every other non-list, since
    read where a list of ids is due, a string gives its characters one by one."""
    if not isinstance(value, list):
        raise DocumentError(f"{what} must be a list, not {value!r}")
    return value


@contextmanager
def _malformed(kind: str, *errors):
    """Re-raise ``errors`` met in the block, but a ``DocumentError``, as a malformed ``kind`` document."""
    try:
        yield
    except DocumentError:
        raise
    except errors as exc:
        raise DocumentError(f"malformed {kind} document: {exc!r}") from exc


_CATEGORY_CORE = ("objects", "morphisms", "compose", "identities")


def _category_core(cat: FiniteCategory, shared: bool = False) -> dict:
    """``shared`` marks every member for a diagram, which repeats the core in each component."""
    compose = _Rows(([g, f, gf] for (g, f), gf in cat.compose_table.items()), 3, shared)
    compose.sort()
    return {
        "objects": _Rows(sorted(cat.objects), str, shared),
        "morphisms": _Rows(
            (
                {"id": m.id, "src": m.src, "tgt": m.tgt}
                for m in sorted(cat.morphisms.values(), key=lambda m: m.id)
            ),
            {"id": str, "src": str, "tgt": str},
            shared,
        ),
        "compose": compose,
        "identities": _RowsByKey(cat.identities, str, shared),
    }


def category_to_doc(cat: FiniteCategory, ff: FibreFunctor, core: dict | None = None) -> dict:
    """``core``, when given, is the ``_category_core`` of ``cat``, built once by the caller."""
    return {
        **(core or _category_core(cat)),
        "fibres": _RowsByKey(((v, list(ff.on_objects[v])) for v in cat.objects), [str]),
        "actions": _RowsByKey(((m, dict(t)) for m, t in ff.on_morphisms.items()), {str: str}),
    }


def category_from_doc(doc: dict, known=None) -> tuple[FiniteCategory, FibreFunctor]:
    """The category and fibre functor of a category document.

    ``known`` is an earlier ``(document, category)`` pair: when this
    document's category core equals that document's, its category object
    is reused instead of built again, so the laws it keeps
    (``FiniteCategory.laws``) are decided once for both; a diagram's later
    components and each command's second category document are read so.
    Fibres and actions are read and checked either way.  A morphism id or
    a ``compose`` pair listed twice is refused, since a table keyed by them
    would keep only its last row.
    """
    _need(doc, [*_CATEGORY_CORE, "fibres", "actions"], "category")
    fibres = _object(doc["fibres"], "category fibres")
    actions = _object(doc["actions"], "category actions")
    with _malformed("category", KeyError, TypeError, ValueError):
        for v, elements in fibres.items():
            _strings(_list(elements, f"fibre of {v!r}"), "fibre element")
        for m, table in actions.items():
            _strings(_object(table, f"action table of {m!r}").values(), "fibre element")
        # read_diagram gives every component the one parsed core where its text recurs
        if known is not None and all(
            doc[k] is known[0][k] or doc[k] == known[0][k] for k in _CATEGORY_CORE
        ):
            cat = known[1]
        else:
            _strings(_list(doc["objects"], "category objects"), "category object")
            rows = _list(doc["compose"], "category compose")
            if set(map(type, rows)) - {list}:  # one C-level pass; then find the culprit
                for row in rows:
                    _list(row, "compose entry")
            _strings(list(_flatten(rows)), "morphism in compose")
            identities = _object(doc["identities"], "category identities")
            _strings(identities.values(), "identity")
            morphisms = _list(doc["morphisms"], "category morphisms")
            for m in morphisms:
                _object(m, "morphism")
            morphisms = list(map(itemgetter("id", "src", "tgt"), morphisms))
            for field, column in zip(("id", "src", "tgt"), zip(*morphisms)):
                _strings(column, f"morphism {field}")
            own = _own_strings(mid for mid, _, _ in morphisms)
            if len(own) != len(morphisms):
                _refuse_repeats((mid for mid, _, _ in morphisms), "category morphisms")
            get = own.get
            # a list of another length raises; an unknown id keeps its own text
            compose = {(get(g, g), get(f, f)): get(gf, gf) for g, f, gf in rows}
            if len(compose) != len(rows):
                pairs = ((g, f) for g, f, _ in rows)
                _refuse_repeats(pairs, "category compose", "the pair (%s, %s)".__mod__)
            identities = {v: get(i, i) for v, i in identities.items()}
            cat = fincat.category(doc["objects"], morphisms, compose, identities)
        ff = fincat.fibre_functor(fibres, actions)
    return cat, ff


def complex_to_doc(b: BaseComplex, s: Stratification) -> dict:
    return {
        "cells": _Rows(
            (
                {"dim": c.dim, "faces": list(c.faces), "id": c.id, "stratum": s.strata[c.id]}
                for c in sorted(b.cells.values(), key=lambda c: c.id)
            ),
            {"dim": int, "faces": [str], "id": str, "stratum": int},
        )
    }


def _own_strings(keys) -> dict[str, str]:
    """Each key mapped to itself, to give equal ids read elsewhere the key's string.

    The JSON reader makes a new string for every occurrence of an id, and a
    lookup by an equal but distinct string compares the characters; by one
    string it compares identity.  On a complex of thousands of cells every
    transition and face lookup of a command pays that difference, and on a
    category of hundreds of morphisms every composition lookup of its laws,
    hom functors and coend.  So cell ids in faces and transitions, and
    morphism ids in ``compose`` and ``identities``, are the id strings of
    their cells and morphisms.
    """
    return {k: k for k in keys}


def complex_from_doc(doc: dict) -> tuple[BaseComplex, Stratification]:
    _need(doc, ["cells"], "complex")
    with _malformed("complex", KeyError, TypeError, ValueError):
        ids, dims, faces, strata = _cell_columns(doc["cells"])
        own = _own_strings(ids)
        if len(own) != len(ids):
            _refuse_repeats(ids, "complex cells")
        cells = {
            cid: Cell(cid, dim, tuple(sorted({own.get(f, f) for f in fs})))
            for cid, dim, fs in zip(ids, dims, faces)
        }
    return BaseComplex(cells), Stratification(dict(zip(ids, strata)))


_CELL_MEMBERS = itemgetter("id", "dim", "faces", "stratum")


def _cell_columns(entries) -> tuple:
    """The ids, dims, faces and strata of a complex's cells, every member checked.

    The columns are checked in C-level passes.  Only when one refuses a
    value, or a cell is no object with the four keys, are the cells walked
    in order to raise the first refusal with its message.
    """
    try:
        ids, dims, faces, strata = columns = tuple(zip(*map(_CELL_MEMBERS, entries))) or ((),) * 4
        fits = (
            set(map(type, ids)) <= {str}
            and set(map(type, dims)) | set(map(type, strata)) <= {int}
            and set(map(type, faces)) <= {list}
            and set(map(type, _flatten(faces))) <= {str}
        )
    except (KeyError, TypeError):  # a missing key or a cell that is no object: the walk meets it
        fits = False
    if not fits:
        for entry in entries:
            cid = _string(entry["id"], "cell id")
            _integer(entry["dim"], f"dim of cell {cid!r}")
            for f in set(_list(entry["faces"], f"faces of cell {cid!r}")):
                if type(f) is not str:
                    raise DocumentError(f"face {f!r} of cell {cid!r} must be a string")
            _integer(entry["stratum"], f"stratum of cell {cid!r}")
    return columns


def map_to_doc(m: SimplicialMap, src_strat: Stratification | None = None) -> dict:
    doc = {"vertex_map": _RowsByKey(m.vertex_map, str)}
    if src_strat is not None:
        doc["source"] = complex_to_doc(m.source, src_strat)
    return doc


def _vertex_map(doc: dict) -> dict:
    """The ``vertex_map`` of a map: an object from vertex ids to vertex ids."""
    vertex_map = _object(doc["vertex_map"], "vertex map")
    _strings(vertex_map, "vertex")
    _strings(vertex_map.values(), "vertex image")
    return vertex_map


def map_from_doc(doc: dict, target: BaseComplex) -> tuple[SimplicialMap, Stratification]:
    _need(doc, ["vertex_map", "source"], "simplicial-map")
    source, strat = complex_from_doc(doc["source"])
    vertex_map = _vertex_map(doc)
    with _malformed("map", KeyError, TypeError):
        smap = SimplicialMap.from_vertex_map(source, target, vertex_map)
    return smap, strat


def bundle_to_doc(x: StratBundle, core: dict | None = None) -> dict:
    """``core``, when given, is the ``_category_core`` of ``x.cat``, built once by the caller."""
    return {
        "base": complex_to_doc(x.base, x.strat),
        "category": category_to_doc(x.cat, x.ff, core),
        "fibres": _RowsByKey(x.fibre_obj, str),
        "transitions": _Rows(
            (
                {"cell": c, "face": f, "mor": m}
                for (f, c), m in sorted(x.transition.items(), key=lambda kv: (kv[0][1], kv[0][0]))
            ),
            {"cell": str, "face": str, "mor": str},
        ),
    }


_TRANSITION_MEMBERS = itemgetter("face", "cell", "mor")


def _transitions(rows, get) -> dict:
    """A bundle's transitions, keyed by (face, cell), every member checked.

    ``get`` gives a known cell id its cell's own string.  The members are
    checked in C-level passes over the built table.  Only when one refuses
    a value, or a row is no object with the three keys, are the rows walked
    in order to raise the first refusal with its message.
    """
    try:
        transition = {(get(f, f), get(c, c)): m for f, c, m in map(_TRANSITION_MEMBERS, rows)}
        fits = set(map(type, _flatten(transition))) | set(map(type, transition.values())) <= {str}
    except (KeyError, TypeError):  # a missing key, a row that is no object, a list id:
        fits = False  # the walk meets it
    if not fits:
        for row in rows:
            _string(row["face"], "transition face")
            _string(row["cell"], "transition cell")
            _string(row["mor"], "transition morphism")
    if len(transition) != len(rows):
        keys = map(itemgetter("face", "cell"), rows)
        _refuse_repeats(keys, "bundle transitions", "the face %r of cell %r".__mod__)
    return transition


def bundle_from_doc(doc: dict, known=None) -> StratBundle:
    """``known`` is passed on to ``category_from_doc``."""
    _need(doc, ["base", "category", "fibres", "transitions"], "bundle")
    base, strat = complex_from_doc(doc["base"])
    cat, ff = category_from_doc(doc["category"], known)
    ids = _own_strings(base.cells)
    with _malformed("bundle", KeyError, TypeError):
        transition = _transitions(doc["transitions"], ids.get)
    fibres = {ids.get(c, c): o for c, o in _object(doc["fibres"], "bundle fibres").items()}
    _strings(fibres.values(), "fibre object")
    return StratBundle(base, strat, cat, ff, fibres, transition)


def diagram_to_doc(d: DiagramBundle) -> dict:
    """The category core is built once and shared by every component with ``d.cat``,
    and each distinct action table is one shared object under all its cells."""
    core = _category_core(d.cat, shared=True)
    # principal_diagram puts one table object under every cell with the same
    # (g, W); the tables stay alive in d.actions, so their ids are stable here
    distinct = {id(t): t for per_cell in d.actions.values() for t in per_cell.values()}
    tables = {key: _RowsByKey(t, str, True) for key, t in distinct.items()}
    return {
        "components": {
            v: bundle_to_doc(b, core if b.cat is d.cat else None)
            for v, b in d.components.items()
        },
        "actions": {
            m: {c: tables[id(t)] for c, t in per_cell.items()} for m, per_cell in d.actions.items()
        },
    }


def diagram_from_doc(doc: dict) -> DiagramBundle:
    _need(doc, ["components", "actions"], "diagram")
    components = {}
    known = None  # the first component's category document and category
    for v, sub in _object(doc["components"], "diagram components").items():
        components[v] = b = bundle_from_doc(sub, known)
        if known is None:
            known = (sub["category"], b.cat)
    if not components:
        raise DocumentError("diagram document has no components")
    first = next(iter(components.values()))
    # a table that read_diagram parsed once for several cells is converted
    # once, so d.actions shares it as principal_diagram does
    tables: dict[int, dict] = {}
    actions = {}
    for m, per_cell in _object(doc["actions"], "diagram actions").items():
        actions[m] = row = {}
        for c, t in _object(per_cell, f"actions of {m!r}").items():
            table = tables.get(id(t))
            if table is None:
                table = tables[id(t)] = dict(_object(t, f"action table of {m!r} over {c!r}"))
            row[c] = table
    return DiagramBundle(
        first.cat,
        first.base,
        first.strat,
        dict(first.fibre_obj),
        dict(first.transition),
        components,
        actions,
    )


def functor_to_doc(phi: CatFunctor, gg: FibreFunctor) -> dict:
    return {
        "on_objects": _RowsByKey(phi.on_objects, str),
        "on_morphisms": _RowsByKey(phi.on_morphisms, str),
        "target": category_to_doc(phi.target, gg),
    }


def functor_from_doc(
    doc: dict, source: FiniteCategory, known=None
) -> tuple[CatFunctor, FibreFunctor]:
    """``known`` is passed on to ``category_from_doc`` for the target."""
    _need(doc, ["on_objects", "on_morphisms", "target"], "functor")
    target, gg = category_from_doc(doc["target"], known)
    on_objects = dict(_object(doc["on_objects"], "functor on_objects"))
    on_morphisms = dict(_object(doc["on_morphisms"], "functor on_morphisms"))
    _strings(on_objects.values(), "functor image")
    _strings(on_morphisms.values(), "functor image")
    phi = CatFunctor(source, target, on_objects, on_morphisms)
    return phi, gg


def attachment_from_doc(
    doc: dict, y: StratBundle, known=None
) -> tuple[StratBundle, frozenset, SimplicialMap, dict[str, str]]:
    """Attachment document: the piece bundle, its attached cells, base map and fibre morphisms.

    ``known`` is passed on to ``category_from_doc`` for the piece bundle."""
    _need(doc, ["bundle", "attached_cells", "map", "fibre_morphisms"], "attachment")
    m = bundle_from_doc(doc["bundle"], known)
    _strings(_list(doc["attached_cells"], "attached cells"), "attached cell")
    a_cells = frozenset(doc["attached_cells"])
    with _malformed("attachment", KeyError, TypeError):
        vertex_map = _vertex_map(_object(doc["map"], "attachment map"))
        smap = SimplicialMap.from_vertex_map(
            cellbase.subcomplex(m.base, a_cells), y.base, vertex_map
        )
    fibre_morphisms = _object(doc["fibre_morphisms"], "fibre morphisms")
    _strings(fibre_morphisms.values(), "fibre morphism")
    return m, a_cells, smap, fibre_morphisms


def strat_from_doc(doc: dict) -> Stratification:
    _need(doc, ["strata"], "stratification")
    with _malformed("stratification", TypeError, ValueError):
        return Stratification(
            {
                c: _integer(k, f"stratum of cell {c!r}")
                for c, k in _object(doc["strata"], "strata").items()
            }
        )


def total_to_doc(t: TotalComplex) -> dict:
    return {
        "elements": _Rows(map(list, t.elements), 2),
        "relations": _Rows([[[f, u], [c, v]] for (f, u), (c, v) in t.relations], (2, 2)),
    }


def trivialize_to_doc(res: TrivializeResult) -> dict:
    """The trivialization over a region, or the obstruction loop that refutes one."""
    if res.ok:
        t = res.trivialization
        return {
            "kind": "trivialization",
            "region": _Rows(t.region, str),
            "object": t.object,
            "charts": _RowsByKey(t.charts, str),
        }
    o = res.obstruction
    return {
        "kind": "obstruction",
        "loop": _Rows(o.loop, str),
        "holonomy": o.holonomy,
        "detail": o.detail,
    }


def iso_to_doc(res: ReconstructResult) -> dict:
    """The iso of a verified reconstruction: each cell's coend classes to fibre elements."""
    return {"cells": _RowsByKey(res.iso or {}, {str: str})}


def certificate_to_doc(cert: TrivialityCertificate) -> dict:
    """The atlas of a local triviality certificate: a chart set per closed star."""
    return {
        "kind": "triviality-certificate",
        "stars": _RowsByKey(
            (
                (c, {"charts": t.charts, "object": t.object, "region": list(t.region)})
                for c, t in cert.stars.items()
            ),
            {"charts": {str: str}, "object": str, "region": [str]},
        ),
    }


def covering_to_doc(cert: CoveringCertificate) -> dict:
    """A covering certificate with its monodromy and its total complex."""
    return {
        "kind": "covering-certificate",
        "components": cert.components,
        "sheets": dict(cert.sheets),
        "even_cover": cert.even_cover,
        "basepoint": cert.basepoint,
        "monodromy": _Rows(
            (
                {
                    "closes": list(e.closing_incidence),
                    "cycle_type": list(e.cycle_type),
                    "permutation": e.permutation,
                }
                for e in cert.monodromy
            ),
            {"closes": [str], "cycle_type": [int], "permutation": {str: str}},
        ),
        "total": total_to_doc(cert.total),
    }


def total_to_dot(t: TotalComplex) -> str:
    """Plain-text graph description of a total complex."""
    lines = ["graph total {"]
    for c, v in t.elements:
        lines.append(f'  "{c}:{v}";')
    for (fc, fv), (cc, cv) in t.relations:
        lines.append(f'  "{fc}:{fv}" -- "{cc}:{cv}";')
    lines.append("}")
    return "\n".join(lines) + "\n"


def detect_kind(doc: dict) -> str:
    if {"objects", "morphisms", "compose", "identities"} <= set(doc):
        return "category"
    if {"base", "category", "fibres", "transitions"} <= set(doc):
        return "bundle"
    if {"components", "actions"} <= set(doc):
        return "diagram"
    if "cells" in doc:
        return "complex"
    if "vertex_map" in doc and "fibre_morphisms" not in doc:
        return "map"
    if {"bundle", "attached_cells"} <= set(doc):
        return "attachment"
    if {"on_objects", "on_morphisms", "target"} <= set(doc):
        return "functor"
    if "strata" in doc:
        return "stratification"
    if "kind" in doc:
        return str(doc["kind"])
    if "suite" in doc:
        return "report"
    return "unknown"


def sha256_of(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def build_manifest(directory) -> dict:
    """Scan a workspace directory for documents, recording kinds and hashes."""
    directory = Path(directory)
    documents = {}
    for path in sorted(directory.glob("*.json")):
        if path.name == "manifest.json":
            continue
        try:
            doc = read_doc(path)
            kind = detect_kind(doc)
        except DocumentError:
            kind = "unreadable"
        documents[path.name] = {"kind": kind, "sha256": sha256_of(path)}
    return {"documents": documents}


def check_manifest(directory) -> list[str]:
    """Mismatches between a stored manifest and the directory contents."""
    directory = Path(directory)
    manifest = read_doc(directory / "manifest.json")
    _need(manifest, ["documents"], "manifest")
    problems = []
    current = build_manifest(directory)["documents"]
    for name, meta in manifest["documents"].items():
        if name not in current:
            problems.append(f"{name}: listed but missing")
        elif current[name]["sha256"] != meta.get("sha256"):
            problems.append(f"{name}: content hash changed")
        elif current[name]["kind"] != meta.get("kind"):
            problems.append(f"{name}: kind changed")
    for name in current:
        if name not in manifest["documents"]:
            problems.append(f"{name}: present but not listed")
    return problems
