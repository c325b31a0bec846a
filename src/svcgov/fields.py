"""The one strict reader behind every loader: ``Fields.get`` reads a key of
a JSON object as a kind (``number``, ``array(concept)``, another loader),
``Fields.build`` makes the object once every key was read without a problem,
and ``read`` raises a document's problems (missing, unknown or repeated keys,
wrong JSON types, refused values), each under its JSON path, as one error."""

from __future__ import annotations

import json
from collections import Counter
from collections.abc import Callable, Iterable, Mapping
from sys import float_info

from .errors import GovernanceError, ReportedError
from .ontology import ConceptId


class Malformed(GovernanceError):
    """Problems ``(path, how, detail)`` of one JSON value, ``how`` one of "value", "unknown", "refused"."""

    code = "malformed"

    def __init__(self, problems: list):
        self.problems = problems
        super().__init__("; ".join(render("value", *p) for p in problems))


def wrong(value: object, wanted: str) -> Malformed:
    return Malformed([((), "value", f"must be {wanted}, got {value!r:.80}")])


def render(doc: str, path: tuple, how: str, detail: str) -> str:
    """One problem as text; a problem inside a section names the section first."""
    steps = [f"[{s}]" if isinstance(s, int) else f".{s}" for s in path]
    inside = path if how == "unknown" else path[:-1]
    where, full = ("".join(steps[:n]).removeprefix(".") or doc for n in (len(inside), len(path)))
    if how == "unknown":
        text = f"unknown {where} keys: {detail}"
    else:
        at = f"{where} key {path[-1]!r}" if path and isinstance(path[-1], str) else full
        text = f"{at} {detail}" if how == "value" else f"{detail} (at {at})" if path else detail
    return f"{doc} section {path[0]!r}: {text}" if inside else text


def _raised(error: type, texts: list[str]) -> GovernanceError:
    return error(texts) if issubclass(error, ReportedError) else error("; ".join(texts))


def read(error: type, doc: str, loader: Callable, data: object):
    """``loader(data)``, its problems raised as one ``error`` of document ``doc``."""
    try:
        return loader(data)
    except Malformed as exc:
        raise _raised(error, [render(doc, *p) for p in exc.problems]) from None


def repeated(values: Iterable) -> list:
    """The values named more than once, sorted."""
    return sorted(value for value, count in Counter(values).items() if count > 1)


class Repeats(dict):
    """A decoded JSON object that names some key more than once: each key
    with its last value, as ``json.loads`` keeps it, and ``repeated``, the
    keys named again, which every reader of the object refuses."""

    def __init__(self, pairs: list):
        super().__init__(pairs)
        self.repeated = repeated(key for key, _ in pairs)


def _object(pairs: list) -> dict:
    data = dict(pairs)
    return data if len(data) == len(pairs) else Repeats(pairs)


def _repeats(value: object) -> list:
    """A problem for each key that the decoded object ``value`` repeats."""
    return [((key,), "value", "is named more than once") for key in value.repeated] if type(value) is Repeats else []


def decode(error: type, what: str, document: str) -> object:
    """``document`` decoded as JSON; text that is not JSON, or that nests
    too deeply to decode, raised as one ``error`` naming ``what``.  An object
    that repeats a key decodes as ``Repeats``, so that its reader refuses
    the key under its JSON path with the document's own error."""
    try:
        return json.loads(document, object_pairs_hook=_object)
    except (ValueError, RecursionError) as exc:
        raise _raised(error, [f"malformed {what}: {exc}"]) from exc


def _problems(steps) -> list:
    """Each ``(step, kind, value)`` read again (kinds are pure), its problems placed under its step."""
    problems: list = []
    for step, kind, value in steps:
        try:
            kind(value)
        except Malformed as exc:
            problems += [((step, *path), how, detail) for path, how, detail in exc.problems]
        except GovernanceError as exc:
            problems.append(((step,), "refused", str(exc)))
    return problems


class Fields:
    """One JSON object, read key by key."""

    def __init__(self, data: object):
        if type(data) is not dict and not isinstance(data, Mapping):
            raise wrong(data, "an object")
        self.data, self.seen, self.problems = data, set(), _repeats(data)

    def get(self, key: str, kind: Callable, default: object = ...):
        """The value under ``key`` read as ``kind``; ``default`` when absent, unless ``...`` (required)."""
        if key in self.data:
            self.seen.add(key)
            try:
                return kind(self.data[key])
            except GovernanceError:
                self.problems += _problems([(key, kind, self.data[key])])
        elif default is ...:
            self.refuse((key,), "is missing", "value")
        else:
            return default
        return None

    def refuse(self, path: tuple, detail: str, how: str = "refused") -> None:
        """Record a problem, such as a dangling reference, under ``path``."""
        self.problems.append((path, how, detail))

    def build(self, make: Callable, *args, **kwargs):
        """``make(*args, **kwargs)``, unless a key went unread or had a problem."""
        if len(self.seen) != len(self.data):
            self.refuse((), ", ".join(sorted(set(self.data) - self.seen)), "unknown")
        if self.problems:
            raise Malformed(self.problems)
        return make(*args, **kwargs)


def _plain(types: type, wanted: str, among: tuple | None = None) -> Callable:
    """The kind of a JSON value of ``types`` (a boolean is no integer), and ``among`` when given."""

    def read_plain(value: object):
        if isinstance(value, types) and (types is bool or not isinstance(value, bool)):
            if among is None or value in among:
                return value
        raise wrong(value, wanted)

    return read_plain


text, integer, boolean = _plain(str, "a string"), _plain(int, "an integer"), _plain(bool, "true or false")


def finite(value: object) -> int | float:
    """A number that a float can hold, as read: an integer stays an integer."""
    if isinstance(value, (int, float)) and not isinstance(value, bool) and abs(value) <= float_info.max:
        return value
    raise wrong(value, "a finite number")


def number(value: object) -> float:
    return float(finite(value))


def float_integer(value: object) -> int:
    """An integer that a float can hold."""
    if abs(integer(value)) <= float_info.max:
        return value
    raise wrong(value, "an integer that a float can hold")


def concept(value: object) -> ConceptId:
    try:
        return ConceptId.parse(value)
    except (AttributeError, ValueError):
        raise wrong(value, "a concept id '<prefix>:<Name>'") from None


def anything(value: object) -> object:
    """Any JSON value, as it is; one that holds an object repeating a key is refused."""
    if isinstance(value, Mapping):
        mapping(anything)(value)
    elif isinstance(value, list):
        array(anything)(value)
    return value


def one_of(*choices: str) -> Callable:
    return _plain(str, f"one of {', '.join(map(repr, choices))}", choices)


def first_of(wanted: str, *kinds: Callable) -> Callable:
    """A value that one of ``kinds`` reads, as the first of them that does."""

    def read_first(value: object):
        for kind in kinds:
            try:
                return kind(value)
            except GovernanceError:
                pass
        raise wrong(value, wanted)

    return read_first


def maybe(kind: Callable) -> Callable:
    return lambda value: None if value is None else kind(value)  # null reads as None


def array(kind: Callable, into: Callable = tuple) -> Callable:
    """An array, each item read as ``kind``, as ``into(items)``."""

    def read_array(value: object):
        if not isinstance(value, (list, tuple)):
            raise wrong(value, "an array")
        try:
            return into([kind(item) for item in value])
        except GovernanceError:
            raise Malformed(_problems((i, kind, item) for i, item in enumerate(value))) from None

    return read_array


def distinct(kind: Callable, at: str | int) -> Callable:
    """``kind``, an ``array`` kind, refusing each item whose id, the item's
    value at ``at``, repeats the id of an earlier item."""

    def read_distinct(value: object):
        items, first = kind(value), {}
        repeats = [(i, item[at]) for i, item in enumerate(value) if first.setdefault(item[at], i) != i]
        if repeats:
            raise Malformed([((i, at), "refused", f"repeats {k!r}, the id of entry {first[k]}") for i, k in repeats])
        return items

    return read_distinct


def mapping(kind: Callable, into: Callable = dict) -> Callable:
    """An object with free keys, each value read as ``kind``, as ``into(dict)``."""

    def read_mapping(value: object):
        if not isinstance(value, Mapping):
            raise wrong(value, "an object")
        try:
            items = into({key: kind(item) for key, item in value.items()})
        except GovernanceError:
            raise Malformed(_repeats(value) + _problems((key, kind, item) for key, item in value.items())) from None
        if type(value) is Repeats:
            raise Malformed(_repeats(value))
        return items

    return read_mapping


def row(*kinds: Callable, into: Callable = lambda *items: items) -> Callable:
    """A fixed-length array, item ``i`` read as ``kinds[i]``, as ``into(*items)``."""

    def read_row(value: object):
        if not isinstance(value, (list, tuple)) or len(value) != len(kinds):
            raise wrong(value, f"an array of {len(kinds)} items")
        try:
            return into(*[kind(item) for kind, item in zip(kinds, value)])
        except GovernanceError:
            raise Malformed(_problems(zip(range(len(kinds)), kinds, value))) from None

    return read_row


def keyed(kind: Callable, *keys: str) -> Callable:
    """An object of exactly ``keys``, each read as ``kind``, as a tuple in ``keys`` order."""

    def read_keyed(value: object) -> tuple:
        r = Fields(value)
        return r.build(tuple, [r.get(key, kind) for key in keys])

    return read_keyed


def sorted_items(items: Mapping) -> tuple:
    return tuple(sorted(items.items()))


concepts = array(concept, frozenset)
