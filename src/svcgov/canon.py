"""Canonical serialization and content digests.

Everything that crosses a file boundary or feeds a digest goes through
``canonical_dumps``: sorted keys, minimal separators, no NaN/Inf.  Equal
values always produce byte-identical text, which is what trace
determinism and store round-trips lean on.
"""

from __future__ import annotations

import hashlib
from json.encoder import JSONEncoder, c_make_encoder, encode_basestring_ascii
from typing import Any, Iterable

#: The C encoder that ``json.dumps(data, sort_keys=True, separators=(",",
#: ":"), allow_nan=False, ensure_ascii=True)`` builds on every call, built
#: once: (markers, default, string encoder, indent, key separator, item
#: separator, sort_keys, skipkeys, allow_nan).  It keeps no state between
#: calls, since no circular-reference markers are kept: canonical data is a
#: tree, and a cyclic value ends in RecursionError rather than ValueError.
_ENCODE = c_make_encoder(None, JSONEncoder().default, encode_basestring_ascii, None, ":", ",", True, False, False)


def canonical_dumps(data: Any) -> str:
    return "".join(_ENCODE(data, 0))


#: Canonical text of a string, as ``canonical_dumps`` writes it: the string
#: encoder that ``_ENCODE`` calls, without the encoder around it.
canonical_string = encode_basestring_ascii


def canonical_object(members: Iterable[tuple[str, str]]) -> str:
    """Canonical text of a JSON object given as (string key, canonical text
    of its value) pairs: the bytes ``canonical_dumps`` writes for the same
    object, so a value's text can be computed once and reused.  A repeated
    key keeps its last value, as in a dict."""
    members = dict(members)
    # the quoting json applies to string keys under ensure_ascii
    return "{" + ",".join(f"{canonical_string(k)}:{members[k]}" for k in sorted(members)) + "}"


def sha256_hex(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def digest_of(data: Any) -> str:
    """Digest of a canonically encoded value."""
    return sha256_hex(canonical_dumps(data))
