"""Canonical serialization and content digests.

Everything that crosses a file boundary or feeds a digest goes through
``canonical_dumps``: sorted keys, minimal separators, no NaN/Inf.  Equal
values always produce byte-identical text, which is what trace
determinism and store round-trips lean on.
"""

from __future__ import annotations

import hashlib
import json
from json.encoder import encode_basestring_ascii
from typing import Any, Iterable


def canonical_dumps(data: Any) -> str:
    return json.dumps(
        data, sort_keys=True, separators=(",", ":"), allow_nan=False, ensure_ascii=True
    )


def canonical_object(members: Iterable[tuple[str, str]]) -> str:
    """Canonical text of a JSON object given as (string key, canonical text
    of its value) pairs: the bytes ``canonical_dumps`` writes for the same
    object, so a value's text can be computed once and reused.  A repeated
    key keeps its last value, as in a dict."""
    members = dict(members)
    # the quoting json applies to string keys under ensure_ascii
    return "{" + ",".join(f"{encode_basestring_ascii(k)}:{members[k]}" for k in sorted(members)) + "}"


def sha256_hex(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def digest_of(data: Any) -> str:
    """Digest of a canonically encoded value."""
    return sha256_hex(canonical_dumps(data))
