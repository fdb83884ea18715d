"""The ``name:key=val,key=val`` grammar of the CLI's spec flags.

``--topology``, ``--faults`` and ``--shared-buffer`` all spell a spec
the same way; :func:`parse_spec` reads that spelling once for all
three, so a bad field is reported in the same words
whichever flag carried it.  Imports nothing: a cache-hit sweep parses
its flags without loading the simulator.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Mapping, Optional, Tuple

__all__ = ["parse_spec"]


def parse_spec(
    text: str,
    kind: str,
    converters: Mapping[str, Callable[[str], Any]],
    aliases: Optional[Mapping[str, str]] = None,
) -> Tuple[str, Dict[str, Any]]:
    """Split ``text`` into ``(name, {field: value})``.

    ``converters`` maps every field the spec accepts to the function
    that turns its text into the value (``int``, ``float``, ``str``, …);
    ``aliases`` maps other spellings to field names.  Errors are one
    :class:`ValueError` naming ``kind``, the whole ``text`` and the
    field, e.g. ``bad fault spec 'iid-loss:rate=abc': field 'rate'
    needs a number, got 'abc'``.
    """
    name, _, body = text.partition(":")
    values: Dict[str, Any] = {}
    if body.strip():
        for item in body.split(","):
            key, sep, value = item.partition("=")
            key = key.strip()
            value = value.strip()
            if not sep or not key:
                raise ValueError(
                    f"bad {kind} option {item!r} in {text!r} "
                    f"(expected key=value)")
            if aliases:
                key = aliases.get(key, key)
            convert = converters.get(key)
            if convert is None:
                raise ValueError(
                    f"bad {kind} spec {text!r}: unknown field {key!r}")
            try:
                values[key] = convert(value)
            except ValueError:
                raise ValueError(
                    f"bad {kind} spec {text!r}: field {key!r} needs a "
                    f"number, got {value!r}") from None
    return name.strip(), values
