"""Lightweight argument validation helpers, and the one JSON schema path.

The public API of the library validates its inputs eagerly and raises
:class:`ValidationError` with an explicit message rather than failing deep
inside a simulation with an obscure networkx error.

Every JSON document and JSONL line the library reads — specs, their
``policy`` and ``adaptive`` blocks, the ``REPRO_CHAOS`` fault schedule,
churn-trace and artifact lines, a sweep directory's ledgers and manifest —
is a frozen dataclass deriving from :class:`Document`, whose field
annotations are the schema: :meth:`Document.from_dict` refuses missing and
unknown keys and type-checks every field, nested documents and list elements
included, naming the dotted field (``scores[0].score must be a finite
number, got '5'``); :meth:`Document.to_dict` writes the document back as
fresh JSON-native containers.  Each class's own ``validate()`` then checks
only its own rules (ranges, cross-field agreement, registry names), and
:func:`read_jsonl` prefixes a JSONL line's errors with ``<path>:<line>``.
"""

from __future__ import annotations

import json
import math
from dataclasses import MISSING, fields
from functools import cache
from typing import NamedTuple


class ValidationError(ValueError):
    """Raised when a public API receives an invalid argument."""


def require(condition: bool, message: str) -> None:
    """Raise :class:`ValidationError` with ``message`` unless ``condition``."""
    if not condition:
        raise ValidationError(message)


def require_positive(value: float, name: str) -> None:
    """Require ``value > 0``."""
    if value <= 0:
        raise ValidationError(f"{name} must be positive, got {value!r}")


def require_non_negative(value: float, name: str) -> None:
    """Require ``value >= 0``."""
    if value < 0:
        raise ValidationError(f"{name} must be non-negative, got {value!r}")


def require_probability(value: float, name: str) -> None:
    """Require ``0 <= value <= 1``."""
    if not 0.0 <= value <= 1.0:
        raise ValidationError(f"{name} must be a probability in [0, 1], got {value!r}")


def require_in(value, options, name: str) -> None:
    """Require ``value`` to be one of ``options``."""
    if value not in options:
        raise ValidationError(f"{name} must be one of {sorted(options)!r}, got {value!r}")


# -- JSON documents -------------------------------------------------------------

#: Field annotation -> (accepted Python types, its name in error messages).
#: ``bool`` is an ``int`` subclass but never a valid count, number or name;
#: a number is finite (``json`` parses ``NaN`` and ``Infinity``, JSON has
#: neither).  ``object`` is any value, for the fields no reader trusts.
_SCALARS = {
    "str": (str, "a string"),
    "int": (int, "an integer"),
    "float": ((int, float), "a finite number"),
    "bool": (bool, "a boolean"),
    "dict": (dict, "a JSON object"),
    "list": (list, "a JSON array"),
    "object": (object, "any JSON value"),
}

#: Every :class:`Document` subclass by name, so an annotation can nest one.
_DOCUMENTS: dict[str, type] = {}


class _Field(NamedTuple):
    """One field's schema, derived from its annotation and default."""

    types: type | tuple
    expected: str  # "an integer or null"
    optional: bool = False
    required: bool = False
    document: type | None = None  # the nested document class, if any
    element: "_Field | None" = None  # the element schema of a ``list[...]``


def _kind(kind: str) -> _Field:
    """Return the schema of one annotation (without ``| None``)."""
    if kind.startswith("list["):
        return _Field(list, "a JSON array", element=_kind(kind[5:-1]))
    document = _DOCUMENTS.get(kind)
    if document is not None:
        return _Field(document, "a JSON object", document=document)
    return _Field(*_SCALARS[kind])


@cache
def _schema(cls) -> dict[str, _Field]:
    """Return ``field name -> _Field`` for a document class, in field order."""
    schema = {}
    for spec_field in fields(cls):
        kind, _, optional = spec_field.type.partition(" | ")
        field_schema = _kind(kind)
        schema[spec_field.name] = field_schema._replace(
            expected=field_schema.expected + (" or null" if optional else ""),
            optional=bool(optional),
            required=spec_field.name in cls._required
            or (spec_field.default is MISSING and spec_field.default_factory is MISSING),
        )
    return schema


def _nest(value, spec: _Field, path: str, name):
    """Parse the documents nested in ``value``, leaving a mistyped one to :func:`_check`."""
    if spec.document is not None and isinstance(value, dict):
        return spec.document.from_dict(value, f"{path}{name}.")
    if spec.element is not None and isinstance(value, list):
        return [_nest(item, spec.element, path, f"{name}[{i}]") for i, item in enumerate(value)]
    return value


def _check(value, spec: _Field, path: str, name) -> None:
    """Require ``value`` to have the annotated type, list elements included."""
    # Not ``require``: the message is formatted only on failure, and this
    # runs for every field of every point of a sweep.
    if spec.types is object or (value is None and spec.optional):
        return
    if (
        not isinstance(value, spec.types)
        or (isinstance(value, bool) and spec.types is not bool)
        or (isinstance(value, float) and not math.isfinite(value))
    ):
        raise ValidationError(f"{path}{name} must be {spec.expected}, got {value!r}")
    if spec.element is not None:
        for i, item in enumerate(value):
            _check(item, spec.element, path, f"{name}[{i}]")


def _plain(value):
    """Return ``value`` as fresh JSON-native containers."""
    if isinstance(value, Document):
        return value.to_dict()
    if isinstance(value, dict):
        return {key: _plain(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_plain(item) for item in value]
    return value


class Document:
    """Base of the frozen dataclasses that are JSON documents.

    A subclass's field annotations are its schema: ``str``, ``int`` (never a
    ``bool``), ``float`` (finite; an ``int`` too), ``bool``, ``dict``,
    ``list``, ``object`` (any JSON value), the name of another document
    class (a nested JSON object) or ``list[<any of these>]``, each
    optionally ``| None``.  Fields without a default, and those named in
    ``_required``, must be present in a parsed document; fields named in
    ``_omit_none`` are left out of :meth:`to_dict` while ``None``, so
    documents written before the field existed keep their bytes and
    fingerprints.
    """

    _required: tuple = ()
    _omit_none: tuple = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        _DOCUMENTS[cls.__name__] = cls

    @classmethod
    def from_dict(cls, data, path: str = ""):
        """Build a document from a parsed JSON object, checking every field.

        Missing and unknown keys are refused, and every field must have its
        annotated type; errors name the field by its dotted path from the
        outermost document (``path`` is the prefix of a nested one, such as
        ``"adaptive.halving."`` or ``"entries[2]."``).  Defaults come from
        the dataclass.
        """
        if not isinstance(data, dict):
            raise ValidationError(f"a {cls.__name__} must be a JSON object, got {data!r}")
        schema = _schema(cls)
        missing = [path + name for name, spec in schema.items() if spec.required and name not in data]
        if missing:
            raise ValidationError(f"{cls.__name__} requires {', '.join(map(repr, missing))}")
        unknown = sorted(path + name for name in set(data) - set(schema))
        if unknown:
            raise ValidationError(
                f"unknown {cls.__name__} fields {unknown}; known fields: {sorted(schema)}"
            )
        document = cls(
            **{name: _nest(value, schema[name], path, name) for name, value in data.items()}
        )
        document.check_types(path)
        return document

    def check_types(self, path: str = "") -> None:
        """Require every field to hold its annotated type (nested documents by class)."""
        for name, spec in _schema(type(self)).items():
            _check(getattr(self, name), spec, path, name)

    def validate(self):
        """Check the rules beyond field types (a subclass adds its own); return self."""
        return self

    def to_dict(self) -> dict:
        """Return the document as fresh JSON-native containers (stable schema)."""
        return {
            name: _plain(getattr(self, name))
            for name in _schema(type(self))
            if not (name in self._omit_none and getattr(self, name) is None)
        }

    def to_json(self) -> str:
        """Return canonical JSON (sorted keys, 2-space indent, trailing newline)."""
        return json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n"

    @classmethod
    def from_json(cls, text: str):
        """Parse :meth:`to_json` output (or any JSON object) back to a document."""
        return cls.from_dict(json.loads(text))


def read_jsonl(lines, source, parse, skip_unparseable: bool = False, start: int = 1):
    """Yield ``parse(obj).validate()`` for every non-blank line of a JSONL file.

    ``source`` names the file and ``start`` numbers its first line.  A line
    that is not JSON is skipped with ``skip_unparseable`` (a ledger's torn
    tail); otherwise it, and any line of the wrong shape, raises
    ``ValueError("<source>:<line>: ...")``.
    """
    for number, line in enumerate(lines, start):
        try:
            if line.strip():
                yield parse(json.loads(line)).validate()
        except json.JSONDecodeError as error:
            if not skip_unparseable:
                raise ValueError(f"{source}:{number}: not valid JSONL ({error})") from None
        except ValueError as error:  # ValidationError included
            raise ValueError(f"{source}:{number}: {error}") from None
