"""One codec between dataclasses and their JSON/TOML-ready mappings.

Every config section, spec part and result record that crosses a spec
file, a REST body, a TCP reply or a journal maps to a plain mapping the
same way: one key per dataclass field, each value converted by the field's
resolved type hint.  :class:`Mapped` gives a dataclass ``to_mapping`` and
``from_mapping`` by that rule; the per-class plan (one encoder and one
decoder per field) is worked out on first use and cached.  Classes with an
irregular wire shape call :func:`encode`, :func:`decode`,
:func:`decode_value` and :func:`check_keys` for their regular parts.

Types covered: ``int``, ``float``, ``bool``, ``str``, ``Optional[X]``,
``Tuple[X, ...]``, ``List[X]``, ``Dict[str, X]``, enums (as their
``.value``), ``np.ndarray`` (as a list of floats), nested dataclasses and
``Any``/``object`` (passed through).

Decoding rejects non-mappings, unknown keys (with a "did you mean" hint),
missing required fields and values that cannot be coerced, each with a
:class:`~repro.common.exceptions.ConfigurationError` naming ``label.key``.
The coercion rules are one set for every class: integers go through
:func:`as_int`, booleans through :func:`as_bool`, sequences through
:func:`as_sequence`, floats through ``float`` and strings through
:func:`as_str`.

Whether ``None``-valued fields are left out is fixed per class: the
TOML-facing spec sections leave them out (TOML has no null, so absent means
"default"); result records write every key, so two equal records
serialize to the same bytes.
"""

from __future__ import annotations

import dataclasses
import difflib
import enum
import functools
import types
import typing
from collections.abc import Mapping
from typing import Any, Callable, Dict, Iterable, Optional, Tuple, Type, TypeVar

import numpy as np

from repro.common.exceptions import ConfigurationError

__all__ = [
    "Mapped",
    "as_bool",
    "as_int",
    "as_mapping",
    "as_sequence",
    "as_str",
    "check_keys",
    "decode",
    "decode_value",
    "encode",
]

T = TypeVar("T")

#: Where a value sits in the decoded document: a string, or a ``(parent,
#: key)`` pair naming item ``key`` of ``parent`` (``parent.key`` for a
#: field or a mapping key, ``parent[key]`` for an index).  Decoders hand
#: pairs down and format them only when they raise (:func:`_text`).
Label = Any
#: ``(value, label) -> value``: coerce one wire value, naming ``label`` on error.
Decoder = Callable[[Any, Label], Any]
Encoder = Callable[[Any], Any]


def _text(label: Label) -> str:
    """The text of a label: ``parent.key`` or ``parent[index]``, nested."""
    if isinstance(label, str):
        return label
    parent, key = label
    if isinstance(key, int):
        return f"{_text(parent)}[{key}]"
    return f"{_text(parent)}.{key}"


# ----------------------------------------------------------------------
# Coercion rules
# ----------------------------------------------------------------------
def as_int(value: Any) -> int:
    """Coerce to int, rejecting bools, fractional floats and non-numbers."""
    if isinstance(value, bool) or (
        isinstance(value, float) and not value.is_integer()
    ):
        raise ConfigurationError(f"expected an integer, got {value!r}")
    try:
        return int(value)
    except (TypeError, ValueError, OverflowError) as error:
        raise ConfigurationError(f"expected an integer, got {value!r}") from error


def as_bool(value: Any) -> bool:
    """Require an actual boolean — ``bool("false")`` is ``True``, a classic
    spec-file footgun, so strings are rejected rather than coerced."""
    if not isinstance(value, bool):
        raise ConfigurationError(f"expected a boolean, got {value!r}")
    return value


def as_str(value: Any) -> str:
    """Require an actual string — ``str(None)`` is ``"None"`` and
    ``str([1, 2])`` is ``"[1, 2]"``, so other values are rejected rather
    than coerced."""
    if not isinstance(value, str):
        raise ConfigurationError(f"expected a string, got {value!r}")
    return str(value)


def as_sequence(value: Any, label: Label) -> Tuple[Any, ...]:
    """Require a real sequence (a string would iterate per character)."""
    if type(value) is list or type(value) is tuple:  # the wire forms, checked fast
        return tuple(value)
    if isinstance(value, (str, bytes, Mapping)) or not hasattr(value, "__iter__"):
        raise ConfigurationError(f"{_text(label)} must be a list, got {value!r}")
    return tuple(value)


def as_mapping(value: Any, label: Label) -> Mapping[str, Any]:
    """Require a mapping (a TOML table or a JSON object)."""
    if type(value) is not dict and not isinstance(value, Mapping):
        raise ConfigurationError(
            f"{_text(label)} must be a table/mapping, got {value!r}"
        )
    return value


def check_keys(mapping: Any, allowed: Iterable[str], label: Label) -> None:
    """Reject a non-mapping, or a mapping with keys outside ``allowed``.

    A misspelled option must not be silently ignored; the error lists the
    allowed keys and suggests the closest one.
    """
    as_mapping(mapping, label)
    unknown = sorted(set(mapping).difference(allowed), key=str)
    if not unknown:
        return
    allowed = sorted(allowed)
    hints = []
    for key in unknown:
        close = difflib.get_close_matches(str(key), allowed, n=1)
        if close:
            hints.append(f"{key!r} -> did you mean {close[0]!r}?")
    hint = f" ({'; '.join(hints)})" if hints else ""
    raise ConfigurationError(
        f"unknown key(s) {unknown} in {_text(label)} (allowed: {allowed}){hint}"
    )


# ----------------------------------------------------------------------
# Per-type encoders and decoders
# ----------------------------------------------------------------------
def _identity(value: Any) -> Any:
    return value


def _passthrough(value: Any, label: Label) -> Any:
    return value


def _scalar(coerce: Callable[[Any], Any]) -> Decoder:
    def decode_scalar(value: Any, label: Label) -> Any:
        try:
            return coerce(value)
        except (ConfigurationError, TypeError, ValueError, OverflowError) as error:
            raise ConfigurationError(f"invalid {_text(label)}: {error}") from error

    return decode_scalar


_SCALARS: Dict[Any, Tuple[Encoder, Decoder]] = {
    int: (int, _scalar(as_int)),
    float: (float, _scalar(float)),
    bool: (bool, _scalar(as_bool)),
    str: (str, _scalar(as_str)),
}
_as_float = _SCALARS[float][1]


def _optional(encode_item: Encoder, decode_item: Decoder) -> Tuple[Encoder, Decoder]:
    def encode_optional(value: Any) -> Any:
        return None if value is None else encode_item(value)

    def decode_optional(value: Any, label: Label) -> Any:
        return None if value is None else decode_item(value, label)

    return encode_optional, decode_optional


def _sequence(
    encode_item: Encoder, decode_item: Decoder, build: type
) -> Tuple[Encoder, Decoder]:
    def encode_sequence(value: Any) -> list:
        return [encode_item(item) for item in value]

    def decode_sequence(value: Any, label: Label) -> Any:
        return build(
            decode_item(item, (label, index))
            for index, item in enumerate(as_sequence(value, label))
        )

    return encode_sequence, decode_sequence


def _dict(encode_item: Encoder, decode_item: Decoder) -> Tuple[Encoder, Decoder]:
    def encode_dict(value: Mapping) -> dict:
        return {str(key): encode_item(item) for key, item in value.items()}

    def decode_dict(value: Any, label: Label) -> dict:
        return {
            str(key): decode_item(item, (label, str(key)))
            for key, item in as_mapping(value, label).items()
        }

    return encode_dict, decode_dict


def _enum(kind: Type[enum.Enum]) -> Tuple[Encoder, Decoder]:
    def decode_enum(value: Any, label: Label) -> enum.Enum:
        try:
            return kind(value)
        except (TypeError, ValueError) as error:
            choices = [member.value for member in kind]
            raise ConfigurationError(
                f"invalid {_text(label)}: expected one of {choices}, got {value!r}"
            ) from error

    return (lambda value: value.value), decode_enum


def _encode_array(value: Any) -> list:
    return np.asarray(value, dtype=float).tolist()


def _decode_array(value: Any, label: Label) -> np.ndarray:
    return np.array(
        [_as_float(item, (label, index))
         for index, item in enumerate(as_sequence(value, label))],
        dtype=float,
    )


@functools.lru_cache(maxsize=None)
def _codec_of(hint: Any) -> Tuple[Encoder, Decoder]:
    """The encoder and decoder of one resolved type hint."""
    if hint in _SCALARS:
        return _SCALARS[hint]
    if hint is Any or hint is object:
        return _identity, _passthrough
    if hint is np.ndarray:
        return _encode_array, _decode_array
    if isinstance(hint, type) and issubclass(hint, enum.Enum):
        return _enum(hint)
    if isinstance(hint, type) and dataclasses.is_dataclass(hint):
        return encode, functools.partial(decode, hint)
    origin, args = typing.get_origin(hint), typing.get_args(hint)
    if origin in (typing.Union, types.UnionType):
        items = [arg for arg in args if arg is not type(None)]
        if len(items) == 1 and len(args) == 2:
            return _optional(*_codec_of(items[0]))
    elif origin is tuple and len(args) == 2 and args[1] is Ellipsis:
        return _sequence(*_codec_of(args[0]), tuple)
    elif origin is list and len(args) == 1:
        return _sequence(*_codec_of(args[0]), list)
    elif origin is dict and len(args) == 2 and args[0] is str:
        return _dict(*_codec_of(args[1]))
    raise TypeError(f"no mapping codec for type {hint!r}")


# ----------------------------------------------------------------------
# Per-class plans
# ----------------------------------------------------------------------
class _Plan:
    """How one dataclass maps: its options and one codec per field."""

    __slots__ = (
        "label", "omit_none", "tag", "ignored", "encoders", "decoders", "required",
        "allowed", "required_set",
    )

    def __init__(self, cls: type):
        self.label: str = getattr(cls, "_codec_label", None) or cls.__name__
        self.omit_none: bool = getattr(cls, "_codec_omit_none", False)
        self.tag: Optional[str] = getattr(cls, "_codec_tag", None)
        self.ignored: Tuple[str, ...] = getattr(cls, "_codec_ignore_keys", ())
        hints = typing.get_type_hints(cls)
        self.encoders: Tuple[Tuple[str, Encoder], ...] = ()
        self.decoders: Dict[str, Decoder] = {}
        required = []
        for spec in dataclasses.fields(cls):
            if not spec.init:
                continue
            encoder, decoder = _codec_of(hints[spec.name])
            self.encoders += ((spec.name, encoder),)
            self.decoders[spec.name] = decoder
            if (
                spec.default is dataclasses.MISSING
                and spec.default_factory is dataclasses.MISSING
            ):
                required.append(spec.name)
        self.required: Tuple[str, ...] = tuple(required)
        self.required_set = frozenset(required)
        self.allowed = frozenset(
            [*self.decoders, *self.ignored, *([self.tag] if self.tag else [])]
        )


@functools.lru_cache(maxsize=None)
def _plan_of(cls: type) -> _Plan:
    return _Plan(cls)


def encode(record: Any) -> Dict[str, Any]:
    """The mapping form of a dataclass instance, field by field."""
    cls = type(record)
    plan = _plan_of(cls)
    mapping: Dict[str, Any] = {}
    if plan.tag is not None:
        mapping[plan.tag] = getattr(cls, plan.tag)
    for name, encoder in plan.encoders:
        value = getattr(record, name)
        if value is not None:
            mapping[name] = encoder(value)
        elif not plan.omit_none:
            mapping[name] = None
    return mapping


def decode(cls: Type[T], mapping: Any, label: Optional[Label] = None) -> T:
    """Build a ``cls`` instance from its mapping form.

    Raises :class:`ConfigurationError` naming ``label.key`` (``label``
    defaults to the class's own) for a non-mapping, an unknown key, a
    missing required field or a value that cannot be coerced.
    """
    plan = _plan_of(cls)
    label = label or plan.label
    if type(mapping) is not dict or not plan.allowed.issuperset(mapping):
        check_keys(mapping, plan.allowed, label)
    if not mapping.keys() >= plan.required_set:
        missing = [name for name in plan.required if name not in mapping]
        raise ConfigurationError(
            f"{_text(label)} is missing required key(s) {missing}"
        )
    kwargs = {}
    for key, value in mapping.items():
        if key in plan.ignored:
            continue
        if key == plan.tag:
            expected = getattr(cls, key)
            if value != expected:
                raise ConfigurationError(
                    f"invalid {_text(label)}.{key}: expected {expected!r}, got {value!r}"
                )
            continue
        kwargs[key] = plan.decoders[key](value, (label, key))
    try:
        return cls(**kwargs)
    except (TypeError, ValueError, OverflowError) as error:
        raise ConfigurationError(f"invalid {_text(label)}: {error}") from error


def decode_value(hint: Any, value: Any, label: str) -> Any:
    """Coerce one value by a type hint, naming ``label`` on error."""
    return _codec_of(hint)[1](value, label)


class Mapped:
    """Mixin giving a dataclass ``to_mapping``/``from_mapping`` through
    this codec.

    Class keywords fix the per-class choices: ``label`` names the mapping
    in error messages (default: the class name), ``omit_none=True`` leaves
    ``None``-valued fields out of the mapping, ``tag`` names a class
    attribute written first under its own name and checked on decode (the
    injection primitives' ``type``), and ``ignore_keys`` lists keys of an
    enclosing message that decoding accepts and skips.  Subclasses inherit
    them.
    """

    # Unannotated, so the type hints resolved for every subclass stay its
    # fields alone.
    _codec_label = None
    _codec_omit_none = False
    _codec_tag = None
    _codec_ignore_keys = ()

    def __init_subclass__(
        cls,
        *,
        label: Optional[str] = None,
        omit_none: Optional[bool] = None,
        tag: Optional[str] = None,
        ignore_keys: Optional[Tuple[str, ...]] = None,
        **kwargs: Any,
    ):
        super().__init_subclass__(**kwargs)
        if label is not None:
            cls._codec_label = label
        if omit_none is not None:
            cls._codec_omit_none = omit_none
        if tag is not None:
            cls._codec_tag = tag
        if ignore_keys is not None:
            cls._codec_ignore_keys = tuple(ignore_keys)

    def to_mapping(self) -> Dict[str, Any]:
        """A plain, JSON-safe mapping of this record (see :mod:`repro.common.codec`)."""
        return encode(self)

    @classmethod
    def from_mapping(cls: Type[T], mapping: Mapping[str, Any]) -> T:
        """Build from a mapping, rejecting unknown keys and coercing types."""
        return decode(cls, mapping)
