"""The declarative service plane: one object per application (paper §III-C, §IV-B).

The paper's point is that compute is *location-independent*: a client names a
computation semantically and the network decides where it runs.  On the
cluster side that requires one place that knows, for each named application,

* how its parameters are typed (field names, defaults, required-ness,
  aliases) — the schema that turns the flat ``k=v`` name component into
  typed values;
* how a request is validated before admission (paper §IV-B's
  application-specific validations);
* how an admitted request actually computes (the pod-building runner);
* whether its results may be served from the gateway result cache.

:class:`ServiceDefinition` bundles all four, and :class:`ServiceRegistry` is
the single table, from application name or alias to definition, that the
:class:`~repro.core.gateway.Gateway` consults.  Each site builds its table
once, from its own SRA registry and runtime model
(:meth:`ServiceRegistry.with_defaults`).  Adding an application is one
``register()`` call — no gateway edits:

    >>> from repro.core.service import ParamField, ServiceDefinition, ServiceSchema
    >>> definition = ServiceDefinition(
    ...     name="WORDCOUNT",
    ...     runner=WordCountRunner(),
    ...     schema=ServiceSchema(fields=(
    ...         ParamField("sep", str, default=" "),)),
    ...     validator=WordCountValidator(),
    ... )
    >>> gateway.services.register(definition)
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dataclass_field
from typing import TYPE_CHECKING, Any, Iterable, Mapping, Optional

from repro.exceptions import InvalidComputeName, UnknownApplication, ValidationFailure

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (spec imports us)
    from repro.core.spec import ComputeRequest
    from repro.genomics.runtime_model import BlastRuntimeModel
    from repro.genomics.sra import SraRegistry

__all__ = [
    "ParamField",
    "ServiceSchema",
    "ServiceDefinition",
    "ServiceRegistry",
    "ValidationResult",
    "BASE_SCHEMA",
    "wire_number",
]


def wire_number(value: float) -> str:
    """The wire form of a number: ``:g`` when that parses back exactly, else ``repr``.

    ``cpu=2`` keeps its short spelling, while ``1234567`` or ``1.0000001``
    keep every digit instead of rounding to six significant ones.
    """
    short = f"{value:g}"
    return short if float(short) == value else repr(float(value))


@dataclass(frozen=True)
class ValidationResult:
    """Outcome of validating one request."""

    ok: bool
    message: str = "ok"

    def raise_if_failed(self) -> None:
        if not self.ok:
            raise ValidationFailure(self.message)


#: The verdict for a request whose service registers no validator.
_ACCEPTED = ValidationResult(True)


# ---------------------------------------------------------------------------
# Typed parameter schema
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ParamField:
    """One typed parameter of a compute name.

    ``name`` is the canonical wire key; ``aliases`` are accepted on parse but
    always re-encoded under the canonical key, so two spellings of the same
    request map to the same canonical name (and therefore the same caches).
    """

    name: str
    type: type = str
    default: Any = None
    required: bool = False
    aliases: tuple[str, ...] = ()
    minimum: Optional[float] = None
    maximum: Optional[float] = None
    choices: tuple[str, ...] = ()
    doc: str = ""

    def __post_init__(self) -> None:
        if self.type not in (str, float, int):
            raise ValueError(f"ParamField type must be str/float/int, got {self.type!r}")

    # -- parsing -----------------------------------------------------------------

    def parse(self, text: str) -> Any:
        """Convert the wire string into the field's typed value.

        Raises :class:`InvalidComputeName` (never a bare ``ValueError``) so a
        hostile name like ``cpu=abc`` is rejected with a Data error instead of
        crashing the gateway.
        """
        if self.type is str:
            if self.required and not text:
                raise InvalidComputeName(f"compute name has no {self.name} parameter")
            if self.choices and text not in self.choices:
                raise InvalidComputeName(
                    f"parameter {self.name}={text!r} not one of {sorted(self.choices)}"
                )
            return text
        try:
            value = self.type(text)
        except (TypeError, ValueError):
            raise InvalidComputeName(
                f"parameter {self.name}={text!r} is not a valid {self.type.__name__}"
            ) from None
        if isinstance(value, float) and not math.isfinite(value):
            raise InvalidComputeName(f"parameter {self.name}={text!r} is not finite")
        if self.minimum is not None and value < self.minimum:
            raise InvalidComputeName(
                f"parameter {self.name}={value!r} below minimum {self.minimum:g}"
            )
        if self.maximum is not None and value > self.maximum:
            raise InvalidComputeName(
                f"parameter {self.name}={value!r} above maximum {self.maximum:g}"
            )
        return value

    def encode(self, value: Any) -> str:
        """The canonical wire form of a typed value."""
        if isinstance(value, float):
            return wire_number(value)
        return str(value)


class ServiceSchema:
    """An ordered set of :class:`ParamField` with alias canonicalisation."""

    def __init__(self, fields: Iterable[ParamField] = (), allow_extra: bool = True) -> None:
        self.fields: tuple[ParamField, ...] = tuple(fields)
        self.allow_extra = allow_extra
        self._by_key: dict[str, ParamField] = {}
        for field in self.fields:
            for key in (field.name, *field.aliases):
                if key in self._by_key:
                    raise ValueError(f"duplicate schema key {key!r}")
                self._by_key[key] = field

    def field_for(self, key: str) -> Optional[ParamField]:
        return self._by_key.get(key)

    def parse(self, params: Mapping[str, str]) -> tuple[dict[str, Any], dict[str, str]]:
        """Split a wire parameter dict into (typed fields, extra params).

        Alias keys are folded onto the canonical field name; supplying a field
        under two spellings at once is an error rather than a silent override.
        Missing optional fields take their declared default.
        """
        remaining = dict(params)
        typed: dict[str, Any] = {}
        for field in self.fields:
            present_key: Optional[str] = None
            raw: Optional[str] = None
            for key in (field.name, *field.aliases):
                if key in remaining:
                    if present_key is not None:
                        raise InvalidComputeName(
                            f"parameter {key!r} duplicates {present_key!r} "
                            f"(both spell {field.name!r})"
                        )
                    present_key, raw = key, remaining.pop(key)
            if present_key is None:
                if field.required:
                    raise InvalidComputeName(f"compute name has no {field.name} parameter")
                typed[field.name] = field.default
            else:
                typed[field.name] = field.parse(raw if raw is not None else "")
        if remaining and not self.allow_extra:
            raise InvalidComputeName(
                f"unexpected parameter(s) {sorted(remaining)} for this service"
            )
        return typed, remaining


#: The base schema every compute name shares (paper §III-C's
#: ``mem=4&cpu=6&app=BLAST&srr=...&ref=...`` component).  ``memory`` and
#: ``dataset`` are accepted as aliases but always canonicalised to ``mem`` /
#: ``srr`` so legacy names keep parsing identically while alias spellings can
#: no longer split the result cache.
BASE_SCHEMA = ServiceSchema(
    fields=(
        ParamField("app", str, required=True, doc="application name"),
        ParamField("cpu", float, default=2.0, doc="CPU cores requested"),
        ParamField("mem", float, default=4.0, aliases=("memory",), doc="memory in GB"),
        ParamField("srr", str, default=None, aliases=("dataset",), doc="input dataset id"),
        ParamField("ref", str, default=None, doc="reference database"),
    ),
    allow_extra=True,
)


# ---------------------------------------------------------------------------
# Service definitions
# ---------------------------------------------------------------------------


@dataclass
class ServiceDefinition:
    """Everything the service plane needs to know about one application."""

    name: str
    runner: Any
    schema: ServiceSchema = dataclass_field(default_factory=ServiceSchema)
    validator: Any = None
    aliases: tuple[str, ...] = ()
    cacheable: bool = True
    description: str = ""

    def __post_init__(self) -> None:
        self.name = self.name.upper()
        self.aliases = tuple(alias.upper() for alias in self.aliases)


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------


class ServiceRegistry:
    """The gateway's single dispatch table: app name or alias → :class:`ServiceDefinition`."""

    def __init__(self) -> None:
        self._services: dict[str, ServiceDefinition] = {}

    def register(self, definition: ServiceDefinition) -> None:
        """Install a service, or replace the one registered under its name.

        A replaced definition's aliases go with it.  A name or alias that
        another service already holds is refused, so no key is silently
        shadowed.
        """
        replaced = self._services.get(definition.name)
        if replaced is not None and replaced.name != definition.name:
            replaced = None  # the name is another service's alias
        keys = (definition.name, *definition.aliases)
        for key in keys:
            holder = self._services.get(key)
            if holder is not None and holder is not replaced:
                raise ValueError(f"service key {key!r} is already taken by {holder.name!r}")
        if replaced is not None:
            for key in (replaced.name, *replaced.aliases):
                del self._services[key]
        for key in keys:
            self._services[key] = definition

    def try_get(self, app: str) -> Optional[ServiceDefinition]:
        return self._services.get(app.upper())

    def get(self, app: str) -> ServiceDefinition:
        definition = self.try_get(app)
        if definition is None:
            raise UnknownApplication(f"no application registered for {app!r}")
        return definition

    def validate(self, request: "ComputeRequest", datalake: Any = None) -> "ValidationResult":
        """Schema-check then run the service validator (gateway admission path).

        A request for an unregistered application is accepted here (the
        gateway then refuses it as unknown); one whose service has no
        validator needs only to fit its schema.
        """
        definition = self.try_get(request.app)
        if definition is not None:
            try:
                definition.schema.parse(request.params)
            except InvalidComputeName as exc:
                return ValidationResult(False, str(exc))
            if definition.validator is not None:
                return definition.validator.validate(request, datalake)
        return _ACCEPTED

    @classmethod
    def with_defaults(
        cls,
        sra_registry: "Optional[SraRegistry]" = None,
        runtime_model: "Optional[BlastRuntimeModel]" = None,
    ) -> "ServiceRegistry":
        """The service set LIDC ships with: BLAST (+MAGICBLAST), COMPRESS, SLEEP.

        BLAST's runner and validator share the site's ``sra_registry`` and
        ``runtime_model``; fresh ones are made when none are given.
        """
        from repro.core.applications import (
            BlastApplication,
            CompressApplication,
            SleepApplication,
        )
        from repro.core.validation import BlastValidator, CompressionValidator
        from repro.genomics.runtime_model import BlastRuntimeModel
        from repro.genomics.sra import SraRegistry

        if sra_registry is None:
            sra_registry = SraRegistry()
        if runtime_model is None:
            runtime_model = BlastRuntimeModel(registry=sra_registry)
        services = cls()
        services.register(ServiceDefinition(
            name="BLAST",
            runner=BlastApplication(model=runtime_model, registry=sra_registry),
            validator=BlastValidator(registry=sra_registry),
            aliases=("MAGICBLAST",),
            description="Magic-BLAST alignment of an SRA sample against a reference",
        ))
        services.register(ServiceDefinition(
            name="COMPRESS",
            runner=CompressApplication(),
            schema=ServiceSchema(fields=(
                ParamField("level", int, default=6, minimum=1, maximum=9,
                           doc="zlib compression level"),
            )),
            validator=CompressionValidator(),
            description="file compression over a data-lake dataset",
        ))
        services.register(ServiceDefinition(
            name="SLEEP",
            runner=SleepApplication(),
            schema=ServiceSchema(fields=(
                ParamField("duration", float, default=10.0, minimum=0.0,
                           doc="simulated job duration in seconds"),
            )),
            description="fixed-duration no-op application (benchmarks)",
        ))
        return services
