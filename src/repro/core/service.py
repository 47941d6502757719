"""The declarative service plane: one object per application (paper §III-C, §IV-B).

The paper's point is that compute is *location-independent*: a client names a
computation semantically and the network decides where it runs.  On the
cluster side that requires one place that knows, for each named application,

* how its parameters are typed (field names, defaults, required-ness,
  aliases) — the schema that turns the flat ``k=v`` name component into
  typed values and back;
* how a request is validated before admission (paper §IV-B's
  application-specific validations);
* how an admitted request actually computes (the pod-building runner);
* which per-site runtime context the runner needs (SRA registry, calibrated
  runtime model);
* whether its results may be served from the gateway result cache.

:class:`ServiceDefinition` bundles all five declaratively, and
:class:`ServiceRegistry` is the single dispatch table the
:class:`~repro.core.gateway.Gateway` consults.  Adding an application is one
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

import copy
import math
from dataclasses import dataclass, field as dataclass_field, replace as dataclass_replace
from typing import TYPE_CHECKING, Any, Callable, Iterable, Mapping, Optional

from repro.exceptions import InvalidComputeName, UnknownApplication, ValidationFailure

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (spec imports us)
    from repro.core.spec import ComputeRequest

__all__ = [
    "ParamField",
    "ServiceSchema",
    "ServiceRuntime",
    "ServiceDefinition",
    "ServiceRegistry",
    "ValidationResult",
    "BASE_SCHEMA",
    "default_service_definitions",
]


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
            return f"{value:g}"
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

    def canonicalise(self, params: Mapping[str, str]) -> dict[str, str]:
        """Re-encode a wire parameter dict under canonical keys only.

        The result is what :func:`repro.core.naming.compute_name` should carry
        so that alias spellings cannot split on-path content-store entries or
        the gateway result cache.
        """
        typed, extras = self.parse(params)
        wire: dict[str, str] = {}
        for field in self.fields:
            value = typed[field.name]
            if value is None:
                continue
            wire[field.name] = field.encode(value)
        wire.update(extras)
        return wire

    def encode(self, typed: Mapping[str, Any]) -> dict[str, str]:
        """Encode typed field values (plus pass-through extras) as wire strings."""
        wire: dict[str, str] = {}
        for field in self.fields:
            value = typed.get(field.name)
            if value is None:
                continue
            wire[field.name] = field.encode(value)
        for key, value in typed.items():
            if key not in self._by_key and value is not None:
                wire[key] = str(value)
        return wire

    def describe(self) -> list[dict[str, object]]:
        """A documentation-friendly summary of the schema."""
        return [
            {
                "name": field.name,
                "type": field.type.__name__,
                "default": field.default,
                "required": field.required,
                "aliases": list(field.aliases),
                "doc": field.doc,
            }
            for field in self.fields
        ]


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
class ServiceRuntime:
    """Per-site context handed to runner factories (e.g. the SRA registry
    and calibrated runtime model the BLAST runner is built from)."""

    sra_registry: Any = None
    runtime_model: Any = None
    clock: Optional[Callable[[], float]] = None

    def resolved(self) -> "ServiceRuntime":
        """Fill in default registry/model lazily (imports are heavyweight)."""
        if self.sra_registry is None or self.runtime_model is None:
            from repro.genomics.runtime_model import BlastRuntimeModel
            from repro.genomics.sra import SraRegistry

            if self.sra_registry is None:
                self.sra_registry = SraRegistry()
            if self.runtime_model is None:
                self.runtime_model = BlastRuntimeModel(registry=self.sra_registry)
        return self


@dataclass
class ServiceDefinition:
    """Everything the service plane needs to know about one application.

    Either ``runner`` (a ready instance) or ``runner_factory`` (built once per
    site from the :class:`ServiceRuntime`) must be provided for the service to
    be submittable; a definition with neither is validator-only.
    """

    name: str
    runner: Any = None
    runner_factory: Optional[Callable[[ServiceRuntime], Any]] = None
    schema: ServiceSchema = dataclass_field(default_factory=ServiceSchema)
    validator: Any = None
    aliases: tuple[str, ...] = ()
    cacheable: bool = True
    description: str = ""

    def __post_init__(self) -> None:
        self.name = self.name.upper()
        self.aliases = tuple(alias.upper() for alias in self.aliases)

    @property
    def runnable(self) -> bool:
        return self.runner is not None or self.runner_factory is not None

    def build_runner(self, runtime: ServiceRuntime) -> Any:
        if self.runner is not None:
            return self.runner
        if self.runner_factory is None:
            raise UnknownApplication(f"no application registered for {self.name!r}")
        return self.runner_factory(runtime.resolved())

    def clone(self) -> "ServiceDefinition":
        """A per-site copy: registering one definition on several clusters must
        not alias mutable state (validator runtime binding)."""
        return dataclass_replace(
            self,
            runner=copy.copy(self.runner) if self.runner is not None else None,
            validator=copy.copy(self.validator) if self.validator is not None else None,
        )


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------


class ServiceRegistry:
    """The gateway's single dispatch table: app name → :class:`ServiceDefinition`."""

    def __init__(self, runtime: Optional[ServiceRuntime] = None) -> None:
        self.runtime = (runtime or ServiceRuntime())
        self._services: dict[str, ServiceDefinition] = {}
        self._alias_of: dict[str, str] = {}
        self._runner_cache: dict[str, Any] = {}

    # -- registration -------------------------------------------------------------

    def register(self, definition: ServiceDefinition) -> ServiceDefinition:
        """Install (or replace) a service; aliases resolve to the same definition."""
        canonical = definition.name
        self._services[canonical] = definition
        self._runner_cache.pop(canonical, None)
        if hasattr(definition.validator, "bind"):
            definition.validator.bind(self.runtime)
        # Drop aliases that previously pointed at an older definition of this name.
        for alias, target in list(self._alias_of.items()):
            if target == canonical:
                del self._alias_of[alias]
        for alias in definition.aliases:
            self._alias_of[alias] = canonical
        return definition

    def unregister(self, app: str) -> Optional[ServiceDefinition]:
        canonical = self.resolve(app)
        if canonical is None:
            return None
        definition = self._services.pop(canonical, None)
        self._runner_cache.pop(canonical, None)
        for alias, target in list(self._alias_of.items()):
            if target == canonical:
                del self._alias_of[alias]
        return definition

    # -- lookup -------------------------------------------------------------------

    def resolve(self, app: str) -> Optional[str]:
        """Canonical service name for ``app`` (directly or via alias)."""
        key = app.upper()
        if key in self._services:
            return key
        return self._alias_of.get(key)

    def try_get(self, app: str) -> Optional[ServiceDefinition]:
        canonical = self.resolve(app)
        return self._services.get(canonical) if canonical else None

    def get(self, app: str) -> ServiceDefinition:
        definition = self.try_get(app)
        if definition is None:
            raise UnknownApplication(f"no application registered for {app!r}")
        return definition

    def __contains__(self, app: str) -> bool:
        return self.resolve(app) is not None

    def has_app(self, app: str) -> bool:
        """True when ``app`` names a submittable (runnable) service."""
        definition = self.try_get(app)
        return definition is not None and definition.runnable

    def services(self) -> list[ServiceDefinition]:
        return [self._services[name] for name in sorted(self._services)]

    def applications(self) -> list[str]:
        """Every submittable name, aliases included."""
        names = [name for name, defn in self._services.items() if defn.runnable]
        names.extend(
            alias for alias, target in self._alias_of.items()
            if self._services[target].runnable
        )
        return sorted(names)

    # -- dispatch ----------------------------------------------------------------

    def runner_for(self, app: str) -> Any:
        canonical = self.resolve(app)
        if canonical is None:
            raise UnknownApplication(f"no application registered for {app!r}")
        if canonical not in self._runner_cache:
            self._runner_cache[canonical] = self._services[canonical].build_runner(self.runtime)
        return self._runner_cache[canonical]

    def schema_for(self, app: str) -> ServiceSchema:
        definition = self.try_get(app)
        return definition.schema if definition is not None else ServiceSchema()

    def cacheable(self, app: str) -> bool:
        definition = self.try_get(app)
        return definition.cacheable if definition is not None else True

    def validate(self, request: "ComputeRequest", datalake: Any = None) -> "ValidationResult":
        """Schema-check then run the service validator (gateway admission path).

        A request with no registered validator is accepted.
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

    def describe(self) -> dict[str, object]:
        """Service-plane summary (used by stats and docs)."""
        return {
            definition.name: {
                "aliases": list(definition.aliases),
                "runnable": definition.runnable,
                "validated": definition.validator is not None,
                "cacheable": definition.cacheable,
                "schema": definition.schema.describe(),
                "description": definition.description,
            }
            for definition in self.services()
        }

    # -- defaults -----------------------------------------------------------------

    @classmethod
    def with_defaults(
        cls,
        registry: Any = None,
        model: Any = None,
        runtime: Optional[ServiceRuntime] = None,
    ) -> "ServiceRegistry":
        """The service set LIDC ships with: BLAST (+MAGICBLAST), COMPRESS, SLEEP."""
        if runtime is None:
            runtime = ServiceRuntime(sra_registry=registry, runtime_model=model)
        services = cls(runtime=runtime)
        for definition in default_service_definitions():
            services.register(definition)
        return services


def default_service_definitions() -> list[ServiceDefinition]:
    """Declarative definitions of the built-in LIDC applications."""
    from repro.core.applications import (
        BlastApplication,
        CompressApplication,
        SleepApplication,
    )
    from repro.core.validation import BlastValidator, CompressionValidator

    def blast_runner(runtime: ServiceRuntime) -> BlastApplication:
        return BlastApplication(model=runtime.runtime_model, registry=runtime.sra_registry)

    def blast_validator(runtime: ServiceRuntime) -> BlastValidator:
        return BlastValidator(registry=runtime.sra_registry)

    return [
        ServiceDefinition(
            name="BLAST",
            runner_factory=blast_runner,
            schema=ServiceSchema(),
            validator=_LazyValidator(blast_validator),
            aliases=("MAGICBLAST",),
            description="Magic-BLAST alignment of an SRA sample against a reference",
        ),
        ServiceDefinition(
            name="COMPRESS",
            runner=CompressApplication(),
            schema=ServiceSchema(fields=(
                ParamField("level", int, default=6, minimum=1, maximum=9,
                           doc="zlib compression level"),
            )),
            validator=CompressionValidator(),
            description="file compression over a data-lake dataset",
        ),
        ServiceDefinition(
            name="SLEEP",
            runner=SleepApplication(),
            schema=ServiceSchema(fields=(
                ParamField("duration", float, default=10.0, minimum=0.0,
                           doc="simulated job duration in seconds"),
            )),
            description="fixed-duration no-op application (benchmarks)",
        ),
    ]


class _LazyValidator:
    """Build a validator from the registry runtime on first use.

    Needed because the BLAST validator shares the per-site SRA registry, which
    is only known once the definition lands in a :class:`ServiceRegistry`.
    """

    def __init__(self, factory: Callable[[ServiceRuntime], Any]) -> None:
        self._factory = factory
        self._built: Any = None
        self._runtime: Optional[ServiceRuntime] = None

    def bind(self, runtime: ServiceRuntime) -> None:
        if runtime is not self._runtime:
            self._runtime = runtime
            self._built = None

    def validate(self, request: "ComputeRequest", datalake: Any = None) -> "ValidationResult":
        if self._built is None:
            runtime = (self._runtime or ServiceRuntime()).resolved()
            self._built = self._factory(runtime)
        return self._built.validate(request, datalake)
